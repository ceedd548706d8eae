//! `perfbench` — one workload of the STEP benchmark per process.
//!
//! ```text
//! perfbench --workload <qbf-ladder|synth-recursive|served-twins>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --step-bin <path to step> --out <dir>
//! ```
//!
//! Prints one `metric <name> <value> <unit> [n=<samples>]` line per
//! metric and a closing `result correct=<bool> attempted=<n>
//! failed=<n>` line; `perfbench/run.py` builds the binaries, runs this
//! and turns those lines into the benchmark's JSON result. See
//! `perfbench/README.md` for what each workload and metric means.

mod check;
mod gen;
mod ladder;
mod served;
mod stats;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Metric, Tally};
use trace::Trace;

/// Command-line options.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    step_bin: PathBuf,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <qbf-ladder|synth-recursive|served-twins> \
                     --seed <n> --seconds <s> --trace <0|1> [--step-bin path] [--out dir]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        step_bin: PathBuf::from("step"),
        out: PathBuf::from("perfbench/out"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--step-bin" => args.step_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Timed passes per run, at least: the run reports the median pass.
const MIN_PASSES: usize = 3;

/// Set-ups timed before each of the first [`MIN_PASSES`] passes (the
/// last one feeds the pass); later passes get one each. Spreading the
/// set-up samples over the run keeps one noisy moment from setting
/// their median, `setup_s`.
const SETUPS_PER_PASS: usize = 7;

/// What [`drive`] measured.
pub struct Driven<P> {
    /// Every set-up's time, in seconds.
    pub setups: Vec<f64>,
    /// Every pass's result.
    pub passes: Vec<P>,
    /// Every pass's measured time, in seconds.
    pub secs: Vec<f64>,
}

/// Repeats set-ups and a timed pass until the passes have measured
/// about `seconds` (it stops once another pass would overshoot by more
/// than it leaves short), with at least [`MIN_PASSES`] passes. `pass`
/// consumes a fresh set-up (so no pass inherits another's caches),
/// tears it down itself and returns its result with the time it
/// measured, which excludes the teardown. Extra set-ups are dropped
/// unmeasured. `slim` gets every later pass beside the first: it
/// compares the two and drops what the run no longer needs, so the
/// results kept do not grow the process with the pass count.
pub fn drive<S, P>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut pass: impl FnMut(S) -> Result<(P, Duration), String>,
    mut slim: impl FnMut(&P, &mut P),
) -> Result<Driven<P>, String> {
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut secs: Vec<f64> = Vec::new();
    let short = |secs: &[f64]| {
        let sum: f64 = secs.iter().sum();
        sum + sum / secs.len().max(1) as f64 / 2.0 < seconds
    };
    while passes.len() < MIN_PASSES || short(&secs) {
        let k = if passes.len() < MIN_PASSES {
            SETUPS_PER_PASS
        } else {
            1
        };
        let mut state = None;
        for _ in 0..k {
            drop(state.take());
            let start = Instant::now();
            let fresh = setup()?;
            setups.push(start.elapsed().as_secs_f64());
            state = Some(fresh);
        }
        let (mut p, took) = pass(state.expect("at least one set-up"))?;
        if let Some(first) = passes.first() {
            slim(first, &mut p);
        }
        secs.push(took.as_secs_f64());
        passes.push(p);
    }
    Ok(Driven {
        setups,
        passes,
        secs,
    })
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Every metric, end-to-end and per-layer.
    pub metrics: Vec<Metric>,
    /// Operations attempted (outputs, synthesized POs or requests) and
    /// their outcomes, over every pass.
    pub tally: Tally,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.tally.failed += 1;
        self.failures.push(why);
    }

    /// Latency metrics from each pass's samples: p50, p90 and the tail
    /// percentile (the highest that keeps ten samples beyond it in one
    /// pass; `latency_tail_ms`, also printed under its own name when
    /// above p90). Each is the median over passes of that pass's
    /// percentile; `n=` counts every sample.
    pub fn latencies(&mut self, passes_ms: &[Vec<f64>]) {
        let per_pass = passes_ms.iter().map(Vec::len).min().unwrap_or(0);
        let n = passes_ms.iter().map(Vec::len).sum();
        let Some(tail) = stats::tail_percentile(per_pass) else {
            self.failures
                .push(format!("workload too small: {per_pass} samples per pass"));
            return;
        };
        let at = |p| {
            stats::median(
                &passes_ms
                    .iter()
                    .map(|s| stats::percentile(s, p))
                    .collect::<Vec<_>>(),
            )
        };
        let mut names = vec![
            ("latency_p50_ms".to_owned(), 50.0),
            ("latency_p90_ms".to_owned(), 90.0),
        ];
        if tail > 90.0 {
            names.push((
                format!("latency_p{}_ms", tail.to_string().replace('.', "_")),
                tail,
            ));
        }
        names.push(("latency_tail_ms".to_owned(), tail));
        for (name, p) in names {
            self.metrics
                .push(Metric::with_samples(&name, at(p), "ms", n));
        }
    }

    /// The end-to-end metrics every workload shares. `pass_rates` is
    /// each pass's outputs per second; the run reports their median.
    pub fn common(
        &mut self,
        setups: &[f64],
        pass_rates: &[f64],
        pass_secs: &[f64],
        peak_rss_mb: f64,
    ) {
        self.put("setup_s", stats::median(setups), "s");
        self.put("outputs_per_s", stats::median(pass_rates), "1/s");
        self.put("timed_s", pass_secs.iter().sum(), "s");
        self.put("passes", pass_rates.len() as f64, "count");
        self.put("peak_rss_mb", peak_rss_mb, "MB");
        self.put("error_ratio", self.tally.error_ratio(), "ratio");
        self.put("ok_ratio", self.tally.ok_ratio(), "ratio");
    }
}

/// Every per-layer metric with its unit. A traced run prints all of
/// them; a layer a workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("aig.parse_ms", "ms"),
    ("aig.canonicalize_us", "us"),
    ("store.result_hit_ratio", "ratio"),
    ("bank.hit_ratio", "ratio"),
    ("bank.donated_clauses", "count"),
    ("oracle.build_ms", "ms"),
    ("oracle.sat_calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("mg.bootstrap_ms", "ms"),
    ("optimum.search_ms", "ms"),
    ("qbf.calls", "count"),
    ("qbf.cegar_iterations", "count"),
    ("qbf.us_per_cegar_iteration", "us"),
    ("extract.ms", "ms"),
    ("verify.ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("synth.nodes_expanded", "count"),
    ("synth.bdd_splits", "count"),
    ("synth.miter_ms", "ms"),
    ("synth.gates", "count"),
    ("synth.depth", "count"),
    ("partition.cost", "ratio"),
    ("serve.codec_us", "us"),
    ("serve.bytes_per_request", "bytes"),
    ("serve.overhead_ms", "ms"),
    ("serve.refused", "count"),
    ("session.ms", "ms"),
    ("session.coverage_ratio", "ratio"),
    ("session.replays", "count"),
    ("trace.outputs_per_s", "1/s"),
    ("trace.spans", "count"),
];

/// Per-layer values a workload measured, by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn emit_layers(report: &mut Report, layers: &Layers) {
    for (name, unit) in LAYER_METRICS {
        report.put(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    debug_assert!(
        layers
            .keys()
            .all(|k| LAYER_METRICS.iter().any(|(n, _)| n == k)),
        "unlisted layer metric"
    );
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<(Report, Trace), String> {
    let mut trace = Trace::new(args.trace, Instant::now());
    let (mut report, layers) = match args.workload.as_str() {
        "qbf-ladder" => ladder::run(args, &mut trace)?,
        "synth-recursive" => synth::run(args, &mut trace)?,
        "served-twins" => served::run(args, &mut trace)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    if let Some(mut layers) = layers {
        layers.insert("trace.spans", trace.count_all() as f64);
        emit_layers(&mut report, &layers);
    }
    Ok((report, trace))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, trace) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace.is_on() {
        for (name, t) in trace.self_times() {
            println!("# self_ms {name} {:.3}", t.as_secs_f64() * 1e3);
        }
        let path = args
            .out
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, trace.to_jsonl()));
        match written {
            Ok(()) => println!("# trace {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &report.metrics {
        println!("{}", m.line());
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "result correct={correct} attempted={} failed={}",
        report.tally.attempted, report.tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
