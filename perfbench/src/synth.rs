//! `synth-recursive`: `SynthDriver` over the full-scale registry, one
//! worker, result cache and clause bank on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use step_aig::{canonicalize, Aig};
use step_core::{Budget, ClauseBank, DecompConfig, Model, ResultCache, StepService, TieredStore};
use step_synth::{network_equivalent, SynthDriver, SynthOptions, SynthOutput};

use crate::trace::Trace;
use crate::{check, drive, gen, peak_rss_mb, stats, Args, Driven, Layers, Report};

/// Per-node work budget: the `step synthesize` default.
const WORK_PER_NODE: u64 = 20_000;

struct Setup {
    circuits: Vec<Aig>,
    bank: Arc<ClauseBank>,
    service: StepService,
}

fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let mut circuits = Vec::new();
    for (i, (name, aig)) in gen::synth_circuits(seed).into_iter().enumerate() {
        let text = gen::render(&aig, "blif", &name);
        circuits.push(trace.span("aig.parse", None, i as u64, || gen::parse(&text, "blif"))?);
    }
    let bank = Arc::new(ClauseBank::new());
    let store = TieredStore::memory(Some(Arc::new(ResultCache::new())), Some(Arc::clone(&bank)));
    Ok(Setup {
        circuits,
        bank,
        service: StepService::spawn_with_store(1, Arc::new(store)),
    })
}

struct Pass {
    circuits: Vec<Aig>,
    latencies: Vec<f64>,
    /// Per circuit, per output.
    outputs: Vec<Vec<SynthOutput>>,
    /// Outputs synthesized, and those not truncated by a budget.
    attempted: u64,
    solved: u64,
    /// Whether this pass's networks differ from the first pass's.
    differs: bool,
    bank_hits: u64,
    bank_lookups: u64,
}

fn pass(s: Setup, trace: &mut Trace) -> Result<(Pass, Duration), String> {
    let mut config = DecompConfig::new(Model::QbfDisjoint);
    config.clause_reuse = true;
    config.budget.per_qbf_call = Budget::Unlimited;
    // A traced run checks the network itself, inside a span of its own.
    let opts = SynthOptions {
        per_node: Budget::Work(WORK_PER_NODE),
        verify: !trace.is_on(),
        ..SynthOptions::default()
    };
    let driver = SynthDriver::new(&s.service, config, opts);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut outputs = Vec::new();
    for (c, aig) in s.circuits.iter().enumerate() {
        let mut outs = Vec::new();
        for i in 0..aig.num_outputs() {
            let id = (c as u64) << 32 | i as u64;
            let t = Instant::now();
            let out = trace
                .span("synth.synthesize", None, id, || driver.synthesize(aig, i))
                .map_err(|e| format!("circuit {c} output {i}: {e}"))?;
            if trace.is_on() {
                trace
                    .span("synth.miter", None, id, || {
                        network_equivalent(aig, i, &out.tree, None)
                    })
                    .map_err(|e| format!("circuit {c} output {i}: {e}"))?;
            }
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            outs.push(out);
        }
        outputs.push(outs);
    }
    let took = start.elapsed();
    let all = || outputs.iter().flatten();
    let attempted = all().count() as u64;
    let solved = all().filter(|o| !o.stats.truncated).count() as u64;
    Ok((
        Pass {
            circuits: s.circuits,
            latencies,
            attempted,
            solved,
            differs: false,
            outputs,
            bank_hits: s.bank.hits(),
            bank_lookups: s.bank.hits() + s.bank.misses(),
        },
        took,
    ))
}

/// Checks a later pass against the first, then drops its circuits and
/// networks (only the first pass's are checked).
fn slim(first: &Pass, p: &mut Pass) {
    let images = |q: &Pass| q.outputs.iter().flatten().map(image).collect::<Vec<_>>();
    p.differs = images(p) != images(first);
    p.circuits = Vec::new();
    p.outputs = Vec::new();
}

/// The deterministic image of one synthesized output.
fn image(o: &SynthOutput) -> String {
    format!(
        "{} {} {} {} {} {}\n{}",
        o.name,
        o.stats.nodes_expanded,
        o.stats.qbf_gates,
        o.stats.bdd_splits,
        o.stats.truncated,
        o.stats.effort.conflicts,
        o.tree.render()
    )
}

pub fn run(args: &Args, trace: &mut Trace) -> Result<(Report, Option<Layers>), String> {
    let mut setup_trace = trace.fork();
    let mut pass_trace = trace.fork();
    let Driven {
        setups,
        passes,
        secs,
    } = drive(
        args.seconds,
        || setup(args.seed, &mut setup_trace),
        |s| pass(s, &mut pass_trace),
        slim,
    )?;
    let rss = peak_rss_mb(None);

    let mut report = Report::default();
    let first = &passes[0];
    let circuits = &first.circuits;
    let per_pass = first.latencies.len();
    for (i, p) in passes.iter().enumerate() {
        report.tally.attempted += p.attempted;
        report.tally.solved += p.solved;
        if p.differs {
            report.fail(format!(
                "pass {i} synthesized a different network than pass 0"
            ));
        }
    }

    let (mut gates, mut depth, mut expanded, mut engine_gates) = (0, 0, 0, 0);
    for (aig, outs) in circuits.iter().zip(&first.outputs) {
        for o in outs {
            gates += o.tree.num_gates();
            depth = depth.max(o.tree.depth());
            expanded += o.stats.nodes_expanded;
            engine_gates += o.stats.qbf_gates;
            if let Err(e) = check::network(aig, o.output_index, &o.tree) {
                report.fail(format!("{}: {e}", o.name));
            }
        }
    }
    let rates: Vec<f64> = secs.iter().map(|s| per_pass as f64 / s).collect();
    report.common(&setups, &rates, &secs, rss);
    report.latencies(
        &passes
            .iter()
            .map(|p| p.latencies.clone())
            .collect::<Vec<_>>(),
    );
    report.put(
        "solved_ratio",
        report.tally.ratio(report.tally.solved),
        "ratio",
    );
    // The base is the node expansions attempted: the share of them the
    // engine bi-decomposed (the rest became BDD splits or leaves).
    report.put(
        "decomposed_ratio",
        stats::ratio(engine_gates, expanded),
        "ratio",
    );
    report.put("synth_gates", gates as f64, "count");
    report.put("synth_depth", depth as f64, "count");
    let conflicts: u64 = first
        .outputs
        .iter()
        .flatten()
        .map(|o| o.stats.effort.conflicts)
        .sum();
    report.put("work_conflicts", conflicts as f64, "count");

    if !trace.is_on() {
        return Ok((report, None));
    }
    trace.absorb(setup_trace);
    trace.absorb(pass_trace);
    for (c, aig) in circuits.iter().enumerate() {
        for o in aig.outputs() {
            let cone = aig.cone(o.lit());
            trace.span("aig.canonicalize", None, c as u64, || {
                canonicalize(&cone.aig, cone.root)
            });
        }
    }
    let outs: Vec<&SynthOutput> = first.outputs.iter().flatten().collect();
    let sum = |f: &dyn Fn(&SynthOutput) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    let hits = sum(&|o| o.stats.cache_hits);
    let lookups = hits + sum(&|o| o.stats.cache_misses);
    let propagations = sum(&|o| o.stats.effort.propagations);
    let mut layers = Layers::new();
    layers.insert("trace.outputs_per_s", stats::median(&rates));
    layers.insert("aig.parse_ms", trace.mean_ms("aig.parse"));
    layers.insert(
        "aig.canonicalize_us",
        trace.mean_ms("aig.canonicalize") * 1e3,
    );
    layers.insert("store.result_hit_ratio", hits / lookups.max(1.0));
    layers.insert(
        "bank.hit_ratio",
        first.bank_hits as f64 / first.bank_lookups.max(1) as f64,
    );
    layers.insert("bank.donated_clauses", sum(&|o| o.stats.donated_clauses));
    layers.insert("oracle.sat_calls", sum(&|o| o.stats.sat_calls));
    layers.insert("sat.conflicts", sum(&|o| o.stats.effort.conflicts));
    layers.insert("sat.propagations", propagations);
    layers.insert(
        "sat.propagations_per_s",
        propagations / trace.total("synth.synthesize").as_secs_f64().max(1e-9),
    );
    layers.insert("synth.nodes_expanded", expanded as f64);
    layers.insert("synth.bdd_splits", sum(&|o| o.stats.bdd_splits));
    layers.insert("synth.miter_ms", trace.mean_ms("synth.miter"));
    layers.insert("synth.gates", gates as f64);
    layers.insert("synth.depth", depth as f64);
    Ok((report, Some(layers)))
}
