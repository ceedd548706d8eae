//! `qbf-ladder`: cold QBF solving of a support ladder on one
//! `StepService` worker with reuse off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use step_aig::{canonicalize, Aig};
use step_core::mg::{self, MgOutcome};
use step_core::optimum::{self, Metric};
use step_core::oracle::{sim_filter_pairs, CoreFormula, PartitionOracle};
use step_core::qbf_model::ModelOptions;
use step_core::{
    cone_seed, extract, verify, BudgetPolicy, CircuitBudget, CircuitResult, DecompConfig,
    EffortMeter, GateOp, Model, OutputJob, OutputResult, SolveSession, StepService, VarPartition,
};

use crate::trace::Trace;
use crate::{check, drive, gen, peak_rss_mb, stats, Args, Driven, Layers, Report};

/// Per-output work budget: generous enough that every ladder cone
/// solves to proved optimality.
const WORK_PER_OUTPUT: u64 = 2_000_000;

/// The two solves of a pass: every cone under QD, the lowest rung also
/// under QDB.
const MODELS: [Model; 2] = [Model::QbfDisjoint, Model::QbfCombined];

fn config(model: Model) -> DecompConfig {
    let mut c = DecompConfig::new(model);
    c.budget = BudgetPolicy::work(WORK_PER_OUTPUT);
    c
}

/// The cost the model itself minimizes: `eD` for QD, `eD + eB` for QDB.
fn model_cost(model: Model, p: &VarPartition) -> f64 {
    match model {
        Model::QbfCombined => p.disjointness() + p.balancedness(),
        _ => p.disjointness(),
    }
}

struct Setup {
    circuits: [Arc<Aig>; 2],
    service: StepService,
}

fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let (all, low) = gen::ladder(seed);
    let mut parsed = Vec::new();
    for (i, aig) in [all, low].iter().enumerate() {
        let text = gen::render(aig, "bench", "ladder");
        let back = trace.span("aig.parse", None, i as u64, || gen::parse(&text, "bench"))?;
        parsed.push(StepService::comb_arc(&back).map_err(|e| e.to_string())?);
    }
    let low = parsed.pop().expect("two circuits");
    let all = parsed.pop().expect("two circuits");
    Ok(Setup {
        circuits: [all, low],
        service: StepService::new(1),
    })
}

struct Pass {
    /// The circuits as the service saw them.
    circuits: [Arc<Aig>; 2],
    /// Per-output service time in ms, in completion order.
    latencies: Vec<f64>,
    /// One circuit result per entry of [`MODELS`].
    results: Vec<CircuitResult>,
    errors: Vec<String>,
}

fn pass(s: Setup, trace: &mut Trace) -> Result<(Pass, Duration), String> {
    let start = Instant::now();
    let mut handles = Vec::new();
    for (circuit, model) in s.circuits.iter().zip(MODELS) {
        let h = s
            .service
            .submit_shared(Arc::clone(circuit), GateOp::Or, config(model))
            .map_err(|e| e.to_string())?;
        handles.push(h);
    }
    // One worker solves the outputs in submission order, so an
    // output's service time is its arrival minus the previous one's.
    let mut prev = start;
    let mut latencies = Vec::new();
    let mut errors = Vec::new();
    for (m, h) in handles.iter_mut().enumerate() {
        while let Some(event) = h.recv() {
            let now = Instant::now();
            latencies.push((now - prev).as_secs_f64() * 1e3);
            let id = (m * 1000 + event.output_index) as u64;
            trace.record("service.output", prev, now, None, id);
            prev = now;
            if let Err(e) = event.result {
                errors.push(format!(
                    "{:?} output {}: {e}",
                    MODELS[m], event.output_index
                ));
            }
        }
    }
    let took = prev - start;
    let mut results = Vec::new();
    for h in handles {
        results.push(h.join().map_err(|e| e.to_string())?);
    }
    Ok((
        Pass {
            circuits: s.circuits,
            latencies,
            results,
            errors,
        },
        took,
    ))
}

/// Checks a later pass against the first, then drops its circuits and
/// extracted decompositions (only the first pass's are checked).
fn slim(first: &Pass, p: &mut Pass) {
    for (r, r0) in p.results.iter_mut().zip(&first.results) {
        for (o, o0) in r.outputs.iter_mut().zip(&r0.outputs) {
            if image(o) != image(o0) {
                p.errors.push(format!("differs from pass 0 on {}", o.name));
            }
            o.decomposition = None;
        }
    }
    p.circuits = first.circuits.clone();
}

/// The deterministic image of an output: what must repeat exactly in
/// every pass (and in the traced replay).
fn image(o: &OutputResult) -> String {
    format!(
        "{} {:?} {} {} {} {}",
        o.name,
        o.partition.as_ref().map(|p| format!("{p:?}")),
        o.solved,
        o.proved_optimal,
        o.timed_out,
        o.effort.conflicts
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
        for o in p.results.iter().flat_map(|r| &r.outputs) {
            report.tally.attempted += 1;
            report.tally.solved += u64::from(o.solved && !o.timed_out);
            report.tally.decomposed += u64::from(o.partition.is_some());
        }
        for e in &p.errors {
            report.fail(format!("pass {i}: {e}"));
        }
    }

    // Independent check of the first pass, and the deterministic
    // metrics over its attempted outputs.
    let mut cost = Vec::new();
    for ((r, model), circuit) in first.results.iter().zip(MODELS).zip(circuits) {
        for o in &r.outputs {
            let Some(p) = &o.partition else { continue };
            cost.push(model_cost(model, p));
            let cone = circuit.cone(circuit.outputs()[o.output_index].lit());
            let checked = match &o.decomposition {
                Some(d) => check::decomposition(&cone, d),
                None => Err("partition without an extracted decomposition".into()),
            };
            if let Err(e) = checked {
                report.fail(format!("{model:?} {}: {e}", o.name));
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
    let t = report.tally;
    report.put("solved_ratio", t.ratio(t.solved), "ratio");
    report.put("decomposed_ratio", t.ratio(t.decomposed), "ratio");
    report.put("partition_cost", stats::mean(&cost), "ratio");
    let conflicts: u64 = first
        .results
        .iter()
        .map(|r| r.total_effort().conflicts)
        .sum();
    report.put("work_conflicts", conflicts as f64, "count");

    if !trace.is_on() {
        return Ok((report, None));
    }
    let mut layers = Layers::new();
    layers.insert("trace.outputs_per_s", stats::median(&rates));
    let mut effort = step_core::EffortStats::default();
    let (mut sat_calls, mut qbf_calls, mut cegar) = (0u64, 0u64, 0u64);
    for r in &first.results {
        effort += r.total_effort();
        sat_calls += r.total_sat_calls();
        qbf_calls += r.total_qbf_calls();
        cegar += r.total_cegar_iterations();
    }
    let waits: Vec<f64> = first
        .results
        .iter()
        .map(|r| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    layers.insert("sat.conflicts", effort.conflicts as f64);
    layers.insert("sat.propagations", effort.propagations as f64);
    layers.insert("oracle.sat_calls", sat_calls as f64);
    layers.insert("qbf.calls", qbf_calls as f64);
    layers.insert("qbf.cegar_iterations", cegar as f64);
    layers.insert("service.queue_wait_ms", stats::mean(&waits));
    layers.insert("partition.cost", stats::mean(&cost));

    trace.absorb(setup_trace);
    trace.absorb(pass_trace);
    let (mut session_total, mut replayed_total, mut replays) = (Duration::ZERO, Duration::ZERO, 0);
    for ((r, model), circuit) in first.results.iter().zip(MODELS).zip(circuits) {
        for o in &r.outputs {
            let id = (model as u64) << 32 | o.output_index as u64;
            match replay(trace, circuit, o, model, id) {
                Ok((session, stages)) => {
                    session_total += session;
                    replayed_total += stages;
                    replays += 1;
                }
                Err(e) => report.fail(format!("replay of {model:?} {}: {e}", o.name)),
            }
        }
    }
    let solving = trace.total("mg.bootstrap") + trace.total("optimum.search");
    layers.insert("aig.parse_ms", trace.mean_ms("aig.parse"));
    layers.insert(
        "aig.canonicalize_us",
        trace.mean_ms("aig.canonicalize") * 1e3,
    );
    layers.insert("oracle.build_ms", trace.mean_ms("oracle.build"));
    layers.insert("mg.bootstrap_ms", trace.mean_ms("mg.bootstrap"));
    layers.insert("optimum.search_ms", trace.mean_ms("optimum.search"));
    layers.insert(
        "qbf.us_per_cegar_iteration",
        trace.total("optimum.search").as_secs_f64() * 1e6 / cegar.max(1) as f64,
    );
    layers.insert(
        "sat.propagations_per_s",
        effort.propagations as f64 / solving.as_secs_f64().max(1e-9),
    );
    layers.insert("extract.ms", trace.mean_ms("extract"));
    layers.insert("verify.ms", trace.mean_ms("verify"));
    layers.insert("session.ms", trace.mean_ms("session"));
    layers.insert(
        "session.coverage_ratio",
        replayed_total.as_secs_f64() / session_total.as_secs_f64().max(1e-9),
    );
    layers.insert("session.replays", f64::from(replays));
    Ok((report, Some(layers)))
}

/// Solves one cone twice outside the service: once through
/// `SolveSession::run`, once stage by stage through each layer's public
/// function in the session's order, and checks both against the
/// service's answer. Returns the session's time and the replayed
/// stages' summed time.
fn replay(
    trace: &mut Trace,
    circuit: &Aig,
    served: &OutputResult,
    model: Model,
    id: u64,
) -> Result<(Duration, Duration), String> {
    let cfg = config(model);
    let op = GateOp::Or;
    let idx = served.output_index;
    let root = trace.open("cone", None, id);

    let t = Instant::now();
    let job = OutputJob::new(&cfg, idx, op)
        .with_circuit(CircuitBudget::anchored(cfg.budget.per_circuit, t));
    let session = SolveSession::new(circuit, job, &cfg, None, None)
        .and_then(SolveSession::run)
        .map_err(|e| e.to_string())?;
    let session_time = t.elapsed();
    trace.record("session", t, Instant::now(), root, id);
    if image(&session) != image(served) {
        return Err(format!(
            "session answered {} but the service {}",
            image(&session),
            image(served)
        ));
    }

    let start = Instant::now();
    let meter_start = Instant::now();
    let cone = trace.span("aig.cone", root, id, || {
        circuit.cone(circuit.outputs()[idx].lit())
    });
    let canon = trace.span("aig.canonicalize", root, id, || {
        canonicalize(&cone.aig, cone.root)
    });
    let candidates = trace.span("oracle.sim_filter", root, id, || {
        sim_filter_pairs(
            &canon.aig,
            canon.root,
            op,
            cfg.sim_rounds,
            cone_seed(cfg.seed, canon.fingerprint.hash),
        )
    });
    let mut oracle = trace.span("oracle.build", root, id, || {
        let core = CoreFormula::build(&canon.aig, canon.root, op);
        PartitionOracle::with_options(core, cfg.sat_restarts, cfg.sat_preprocess)
    });
    let mut meter = EffortMeter::new(
        meter_start,
        cfg.budget.per_output,
        &CircuitBudget::default(),
    );
    let boot = trace.span("mg.bootstrap", root, id, || {
        mg::decompose(&mut oracle, Some(&candidates), &mut meter)
    });
    let bootstrap = match boot {
        MgOutcome::Partition(p) | MgOutcome::TruncatedPartition(p) => Some(p),
        MgOutcome::NotDecomposable | MgOutcome::Timeout => None,
    };
    let canonical = match &bootstrap {
        None => None,
        Some(b) => {
            let metric = match model {
                Model::QbfCombined => Metric::Combined,
                _ => Metric::Disjointness,
            };
            let opts = ModelOptions {
                symmetry_breaking: cfg.symmetry_breaking,
                allow_both: cfg.allow_both,
                per_call: cfg.budget.per_qbf_call,
                restarts: cfg.sat_restarts,
                preprocess: cfg.sat_preprocess,
            };
            let search = trace.span("optimum.search", root, id, || {
                optimum::search(
                    oracle.core(),
                    metric,
                    Some(b),
                    cfg.effective_strategy(),
                    &opts,
                    &mut meter,
                )
            });
            search.partition.or(bootstrap)
        }
    };
    let partition = canonical.map(|p| {
        VarPartition::new(
            (0..cone.support_size())
                .map(|i| p.classes()[canon.perm[i]])
                .collect(),
        )
    });
    if let Some(p) = &partition {
        let d = trace
            .span("extract", root, id, || {
                extract(&cone.aig, cone.root, op, p, None)
            })
            .map_err(|e| format!("extract: {e}"))?;
        trace
            .span("verify", root, id, || verify(&d, None))
            .map_err(|e| format!("verify: {e}"))?;
    }
    let stages = start.elapsed();
    trace.close(root);

    if partition != served.partition {
        return Err(format!(
            "replay partition {partition:?}, service {:?}",
            served.partition
        ));
    }
    let conflicts = meter.spent().conflicts;
    if conflicts != served.effort.conflicts {
        return Err(format!(
            "replay spent {conflicts} conflicts, service {}",
            served.effort.conflicts
        ));
    }
    Ok((session_time, stages))
}
