//! `served-twins`: `step serve --jobs 2` under two closed-loop clients
//! sending registry circuits, their permuted twins and near-twins.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use step_aig::canonicalize;
use step_core::{
    extract, verify, Budget, CircuitResult, DecompConfig, GateOp, Model, OutputResult, ResultCache,
    StepService, TieredStore,
};
use step_serve::frame::{read_frame, write_frame};
use step_serve::proto::{
    ClientFrame, ErrorCode, OutputRow, ServerFrame, SubmitRequest, PROTO_VERSION,
};

use crate::gen::{self, Request};
use crate::trace::Trace;
use crate::{check, drive, peak_rss_mb, stats, Args, Driven, Layers, Report};

/// The per-output budget every request carries.
const BUDGET: &str = "work:200k";
/// Closed-loop client connections.
const CLIENTS: usize = 2;

/// A running `step serve`; killed if dropped before a clean shutdown.
struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(step: &Path) -> Result<Server, String> {
        let mut child = Command::new(step)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", step.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => server.addr = addr.to_owned(),
            _ => return Err(format!("step serve did not report its address: {line:?}")),
        }
        Ok(server)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr, None)?;
        write_frame(&mut c.writer, &ClientFrame::Shutdown.render()).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("step serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("step serve did not exit after shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str, tenant: Option<String>) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut c = Client {
            reader,
            writer: stream,
        };
        let hello = ClientFrame::Hello {
            proto: PROTO_VERSION,
            tenant,
        };
        write_frame(&mut c.writer, &hello.render()).map_err(|e| e.to_string())?;
        match c.recv()?.0 {
            ServerFrame::HelloOk => Ok(c),
            other => Err(format!("expected hello_ok, got {other:?}")),
        }
    }

    /// Reads one frame; also returns its wire size and parse time.
    fn recv(&mut self) -> Result<(ServerFrame, usize, Duration), String> {
        let text = read_frame(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        let t = Instant::now();
        let frame = ServerFrame::parse(&text).map_err(|e| format!("bad frame: {e}"))?;
        Ok((frame, 4 + text.len(), t.elapsed()))
    }
}

struct Setup {
    requests: Vec<Request>,
    server: Server,
    clients: Vec<Client>,
}

fn setup(seed: u64, step: &Path) -> Result<Setup, String> {
    let (_, requests) = gen::served_stream(seed);
    let server = Server::spawn(step)?;
    let clients = (0..CLIENTS)
        .map(|k| Client::connect(&server.addr, Some(format!("client{k}"))))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        requests,
        server,
        clients,
    })
}

/// The comparable part of a row (the server's `cpu_ms` is left out).
fn row_image(r: &OutputRow) -> String {
    let p = r.partition.as_ref().map(|p| {
        (
            p.num_a,
            p.num_b,
            p.num_shared,
            p.disjointness.to_bits(),
            p.balancedness.to_bits(),
        )
    });
    format!(
        "{} {} {} {p:?} {} {}",
        r.index, r.name, r.support, r.proved_optimal, r.timed_out
    )
}

/// The row `step serve` sends for an in-process result.
fn row_of(o: &OutputResult) -> OutputRow {
    OutputRow {
        req: 0,
        index: o.output_index as u64,
        name: o.name.clone(),
        support: o.support as u64,
        partition: o
            .partition
            .as_ref()
            .map(|p| step_serve::proto::PartitionRow {
                num_a: p.num_a() as u64,
                num_b: p.num_b() as u64,
                num_shared: p.num_shared() as u64,
                disjointness: p.disjointness(),
                balancedness: p.balancedness(),
            }),
        proved_optimal: o.proved_optimal,
        timed_out: o.timed_out,
        cpu_ms: 0,
    }
}

/// What one request came back with.
#[derive(Default)]
struct Reply {
    /// Row images in output order; `None` if the request failed.
    rows: Option<Vec<String>>,
    error: Option<String>,
    refused: bool,
    round_trip_ms: f64,
    codec: Duration,
    bytes: usize,
    cpu_ms: u64,
    queue_wait_ms: u64,
}

fn send_one(c: &mut Client, req: u64, r: &Request) -> Result<Reply, String> {
    let start = Instant::now();
    let frame = ClientFrame::Submit(Box::new(SubmitRequest {
        req,
        format: r.format.to_owned(),
        circuit: r.text.clone(),
        op: "or".to_owned(),
        model: "qd".to_owned(),
        budget: Some(BUDGET.to_owned()),
        circuit_budget: None,
        qbf_budget: None,
        seed: None,
        sat_restarts: None,
        sat_preprocess: false,
        deadline_ms: None,
    }))
    .render();
    write_frame(&mut c.writer, &frame).map_err(|e| format!("send: {e}"))?;
    let mut reply = Reply {
        codec: start.elapsed(),
        bytes: 4 + frame.len(),
        ..Reply::default()
    };
    let mut rows = Vec::new();
    loop {
        let (frame, size, parse) = c.recv()?;
        reply.bytes += size;
        reply.codec += parse;
        match frame {
            ServerFrame::Accepted { .. } => {}
            ServerFrame::Output(row) => {
                reply.cpu_ms += row.cpu_ms;
                rows.push(row);
            }
            ServerFrame::Done { queue_wait_ms, .. } => {
                reply.queue_wait_ms = queue_wait_ms;
                rows.sort_by_key(|r| r.index);
                reply.rows = Some(rows.iter().map(row_image).collect());
                break;
            }
            ServerFrame::Error { code, message, .. } => {
                reply.refused = matches!(code, ErrorCode::OverQuota | ErrorCode::QueueFull);
                reply.error = Some(format!("{}: {message}", code.label()));
                break;
            }
            ServerFrame::HelloOk => return Err("unexpected hello_ok".into()),
        }
    }
    reply.round_trip_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(reply)
}

struct Pass {
    /// One reply per request of the stream, in stream order.
    replies: Vec<Reply>,
    server_rss_mb: f64,
}

fn pass(s: Setup, trace: &mut Trace) -> Result<(Pass, Duration), String> {
    let Setup {
        requests,
        server,
        clients,
    } = s;
    let barrier = Barrier::new(CLIENTS + 1);
    let requests = &requests;
    let (results, took) = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(k, mut client)| {
                let barrier = &barrier;
                let mut t = trace.fork();
                scope.spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    for (i, r) in requests.iter().enumerate().skip(k).step_by(CLIENTS) {
                        let start = Instant::now();
                        let reply = send_one(&mut client, i as u64, r)?;
                        let span = t.record("serve.request", start, Instant::now(), None, i as u64);
                        t.record("serve.codec", start, start + reply.codec, span, i as u64);
                        mine.push((i, reply));
                    }
                    Ok::<_, String>((mine, t))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (results, start.elapsed())
    });
    let mut replies: Vec<Option<Reply>> = requests.iter().map(|_| None).collect();
    for r in results {
        let (mine, t) = r?;
        trace.absorb(t);
        for (i, reply) in mine {
            replies[i] = Some(reply);
        }
    }
    let server_rss_mb = server.peak_rss_mb();
    server.shutdown()?;
    Ok((
        Pass {
            replies: replies
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect(),
            server_rss_mb,
        },
        took,
    ))
}

/// The engine configuration `step serve` builds for these requests.
fn served_config() -> Result<DecompConfig, String> {
    let mut config = DecompConfig::new(Model::QbfDisjoint);
    config.budget.per_output = Budget::parse(BUDGET)?;
    config.budget.lift_unset_walls_for_pure_work(false, false);
    Ok(config)
}

pub fn run(args: &Args, trace: &mut Trace) -> Result<(Report, Option<Layers>), String> {
    let mut pass_trace = trace.fork();
    let Driven {
        setups,
        passes,
        secs,
    } = drive(
        args.seconds,
        || setup(args.seed, &args.step_bin),
        |s| pass(s, &mut pass_trace),
        |_, _| {},
    )?;
    let (circuits, requests) = gen::served_stream(args.seed);
    let mut report = Report::default();

    // The in-process mirror: the same stream through a service built
    // like the server's (result cache on, no clause bank), one worker.
    let config = served_config()?;
    let mirror = StepService::spawn_with_store(
        1,
        Arc::new(TieredStore::memory(
            Some(Arc::new(ResultCache::new())),
            None,
        )),
    );
    let mut expected: Vec<Vec<String>> = Vec::new();
    let mut mirror_results: Vec<CircuitResult> = Vec::new();
    let mut checked = vec![false; circuits.len()];
    for (i, r) in requests.iter().enumerate() {
        let aig = trace.span("aig.parse", None, i as u64, || {
            gen::parse(&r.text, r.format)
        })?;
        let result = mirror
            .submit(&aig, GateOp::Or, config.clone())
            .and_then(|h| h.join())
            .map_err(|e| format!("in-process request {i}: {e}"))?;
        expected.push(
            result
                .outputs
                .iter()
                .map(|o| row_image(&row_of(o)))
                .collect(),
        );
        if !checked[r.circuit] {
            checked[r.circuit] = true;
            for o in &result.outputs {
                if let Some(d) = &o.decomposition {
                    let cone = aig.cone(aig.outputs()[o.output_index].lit());
                    if let Err(e) = check::decomposition(&cone, d) {
                        report.fail(format!("request {i} {}: {e}", o.name));
                    }
                }
            }
        }
        if trace.is_on() {
            replay_hit_path(trace, &aig, &result, i as u64)?;
        }
        mirror_results.push(result);
    }
    drop(mirror);

    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let (mut solved, mut decomposed, mut row_base, mut cost) = (0u64, 0u64, 0u64, Vec::new());
    for ((p_idx, p), s) in passes.iter().enumerate().zip(&secs) {
        rss.push(p.server_rss_mb);
        let mut rows = 0u64;
        for (i, reply) in p.replies.iter().enumerate() {
            report.tally.attempted += 1;
            match (&reply.rows, &reply.error) {
                (Some(got), None) if *got == expected[i] => rows += got.len() as u64,
                (Some(_), None) => report.fail(format!(
                    "pass {p_idx} request {i}: served rows differ from the in-process rows"
                )),
                (_, e) => report.fail(format!("pass {p_idx} request {i}: {e:?}")),
            }
        }
        rates.push(rows as f64 / s);
    }
    for result in &mirror_results {
        for o in &result.outputs {
            row_base += 1;
            solved += u64::from(o.solved && !o.timed_out);
            if let Some(p) = &o.partition {
                decomposed += 1;
                cost.push(p.disjointness());
            }
        }
    }
    // Every pass runs a fresh server: the median pass's peak.
    report.common(&setups, &rates, &secs, stats::median(&rss));
    let latencies: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.replies.iter().map(|r| r.round_trip_ms).collect())
        .collect();
    report.latencies(&latencies);
    // Row-level ratios: the base is every output row the stream asks
    // for.
    report.put("solved_ratio", stats::ratio(solved, row_base), "ratio");
    report.put(
        "decomposed_ratio",
        stats::ratio(decomposed, row_base),
        "ratio",
    );
    report.put("partition_cost", stats::mean(&cost), "ratio");
    let conflicts: u64 = mirror_results
        .iter()
        .map(|r| r.total_effort().conflicts)
        .sum();
    report.put("work_conflicts", conflicts as f64, "count");

    if !trace.is_on() {
        return Ok((report, None));
    }
    trace.absorb(pass_trace);
    let replies: Vec<&Reply> = passes.iter().flat_map(|p| &p.replies).collect();
    let n = replies.len() as f64;
    let per = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(|r| f(r)).sum::<f64>() / n;
    let mut effort = step_core::EffortStats::default();
    let (mut sat_calls, mut qbf_calls, mut cegar, mut hits, mut lookups) = (0, 0, 0, 0, 0);
    for r in &mirror_results {
        effort += r.total_effort();
        sat_calls += r.total_sat_calls();
        qbf_calls += r.total_qbf_calls();
        cegar += r.total_cegar_iterations();
        hits += r.cache_hits();
        lookups += r.cache_hits() + r.cache_misses();
    }
    let mut layers = Layers::new();
    layers.insert("trace.outputs_per_s", stats::median(&rates));
    layers.insert("aig.parse_ms", trace.mean_ms("aig.parse"));
    layers.insert(
        "aig.canonicalize_us",
        trace.mean_ms("aig.canonicalize") * 1e3,
    );
    layers.insert(
        "store.result_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    layers.insert("oracle.sat_calls", sat_calls as f64);
    layers.insert("sat.conflicts", effort.conflicts as f64);
    layers.insert("sat.propagations", effort.propagations as f64);
    layers.insert("qbf.calls", qbf_calls as f64);
    layers.insert("qbf.cegar_iterations", cegar as f64);
    layers.insert("extract.ms", trace.mean_ms("extract"));
    layers.insert("verify.ms", trace.mean_ms("verify"));
    layers.insert("service.queue_wait_ms", per(&|r| r.queue_wait_ms as f64));
    layers.insert("partition.cost", stats::mean(&cost));
    layers.insert("serve.codec_us", per(&|r| r.codec.as_secs_f64() * 1e6));
    layers.insert("serve.bytes_per_request", per(&|r| r.bytes as f64));
    layers.insert(
        "serve.overhead_ms",
        per(&|r| r.round_trip_ms - r.cpu_ms as f64),
    );
    layers.insert(
        "serve.refused",
        replies.iter().filter(|r| r.refused).count() as f64,
    );
    Ok((report, Some(layers)))
}

/// Replays, for one mirrored request, the layers a cache hit still
/// runs on the server: canonicalize every output cone, then extract
/// and verify every found partition.
fn replay_hit_path(
    trace: &mut Trace,
    aig: &step_aig::Aig,
    result: &CircuitResult,
    id: u64,
) -> Result<(), String> {
    let mut cones = HashMap::new();
    for o in &result.outputs {
        let cone = aig.cone(aig.outputs()[o.output_index].lit());
        trace.span("aig.canonicalize", None, id, || {
            canonicalize(&cone.aig, cone.root)
        });
        cones.insert(o.output_index, cone);
    }
    for o in &result.outputs {
        let Some(p) = &o.partition else { continue };
        let cone = &cones[&o.output_index];
        let d = trace
            .span("extract", None, id, || {
                extract(&cone.aig, cone.root, GateOp::Or, p, None)
            })
            .map_err(|e| format!("extract: {e}"))?;
        trace
            .span("verify", None, id, || verify(&d, None))
            .map_err(|e| format!("verify: {e}"))?;
    }
    Ok(())
}
