//! The `serve` workload: `qimap serve` on loopback, driven over NDJSON
//! by two client connections in a closed loop.
//!
//! The requests come from `qi_workloads::requests::request_stream(seed)`
//! over the three mappings it loads during set-up: 256 requests that
//! succeed (no tripping budgets, no containment across incompatible
//! schemas), every `exec.threads` clamped to the machine's CPU count.
//! They are taken from the seeded stream with a fixed quota per
//! (operation, mapping, threads, planner) cell equal to the generator's
//! own mix, and fired in one fixed order of cells, so every seed
//! measures the same composition and the same overlap between the two
//! clients; the seed varies which requests fill each cell. One pass
//! fires all 256 requests, split round-robin between the two clients;
//! passes repeat until the run's time is spent.
//!
//! Why: it stresses the qi-cli serve transport, protocol and registry
//! under heavy input sharing (three mappings, every request names one),
//! the opposite of `invert`.

use crate::common::{Args, Outcome, Pass, SETUP_REPS};
use crate::trace::{Layers, Tracer};
use qi_cli::serve::json::{parse, Json};
use qi_cli::serve::{start, Server};
use qi_cli::{
    chase_loaded, cmd_analyze, cmd_lint, contains_texts, parse_mapping_file, quasi_inverse_loaded,
    rechase_loaded, recover_loaded,
};
use qi_exec::{Budget, ExecConfig, Parallelism, Planning};
use qi_workloads::requests::{
    load_line, request_stream, ExecSpec, ServeOp, ServeRequest, StreamParams,
};
use qi_workloads::rng::Rng64;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests per pass.
const REQUESTS: usize = 256;
/// Concurrent client connections.
const CLIENTS: usize = 2;
/// Light requests fired during set-up to warm the server.
const WARM_UP: usize = 8;

const OPS: [&str; 7] = [
    "chase",
    "rechase",
    "quasi-inverse",
    "recover",
    "contains",
    "lint",
    "analyze",
];

/// The generator's mix over non-tripping requests, per op, in tenths of
/// the stream (chase 3, rechase 2, the rest 1; a fifth of chase and
/// rechase requests carry tripping budgets and are dropped).
const OP_WEIGHTS: [f64; 7] = [2.4, 1.6, 1.0, 1.0, 1.0, 1.0, 1.0];

fn op_mapping(op: &ServeOp) -> &str {
    match op {
        ServeOp::Chase { mapping, .. }
        | ServeOp::Rechase { mapping, .. }
        | ServeOp::QuasiInverse { mapping }
        | ServeOp::Recover { mapping, .. }
        | ServeOp::Lint { mapping, .. }
        | ServeOp::Analyze { mapping, .. } => mapping,
        ServeOp::Contains { outer, .. } => outer,
    }
}

/// The generator's draws for a request's exec config: no / 1 / 2 / 4
/// threads and default / on / off planning, each uniform.
const THREADS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(4)];
const PLANS: [Option<&str>; 3] = [None, Some("on"), Some("off")];

/// A request's stratification cell: operation, mapping, thread count
/// and planner mode (the last two decide what the expensive requests
/// cost).
fn cell(r: &ServeRequest) -> String {
    format!(
        "{}|{}|{:?}|{:?}",
        r.op_name(),
        op_mapping(&r.op),
        r.exec.threads,
        r.exec.plan
    )
}

/// `total` split into `n` near-equal parts (the first parts take the
/// remainder).
fn split(total: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| total / n + usize::from(i < total % n))
}

/// Per-cell quotas: the generator's op mix scaled to [`REQUESTS`]
/// (largest-remainder rounding), then split evenly over mappings,
/// planner modes and thread counts, level by level, so that every level
/// keeps the generator's proportions as closely as whole requests allow.
fn quotas(mappings: &[String]) -> BTreeMap<String, usize> {
    let total: f64 = OP_WEIGHTS.iter().sum();
    let exact: Vec<f64> = OP_WEIGHTS
        .iter()
        .map(|w| REQUESTS as f64 * w / total)
        .collect();
    let mut per_op: Vec<usize> = exact.iter().map(|v| v.floor() as usize).collect();
    let mut order: Vec<usize> = (0..OPS.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in order.iter().take(REQUESTS - per_op.iter().sum::<usize>()) {
        per_op[i] += 1;
    }
    let mut out = BTreeMap::new();
    for (op, n_op) in OPS.iter().zip(per_op) {
        for (m, n_m) in mappings.iter().zip(split(n_op, mappings.len())) {
            for (p, n_p) in PLANS.iter().zip(split(n_m, PLANS.len())) {
                for (t, n_t) in THREADS.iter().zip(split(n_p, THREADS.len())) {
                    out.insert(format!("{op}|{m}|{t:?}|{p:?}"), n_t);
                }
            }
        }
    }
    out
}

/// The generated mappings and the 256 requests of a pass.
fn requests(seed: u64) -> (Vec<(String, String)>, Vec<ServeRequest>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stream = request_stream(&StreamParams {
        seed,
        len: REQUESTS * 32,
    });
    let names: Vec<String> = stream.mappings.iter().map(|(n, _)| n.clone()).collect();
    let quota = quotas(&names);
    let mut left = quota.clone();
    let mut by_cell: BTreeMap<String, std::collections::VecDeque<ServeRequest>> = BTreeMap::new();
    for mut r in stream.requests {
        // Tripping budgets and containment across the generator's
        // incompatible schemas are designed to fail; the benchmark
        // measures ops that succeed.
        let incompatible = matches!(&r.op, ServeOp::Contains { outer, inner } if outer != inner);
        if r.exec.is_tripping() || incompatible {
            continue;
        }
        let key = cell(&r);
        match left.get_mut(&key) {
            Some(q) if *q > 0 => *q -= 1,
            _ => continue,
        }
        r.exec.threads = r.exec.threads.map(|t| t.min(nproc));
        by_cell.entry(key).or_default().push_back(r);
    }
    assert!(
        left.values().all(|&q| q == 0),
        "the stream fills every quota"
    );
    // One fixed order of cells for every seed (shuffled with a constant
    // seed), filled with this seed's requests: which requests of the two
    // clients overlap — the expensive ones contend for the two CPUs —
    // is then the same at every seed.
    let mut slots: Vec<&String> = quota
        .iter()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    let mut rng = Rng64::new(0x5e2e);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.random_range(0..=i));
    }
    let picked = slots
        .into_iter()
        .map(|k| {
            by_cell
                .get_mut(k)
                .and_then(|q| q.pop_front())
                .expect("quota filled")
        })
        .collect();
    (stream.mappings, picked)
}

fn exec_of(spec: &ExecSpec) -> ExecConfig {
    let mut exec = ExecConfig::auto();
    if let Some(t) = spec.threads {
        exec = exec.with_parallelism(Parallelism::fixed(t));
    }
    if let Some(p) = spec.plan {
        exec = exec.with_planning(match p {
            "on" => Planning::On,
            "off" => Planning::Off,
            _ => Planning::Auto,
        });
    }
    let mut budget = Budget::unlimited();
    if let Some(ms) = spec.timeout_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    exec.with_budget(budget)
}

/// The one-shot CLI output for a request: what the served response's
/// `output` field must equal byte for byte.
fn expected(r: &ServeRequest, texts: &BTreeMap<String, String>) -> Result<String, String> {
    let exec = exec_of(&r.exec);
    let file = |name: &str| parse_mapping_file(&texts[name]).map_err(|e| e.0);
    let out = match &r.op {
        ServeOp::Chase { mapping, instance } => {
            chase_loaded(&file(mapping)?, instance, false, &exec).map(|o| o.0)
        }
        ServeOp::Rechase {
            mapping,
            instance,
            diff,
        } => rechase_loaded(&file(mapping)?, instance, diff, false, &exec).map(|o| o.0),
        ServeOp::QuasiInverse { mapping } => {
            quasi_inverse_loaded(&file(mapping)?, false, &exec).map(|o| o.0)
        }
        ServeOp::Recover { mapping, json } => {
            recover_loaded(&file(mapping)?, *json, false, &exec).map(|o| o.0)
        }
        ServeOp::Contains { outer, inner } => {
            contains_texts(&texts[outer], &texts[inner], false, false, &exec).map(|o| o.0)
        }
        ServeOp::Lint { mapping, json } => cmd_lint(mapping, &texts[mapping], *json),
        ServeOp::Analyze { mapping, cost } => cmd_analyze(mapping, &texts[mapping], *cost, false),
    };
    out.map_err(|e| e.0)
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one line, read one response line. Returns the response and
    /// the instant the write completed.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<(String, Instant)> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)?;
        self.stream.flush()?;
        let written = Instant::now();
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        Ok((resp, written))
    }
}

/// Per-handler counters from `/metrics`: (requests, total_us, hom hits,
/// hom misses).
type Snapshot = BTreeMap<String, (u64, u64, u64, u64)>;

fn metrics(addr: SocketAddr) -> Snapshot {
    let mut c = Conn::open(addr).expect("metrics connection");
    let (resp, _) = c
        .roundtrip("{\"op\":\"metrics\",\"id\":\"metrics\"}")
        .expect("metrics request");
    let doc = parse(&resp).expect("metrics response is JSON");
    let mut out = Snapshot::new();
    if let Some(Json::Obj(handlers)) = doc.get("metrics") {
        for (name, h) in handlers {
            let n = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
            out.insert(
                name.clone(),
                (
                    n("requests"),
                    n("total_us"),
                    n("hom_cache_hits"),
                    n("hom_cache_misses"),
                ),
            );
        }
    }
    out
}

/// Start a server, load the mappings and warm it up.
fn setup(mappings: &[(String, String)], reqs: &[ServeRequest]) -> Server {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds on loopback");
    let mut c = Conn::open(server.addr()).expect("set-up connection");
    for (name, text) in mappings {
        let (resp, _) = c.roundtrip(&load_line(name, text)).expect("load");
        assert!(resp.contains("\"ok\":true"), "load failed: {resp}");
    }
    let light = reqs
        .iter()
        .filter(|r| !matches!(r.op, ServeOp::QuasiInverse { .. } | ServeOp::Recover { .. }));
    for r in light.take(WARM_UP) {
        let (resp, _) = c.roundtrip(&r.to_json_line()).expect("warm-up request");
        assert!(resp.contains("\"ok\":true"), "warm-up failed: {resp}");
    }
    server
}

/// One request's client-side record.
struct Sample {
    req: usize,
    start: Instant,
    written: Instant,
    end: Instant,
    response: std::io::Result<String>,
}

/// Fire passes of `lines` from [`CLIENTS`] connections until `budget`
/// is spent (checked between passes). Returns the samples and the wall
/// time.
fn drive(addr: SocketAddr, lines: &[String], budget: Duration) -> (Vec<Sample>, Duration) {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut conn = Conn::open(addr).expect("client connection");
                    let mut out = Vec::new();
                    loop {
                        for (i, line) in lines.iter().enumerate().skip(c).step_by(CLIENTS) {
                            let start = Instant::now();
                            let r = conn.roundtrip(line);
                            let end = Instant::now();
                            let written = r.as_ref().map_or(end, |(_, w)| *w);
                            out.push(Sample {
                                req: i,
                                start,
                                written,
                                end,
                                response: r.map(|(resp, _)| resp),
                            });
                        }
                        if barrier.wait().is_leader() && t0.elapsed() >= budget {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return out;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (samples, t0.elapsed())
}

/// Check every response and summarise the samples into a [`Pass`].
fn summarise(
    samples: &[Sample],
    wall: Duration,
    reqs: &[ServeRequest],
    expect: &mut [Option<Result<String, String>>],
    texts: &BTreeMap<String, String>,
    misses: &mut Vec<String>,
) -> Pass {
    let mut p = Pass::default();
    for s in samples {
        let r = &reqs[s.req];
        p.record(r.op_name(), s.end - s.start);
        let want = expect[s.req].get_or_insert_with(|| expected(r, texts));
        let ok = match (&s.response, want) {
            (Ok(line), Ok(want)) => parse(line).ok().is_some_and(|doc| {
                doc.get("ok") == Some(&Json::Bool(true))
                    && doc.get("id").and_then(Json::as_str) == Some(r.id.as_str())
                    && doc.get("output").and_then(Json::as_str) == Some(want.as_str())
            }),
            _ => false,
        };
        if !ok {
            p.failed += 1;
            if misses.len() < 8 {
                misses.push(format!(
                    "request {} ({}): response differs from the one-shot CLI output: {:?}",
                    r.id,
                    r.op_name(),
                    s.response
                        .as_ref()
                        .map(|l| l.chars().take(200).collect::<String>())
                ));
            }
        }
    }
    p.timed_s = wall.as_secs_f64();
    p
}

pub fn run(args: &Args) -> Outcome {
    let (mappings, reqs) = requests(args.seed);
    let texts: BTreeMap<String, String> = mappings.iter().cloned().collect();
    let lines: Vec<String> = reqs.iter().map(ServeRequest::to_json_line).collect();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        server = Some(setup(&mappings, &reqs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let mut expect: Vec<Option<Result<String, String>>> = vec![None; reqs.len()];
    let mut misses = Vec::new();

    let (samples, wall) = drive(addr, &lines, args.budget());
    let pass = summarise(&samples, wall, &reqs, &mut expect, &texts, &mut misses);

    let traced = args.trace.then(|| {
        let before = metrics(addr);
        let (samples, wall) = drive(addr, &lines, args.budget());
        let after = metrics(addr);
        let p = summarise(&samples, wall, &reqs, &mut expect, &texts, &mut misses);
        let delta = |name: &str| {
            let a = after.get(name).copied().unwrap_or_default();
            let b = before.get(name).copied().unwrap_or_default();
            (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3)
        };
        let mut layers = Layers::default();
        let mut handler_total_ms = 0.0;
        let (mut hits, mut misses_h) = (0u64, 0u64);
        let mut mean_handler_us: BTreeMap<&str, f64> = BTreeMap::new();
        for op in OPS {
            let (n, total_us, h, m) = delta(op);
            let ms = total_us as f64 / 1e3;
            handler_total_ms += ms;
            hits += h;
            misses_h += m;
            mean_handler_us.insert(op, total_us as f64 / n.max(1) as f64);
            let name = crate::trace::LAYER_METRICS
                .iter()
                .find(|(k, _)| k.strip_prefix("serve.handler_ms.") == Some(op))
                .expect("a handler metric per op")
                .0;
            layers.add(name, ms);
        }
        let client_total_ms: f64 = p.latencies_ms.iter().sum();
        layers.add("serve.transport_ms", client_total_ms - handler_total_ms);
        layers.add(
            "serve.load_ms",
            before.get("load").map_or(0, |v| v.1) as f64 / 1e3,
        );
        layers.add(
            "serve.hom_cache_hit_ratio",
            if hits + misses_h == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses_h) as f64
            },
        );
        // Spans: client write, server handler (the `elapsed_us` the
        // server reports; lint/analyze responses carry none, so their
        // handler span is that op's mean from `/metrics`), and the
        // transport remainder.
        let mut tr = Tracer::new();
        let epoch = samples
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or_else(Instant::now);
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        for (k, s) in samples.iter().enumerate() {
            let r = &reqs[s.req];
            let root = tr.root(k as u64, ns(s.start), ns(s.end));
            tr.record("client.write", root, ns(s.start), ns(s.written));
            let handler_us = s
                .response
                .as_ref()
                .ok()
                .and_then(|l| parse(l).ok())
                .and_then(|d| {
                    d.get("stats")
                        .and_then(|st| st.get("elapsed_us"))
                        .and_then(Json::as_u64)
                })
                .map_or_else(|| mean_handler_us[r.op_name()], |us| us as f64);
            let h_end = (ns(s.written) + (handler_us * 1e3) as u64).min(ns(s.end));
            tr.record("server.handler", root, ns(s.written), h_end);
            tr.record("transport", root, h_end, ns(s.end));
        }
        (p, layers, tr)
    });
    Server::shutdown(server);
    Outcome {
        setup_s,
        pass,
        traced,
        checks: format!(
            "{} distinct request(s); every response compared byte for byte with the one-shot CLI output",
            reqs.len()
        ),
        misses,
    }
}
