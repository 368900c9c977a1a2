//! E23 — `qimap serve` load bench.
//!
//! Starts the server in-process on a loopback port and drives it with
//! the seeded protocol request stream (mixed operations over three
//! mapping families, heterogeneous per-request exec configs) from 1 and
//! 4 concurrent client connections. Reports sustained throughput and
//! client-observed latency percentiles — the numbers recorded in
//! `BENCH_serve.json`.
//!
//! Budget-tripping requests are filtered out of the driven stream: they
//! are covered by the concurrent-session oracle, and a load figure
//! should measure completed work, not early aborts.

use qi_bench::Record;
use qi_cli::serve::start;
use qi_workloads::requests::{load_line, request_stream, ServeRequest, StreamParams};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Requests per measured run (per client-count series).
const REQUESTS: usize = 256;

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    stream.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read");
    resp
}

/// Drive `slice` over one connection, returning per-request latencies
/// in microseconds.
fn drive(addr: SocketAddr, slice: &[ServeRequest]) -> Vec<u64> {
    let (mut stream, mut reader) = connect(addr);
    slice
        .iter()
        .map(|req| {
            let t = Instant::now();
            let resp = roundtrip(&mut stream, &mut reader, &req.to_json_line());
            // Handler-level errors are fine (e.g. containment across
            // incompatible schemas); protocol-level failures are not.
            assert!(
                resp.contains("\"ok\":true") || resp.contains("\"kind\":\"exec\""),
                "request failed under load: {} → {resp}",
                req.to_json_line()
            );
            t.elapsed().as_micros() as u64
        })
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let server = start("127.0.0.1:0", |_| {}).expect("server binds");
    let addr = server.addr();
    let stream = request_stream(&StreamParams {
        seed: 77,
        len: REQUESTS * 2,
    });
    let (mut setup, mut setup_reader) = connect(addr);
    for (name, text) in &stream.mappings {
        let resp = roundtrip(&mut setup, &mut setup_reader, &load_line(name, text));
        assert!(resp.contains("\"ok\":true"), "load failed: {resp}");
    }
    let pool: Vec<ServeRequest> = stream
        .requests
        .iter()
        .filter(|r| !r.exec.is_tripping())
        .take(REQUESTS)
        .cloned()
        .collect();

    for clients in [1usize, 4] {
        // Warm up with one untimed pass.
        drive(addr, &pool[..pool.len().min(32)]);
        let mut slices: Vec<Vec<ServeRequest>> = (0..clients).map(|_| Vec::new()).collect();
        for (i, req) in pool.iter().enumerate() {
            slices[i % clients].push(req.clone());
        }
        let wall = Instant::now();
        let latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| scope.spawn(move || drive(addr, slice)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client"))
                .collect()
        });
        let elapsed = wall.elapsed();
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let throughput = latencies.len() as f64 / elapsed.as_secs_f64();
        Record::new("serve/load")
            .int("clients", clients as u64)
            .int("requests", latencies.len() as u64)
            .num("throughput_rps", throughput)
            .int("p50_us", percentile(&sorted, 50.0))
            .int("p95_us", percentile(&sorted, 95.0))
            .int("p99_us", percentile(&sorted, 99.0))
            .num("wall_ms", elapsed.as_secs_f64() * 1e3)
            .emit();
    }
    server.shutdown();
}
