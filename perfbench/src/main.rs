//! `qi-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! qi-perfbench --workload <invert|exchange|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload in this process, checks every output,
//! and prints the machine fingerprint, a human-readable summary, and as
//! its last line one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when any output is wrong. `NOTES.md` beside this file describes the
//! workloads and metrics; `--bless` rewrites the committed digests of
//! the default seed's outputs.

mod common;
mod exchange;
mod invert;
mod serve;
mod trace;

use common::{json_num, json_str, median, peak_rss_mib, quantile, Args, Outcome, Pass, USAGE};

/// Print one metric line of the human-readable summary and return its
/// JSON member.
fn metric(name: &str, value: f64, unit: &str, note: &str) -> String {
    println!("  {name:<34} {value:>14.6} {unit:<12} {note}");
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

/// The end-to-end metrics of a pass, as JSON members.
fn end_to_end(setup_s: &[f64], p: &Pass, peak_mib: f64) -> Vec<String> {
    let sorted = p.sorted();
    let n = sorted.len();
    let beyond_p95 = sorted
        .iter()
        .filter(|&&l| l > quantile(&sorted, 0.95))
        .count();
    println!(
        "  failed_ratio {} ({} of {} attempted)",
        p.failed_ratio(),
        p.failed,
        p.attempted
    );
    vec![
        metric(
            "setup_s",
            median(setup_s),
            "s",
            &format!("median of {} set-ups", setup_s.len()),
        ),
        metric(
            "throughput_ops_s",
            p.throughput(),
            "ops/s",
            &format!("{n} ops in {:.3} s timed", p.timed_s),
        ),
        metric(
            "latency_p50_ms",
            quantile(&sorted, 0.5),
            "ms",
            &format!("{n} samples"),
        ),
        metric(
            "latency_p95_ms",
            quantile(&sorted, 0.95),
            "ms",
            &format!("{n} samples, {beyond_p95} beyond p95"),
        ),
        metric(
            "ok_ratio",
            1.0 - p.failed_ratio(),
            "ratio",
            "1 - failed_ratio",
        ),
        metric("peak_rss_mib", peak_mib, "MiB", "VmHWM of this process"),
    ]
}

fn per_kind(p: &Pass) {
    for (kind, (n, med)) in p.per_kind() {
        println!("    {kind:<32} n={n:<6} median {med:.4} ms");
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qi-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.bless {
        let r = match args.workload.as_str() {
            "invert" => invert::bless(),
            "exchange" => exchange::bless(),
            _ => {
                eprintln!("qi-perfbench: --bless applies to invert and exchange");
                std::process::exit(2);
            }
        };
        if let Err(e) = r {
            eprintln!("qi-perfbench: cannot write digests: {e}");
            std::process::exit(1);
        }
        println!("digests rewritten for {}", args.workload);
        return;
    }
    println!("perfbench env {}", common::fingerprint(&args));
    let out: Outcome = match args.workload.as_str() {
        "invert" => invert::run(&args),
        "exchange" => exchange::run(&args),
        _ => serve::run(&args),
    };
    let peak = peak_rss_mib();
    println!("perfbench {} end-to-end (untraced):", args.workload);
    let e2e = end_to_end(&out.setup_s, &out.pass, peak);
    per_kind(&out.pass);
    let mut attempted = out.pass.attempted;
    let mut failed = out.pass.failed;
    let members = match out.traced {
        None => e2e,
        Some((tp, layers, tr)) => {
            attempted += tp.attempted;
            failed += tp.failed;
            println!("perfbench {} end-to-end (traced):", args.workload);
            end_to_end(&out.setup_s, &tp, peak);
            per_kind(&tp);
            let (ops, cov_min, cov_med) = tr.coverage();
            let mut layers = layers;
            layers.add("trace.ops", ops as f64);
            layers.add("trace.span_coverage_min", cov_min);
            layers.add("trace.span_coverage_median", cov_med);
            layers.add(
                "trace.overhead_p50_ratio",
                quantile(&tp.sorted(), 0.5) / quantile(&out.pass.sorted(), 0.5),
            );
            layers.add(
                "trace.overhead_mean_ratio",
                tp.mean_ms() / out.pass.mean_ms(),
            );
            let path = common::bench_dir().join(format!(
                "out/trace-{}-seed{}.jsonl",
                args.workload, args.seed
            ));
            match tr.write_jsonl(&path) {
                Ok(()) => println!("perfbench spans written to {}", path.display()),
                Err(e) => eprintln!("qi-perfbench: cannot write spans: {e}"),
            }
            if cov_min < 0.95 {
                println!("perfbench span coverage below 95% on some op ({cov_min:.4})");
            }
            println!("perfbench {} per-layer (traced pass):", args.workload);
            layers
                .finish(&tr)
                .into_iter()
                .map(|(name, unit, v)| metric(name, v, unit, ""))
                .collect()
        }
    };
    println!("perfbench checks: {}", out.checks);
    for m in &out.misses {
        println!("perfbench MISS {m}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        members.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
