//! E2 at scale — the Figure 1 bidirectional exchange as a benchmark.
//!
//! `I → U → V → chase(V) → faithfulness certificate`, for the
//! Decomposition mapping and each of its three quasi-inverses (the
//! paper's `Σ'` and `Σ''`, and the QuasiInverse algorithm's guarded
//! output). The comparison mirrors the paper's discussion: `Σ'` recovers
//! a quadratically larger ground instance whose re-chase equals `U`
//! exactly; `Σ''` recovers a same-size instance with nulls whose
//! re-chase is only hom-equivalent (the certificate costs a hom search).

use qi_bench::{measure, Record};
use qi_core::{quasi_inverse, round_trip, QuasiInverseOptions};
use qi_exec::{par_map, Budget, CostHint, Parallelism};
use qi_workloads::families::decomposition_instance;
use qi_workloads::paper;
use std::time::Duration;

const MIN_TIME: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 3;

fn bench_roundtrip_variants() {
    let m = paper::decomposition();
    // The algorithm output is a *disjunctive* reverse mapping: every
    // all-distinct trigger branches two ways, so its leaf count is
    // 2^(n²) in the shared-middle workload — keep its sizes small (the
    // blow-up itself is the measured phenomenon). The paper's two
    // disjunction-free quasi-inverses scale to larger instances.
    let variants = [
        (
            "sigma-prime-join",
            paper::decomposition_quasi_inverse_join(),
            vec![2usize, 4, 8, 16],
        ),
        (
            "sigma-doubleprime-lav",
            paper::decomposition_quasi_inverse_lav(),
            vec![2usize, 4, 8, 16],
        ),
        (
            "algorithm-output",
            quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap(),
            vec![1usize, 2, 3],
        ),
    ];
    for (name, rev, sizes) in &variants {
        for &n in sizes {
            let i = decomposition_instance(&m, n);
            let s = measure(MIN_ITERS, MIN_TIME, || {
                let rt = round_trip(&m, rev, &i, Default::default()).unwrap();
                assert!(rt.is_faithful());
                rt
            });
            Record::new(&format!("roundtrip/{name}"))
                .int("param", n as u64)
                .sample(s)
                .emit();
        }
    }
}

fn bench_parallel_verification() {
    // Verifying faithfulness over a batch of instances is embarrassingly
    // parallel; measure the batch throughput through the deterministic
    // executor (the shape EXPERIMENTS.md's E4 sweep uses).
    let m = paper::decomposition();
    let rev = paper::decomposition_quasi_inverse_join();
    let instances: Vec<_> = (1..=8).map(|n| decomposition_instance(&m, n)).collect();
    for (variant, parallelism) in [
        ("sequential", Parallelism::sequential()),
        ("parallel", Parallelism::default()),
    ] {
        let s = measure(MIN_ITERS, MIN_TIME, || {
            let (ok, _) = par_map(
                parallelism,
                &instances,
                &Budget::unlimited(),
                CostHint::none(),
                |i| {
                    round_trip(&m, &rev, i, Default::default())
                        .unwrap()
                        .is_faithful()
                },
            )
            .unwrap();
            assert!(ok.into_iter().all(|b| b));
        });
        Record::new("roundtrip/batch-verification")
            .str("variant", variant)
            .int("batch", instances.len() as u64)
            .sample(s)
            .emit();
    }
}

fn main() {
    bench_roundtrip_variants();
    bench_parallel_verification();
}
