//! E20 — the mapping algebra as a benchmark: maximum-recovery
//! construction, forward containment, and reverse containment, with the
//! executor task counts carried into the BENCH JSON.

use qi_bench::{measure, Record};
use qi_core::{
    mapping_contains_with_exec, maximum_recovery_with_stats, reverse_contains_with_exec,
    QuasiInverseOptions, SchemaMapping,
};
use qi_exec::{ExecConfig, Parallelism};
use qi_workloads::families::{decomposition_k, union_n};
use std::time::Duration;

const MIN_TIME: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 3;

/// Worker counts swept by the containment benches (capped at the CPU
/// count).
const THREAD_SWEEP: [usize; 2] = [1, 4];

fn bench_maximum_recovery() {
    // Decomposition_k: one tgd splitting a (k+1)-ary fact into k binary
    // projections — the MinGen search and the guard machinery both grow
    // with k. (k = 4 already blows past multi-GB candidate frontiers, so
    // the sweep stops at 3.)
    for k in [2usize, 3] {
        let m = decomposition_k(k);
        let mut stats = None;
        let s = measure(MIN_ITERS, MIN_TIME, || {
            let (rev, st) = maximum_recovery_with_stats(&m, &QuasiInverseOptions::default())
                .expect("bench recovery must succeed");
            stats = Some((rev.deps.len(), st));
            rev
        });
        let (deps, st) = stats.expect("measure ran at least once");
        Record::new("algebra/maximum-recovery")
            .int("param", k as u64)
            .int("deps", deps as u64)
            .int("tasks", st.tasks)
            .sample(s)
            .emit();
    }
}

fn bench_forward_containment() {
    // union_n ⊑ union_(n/2): every outer tgd must be chased and checked;
    // the weak side contains the strong side, so the scan never exits
    // early.
    for n in [4usize, 8, 16] {
        let strong = union_n(n);
        let weak = SchemaMapping::new(
            strong.source.clone(),
            strong.target.clone(),
            strong.tgds[..n / 2].to_vec(),
        )
        .expect("prefix of a valid mapping stays valid");
        for threads in THREAD_SWEEP {
            let exec = ExecConfig::auto().with_parallelism(Parallelism::fixed(threads));
            let mut stats = None;
            let s = measure(MIN_ITERS, MIN_TIME, || {
                let (v, st) = mapping_contains_with_exec(&weak, &strong, &exec)
                    .expect("bench containment must succeed");
                assert!(v.holds());
                stats = Some(st);
                v
            });
            let st = stats.expect("measure ran at least once");
            Record::new("algebra/forward-containment")
                .int("param", n as u64)
                .int("threads", threads as u64)
                .int("tasks", st.tasks)
                .sample(s)
                .emit();
        }
    }
}

fn bench_reverse_containment() {
    // Reverse containment of a maximum recovery against itself: the
    // equality-type enumeration runs over fully guarded premises, so
    // only the discrete partition survives — the common (cheap) case on
    // algorithm output.
    for k in [2usize, 3] {
        let m = decomposition_k(k);
        let (rev, _) = maximum_recovery_with_stats(&m, &QuasiInverseOptions::default())
            .expect("bench recovery must succeed");
        for threads in THREAD_SWEEP {
            let exec = ExecConfig::auto().with_parallelism(Parallelism::fixed(threads));
            let mut stats = None;
            let s = measure(MIN_ITERS, MIN_TIME, || {
                let (v, st) = reverse_contains_with_exec(&rev, &rev, &exec)
                    .expect("bench reverse containment must succeed");
                assert!(v.holds());
                stats = Some(st);
                v
            });
            let st = stats.expect("measure ran at least once");
            Record::new("algebra/reverse-containment")
                .int("param", k as u64)
                .int("threads", threads as u64)
                .int("deps", rev.deps.len() as u64)
                .int("tasks", st.tasks)
                .sample(s)
                .emit();
        }
    }
}

fn main() {
    bench_maximum_recovery();
    bench_forward_containment();
    bench_reverse_containment();
}
