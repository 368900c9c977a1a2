//! Differential oracle for the homomorphism engine v2 core computation.
//!
//! `core_of` is a retraction-based fold: per round it searches, for each
//! null, for an endomorphism whose image avoids that null, and applies it
//! through `map_values`. This file pins that algorithm against three
//! independent referees on seed-scheduled random instances:
//!
//! * the **greedy reference** (`core_of_greedy`, the pre-v2 fact-dropping
//!   loop, kept behind the `greedy-core` feature) — the two must agree up
//!   to isomorphism, since cores are unique up to isomorphism;
//! * **hom-equivalence with the input** — a core that is not equivalent
//!   to its instance is not a retract at all;
//! * **brute-force minimality** — no single fact of the result may be
//!   droppable (a homomorphism from the core into the core minus one
//!   fact would contradict core-ness), checked fact by fact with the
//!   plain `has_hom` search.
//!
//! The final test sweeps the executor thread counts (1 and 4): `core_of`
//! sits on top of `exists`/`any_match`, whose component decomposition may
//! fan out through `qi-exec`, and the rendered core must stay
//! byte-identical at every setting — same contract `tests/match_oracle.rs`
//! enforces for the chase. `core_of` takes no `ExecConfig` (its fan-out
//! follows `QI_THREADS`, parsed once per process), so the sweep reruns
//! this test binary under each `QI_THREADS` value.

use quasi_inverse::schema::{
    core_of, core_of_greedy, core_of_with_stats, has_hom, hom_equivalent, is_isomorphic, Instance,
    Schema, Value,
};
use quasi_inverse::workloads::random::rng;
use quasi_inverse::workloads::rng::Rng64;

const CASES: u64 = 40;

/// A random instance mixing constants and nulls; null-heavy (60%) so the
/// cores are non-trivial more often than not.
fn random_instance(schema: &Schema, r: &mut Rng64, n_facts: usize, n_vals: usize) -> Instance {
    let mut inst = Instance::new(schema.clone());
    for _ in 0..n_facts {
        let rel = schema
            .rel_ids()
            .nth(r.random_range(0..schema.len()))
            .unwrap();
        let args: Vec<Value> = (0..schema.arity(rel))
            .map(|_| {
                let k = r.random_range(0..n_vals);
                if r.random_bool(0.6) {
                    Value::null(k as u64)
                } else {
                    Value::constant(&format!("c{k}"))
                }
            })
            .collect();
        inst.insert(rel, args).unwrap();
    }
    inst
}

/// All the per-instance core invariants; returns the v2 core.
fn check_core(i: &Instance, ctx: &str) -> Instance {
    let (v2, stats) = core_of_with_stats(i);
    let greedy = core_of_greedy(i);
    assert!(
        is_isomorphic(&v2, &greedy),
        "{ctx}: cores differ: v2 = {v2} / greedy = {greedy} (input {i})"
    );
    assert!(
        hom_equivalent(i, &v2),
        "{ctx}: core {v2} not equivalent to input {i}"
    );
    // Brute-force minimality: no fact of a core is droppable.
    for fact in v2.facts() {
        let smaller = v2.without_fact(&fact);
        assert!(
            !has_hom(&v2, &smaller),
            "{ctx}: core {v2} retracts further into {smaller}"
        );
    }
    // Idempotence is exact (not just up to isomorphism): a core has no
    // avoidable null, so the fold returns it unchanged.
    assert_eq!(core_of(&v2), v2, "{ctx}: core_of not idempotent");
    // The fold counters must account for exactly the nulls that vanished.
    assert_eq!(
        stats.nulls_folded as usize,
        i.nulls().len() - v2.nulls().len(),
        "{ctx}: nulls_folded out of balance"
    );
    v2
}

#[test]
fn retraction_core_agrees_with_greedy_and_brute_minimality() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    for seed in 0..CASES {
        let mut r = rng(7_000 + seed);
        let n_facts = 2 + r.random_range(0..8);
        let n_vals = 2 + r.random_range(0..4);
        let i = random_instance(&schema, &mut r, n_facts, n_vals);
        check_core(&i, &format!("seed {seed}"));
    }
}

#[test]
fn wide_instances_with_many_null_chains() {
    // Chains anchored on a constant loop: the shape the chase produces
    // for closure-style mappings, and the one where retraction folding
    // collapses many nulls per round.
    let schema = Schema::parse("E/2").unwrap();
    for k in [1usize, 3, 6] {
        let mut text = String::from("E(a,a)");
        for c in 0..3 {
            let base = (c * (k + 1)) as u64;
            text.push_str(&format!(" E(a,N{})", base + 1));
            for j in 1..k {
                let n = base + j as u64;
                text.push_str(&format!(" E(N{},N{})", n, n + 1));
            }
        }
        let i = Instance::parse(&schema, &text).unwrap();
        let core = check_core(&i, &format!("chains k={k}"));
        assert_eq!(
            core,
            Instance::parse(&schema, "E(a,a)").unwrap(),
            "chains k={k}: everything must fold onto the constant loop"
        );
    }
}

#[test]
fn core_is_byte_identical_across_thread_counts() {
    let schema = Schema::parse("E/2 P/2 Q/1").unwrap();
    let mut inputs = Vec::new();
    for seed in 0..12 {
        let mut r = rng(8_000 + seed);
        inputs.push(random_instance(&schema, &mut r, 9, 4));
    }
    if std::env::var_os(SWEEP_CHILD).is_some() {
        // Child run: report this process's cores to the parent.
        let cores: String = inputs.iter().map(|i| format!("{}\n", core_of(i))).collect();
        print!("{CORES_BEGIN}{cores}{CORES_END}");
        return;
    }
    // Both children run only this test, so they intern constants in the
    // same order and render comparably; this process, whose other tests
    // intern concurrently, would not.
    assert_eq!(
        cores_under_threads(1),
        cores_under_threads(4),
        "core_of diverged across thread counts"
    );
}

/// Marks a child run of the thread-count sweep.
const SWEEP_CHILD: &str = "QI_CORE_ORACLE_SWEEP_CHILD";
const CORES_BEGIN: &str = "<<<cores\n";
const CORES_END: &str = "cores>>>";

/// The rendered cores of [`core_is_byte_identical_across_thread_counts`]
/// as computed by a rerun of this test binary under `QI_THREADS=threads`.
fn cores_under_threads(threads: usize) -> String {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "core_is_byte_identical_across_thread_counts",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("QI_THREADS", threads.to_string())
        .env(SWEEP_CHILD, "1")
        .output()
        .expect("rerun the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child run failed:\n{stdout}");
    let start = stdout.find(CORES_BEGIN).expect("child reports its cores") + CORES_BEGIN.len();
    let end = stdout[start..].find(CORES_END).expect("child report ends") + start;
    stdout[start..end].to_owned()
}
