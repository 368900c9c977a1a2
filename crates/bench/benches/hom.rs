//! E19 — homomorphism engine v2: retraction cores and the hom cache.
//!
//! Two series backing the v2 engine's perf claims:
//!
//! * `hom/core-chase-output` — `core_of` (retraction-based fold) against
//!   the pre-v2 greedy fact-dropping reference (`core_of_greedy`, kept
//!   behind the `greedy-core` feature) on chase outputs with growing
//!   null-chain length `k`: the shape closure-style mappings produce,
//!   where one endomorphism folds a whole chain onto its constant
//!   anchor. The two cores are checked isomorphic at every point.
//! * `hom/equivalence-classes` — partitioning null-renamed chase outputs
//!   into hom-equivalence classes with and without a [`HomCache`]; the
//!   classes are asserted identical, since cached answers are pure.

use qi_bench::{chase_or_panic, measure, Record};
use qi_core::SchemaMapping;
use qi_schema::{
    core_of_greedy, core_of_with_stats, hom_equivalent, is_isomorphic, HomCache, Instance, NullId,
    Value,
};
use std::time::Duration;

const MIN_TIME: Duration = Duration::from_millis(200);
const MIN_ITERS: u32 = 3;

/// The closure-style mapping whose chase emits, per `E0`-edge, a chain of
/// `k` nulls between its endpoints. The existential tgd comes first so
/// its chains fire *before* the `F`-edges and `S`-loops that later make
/// them redundant — the order the chase on a real closure workload would
/// interleave them.
fn chain_mapping(k: usize) -> SchemaMapping {
    let mut head: Vec<String> = Vec::new();
    let zs: Vec<String> = (1..=k).map(|i| format!("z{i}")).collect();
    head.push(format!("E(x,{})", zs[0]));
    for w in zs.windows(2) {
        head.push(format!("E({},{})", w[0], w[1]));
    }
    head.push(format!("E({},y)", zs[k - 1]));
    let dep = format!("E0(x,y) -> exists {} . {}", zs.join(" "), head.join(" & "));
    SchemaMapping::parse(
        "E0/2 F/2 S/1",
        "E/2",
        &[dep.as_str(), "F(x,y) -> E(x,y)", "S(x) -> E(x,x)"],
    )
    .expect("generated mapping is valid")
}

/// `anchors` pairs `aᵢ → bᵢ`, each with an `E0`-edge (chased into a
/// null chain), a direct `F`-edge, and a loop at `bᵢ`: the chain's nulls
/// all fold onto `bᵢ`, so the core is exactly the `F`/`S` images. `tag`
/// disambiguates the constants so different shapes share none.
fn chain_source(m: &SchemaMapping, anchors: usize, tag: usize) -> Instance {
    let mut inst = Instance::new(m.source.clone());
    for i in 0..anchors {
        let a = format!("a{tag}_{i}");
        let b = format!("b{tag}_{i}");
        inst.insert_consts("E0", &[&a, &b]).expect("arity matches");
        inst.insert_consts("F", &[&a, &b]).expect("arity matches");
        inst.insert_consts("S", &[&b]).expect("arity matches");
    }
    inst
}

fn bench_core_chase_output() {
    const ANCHORS: usize = 3;
    for k in [2usize, 4, 8] {
        let m = chain_mapping(k);
        let u = chase_or_panic(&m, &chain_source(&m, ANCHORS, 0));
        let (v2, stats) = core_of_with_stats(&u);
        let greedy = core_of_greedy(&u);
        assert!(
            is_isomorphic(&v2, &greedy),
            "cores disagree at k={k}: {v2} vs {greedy}"
        );
        assert_eq!(u.nulls().len(), ANCHORS * k, "chains must materialize");
        assert_eq!(v2.fact_count(), 2 * ANCHORS, "core must be the F/S images");
        let s_v2 = measure(MIN_ITERS, MIN_TIME, || core_of_with_stats(&u));
        let s_greedy = measure(MIN_ITERS, MIN_TIME, || core_of_greedy(&u));
        Record::new("hom/core-chase-output")
            .int("param", k as u64)
            .int("facts", u.fact_count() as u64)
            .int("nulls", u.nulls().len() as u64)
            .int("endos_tried", stats.endos_tried)
            .int("nulls_folded", stats.nulls_folded)
            .int("rounds", stats.rounds)
            .num("greedy_mean_ns", s_greedy.mean_ns())
            .num("speedup", s_greedy.mean_ns() / s_v2.mean_ns())
            .sample(s_v2)
            .emit();
    }
}

/// A copy of `u` with every null id shifted — `hom_equivalent` to `u`,
/// and fingerprint-identical after canonical renaming.
fn rename_nulls(u: &Instance, shift: u64) -> Instance {
    u.map_values(|v| match v {
        Value::Null(id) => Value::Null(NullId(id.0 + shift)),
        v => v,
    })
}

fn bench_equivalence_classes() {
    // The verification workload (`~M` universe indexing, faithfulness
    // matrices): partition chase outputs into hom-equivalence classes.
    // Null-renamed duplicates are the common case there, and exactly what
    // the cache's canonical fingerprint collapses to a string compare.
    const COPIES: usize = 3;
    for shapes in [4usize, 8] {
        let mut universe: Vec<Instance> = Vec::new();
        for s in 0..shapes {
            let m = chain_mapping(3 + s % 3);
            let u = chase_or_panic(&m, &chain_source(&m, 1 + s / 3, s));
            for c in 0..COPIES {
                universe.push(rename_nulls(&u, 1_000 * (c as u64 + 1)));
            }
        }
        let classify = |equiv: &mut dyn FnMut(&Instance, &Instance) -> bool| -> Vec<usize> {
            let mut reps: Vec<usize> = Vec::new();
            let mut class = Vec::new();
            for i in 0..universe.len() {
                match reps.iter().position(|&r| equiv(&universe[r], &universe[i])) {
                    Some(p) => class.push(p),
                    None => {
                        reps.push(i);
                        class.push(reps.len() - 1);
                    }
                }
            }
            class
        };
        let plain = classify(&mut |a, b| hom_equivalent(a, b));
        let cold = HomCache::new();
        let cached = classify(&mut |a, b| cold.hom_equivalent(a, b));
        assert_eq!(plain, cached, "the cache must not change the classes");
        let (hits, misses) = cold.counters();
        let s_plain = measure(MIN_ITERS, MIN_TIME, || {
            classify(&mut |a, b| hom_equivalent(a, b))
        });
        // One cold cache per iteration, as UniverseIndex would create it.
        let s_cached = measure(MIN_ITERS, MIN_TIME, || {
            let c = HomCache::new();
            classify(&mut |a, b| c.hom_equivalent(a, b))
        });
        Record::new("hom/equivalence-classes")
            .int("param", shapes as u64)
            .int("universe", (shapes * COPIES) as u64)
            .int("cache_hits", hits)
            .int("cache_misses", misses)
            .num("plain_mean_ns", s_plain.mean_ns())
            .num("speedup", s_plain.mean_ns() / s_cached.mean_ns())
            .sample(s_cached)
            .emit();
    }
}

fn main() {
    bench_core_chase_output();
    bench_equivalence_classes();
}
