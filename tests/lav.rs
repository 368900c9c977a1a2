//! Experiment E5: Proposition 3.11 / Theorem 4.7 — every LAV schema
//! mapping has a quasi-inverse — exercised on random LAV mappings.

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::random::{
    random_ground_instance, random_mapping, rng, InstanceParams, MappingParams,
};

fn lav_params() -> MappingParams {
    MappingParams {
        n_source_rels: 2,
        n_target_rels: 2,
        max_arity: 2,
        n_tgds: 3,
        lav: true,
        full: false,
        max_body_atoms: 1,
        max_head_atoms: 2,
    }
}

/// Closed two-constant universe over a random mapping's source schema.
fn closed_universe(m: &SchemaMapping) -> Vec<Instance> {
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    ground_instances(&m.source, &["a", "b"], tuples)
}

#[test]
fn union_witness_validates_on_random_lav_mappings() {
    // Prop 3.11's proof: I2 ~M I1 ∪ I2 whenever Sol(I2) ⊆ Sol(I1).
    for seed in 0..12 {
        let m = random_mapping(&mut rng(seed), &lav_params());
        let universe = closed_universe(&m);
        assert!(
            union_witness_subset_property(&m, &universe)
                .unwrap()
                .is_none(),
            "union witness failed for seed {seed}: {m}"
        );
    }
}

#[test]
fn subset_property_holds_on_random_lav_mappings() {
    for seed in 0..8 {
        let m = random_mapping(&mut rng(100 + seed), &lav_params());
        let universe = closed_universe(&m);
        let r = subset_property_bounded(
            &m,
            Relation::SolutionEquiv,
            Relation::SolutionEquiv,
            &universe,
        )
        .unwrap();
        assert!(r.holds, "seed {seed}: {m}");
    }
}

#[test]
fn quasi_inverse_outputs_round_trip_soundly_and_faithfully() {
    // Theorems 6.7/6.8 on random LAV mappings (which are always
    // quasi-invertible, so the algorithm output is a quasi-inverse and
    // must be sound + faithful).
    let ip = InstanceParams {
        n_consts: 3,
        n_facts: 4,
    };
    for seed in 0..10 {
        let mut r = rng(1000 + seed);
        let m = random_mapping(&mut r, &lav_params());
        let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{m}"));
        for _ in 0..3 {
            let i = random_ground_instance(&m.source, &mut r, &ip);
            let rt = round_trip(&m, &rev, &i, Default::default())
                .unwrap_or_else(|e| panic!("seed {seed} on {i}: {e}"));
            assert!(rt.is_sound(), "unsound: seed {seed}, I = {i}, M = {m}");
            assert!(
                rt.is_faithful(),
                "unfaithful: seed {seed}, I = {i}, M = {m}"
            );
        }
    }
}

#[test]
fn nullary_head_variables_are_not_a_thing_but_unary_lav_works() {
    // Degenerate LAV shapes: single unary relation each side.
    let m = SchemaMapping::parse("P/1", "Q/1", &["P(x) -> Q(x)"]).unwrap();
    let universe = closed_universe(&m);
    assert!(union_witness_subset_property(&m, &universe)
        .unwrap()
        .is_none());
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let report = is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
    assert!(report.holds);
}

#[test]
fn non_lav_mapping_can_fail_the_union_witness() {
    // Sanity: the union witness is a LAV phenomenon — Prop 3.12's GAV
    // mapping breaks it (so the test above is not vacuous).
    let m = quasi_inverse::workloads::paper::prop_3_12();
    let universe = ground_instances(&m.source, &["a", "b", "c"], 4);
    assert!(union_witness_subset_property(&m, &universe)
        .unwrap()
        .is_some());
}
