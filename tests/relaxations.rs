//! The spectrum of `(~1,~2)`-inverses (§3): Propositions 3.7 and 3.9,
//! the mixed relaxations in between, and the unique-solutions /
//! subset-property separation the paper defers to its full version.

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::core::is_relaxed_inverse_bounded;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::paper;

fn closed_universe(m: &SchemaMapping) -> Vec<Instance> {
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    ground_instances(&m.source, &["a", "b"], tuples)
}

#[test]
fn prop_3_7_inverse_is_every_relaxation() {
    // An (=,=)-inverse is a (~1,~2)-inverse for every coarser pair.
    let m = paper::copy();
    let rev = inverse(&m).unwrap().unwrap();
    let universe = closed_universe(&m);
    for rel1 in [Relation::Equality, Relation::SolutionEquiv] {
        for rel2 in [Relation::Equality, Relation::SolutionEquiv] {
            let report =
                is_relaxed_inverse_bounded(&m, &rev, rel1, rel2, &universe, &Budget::unlimited())
                    .unwrap();
            assert!(report.holds, "({rel1:?},{rel2:?}) fails");
        }
    }
}

#[test]
fn prop_3_9_quasi_inverse_of_invertible_mapping_is_an_inverse() {
    // For invertible mappings, ~M collapses to equality, so the
    // QuasiInverse algorithm's output must also verify as an inverse.
    let m = paper::copy();
    let qi = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let universe = closed_universe(&m);
    let as_quasi = is_quasi_inverse_bounded(&m, &qi, &universe, &Budget::unlimited()).unwrap();
    let as_inverse = is_inverse_bounded(&m, &qi, &universe, &Budget::unlimited()).unwrap();
    assert!(as_quasi.holds);
    assert!(as_inverse.holds, "Proposition 3.9");
}

#[test]
fn remark_after_prop_3_9_quasi_inverse_algorithm_may_use_disjunction() {
    // §5's closing remark: on an invertible mapping the QuasiInverse
    // algorithm can produce disjunctions even though the Inverse
    // algorithm finds a disjunction-free inverse.
    let m = paper::example_5_4();
    let qi = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let inv = inverse(&m).unwrap().unwrap();
    assert!(qi.language_features().disjunction);
    assert!(!inv.language_features().disjunction);
}

#[test]
fn mixed_relaxations_interpolate_on_projection() {
    // Projection has a quasi-inverse but no inverse; the mixed
    // (=,~M)-relaxation sits in between and is satisfied by the
    // algorithm's output (the union-witness proof gives the stronger
    // (=,~M)-subset property for LAV mappings).
    let m = paper::projection();
    let qi = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let universe = closed_universe(&m);
    let strict = is_relaxed_inverse_bounded(
        &m,
        &qi,
        Relation::Equality,
        Relation::Equality,
        &universe,
        &Budget::unlimited(),
    )
    .unwrap();
    assert!(!strict.holds);
    let mixed = is_relaxed_inverse_bounded(
        &m,
        &qi,
        Relation::Equality,
        Relation::SolutionEquiv,
        &universe,
        &Budget::unlimited(),
    )
    .unwrap();
    assert!(mixed.holds, "mismatches: {:?}", mixed.mismatches);
    let loose = is_relaxed_inverse_bounded(
        &m,
        &qi,
        Relation::SolutionEquiv,
        Relation::SolutionEquiv,
        &universe,
        &Budget::unlimited(),
    )
    .unwrap();
    assert!(loose.holds);
}

#[test]
fn unique_solutions_does_not_imply_the_subset_property() {
    // The separation mapping: unique solutions holds, (=,=)-subset fails.
    let m = paper::unique_solutions_without_subset_property();
    let universe = closed_universe(&m);
    assert!(
        unique_solutions_bounded(&m, &universe).unwrap().is_none(),
        "unique solutions must hold"
    );
    let subset =
        subset_property_bounded(&m, Relation::Equality, Relation::Equality, &universe).unwrap();
    assert!(!subset.holds, "(=,=)-subset property must fail");
    // The witnessing pair from the doc comment.
    let i1 = Instance::parse(&m.source, "P(a)").unwrap();
    let i2 = Instance::parse(&m.source, "Q(a)").unwrap();
    assert!(solutions_subset(&m, &i2, &i1).unwrap());
    assert!(!i1.is_subinstance_of(&i2).unwrap());
}

#[test]
fn separation_mapping_chase_is_injective() {
    // Sanity for the separation argument: distinct instances have
    // distinct chases over the whole universe.
    let m = paper::unique_solutions_without_subset_property();
    let universe = closed_universe(&m);
    let chases: Vec<Instance> = universe.iter().map(|i| m.chase(i).unwrap()).collect();
    for a in 0..universe.len() {
        for b in a + 1..universe.len() {
            assert_ne!(chases[a], chases[b], "{} vs {}", universe[a], universe[b]);
        }
    }
}
