//! Theorems 4.6 and 4.7, constructively (the specialized quasi-inverse
//! languages): full mappings get guard-free disjunctive quasi-inverses,
//! LAV mappings get disjunction-free ones — both verified against
//! Definition 3.8 on exhaustive bounded universes.

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::core::{quasi_inverse_full, quasi_inverse_lav};
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::paper;
use quasi_inverse::workloads::random::{random_mapping, rng, MappingParams};

fn closed_universe(m: &SchemaMapping) -> Option<Vec<Instance>> {
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    (tuples <= 8).then(|| ground_instances(&m.source, &["a", "b"], tuples))
}

#[test]
fn thm_4_6_guard_free_output_verifies_on_full_mappings() {
    for m in [
        paper::union_mapping(),
        paper::decomposition(),
        paper::copy(),
        paper::thm_4_10(),
        paper::thm_4_11(),
    ] {
        assert!(m.is_full());
        let rev = quasi_inverse_full(&m, &Default::default()).unwrap();
        assert!(
            !rev.language_features().constants,
            "no Constant guards (Theorem 4.6)"
        );
        // Guard-free outputs are not guard-complete, so the exact
        // Def-3.8 verifier refuses them; validate behaviourally instead:
        // identical recovery leaves as the guarded output on every
        // instance of the universe (full chase ⇒ ground U ⇒ guards are
        // vacuous).
        let guarded = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
        let universe = closed_universe(&m).expect("paper mappings are small");
        for i in &universe {
            let a = quasi_inverse::core::exchange::recovery_leaves(&m, &rev, i, Default::default())
                .unwrap();
            let b =
                quasi_inverse::core::exchange::recovery_leaves(&m, &guarded, i, Default::default())
                    .unwrap();
            assert_eq!(a, b, "guard-free behaviour differs on {i} for {m}");
        }
    }
}

#[test]
fn thm_4_6_rejects_non_full_mappings() {
    let m = paper::thm_4_8(); // has existentials
    assert!(quasi_inverse_full(&m, &Default::default()).is_err());
}

#[test]
fn thm_4_7_disjunction_free_output_verifies_on_lav_mappings() {
    for m in [
        paper::projection(),
        paper::union_mapping(),
        paper::decomposition(),
        paper::copy(),
        paper::thm_4_8(),
        paper::thm_4_9(),
        paper::thm_4_11(),
    ] {
        assert!(m.is_lav());
        let rev = quasi_inverse_lav(&m).unwrap();
        let f = rev.language_features();
        assert!(!f.disjunction, "no disjunction (Theorem 4.7) for {m}");
        let Some(universe) = closed_universe(&m) else {
            continue;
        };
        let report = is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(
            report.holds,
            "Thm 4.7 output fails Def 3.8 on {m}: {:?}",
            report.mismatches
        );
    }
}

#[test]
fn thm_4_7_output_is_faithful_per_instance() {
    // Faithfulness on random LAV mappings (beyond the bounded check).
    use quasi_inverse::workloads::random::{random_ground_instance, InstanceParams};
    for seed in 0..10 {
        let mut r = rng(3000 + seed);
        let m = random_mapping(
            &mut r,
            &MappingParams {
                lav: true,
                n_tgds: 3,
                max_arity: 2,
                ..Default::default()
            },
        );
        let rev = quasi_inverse_lav(&m).unwrap();
        for _ in 0..3 {
            let i = random_ground_instance(
                &m.source,
                &mut r,
                &InstanceParams {
                    n_consts: 3,
                    n_facts: 4,
                },
            );
            let rt = round_trip(&m, &rev, &i, Default::default()).unwrap();
            assert!(rt.is_sound(), "unsound on seed {seed}, {i}\n{m}");
            assert!(rt.is_faithful(), "unfaithful on seed {seed}, {i}\n{m}");
        }
    }
}

#[test]
fn thm_4_7_rejects_non_lav_mappings() {
    let m = paper::prop_3_12();
    assert!(quasi_inverse_lav(&m).is_err());
}

#[test]
fn lav_construction_matches_paper_quasi_inverses() {
    // For Projection the construction gives exactly the paper's
    // Q(x) → ∃y P(x,y) (guarded); for Union, the conjunction-flavoured
    // quasi-inverse S(x) → P(x) "and" S(x) → Q(x) the paper also lists.
    let m = paper::projection();
    let rev = quasi_inverse_lav(&m).unwrap();
    // Prime atoms P(x1,x1) and P(x1,x2) both chase to Q(x1): two
    // dependencies, the distinct-variable one being exactly the paper's
    // Q(x) → ∃y P(x,y) (guarded).
    assert_eq!(rev.deps.len(), 2);
    assert_eq!(rev.deps[0].to_string(), "Q(x1) & const(x1) -> P(x1,x1)");
    assert_eq!(
        rev.deps[1].to_string(),
        "Q(x1) & const(x1) -> exists x2 . P(x1,x2)"
    );
    let m = paper::union_mapping();
    let rev = quasi_inverse_lav(&m).unwrap();
    assert_eq!(rev.deps.len(), 2);
    assert_eq!(rev.deps[0].to_string(), "S(x1) & const(x1) -> P(x1)");
    assert_eq!(rev.deps[1].to_string(), "S(x1) & const(x1) -> Q(x1)");
}
