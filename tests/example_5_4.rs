//! Experiment E9: the Inverse walk-through of Example 5.4.
//!
//! The paper computes, for the mapping over `S = {R/2}`,
//!
//! ```text
//! R(x1,x2) ∧ R(x2,x1) → ∃y Q(x1,y)
//! R(x1,x2) → ∃y S(x1,x2,y)
//! R(x1,x1) → U(x1)
//! ```
//!
//! the output `Σ'` consisting of exactly
//!
//! ```text
//! (1) Q(x1,y1) ∧ S(x1,x1,y2) ∧ U(x1) ∧ Constant(x1) → R(x1,x1)
//! (2) S(x1,x2,y) ∧ Constant(x1) ∧ Constant(x2) ∧ x1 ≠ x2 → R(x1,x2)
//! ```

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::paper;

#[test]
fn constant_propagation_holds_as_the_paper_argues() {
    // "the chase of R(x1,x2) is S(x1,x2,y), which contains both
    // variables".
    let m = paper::example_5_4();
    assert!(constant_propagation_property(&m).unwrap());
}

#[test]
fn inverse_output_matches_the_paper() {
    let m = paper::example_5_4();
    let rev = inverse(&m).unwrap().expect("constant propagation holds");
    assert_eq!(rev.deps.len(), 2, "two prime atoms for R/2");

    // Dependency (1): ω(Σ, I_{R(x1,x1)}).
    let d1 = &rev.deps[0];
    assert_eq!(
        d1.to_string(),
        "Q(x1,y1) & S(x1,x1,y2) & U(x1) & const(x1) -> R(x1,x1)"
    );

    // Dependency (2): ω(Σ, I_{R(x1,x2)}).
    let d2 = &rev.deps[1];
    assert_eq!(
        d2.to_string(),
        "S(x1,x2,y1) & const(x1) & const(x2) & x1 != x2 -> R(x1,x2)"
    );

    // Language classification: full tgds with constants and inequalities
    // among constants (Theorem 5.1's exact language).
    for d in &rev.deps {
        assert!(d.is_full());
        assert!(!d.has_disjunction());
    }
    assert!(rev.inequalities_among_constants());
}

#[test]
fn output_verifies_as_an_inverse_on_a_closed_universe() {
    let m = paper::example_5_4();
    let rev = inverse(&m).unwrap().unwrap();
    // All subsets of the 4 possible R-tuples over two constants.
    let universe = ground_instances(&m.source, &["a", "b"], 4);
    assert_eq!(universe.len(), 16);
    let report = is_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
    assert!(report.holds, "mismatches: {:?}", report.mismatches);
}

#[test]
fn inverse_round_trips_exactly() {
    // An inverse recovers the original ground instance itself on these
    // inputs (not merely an equivalent one).
    let m = paper::example_5_4();
    let rev = inverse(&m).unwrap().unwrap();
    for text in ["R(a,a)", "R(a,b)", "R(a,b) R(b,a)", "R(a,a) R(a,b) R(b,b)"] {
        let i = Instance::parse(&m.source, text).unwrap();
        let rt = round_trip(&m, &rev, &i, Default::default()).unwrap();
        assert_eq!(rt.recovered.len(), 1);
        assert_eq!(rt.recovered[0], i, "exact recovery of {text}");
        assert!(rt.is_faithful());
    }
}

#[test]
fn weakest_inverse_is_implied_by_the_join_inverse() {
    // §5: the algorithm's M' is the weakest inverse — any other inverse
    // logically implies it. Spot-check via the copy mapping: its
    // hand-written inverse Q(x,y)∧const(x)∧const(y) → P(x,y) implies the
    // algorithm output on every instance pair we can test.
    let m = paper::copy();
    let algo = inverse(&m).unwrap().unwrap();
    let hand = ReverseMapping::parse(&m, &["Q(x,y) & const(x) & const(y) -> P(x,y)"]).unwrap();
    let universe = ground_instances(&m.source, &["a", "b"], 4);
    for i in &universe {
        let u = m.chase(i).unwrap();
        for k in &universe {
            // hand ⊨ algo: whenever (U, K) satisfies the hand-written
            // dependencies it satisfies the algorithm's.
            if quasi_inverse::chase::satisfies_all_disj_tgds(&u, k, &hand.deps) {
                assert!(
                    quasi_inverse::chase::satisfies_all_disj_tgds(&u, k, &algo.deps),
                    "hand-written inverse fails to imply the weakest one on ({i}, {k})"
                );
            }
        }
    }
}
