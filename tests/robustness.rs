//! Experiment E6: the robustness claims of §1.
//!
//! * Augmenting the source schema of an invertible mapping `M` with a new
//!   relation symbol destroys invertibility (the new relation never
//!   reaches the target) …
//! * … yet **every inverse of `M` is a quasi-inverse of the augmented
//!   mapping `M*`**, and
//! * a quasi-inverse `M'` of a non-invertible `M` remains a quasi-inverse
//!   after augmentation.

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::paper;

fn reparse_reverse(m_aug: &SchemaMapping, rev: &ReverseMapping) -> ReverseMapping {
    let texts: Vec<String> = rev.deps.iter().map(|d| d.to_string()).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    ReverseMapping::parse(m_aug, &refs).expect("same dependencies over augmented schemas")
}

fn closed_universe(m: &SchemaMapping) -> Vec<Instance> {
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    ground_instances(&m.source, &["a", "b"], tuples)
}

#[test]
fn augmentation_destroys_invertibility() {
    let m = paper::copy();
    assert!(constant_propagation_property(&m).unwrap());
    let m_aug = m.augment_source(&[("Extra", 1)]).unwrap();
    // Constant propagation fails for Extra ⇒ not invertible (Prop 5.3).
    assert!(!constant_propagation_property(&m_aug).unwrap());
    assert!(inverse(&m_aug).unwrap().is_none());
    // And the unique-solutions property fails: instances differing only
    // in Extra share all solutions.
    let universe = closed_universe(&m_aug);
    assert!(unique_solutions_bounded(&m_aug, &universe)
        .unwrap()
        .is_some());
}

#[test]
fn old_inverse_becomes_a_quasi_inverse_of_the_augmented_mapping() {
    let m = paper::copy();
    let inv = inverse(&m).unwrap().expect("copy is invertible");
    let m_aug = m.augment_source(&[("Extra", 1)]).unwrap();
    let inv_aug = reparse_reverse(&m_aug, &inv);
    let universe = closed_universe(&m_aug);
    // Not an inverse any more …
    let inv_report = is_inverse_bounded(&m_aug, &inv_aug, &universe, &Budget::unlimited()).unwrap();
    assert!(!inv_report.holds);
    // … but a quasi-inverse (the §1 claim).
    let qi_report =
        is_quasi_inverse_bounded(&m_aug, &inv_aug, &universe, &Budget::unlimited()).unwrap();
    assert!(qi_report.holds, "mismatches: {:?}", qi_report.mismatches);
}

#[test]
fn quasi_inverse_survives_augmentation_of_non_invertible_mapping() {
    // "if M' is a quasi-inverse of a non-invertible M, then
    //  M'' = (T, S ∪ {R}, Σ') is a quasi-inverse of M*."
    let m = paper::projection();
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let m_aug = m.augment_source(&[("Extra", 1)]).unwrap();
    let rev_aug = reparse_reverse(&m_aug, &rev);
    let universe = closed_universe(&m_aug);
    let report =
        is_quasi_inverse_bounded(&m_aug, &rev_aug, &universe, &Budget::unlimited()).unwrap();
    assert!(report.holds, "mismatches: {:?}", report.mismatches);
}

#[test]
fn round_trips_remain_faithful_on_the_augmented_mapping() {
    let m = paper::copy();
    let inv = inverse(&m).unwrap().unwrap();
    let m_aug = m.augment_source(&[("Extra", 1)]).unwrap();
    let inv_aug = reparse_reverse(&m_aug, &inv);
    // The Extra facts are unrecoverable, but the exchange-relevant part
    // comes back intact: chase(V) ≡hom U.
    let i = Instance::parse(&m_aug.source, "P(a,b) Extra(q)").unwrap();
    let rt = round_trip(&m_aug, &inv_aug, &i, Default::default()).unwrap();
    assert!(rt.is_faithful());
    let v = rt.recovered_equivalent().unwrap();
    let p = m_aug.source.rel("P").unwrap();
    let extra = m_aug.source.rel("Extra").unwrap();
    assert_eq!(v.rel_len(p), 1, "P content recovered");
    assert_eq!(v.rel_len(extra), 0, "Extra content is gone, as expected");
}

#[test]
fn augmentation_composes() {
    // Adding several relations one at a time equals adding them at once.
    let m = paper::copy();
    let twice = m
        .augment_source(&[("A", 1)])
        .unwrap()
        .augment_source(&[("B", 2)])
        .unwrap();
    let at_once = m.augment_source(&[("A", 1), ("B", 2)]).unwrap();
    assert!(twice.source.same_as(&at_once.source));
    assert_eq!(twice.tgds.len(), at_once.tgds.len());
}
