//! Experiment E1: the catalogue — every named mapping of the paper is
//! pushed through the algorithms, and the computed verdicts are compared
//! with the paper's claims.

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::{catalogue, paper};

/// Union/subset-closed two-constant universe for mappings with a small
/// tuple universe.
fn closed_universe(m: &SchemaMapping) -> Option<Vec<Instance>> {
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    (tuples <= 8).then(|| ground_instances(&m.source, &["a", "b"], tuples))
}

#[test]
fn algorithms_run_on_every_catalogue_entry() {
    for entry in catalogue() {
        let qi = quasi_inverse::core::quasi_inverse(&entry.mapping, &Default::default())
            .unwrap_or_else(|e| panic!("QuasiInverse failed on {}: {e}", entry.name));
        assert!(!qi.deps.is_empty(), "{}", entry.name);
        // The algorithm's output is always guard-complete and uses
        // inequalities only among constants — the exact language of
        // Theorems 4.1 / 6.7.
        assert!(qi.inequalities_among_constants(), "{}", entry.name);
        // Inverse either halts without output (constant propagation
        // fails) or produces full tgds with constants and inequalities.
        if let Some(inv) = inverse(&entry.mapping).unwrap() {
            for d in &inv.deps {
                assert!(d.is_full(), "{}", entry.name);
            }
            assert!(inv.inequalities_among_constants(), "{}", entry.name);
        }
    }
}

#[test]
fn invertibility_claims_match_bounded_verification() {
    for entry in catalogue() {
        let Some(universe) = closed_universe(&entry.mapping) else {
            continue;
        };
        let computed = match inverse(&entry.mapping).unwrap() {
            None => false, // Prop 5.3: no constant propagation ⇒ no inverse
            Some(rev) => {
                is_inverse_bounded(&entry.mapping, &rev, &universe, &Budget::unlimited())
                    .unwrap()
                    .holds
            }
        };
        if let Some(claimed) = entry.verdict.invertible {
            assert_eq!(
                computed, claimed,
                "invertibility verdict mismatch for {}",
                entry.name
            );
        }
    }
}

#[test]
fn quasi_invertibility_claims_match_bounded_verification() {
    for entry in catalogue() {
        // prop-3.12's refutation needs three constants — covered
        // conclusively in tests/prop_3_12.rs; the two-constant universe
        // here cannot see it.
        if entry.name == "prop-3.12" {
            continue;
        }
        let Some(universe) = closed_universe(&entry.mapping) else {
            continue;
        };
        let qi = quasi_inverse::core::quasi_inverse(&entry.mapping, &Default::default()).unwrap();
        let computed =
            is_quasi_inverse_bounded(&entry.mapping, &qi, &universe, &Budget::unlimited())
                .unwrap()
                .holds;
        if let Some(claimed) = entry.verdict.quasi_invertible {
            assert_eq!(
                computed, claimed,
                "quasi-invertibility verdict mismatch for {}",
                entry.name
            );
        }
    }
}

#[test]
fn non_invertibility_follows_from_unique_solutions_failures() {
    // §1's argument: projection, union, decomposition all fail the
    // unique-solutions property, hence have no inverse.
    for m in [
        paper::projection(),
        paper::union_mapping(),
        paper::decomposition(),
    ] {
        let universe = closed_universe(&m).expect("small universes");
        assert!(unique_solutions_bounded(&m, &universe).unwrap().is_some());
    }
}

#[test]
fn lav_entries_have_quasi_inverses_with_union_witness() {
    // Prop 3.11 across every LAV mapping of the catalogue.
    for entry in catalogue() {
        if !entry.mapping.is_lav() {
            continue;
        }
        let Some(universe) = closed_universe(&entry.mapping) else {
            continue;
        };
        assert!(
            union_witness_subset_property(&entry.mapping, &universe)
                .unwrap()
                .is_none(),
            "union witness fails for LAV mapping {}",
            entry.name
        );
    }
}
