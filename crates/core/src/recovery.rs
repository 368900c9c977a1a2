//! Recoveries and maximum recoveries (after Arenas–Pérez–Riveros,
//! "The recovery of a schema mapping: bringing exchanged data back").
//!
//! A reverse mapping `M'` is a *recovery* of `M = (S, T, Σ)` when every
//! source instance round-trips to itself: `(I, I) ∈ Inst(M ∘ M')` for
//! all `I`. Among recoveries, `M'` is a *maximum recovery* when
//! `Inst(M ∘ M')` is as small as possible — equivalently (the
//! characterization this module checks against), when
//!
//! ```text
//! (I₁, I₂) ∈ Inst(M ∘ M')   ⟺   Sol(M, I₂) ⊆ Sol(M, I₁)
//! ```
//!
//! The right-hand side is exactly [`crate::solutions_subset`]`(m, i₂,
//! i₁)`, so maximality has a direct chase-and-hom oracle: the `⊇`
//! direction makes `M'` a recovery (take `I₁ = I₂`), and the `⊆`
//! direction says the composition admits *only* the sol-containment
//! pairs — no recovery can admit fewer, because `Sol(I₂) ⊆ Sol(I₁)`
//! forces `(I₁, I₂)` into the composition of every recovery.
//!
//! ## Construction
//!
//! For s-t tgd mappings the QuasiInverse construction (§4 of the
//! quasi-inverse paper: `Σ*` + MinGen, with constant and inequality
//! guards) *is* a maximum-recovery construction:
//!
//! * each emitted dependency recovers, from a solution's `ψ_T(x)`
//!   pattern with `x` constants, the disjunction of all minimal source
//!   patterns that could have exported it — so the chase of `I` recovers
//!   a `V` with `Sol(V) ⊇ Sol(I)` witnessed inside `I` itself, making
//!   the output a recovery;
//! * conversely every recovered leaf is a union of MinGen generators
//!   instantiated over `chase(I)`'s constants, and generators are sound:
//!   any `I₂` a leaf maps into satisfies `Sol(I₂) ⊆ Sol(I₁)`.
//!
//! [`maximum_recovery`] therefore shares its implementation with
//! [`crate::quasi_inverse()`]; the point of the separate entry is the
//! *contract* — the output is a maximum recovery for **every** s-t tgd
//! mapping, whereas it is a quasi-inverse only for quasi-invertible
//! ones. The bounded verifiers below check both halves of the contract
//! on finite universes, and `tests/algebra_oracle.rs` drives them as
//! differential oracles over random mappings.

use crate::error::CoreError;
use crate::exchange::composition_contains;
use crate::mapping::{ReverseMapping, SchemaMapping};
use crate::quasi_inverse::{quasi_inverse_with_stats, QuasiInverseOptions};
use crate::verify::{composition_matrix, VerifyReport};
use qi_exec::{Budget, ExecStats};
use qi_schema::{HomCache, Instance};

/// Compute a maximum recovery of the s-t tgd mapping `m`.
///
/// The construction is total: unlike inverses (which need the
/// constant-propagation property) and quasi-inverses (which need
/// quasi-invertibility), every s-t tgd mapping has a maximum recovery,
/// and this function always returns one.
///
/// ```
/// use qi_core::{maximum_recovery, QuasiInverseOptions, SchemaMapping};
///
/// // Projection is not invertible, but it has a maximum recovery.
/// let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
/// let mr = maximum_recovery(&m, &QuasiInverseOptions::default()).unwrap();
/// assert_eq!(mr.deps[0].to_string(), "Q(x) & const(x) -> exists z0 . P(x,z0)");
/// ```
pub fn maximum_recovery(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<ReverseMapping, CoreError> {
    Ok(maximum_recovery_with_stats(m, options)?.0)
}

/// [`maximum_recovery`] plus the aggregated executor counters of the
/// underlying `Σ*` + MinGen runs.
pub fn maximum_recovery_with_stats(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<(ReverseMapping, ExecStats), CoreError> {
    quasi_inverse_with_stats(m, options)
}

/// Is `rev` a recovery of `m` *at* the ground instance `i` — does
/// `(i, i) ∈ Inst(m ∘ rev)` hold? Exact, via the Proposition 6.6
/// composition-membership machinery; `rev` must be guard-complete.
pub fn is_recovery_on(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    i: &Instance,
) -> Result<bool, CoreError> {
    composition_contains(m, rev, i, i)
}

/// Outcome of a bounded recovery check over a finite universe.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// No failure found within the universe.
    pub holds: bool,
    /// Universe indexes `i` where `(Iᵢ, Iᵢ) ∉ Inst(m ∘ rev)`.
    pub failures: Vec<usize>,
    /// Number of instances examined.
    pub checked: usize,
}

/// Bounded recovery check: does `(I, I) ∈ Inst(m ∘ rev)` hold for every
/// instance of the universe? The definition quantifies over all ground
/// instances, so — as with the inverse verifiers of [`crate::verify`] —
/// a clean report is evidence, while any failure is a conclusive
/// counterexample (each per-instance check is exact). The cooperative
/// `budget` is checked per universe instance and threaded into every
/// recovery chase, so the sweep is interruptible with a structured
/// [`CoreError::Resource`].
pub fn is_recovery_bounded(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    universe: &[Instance],
    budget: &Budget,
) -> Result<RecoveryReport, CoreError> {
    let comp = composition_matrix(m, rev, universe, budget)?;
    let failures: Vec<usize> = (0..universe.len()).filter(|&i| !comp[i][i]).collect();
    Ok(RecoveryReport {
        holds: failures.is_empty(),
        failures,
        checked: universe.len(),
    })
}

/// Bounded maximum-recovery check against the characterization
/// `(I₁, I₂) ∈ Inst(m ∘ rev) ⟺ Sol(m, I₂) ⊆ Sol(m, I₁)`: every
/// universe pair must agree between the exact composition-membership
/// test and the chase-and-hom solution-containment test. A clean report
/// subsumes [`is_recovery_bounded`] (the diagonal pairs are the
/// recovery condition); any mismatch pair is a conclusive witness that
/// `rev` either is not a recovery or admits a non-minimal pair. The
/// cooperative `budget` is checked per composition-matrix row and
/// inherited by every chase on both sides of the comparison.
pub fn is_maximum_recovery_bounded(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    universe: &[Instance],
    budget: &Budget,
) -> Result<VerifyReport, CoreError> {
    let comp = composition_matrix(m, rev, universe, budget)?;
    // Chase each universe member once; the hom probes below are the
    // sol-containment side of the characterization, memoized because
    // small ground universes chase to highly symmetric targets.
    let chased: Vec<Instance> = universe
        .iter()
        .map(|i| m.chase_budgeted(i, budget))
        .collect::<Result<_, _>>()?;
    let cache = HomCache::new();
    let n = universe.len();
    let mut mismatches = Vec::new();
    for i1 in 0..n {
        for i2 in 0..n {
            // Sol(I₂) ⊆ Sol(I₁) ⟺ chase(I₁) → chase(I₂).
            let sol = cache.has_hom(&chased[i1], &chased[i2]);
            if comp[i1][i2] != sol {
                mismatches.push((i1, i2));
            }
        }
    }
    Ok(VerifyReport {
        holds: mismatches.is_empty(),
        mismatches,
        checked: n * n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::ground_instances;

    #[test]
    fn projection_maximum_recovery_verifies() {
        let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
        let mr = maximum_recovery(&m, &QuasiInverseOptions::default()).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 2);
        let rec = is_recovery_bounded(&m, &mr, &universe, &Budget::unlimited()).unwrap();
        assert!(rec.holds, "failures: {:?}", rec.failures);
        let max = is_maximum_recovery_bounded(&m, &mr, &universe, &Budget::unlimited()).unwrap();
        assert!(max.holds, "mismatches: {:?}", max.mismatches);
    }

    #[test]
    fn union_maximum_recovery_verifies() {
        let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
        let mr = maximum_recovery(&m, &QuasiInverseOptions::default()).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 2);
        assert!(
            is_maximum_recovery_bounded(&m, &mr, &universe, &Budget::unlimited())
                .unwrap()
                .holds
        );
    }

    #[test]
    fn transposed_copy_is_not_a_recovery() {
        let m = SchemaMapping::parse("P/2", "Q/2", &["P(x,y) -> Q(x,y)"]).unwrap();
        let wrong = ReverseMapping::parse(&m, &["Q(x,y) & const(x) & const(y) -> P(y,x)"]).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 1);
        let rec = is_recovery_bounded(&m, &wrong, &universe, &Budget::unlimited()).unwrap();
        assert!(!rec.holds);
        // The failing instances are exactly the asymmetric ones, and the
        // per-instance exact check agrees index by index.
        for (k, i) in universe.iter().enumerate() {
            assert_eq!(
                is_recovery_on(&m, &wrong, i).unwrap(),
                !rec.failures.contains(&k)
            );
        }
        assert!(
            !is_maximum_recovery_bounded(&m, &wrong, &universe, &Budget::unlimited())
                .unwrap()
                .holds
        );
    }

    #[test]
    fn a_recovery_that_is_not_maximum() {
        // The empty reverse mapping recovers *everything*: Inst(m ∘ ∅)
        // is the full relation, so it is a recovery of any mapping — and
        // maximally non-minimal, which the characterization catches.
        let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
        let empty = ReverseMapping::new(m.target.clone(), m.source.clone(), vec![]).unwrap();
        let universe = ground_instances(&m.source, &["a"], 2);
        let rec = is_recovery_bounded(&m, &empty, &universe, &Budget::unlimited()).unwrap();
        assert!(rec.holds);
        let max = is_maximum_recovery_bounded(&m, &empty, &universe, &Budget::unlimited()).unwrap();
        assert!(!max.holds, "the empty recovery admits non-minimal pairs");
    }
}
