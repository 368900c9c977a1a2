//! Bounded verification of Definitions 3.3 / 3.8: is a candidate reverse
//! mapping an inverse / quasi-inverse of a schema mapping?
//!
//! Definition 3.8 requires `Inst(Id)[~M,~M] = Inst(M ∘ M')[~M,~M]` — a
//! condition quantifying over all pairs of ground instances, with inner
//! existential quantifiers again over all ground instances. Decidability
//! is open (§7), so these checkers quantify **both** levels over a finite
//! caller-supplied universe:
//!
//! * a returned *mismatch* whose left side holds via an in-universe
//!   witness but whose right side has no in-universe witness (or vice
//!   versa) is a counterexample *candidate* — conclusive only if a
//!   separate argument confines witnesses to the universe;
//! * agreement on a universe that is closed under the constructions the
//!   paper's proofs use (unions, subinstances over the same constants) is
//!   strong evidence and, on the paper's own example mappings, matches
//!   the claimed verdicts exactly (see `tests/paper_catalogue.rs`).
//!
//! Composition membership is exact, via Proposition 6.6
//! ([`crate::exchange::composition_contains`]); the reverse mapping must
//! be guard-complete.

use crate::error::{CoreError, CorePartial};
use crate::exchange::{guard_complete, recovery_leaves};
use crate::framework::{index_universe, Relation};
use crate::mapping::{ReverseMapping, SchemaMapping};
use qi_chase::DisjChaseOptions;
use qi_exec::{Budget, ExecStats};
use qi_schema::{HomCache, Instance};

/// Outcome of a bounded inverse / quasi-inverse verification.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// No mismatch found within the universe.
    pub holds: bool,
    /// Pairs `(i, j)` of universe indexes where the two sides of the
    /// definition disagree (with witnesses restricted to the universe).
    pub mismatches: Vec<(usize, usize)>,
    /// Number of pairs examined.
    pub checked: usize,
}

/// The exact composition-membership matrix over a universe:
/// `matrix[i][k]` is `(universe[i], universe[k]) ∈ Inst(m ∘ rev)`.
/// Shared by the inverse verifiers here and the recovery checks of
/// [`crate::recovery`].
pub(crate) fn composition_matrix(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    universe: &[Instance],
    budget: &Budget,
) -> Result<Vec<Vec<bool>>, CoreError> {
    if !guard_complete(rev) {
        return Err(CoreError::Precondition(
            "bounded verification requires a guard-complete reverse mapping".into(),
        ));
    }
    // Distinct universe instances frequently chase to fingerprint-equal
    // leaves (ground universes are small and highly symmetric), so one
    // cache serves the whole matrix. Cached booleans are pure: the matrix
    // is identical with or without it.
    let cache = HomCache::new();
    let limited = !budget.is_unlimited();
    let mut rows = Vec::with_capacity(universe.len());
    for i in universe {
        // Per-row budget check; every row's recovery chase also inherits
        // the budget, so the matrix as a whole is interruptible.
        if limited {
            if let Err(e) = budget.check() {
                return Err(CoreError::resource(
                    e,
                    ExecStats::default(),
                    CorePartial::None,
                ));
            }
        }
        let options = DisjChaseOptions {
            exec: qi_exec::ExecConfig::default().with_budget(budget.clone()),
            ..Default::default()
        };
        let leaves = recovery_leaves(m, rev, i, options)?;
        let row: Vec<bool> = universe
            .iter()
            .map(|k| leaves.iter().any(|v| cache.has_hom(v, k)))
            .collect();
        rows.push(row);
    }
    Ok(rows)
}

/// Bounded check of Definition 3.3 for arbitrary refinement relations:
/// is `rev` a `(~1,~2)`-inverse of `m` as far as the universe can tell?
/// For every pair `(I₁, I₂)` of universe instances,
///
/// * LHS: ∃ in-universe `(I₁', I₂')` with `I₁ ~1 I₁'`, `I₂ ~2 I₂'` and
///   `I₁' ⊆ I₂'` — i.e. `(I₁,I₂) ∈ Inst(Id)[~1,~2]` restricted to the
///   universe;
/// * RHS: same witnesses but with `(I₁', I₂') ∈ Inst(M ∘ M')`;
///
/// and the two must coincide. With `(=,=)` this is Definition 3.3's
/// inverse; with `(~M,~M)` Definition 3.8's quasi-inverse; the mixed
/// combinations realize the intermediate relaxations of §3.
///
/// The cooperative `budget` bounds the composition matrix (the
/// expensive part — one disjunctive chase per universe instance): it is
/// checked per row and threaded into every chase, so the verification
/// is interruptible. A trip surfaces as [`CoreError::Resource`]; the
/// verdict of an under-budget run is identical to an unlimited one.
pub fn is_relaxed_inverse_bounded(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    rel1: Relation,
    rel2: Relation,
    universe: &[Instance],
    budget: &Budget,
) -> Result<VerifyReport, CoreError> {
    let comp = composition_matrix(m, rev, universe, budget)?;
    let idx = index_universe(m, universe)?;
    let n = universe.len();
    // The ~i-witness candidates for each instance: itself for `=`, its
    // whole ~M class for `~M`.
    let witnesses = |rel: Relation, a: usize| -> Vec<usize> {
        match rel {
            Relation::Equality => vec![a],
            Relation::SolutionEquiv => (0..n).filter(|&w| idx.class[w] == idx.class[a]).collect(),
        }
    };
    // Precompute subinstance pairs.
    let mut subset = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            subset[a][b] = universe[a].is_subinstance_of(&universe[b])?;
        }
    }
    let mut mismatches = Vec::new();
    let mut checked = 0usize;
    for a in 0..n {
        let w1s = witnesses(rel1, a);
        for b in 0..n {
            checked += 1;
            let w2s = witnesses(rel2, b);
            let lhs = w1s.iter().any(|&w1| w2s.iter().any(|&w2| subset[w1][w2]));
            let rhs = w1s.iter().any(|&w1| w2s.iter().any(|&w2| comp[w1][w2]));
            if lhs != rhs {
                mismatches.push((a, b));
            }
        }
    }
    Ok(VerifyReport {
        holds: mismatches.is_empty(),
        mismatches,
        checked,
    })
}

/// Bounded check of Definition 3.3 with `(~1,~2) = (=,=)`: is `rev` an
/// inverse of `m` as far as the universe can tell? For every pair,
/// `I₁ ⊆ I₂` must coincide with `(I₁, I₂) ∈ Inst(M ∘ M')`. The budget
/// is that of [`is_relaxed_inverse_bounded`].
pub fn is_inverse_bounded(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    universe: &[Instance],
    budget: &Budget,
) -> Result<VerifyReport, CoreError> {
    is_relaxed_inverse_bounded(
        m,
        rev,
        Relation::Equality,
        Relation::Equality,
        universe,
        budget,
    )
}

/// Bounded check of Definition 3.8 (`(~M,~M)`-inverse): is `rev` a
/// quasi-inverse of `m` as far as the universe can tell? The budget is
/// that of [`is_relaxed_inverse_bounded`].
pub fn is_quasi_inverse_bounded(
    m: &SchemaMapping,
    rev: &ReverseMapping,
    universe: &[Instance],
    budget: &Budget,
) -> Result<VerifyReport, CoreError> {
    is_relaxed_inverse_bounded(
        m,
        rev,
        Relation::SolutionEquiv,
        Relation::SolutionEquiv,
        universe,
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::ground_instances;
    use crate::inverse::inverse;
    use crate::quasi_inverse::{quasi_inverse, QuasiInverseOptions};

    #[test]
    fn projection_algorithm_output_verifies_as_quasi_inverse() {
        let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 2);
        let report = is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(report.holds, "mismatches: {:?}", report.mismatches);
        // ... but it is NOT an inverse (projection is not invertible).
        let inv_report = is_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(!inv_report.holds);
    }

    #[test]
    fn copy_inverse_verifies() {
        let m = SchemaMapping::parse("P/1", "Q/1", &["P(x) -> Q(x)"]).unwrap();
        let rev = inverse(&m).unwrap().unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 2);
        let report = is_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(report.holds, "mismatches: {:?}", report.mismatches);
        // Every inverse is a quasi-inverse (Proposition 3.7 direction).
        let q = is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(q.holds);
    }

    #[test]
    fn wrong_reverse_mapping_rejected() {
        // "Inverse" that transposes the copy: detectably wrong.
        let m = SchemaMapping::parse("P/2", "Q/2", &["P(x,y) -> Q(x,y)"]).unwrap();
        let rev = ReverseMapping::parse(&m, &["Q(x,y) & const(x) & const(y) -> P(y,x)"]).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 1);
        let report = is_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(!report.holds);
    }

    #[test]
    fn union_algorithm_output_verifies_as_quasi_inverse() {
        let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        let universe = ground_instances(&m.source, &["a", "b"], 2);
        let report = is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited()).unwrap();
        assert!(report.holds, "mismatches: {:?}", report.mismatches);
    }
}
