//! Algorithm **QuasiInverse** (§4, Theorem 4.1).
//!
//! Given `M = (S, T, Σ)` with `Σ` a finite set of s-t tgds, the algorithm
//! produces `M' = (T, S, Σ')` where `Σ'` is a finite set of disjunctive
//! tgds with constants and inequalities (inequalities only among
//! constants) such that `M'` is a quasi-inverse of `M` whenever `M` has
//! one:
//!
//! 1. build `Σ*` (one dependency per complete description of each tgd's
//!    frontier, [`crate::sigma_star()`]);
//! 2. for each `σ : φ_S(x,u) → ∃y ψ_T(x,y)` in `Σ*`, emit
//!    `σ' : ψ_T(x,y) ∧ ⋀ Constant(xᵢ) ∧ ⋀_{i<j} xᵢ ≠ xⱼ →
//!          ⋁_{β ∈ MinGen(M, ∃yψ_T)} ∃z β(x,z)`.
//!
//! The disjunction is never empty: `φ_S(x,u)` itself is a generator of
//! `∃y ψ_T(x,y)`, so MinGen finds a (subsumption-minimal) generator.
//!
//! The [`minimize_disjuncts`] helper implements the remark of Example
//! 4.5: a disjunct implied by a more general one may be dropped. MinGen's
//! built-in subsumption minimization already produces pairwise
//! non-subsuming disjuncts, so for algorithm output it is a no-op; it is
//! exposed for hand-written reverse mappings.

use crate::error::{CoreError, CorePartial};
use crate::mapping::{ReverseMapping, SchemaMapping};
use crate::mingen::{min_gen_with_stats, MinGenOptions};
use crate::sigma_star::sigma_star;
use qi_exec::{Budget, ExecStats};
use qi_lang::{canonical_instance, compile_atoms, DisjTgd, Disjunct, FrozenVars, Var};
use qi_schema::{MatchConstraints, MatchEngine, Pattern};

/// Options for the QuasiInverse algorithm.
#[derive(Clone, Debug, Default)]
pub struct QuasiInverseOptions {
    /// Options forwarded to the MinGen searches.
    pub mingen: MinGenOptions,
    /// **Ablation switch**: skip the `Σ*` construction and process only
    /// the input tgds. The output is then *incorrect* on mappings whose
    /// premises can fire with identified frontier values (see the
    /// ablation tests) — demonstrating why Step 1 of the algorithm is
    /// necessary.
    pub skip_sigma_star: bool,
    /// Per-request execution configuration for the whole algorithm run.
    /// MinGen settings left at their defaults inherit from here —
    /// an unlimited MinGen budget takes this budget, an auto MinGen
    /// parallelism takes this parallelism (falling back to the
    /// mapping-level [`SchemaMapping::exec`] when this one is auto too),
    /// and an auto MinGen planning mode inherits the same way — so one
    /// entry-point option governs every per-tgd search end-to-end; an
    /// explicit MinGen setting still wins. Budget exhaustion surfaces as
    /// [`CoreError::Resource`]. Unlimited by default.
    pub exec: qi_exec::ExecConfig,
}

/// Run Algorithm QuasiInverse on `m`.
///
/// The output is always a well-formed reverse mapping; Theorem 4.1
/// guarantees it is a quasi-inverse of `m` exactly when `m` is
/// quasi-invertible (use the bounded verifiers of [`crate::verify`] or
/// the exact per-instance certificates of [`crate::exchange`] to probe
/// that).
///
/// ```
/// use qi_core::{quasi_inverse, QuasiInverseOptions, SchemaMapping};
///
/// // §1's Union mapping: P(x) → S(x), Q(x) → S(x).
/// let m = SchemaMapping::parse("P/1 Q/1", "S/1",
///     &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
/// let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
/// assert_eq!(rev.deps[0].to_string(), "S(x) & const(x) -> P(x) | Q(x)");
/// ```
pub fn quasi_inverse(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<ReverseMapping, CoreError> {
    Ok(quasi_inverse_with_stats(m, options)?.0)
}

/// [`quasi_inverse`] plus the aggregated executor counters of every
/// MinGen search it ran.
pub fn quasi_inverse_with_stats(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<(ReverseMapping, ExecStats), CoreError> {
    let star = if options.skip_sigma_star {
        m.tgds.clone()
    } else {
        sigma_star(&m.tgds)?
    };
    // Unset MinGen settings inherit from the entry-point `ExecConfig`,
    // which in turn falls back to the mapping-level one — so
    // `SchemaMapping::with_exec` governs the whole algorithm unless a
    // narrower setting overrides it. The entry-point budget inherits
    // into MinGen the same way: one `QuasiInverseOptions::exec.budget`
    // bounds every per-tgd MinGen search against a single shared pool.
    let mut mingen_options = options.mingen.clone();
    if mingen_options.exec.parallelism == qi_exec::Parallelism::auto() {
        mingen_options.exec.parallelism =
            if options.exec.parallelism == qi_exec::Parallelism::auto() {
                m.exec.parallelism
            } else {
                options.exec.parallelism
            };
    }
    if !mingen_options.exec.planning.is_fixed() {
        mingen_options.exec.planning = if options.exec.planning.is_fixed() {
            options.exec.planning
        } else {
            m.exec.planning
        };
    }
    if mingen_options.exec.budget.is_unlimited() {
        mingen_options.exec.budget = options.exec.budget.clone();
    }
    let mut stats = ExecStats::default();
    let mut deps: Vec<DisjTgd> = Vec::new();
    for sigma in &star {
        let x = sigma.frontier();
        let outcome = min_gen_with_stats(m, &sigma.head, &x, &mingen_options)?;
        stats.absorb(&outcome.stats);
        let generators = outcome.generators;
        debug_assert!(
            !generators.is_empty(),
            "σ's own premise is a generator, so MinGen cannot come back empty"
        );
        let constant = x.clone();
        let mut neq = Vec::new();
        for i in 0..x.len() {
            for j in i + 1..x.len() {
                neq.push((x[i].clone(), x[j].clone()));
            }
        }
        let disjuncts: Vec<Disjunct> = generators
            .into_iter()
            .map(|g| Disjunct {
                exists: g.exists,
                atoms: g.atoms,
            })
            .collect();
        let dep = DisjTgd::new(
            m.target.clone(),
            m.source.clone(),
            sigma.head.clone(),
            constant,
            neq,
            disjuncts,
        )?;
        if !deps.contains(&dep) {
            deps.push(dep);
        }
    }
    let rev = ReverseMapping::new(m.target.clone(), m.source.clone(), deps)?;
    Ok((rev, stats))
}

/// Abstract-chase guard shared by the rejecting entry points: a QI017
/// dead dependency would make MinGen spend budget on a tgd that can
/// never fire. Plain s-t premises always match the critical instance,
/// so for a [`SchemaMapping`] (no target dependencies) this never
/// fires — it keeps the rejection path uniform with exchange settings
/// that carry target tgds, where [`qi_analyze::dead_tgd_diagnostic`]
/// has teeth.
fn dead_dependency_diagnostic(m: &SchemaMapping) -> Option<qi_analyze::Diagnostic> {
    qi_analyze::dead_tgd_diagnostic(&m.source, &m.target, &m.tgds, &[], &[])
}

/// Theorem 4.6, constructively: for a mapping specified by **full**
/// s-t tgds, a quasi-inverse needs no `Constant` guards. The witness is
/// the QuasiInverse output with every guard stripped: a full mapping
/// chases ground instances to ground instances, so on the
/// composition-relevant pairs the guards never cut anything.
///
/// Rejects with the analyzer's QI013 diagnostic when `m` is not full
/// (then guards are load-bearing — see the ablation tests), naming the
/// offending existential and head atom.
pub fn quasi_inverse_full(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<ReverseMapping, CoreError> {
    if let Some(d) = qi_analyze::not_full_diagnostic(&m.tgds) {
        return Err(CoreError::Rejected(d));
    }
    if let Some(d) = dead_dependency_diagnostic(m) {
        return Err(CoreError::Rejected(d));
    }
    let guarded = quasi_inverse(m, options)?;
    let deps = guarded
        .deps
        .into_iter()
        .map(|mut d| {
            d.constant.clear();
            d
        })
        .collect();
    ReverseMapping::new(m.target.clone(), m.source.clone(), deps)
}

/// Theorem 4.7, constructively: every **LAV** mapping has a
/// quasi-inverse specified by (non-disjunctive) tgds with constants and
/// inequalities.
///
/// The construction generalizes Algorithm Inverse's `ω(Σ, I_α)` to the
/// quasi-setting: for every prime source atom `α` (restricted-growth
/// argument patterns, §5) whose chase is nonempty, emit
///
/// ```text
/// ψ_α ∧ ⋀ Constant(xᵢ) ∧ ⋀_{i<j} xᵢ ≠ xⱼ  →  ∃(unpropagated vars) α
/// ```
///
/// where `ψ_α` is the conjunction of the chase of `I_α` (nulls become
/// fresh `y`-variables), the guards range over the *propagated*
/// variables of `α` (those surviving into `ψ_α`), and the variables of
/// `α` that the mapping drops are existentially quantified in the
/// conclusion. For LAV mappings every trigger is a single source fact,
/// so each exported fact's complete chase signature appears in `U` and
/// the emitted premise both fires on every original fact (faithfulness)
/// and recovers only `~M`-justified facts (soundness).
///
/// Rejects with the analyzer's QI012 diagnostic when `m` is not LAV
/// (multi-atom premises are not captured by single-fact chase
/// signatures), naming the first extra body atom.
pub fn quasi_inverse_lav(m: &SchemaMapping) -> Result<ReverseMapping, CoreError> {
    quasi_inverse_lav_with(m, &QuasiInverseOptions::default())
}

/// [`quasi_inverse_lav`] under entry-point [`QuasiInverseOptions`]: the
/// budget is checked per prime source atom and inherited by each
/// signature chase, so the whole construction is interruptible.
pub fn quasi_inverse_lav_with(
    m: &SchemaMapping,
    options: &QuasiInverseOptions,
) -> Result<ReverseMapping, CoreError> {
    if let Some(d) = qi_analyze::not_lav_diagnostic(&m.tgds) {
        return Err(CoreError::Rejected(d));
    }
    if let Some(d) = dead_dependency_diagnostic(m) {
        return Err(CoreError::Rejected(d));
    }
    let budget = &options.exec.budget;
    let limited = !budget.is_unlimited();
    let mut deps: Vec<DisjTgd> = Vec::new();
    for rel in m.source.rel_ids() {
        let arity = m.source.arity(rel);
        for args in crate::inverse::prime_atoms(arity) {
            if limited {
                if let Err(e) = budget.check() {
                    return Err(CoreError::resource(
                        e,
                        ExecStats::default(),
                        CorePartial::None,
                    ));
                }
            }
            let alpha = qi_lang::Atom::new(rel, args.clone());
            let mut frozen = FrozenVars::default();
            let inst = canonical_instance(&m.source, std::slice::from_ref(&alpha), &mut frozen);
            let chased = m.chase_budgeted(&inst, budget)?;
            if chased.is_empty() {
                // This equality type of R exports nothing; instances
                // differing only in such facts are ~M-equivalent, so
                // nothing needs recovering.
                continue;
            }
            let body = crate::inverse::chase_to_atoms(&chased, &frozen);
            let body_vars = qi_lang::atom::vars_of(&body);
            // Propagated variables of α, in first-occurrence order.
            let mut xs: Vec<Var> = Vec::new();
            let mut missing: Vec<Var> = Vec::new();
            for v in &args {
                if xs.contains(v) || missing.contains(v) {
                    continue;
                }
                if body_vars.contains(v) {
                    xs.push(v.clone());
                } else {
                    missing.push(v.clone());
                }
            }
            let mut neq = Vec::new();
            for i in 0..xs.len() {
                for j in i + 1..xs.len() {
                    neq.push((xs[i].clone(), xs[j].clone()));
                }
            }
            let dep = DisjTgd::new(
                m.target.clone(),
                m.source.clone(),
                body,
                xs,
                neq,
                vec![Disjunct {
                    exists: missing,
                    atoms: vec![alpha],
                }],
            )?;
            if !deps.contains(&dep) {
                deps.push(dep);
            }
        }
    }
    ReverseMapping::new(m.target.clone(), m.source.clone(), deps)
}

/// Drop every disjunct implied by a more general co-disjunct
/// (Example 4.5's remark). For mutually-subsuming disjuncts the first is
/// kept. Logically equivalent to the input dependency.
///
/// Disjunct `i` subsumes disjunct `j` when a substitution fixing the
/// universal variables maps disjunct `i`'s existentials into disjunct
/// `j`'s terms such that `i`'s atoms become a subset of `j`'s; then
/// `Dⱼ ⇒ Dᵢ` and `Dⱼ` may be dropped ("we need only keep the more
/// general disjunct"). Each disjunct is encoded once up front — as a
/// canonical instance (subsumption target) and as a pattern with the
/// universal variables pinned (subsumption probe) — and the pairwise
/// sweep reuses those encodings.
///
/// The cooperative `budget` is checked before every pairwise
/// subsumption probe — the sweep is O(n²) hom searches, each
/// potentially exponential. Exhaustion surfaces as
/// [`CoreError::Resource`] with no partial: a half-swept dependency
/// would be logically equivalent but non-canonical, so the caller should
/// fall back to the unminimized input (which is always sound).
pub fn minimize_disjuncts(dep: &DisjTgd, budget: &Budget) -> Result<DisjTgd, CoreError> {
    let limited = !budget.is_unlimited();
    let n = dep.disjuncts.len();
    // Freeze the universal variables once; freeze each disjunct's
    // existentials only in the copy used to build its instance, so that a
    // like-named existential of another disjunct stays a free pattern
    // variable.
    let universals = FrozenVars::freeze(dep.body_vars());
    let insts: Vec<_> = dep
        .disjuncts
        .iter()
        .map(|d| {
            let mut frozen = universals.clone();
            canonical_instance(&dep.to, &d.atoms, &mut frozen)
        })
        .collect();
    let probes: Vec<(Pattern, MatchConstraints)> = dep
        .disjuncts
        .iter()
        .map(|d| {
            let mut vars: Vec<Var> = Vec::new();
            let facts = compile_atoms(&d.atoms, &mut vars);
            let pattern = Pattern {
                facts,
                nvars: vars.len(),
            };
            let fixed = vars
                .iter()
                .enumerate()
                .filter_map(|(k, v)| universals.get(v).map(|val| (k as u32, val)))
                .collect();
            let constraints = MatchConstraints {
                fixed,
                ..Default::default()
            };
            (pattern, constraints)
        })
        .collect();
    let subsumes =
        |i: usize, j: usize| MatchEngine::new(&probes[i].0, &insts[j], &probes[i].1).exists();
    let mut alive = vec![true; n];
    #[allow(clippy::needless_range_loop)] // symmetric double-index over `alive`
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !alive[j] {
                continue;
            }
            if limited {
                if let Err(e) = budget.check() {
                    return Err(CoreError::resource(
                        e,
                        ExecStats::default(),
                        CorePartial::None,
                    ));
                }
            }
            if subsumes(i, j) && !(j < i && subsumes(j, i)) {
                alive[j] = false;
            }
        }
    }
    let disjuncts: Vec<Disjunct> = dep
        .disjuncts
        .iter()
        .zip(&alive)
        .filter(|(_, a)| **a)
        .map(|(d, _)| d.clone())
        .collect();
    Ok(DisjTgd::new(
        dep.from.clone(),
        dep.to.clone(),
        dep.body.clone(),
        dep.constant.clone(),
        dep.neq.clone(),
        disjuncts,
    )
    .expect("minimizing disjuncts preserves well-formedness"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::parse_disj_tgd;

    #[test]
    fn projection_quasi_inverse_matches_paper() {
        // Paper §1: P(x,y) → Q(x) has quasi-inverse Q(x) → ∃y P(x,y).
        let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        assert_eq!(rev.deps.len(), 1);
        let d = &rev.deps[0];
        assert_eq!(d.to_string(), "Q(x) & const(x) -> exists z0 . P(x,z0)");
    }

    #[test]
    fn union_quasi_inverse_is_disjunctive() {
        // Paper §1: S(x) → P(x) ∨ Q(x).
        let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        assert_eq!(rev.deps.len(), 1);
        assert_eq!(rev.deps[0].to_string(), "S(x) & const(x) -> P(x) | Q(x)");
    }

    #[test]
    fn decomposition_quasi_inverse_shape() {
        let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        // B(3) = 5 complete descriptions, each giving one dependency.
        assert_eq!(rev.deps.len(), 5);
        let features = rev.language_features();
        assert!(features.constants);
        assert!(features.inequalities);
        assert!(rev.inequalities_among_constants());
        // Every dependency's first disjunct recovers a P-fact.
        for d in &rev.deps {
            assert!(!d.disjuncts.is_empty());
        }
    }

    #[test]
    fn minimize_disjuncts_drops_implied_one() {
        // D1 = ∃z P(x,z) subsumes D2 = P(x,x): drop the stronger P(x,x).
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/2").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> exists z . P(x,z) | P(x,x)").unwrap();
        let min = minimize_disjuncts(&dep, &Budget::unlimited()).unwrap();
        assert_eq!(min.disjuncts.len(), 1);
        assert_eq!(min.to_string(), "S(x) -> exists z . P(x,z)");
    }

    use qi_schema::Schema;

    #[test]
    fn minimize_keeps_incomparable_disjuncts() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        assert_eq!(
            minimize_disjuncts(&dep, &Budget::unlimited())
                .unwrap()
                .disjuncts
                .len(),
            2
        );
    }

    #[test]
    fn minimize_mutually_equivalent_keeps_first() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/2").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> exists z . P(x,z) | exists w . P(x,w)").unwrap();
        let min = minimize_disjuncts(&dep, &Budget::unlimited()).unwrap();
        assert_eq!(min.disjuncts.len(), 1);
        assert_eq!(min.disjuncts[0].exists, vec![Var::new("z")]);
    }

    #[test]
    fn with_stats_matches_plain_output() {
        let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
        let (rev, stats) = quasi_inverse_with_stats(&m, &QuasiInverseOptions::default()).unwrap();
        let plain = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        assert_eq!(rev.deps, plain.deps);
        assert!(stats.tasks > 0, "every MinGen chase test is counted");
    }

    #[test]
    fn algorithm_output_is_already_disjunct_minimal() {
        let m = SchemaMapping::parse("S/2 T/2", "P/2", &["S(x,y) -> P(x,y)", "T(x,y) -> P(x,x)"])
            .unwrap();
        let rev = quasi_inverse(&m, &QuasiInverseOptions::default()).unwrap();
        for d in &rev.deps {
            assert_eq!(minimize_disjuncts(d, &Budget::unlimited()).unwrap(), *d);
        }
    }
}
