//! Cost-based join planning for the backtracking matcher.
//!
//! The match engine historically walked a pattern's atoms in whatever
//! order the fail-first heuristic discovered at runtime, paying a
//! candidate-counting probe per remaining atom at every search node. This
//! module computes a *static* greedy join order once per pattern instead:
//! atoms are chosen smallest-estimated-first, where the estimate comes
//! from the target [`FactStore`]'s incrementally maintained statistics —
//! relation cardinalities ([`FactStore::rel_len`]), exact posting-list
//! sizes for constant terms ([`FactStore::posting`]), and per-position
//! distinct-value counts ([`FactStore::position_distinct`]) for join
//! positions bound by an earlier atom. When the store is cold (planning
//! against an empty instance, as the offline `qimap analyze --cost`
//! report does), the estimates fall back to static per-relation
//! cardinalities supplied by the caller ([`StaticCosts`], derived from
//! `qi-analyze`'s abstract-chase cost model).
//!
//! Planned execution is only used by the order-insensitive engine entry
//! points and by enumerations whose caller owns a canonical commit
//! barrier (see `MatchEngine::all_unordered`); the emission order of the
//! ordered entry points is part of the chase determinism contract and is
//! never touched. The [`Prefilter`] is order-*transparent*: it prunes
//! only bindings that cannot extend to any complete match (the bound
//! value is absent from a `(relation, position)` slot a later atom needs
//! it at), so it is safe on every path, including ordered enumeration.
//!
//! The `QI_PLAN` environment variable (parsed once; `0`, `off`, `false`
//! disable) is what [`Planning::Auto`] means for the process; explicit
//! `Planning::On`/`Off` in a request's `ExecConfig` are how in-process
//! oracles compare both modes.

use crate::hom::{PatTerm, Pattern, VarIdx};
use crate::store::FactStore;
use qi_exec::Planning;
use std::sync::OnceLock;

/// Is cost-based planning (join reordering + prefilters) enabled for
/// [`Planning::Auto`]? This is the `QI_PLAN` environment variable,
/// parsed once per process (engines consult it at construction, which
/// sits on hot trigger-check paths): unset means on; `0`, `off`,
/// `false`, or `no` disable it. Changing `QI_PLAN` under a running
/// process has **no** effect.
pub fn planning_enabled() -> bool {
    static ENV_PLAN: OnceLock<bool> = OnceLock::new();
    *ENV_PLAN.get_or_init(|| match std::env::var("QI_PLAN") {
        Err(_) => true,
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "off" | "false" | "no"
        ),
    })
}

/// Resolve a per-request [`Planning`] mode: `On`/`Off` are taken as-is;
/// `Auto` falls back to [`planning_enabled`].
pub fn planning_enabled_for(planning: Planning) -> bool {
    match planning {
        Planning::On => true,
        Planning::Off => false,
        Planning::Auto => planning_enabled(),
    }
}

/// Static per-relation cardinality estimates, the planner's fallback
/// when the runtime store is empty. Derived from `qi-analyze`'s abstract
/// chase cost model by the CLI; indexed by `RelId::index()` over the
/// instance's schema.
#[derive(Clone, Debug, Default)]
pub struct StaticCosts {
    /// Estimated cardinality per relation index (missing/0 = unknown).
    pub rel_card: Vec<u64>,
    /// Estimated distinct values per `(relation index, position)`;
    /// an empty inner vector means no per-position information.
    pub position_distinct: Vec<Vec<u64>>,
}

impl StaticCosts {
    /// Estimated cardinality of relation `rel`, if known.
    pub fn card(&self, rel: usize) -> Option<u64> {
        match self.rel_card.get(rel) {
            Some(&c) if c > 0 => Some(c),
            _ => None,
        }
    }

    /// Estimated distinct values at `(rel, pos)`, if known.
    pub fn distinct(&self, rel: usize, pos: usize) -> Option<u64> {
        match self.position_distinct.get(rel).and_then(|p| p.get(pos)) {
            Some(&d) if d > 0 => Some(d),
            _ => None,
        }
    }
}

/// A greedily ordered execution plan for one [`Pattern`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Atom indices in execution order (a permutation of
    /// `0..pattern.facts.len()`).
    pub order: Vec<usize>,
    /// `rank[atom]` = position of `atom` in [`JoinPlan::order`].
    pub rank: Vec<usize>,
    /// The estimate each atom had when it was chosen (same indexing as
    /// [`JoinPlan::order`]).
    pub estimates: Vec<u64>,
    /// Crude work estimate for the whole search: the sum of prefix
    /// products of the per-atom estimates (saturating). Executor layers
    /// use this as a relative cost hint for morsel sizing; it is not a
    /// wall-clock prediction.
    pub est_cost: u64,
}

/// Greedy smallest-estimate-first ordering over atoms with the given
/// variable sets.
///
/// `est(atom, bound)` estimates the candidate count of `atom` given the
/// set of variables already bound (`bound[v]` true). The first atom of
/// `forced_first` (used for semi-naive delta restriction) is placed at
/// rank 0 unconditionally. Atoms sharing a bound variable ("connected")
/// are always preferred over atoms that would open a cross product;
/// within a connectivity class the lower estimate wins and ties keep the
/// lower original index, so the order is fully deterministic.
pub fn greedy_order<F>(
    atom_vars: &[Vec<VarIdx>],
    nvars: usize,
    forced_first: Option<usize>,
    mut est: F,
) -> JoinPlan
where
    F: FnMut(usize, &[bool]) -> u64,
{
    let n = atom_vars.len();
    let mut bound = vec![false; nvars];
    let mut chosen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut estimates = Vec::with_capacity(n);
    let mut est_cost: u64 = 0;
    let mut prefix: u64 = 1;
    let mut take = |i: usize,
                    e: u64,
                    bound: &mut Vec<bool>,
                    chosen: &mut Vec<bool>,
                    order: &mut Vec<usize>,
                    estimates: &mut Vec<u64>| {
        chosen[i] = true;
        order.push(i);
        estimates.push(e);
        prefix = prefix.saturating_mul(e.max(1));
        est_cost = est_cost.saturating_add(prefix);
        for &v in &atom_vars[i] {
            bound[v as usize] = true;
        }
    };
    if let Some(first) = forced_first {
        if first < n {
            let e = est(first, &bound);
            take(
                first,
                e,
                &mut bound,
                &mut chosen,
                &mut order,
                &mut estimates,
            );
        }
    }
    while order.len() < n {
        let anchored = !order.is_empty();
        let mut best: Option<(usize, u64, bool)> = None;
        for (i, vars) in atom_vars.iter().enumerate() {
            if chosen[i] {
                continue;
            }
            let connected = !anchored || vars.iter().any(|&v| bound[v as usize]);
            let e = est(i, &bound);
            let better = match best {
                None => true,
                Some((_, be, bc)) => match (connected, bc) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => e < be,
                },
            };
            if better {
                best = Some((i, e, connected));
            }
        }
        let (i, e, _) = best.expect("unchosen atom remains");
        take(i, e, &mut bound, &mut chosen, &mut order, &mut estimates);
    }
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    JoinPlan {
        order,
        rank,
        estimates,
        est_cost,
    }
}

/// The variable sets of a pattern's atoms, in atom order (helper shared
/// by the runtime planner and the offline static planner).
pub fn atom_var_sets(pattern: &Pattern) -> Vec<Vec<VarIdx>> {
    pattern
        .facts
        .iter()
        .map(|f| {
            let mut vars: Vec<VarIdx> = f
                .args
                .iter()
                .filter_map(|t| match *t {
                    PatTerm::Var(v) => Some(v),
                    PatTerm::Value(_) => None,
                })
                .collect();
            vars.sort_unstable();
            vars.dedup();
            vars
        })
        .collect()
}

/// Plan `pattern` against `store`: greedy selectivity order from runtime
/// posting statistics, with `statics` as the cold-store fallback and
/// `forced_first` pinning a delta-restricted atom to rank 0.
/// `prebound[v]` marks variables fixed by match constraints before the
/// search starts (their join positions are selective from atom one).
pub fn plan_pattern(
    pattern: &Pattern,
    store: &FactStore,
    statics: Option<&StaticCosts>,
    forced_first: Option<usize>,
    prebound: &[bool],
) -> JoinPlan {
    let atom_vars = atom_var_sets(pattern);
    let cold = store.is_empty();
    let est = |i: usize, bound: &[bool]| -> u64 {
        let fact = &pattern.facts[i];
        let rel = fact.rel.index();
        if rel >= store.num_rels() || store.arity(rel) != fact.args.len() {
            // Arity-mismatched atoms can never match: order them first so
            // the search fails immediately.
            return 0;
        }
        let is_bound = |v: VarIdx| -> bool {
            bound.get(v as usize).copied().unwrap_or(false)
                || prebound.get(v as usize).copied().unwrap_or(false)
        };
        if cold {
            if let Some(st) = statics {
                if let Some(card) = st.card(rel) {
                    let mut best = card;
                    for (pos, term) in fact.args.iter().enumerate() {
                        let selective = match *term {
                            PatTerm::Value(_) => true,
                            PatTerm::Var(v) => is_bound(v),
                        };
                        if selective {
                            let d = st.distinct(rel, pos).unwrap_or(card.max(1));
                            best = best.min(card.div_ceil(d.max(1)));
                        }
                    }
                    return best;
                }
            }
            return 0;
        }
        let n = store.rel_len(rel) as u64;
        let mut best = n;
        for (pos, term) in fact.args.iter().enumerate() {
            match *term {
                PatTerm::Value(v) => {
                    best = best.min(store.posting(rel, pos, v).len() as u64);
                }
                PatTerm::Var(var) => {
                    if is_bound(var) {
                        let d = store.position_distinct(rel, pos).max(1) as u64;
                        best = best.min(n.div_ceil(d));
                    }
                }
            }
        }
        best
    };
    greedy_order(&atom_vars, pattern.nvars, forced_first, est)
}

/// Forward-checking prefilter data: for each variable, the
/// `(atom index, relation index, position)` slots it occurs at (only
/// atoms whose arity matches the store, so posting lookups are valid).
///
/// When the search binds a variable to a value, any *yet-unmatched* atom
/// occurrence whose `(relation, position)` posting list lacks that value
/// proves the binding cannot extend to a complete match — the branch is
/// pruned without changing the sequence of complete matches.
#[derive(Clone, Debug, Default)]
pub struct Prefilter {
    /// `occurrences[var]` = (atom, relation index, position) triples.
    pub occurrences: Vec<Vec<(usize, usize, usize)>>,
}

/// Build the prefilter occurrence lists for `pattern` against `store`.
pub fn build_prefilter(pattern: &Pattern, store: &FactStore) -> Prefilter {
    let mut occurrences: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); pattern.nvars];
    for (i, fact) in pattern.facts.iter().enumerate() {
        let rel = fact.rel.index();
        if rel >= store.num_rels() || store.arity(rel) != fact.args.len() {
            continue;
        }
        for (pos, term) in fact.args.iter().enumerate() {
            if let PatTerm::Var(v) = *term {
                if let Some(slot) = occurrences.get_mut(v as usize) {
                    slot.push((i, rel, pos));
                }
            }
        }
    }
    Prefilter { occurrences }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::PatFact;
    use crate::instance::Instance;
    use crate::schema::Schema;
    use crate::value::Value;

    fn pat(schema: &Schema, atoms: &[(&str, &[PatTerm])]) -> Pattern {
        let facts = atoms
            .iter()
            .map(|(name, args)| PatFact {
                rel: schema.rel(name).unwrap(),
                args: args.to_vec(),
            })
            .collect();
        let nvars = atoms
            .iter()
            .flat_map(|(_, args)| args.iter())
            .filter_map(|t| match *t {
                PatTerm::Var(v) => Some(v as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Pattern { facts, nvars }
    }

    #[test]
    fn selective_atom_goes_first() {
        let s = Schema::parse("Big/2 Small/2").unwrap();
        let mut i = Instance::new(s.clone());
        for k in 0..20 {
            i.insert_consts("Big", &[&format!("a{k}"), &format!("b{k}")])
                .unwrap();
        }
        i.insert_consts("Small", &["x", "y"]).unwrap();
        // Big(v0,v1) & Small(v1,v2): source order starts with the 20-tuple
        // relation; the planner starts with the 1-tuple one.
        let p = pat(
            &s,
            &[
                ("Big", &[PatTerm::Var(0), PatTerm::Var(1)]),
                ("Small", &[PatTerm::Var(1), PatTerm::Var(2)]),
            ],
        );
        let plan = plan_pattern(&p, i.store(), None, None, &[]);
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.rank, vec![1, 0]);
        assert_eq!(plan.estimates[0], 1);
    }

    #[test]
    fn constant_terms_use_exact_posting_sizes() {
        let s = Schema::parse("P/2 Q/2").unwrap();
        let mut i = Instance::new(s.clone());
        for k in 0..10 {
            i.insert_consts("P", &["hub", &format!("p{k}")]).unwrap();
            i.insert_consts("Q", &[&format!("q{k}"), &format!("r{k}")])
                .unwrap();
        }
        i.insert_consts("Q", &["rare", "z"]).unwrap();
        // P("rare", v0) has an empty posting; Q("rare", v0) has exactly one.
        let p_rare = pat(
            &s,
            &[(
                "P",
                &[PatTerm::Value(Value::constant("rare")), PatTerm::Var(0)],
            )],
        );
        let plan = plan_pattern(&p_rare, i.store(), None, None, &[]);
        assert_eq!(plan.estimates[0], 0);
        let q_rare = pat(
            &s,
            &[(
                "Q",
                &[PatTerm::Value(Value::constant("rare")), PatTerm::Var(0)],
            )],
        );
        let plan = plan_pattern(&q_rare, i.store(), None, None, &[]);
        assert_eq!(plan.estimates[0], 1);
    }

    #[test]
    fn connected_atoms_beat_cross_products() {
        let s = Schema::parse("A/2 B/2 C/2").unwrap();
        let mut i = Instance::new(s.clone());
        for k in 0..8 {
            i.insert_consts("A", &[&format!("a{k}"), &format!("m{k}")])
                .unwrap();
            i.insert_consts("B", &[&format!("m{k}"), &format!("z{k}")])
                .unwrap();
        }
        i.insert_consts("C", &["c", "d"]).unwrap();
        // A(v0,v1) & B(v1,v2) & C(v3,v4): C is smallest but disconnected
        // from {v0,v1,v2}; after A is chosen, B (connected) must come
        // before C even though C's estimate is lower.
        let p = pat(
            &s,
            &[
                ("A", &[PatTerm::Var(0), PatTerm::Var(1)]),
                ("B", &[PatTerm::Var(1), PatTerm::Var(2)]),
                ("C", &[PatTerm::Var(3), PatTerm::Var(4)]),
            ],
        );
        let plan = plan_pattern(&p, i.store(), None, None, &[]);
        // First pick is the globally smallest atom (C, 1 tuple) — it has
        // no anchor yet, so connectivity does not apply; then A and B.
        assert_eq!(plan.order[0], 2);
        // After C, neither A nor B shares a variable with it; the tie
        // breaks to A, then B joins on v1.
        assert_eq!(plan.order, vec![2, 0, 1]);
    }

    #[test]
    fn forced_first_pins_the_delta_atom() {
        let s = Schema::parse("E/2").unwrap();
        let mut i = Instance::new(s.clone());
        for k in 0..6 {
            i.insert_consts("E", &[&format!("v{k}"), &format!("v{}", k + 1)])
                .unwrap();
        }
        let p = pat(
            &s,
            &[
                ("E", &[PatTerm::Var(0), PatTerm::Var(1)]),
                ("E", &[PatTerm::Var(1), PatTerm::Var(2)]),
            ],
        );
        let plan = plan_pattern(&p, i.store(), None, Some(1), &[]);
        assert_eq!(plan.order, vec![1, 0]);
    }

    #[test]
    fn cold_store_falls_back_to_static_costs() {
        let s = Schema::parse("R/2 S/2").unwrap();
        let i = Instance::new(s.clone());
        let p = pat(
            &s,
            &[
                ("R", &[PatTerm::Var(0), PatTerm::Var(1)]),
                ("S", &[PatTerm::Var(1), PatTerm::Var(2)]),
            ],
        );
        // Without statics every estimate is 0 → source order survives.
        let plan = plan_pattern(&p, i.store(), None, None, &[]);
        assert_eq!(plan.order, vec![0, 1]);
        // With statics the smaller relation moves first.
        let st = StaticCosts {
            rel_card: vec![50, 3],
            position_distinct: vec![vec![10, 10], vec![3, 3]],
        };
        let plan = plan_pattern(&p, i.store(), Some(&st), None, &[]);
        assert_eq!(plan.order, vec![1, 0]);
    }

    #[test]
    fn prefilter_records_valid_occurrences_only() {
        let s = Schema::parse("P/2 Q/1").unwrap();
        let mut i = Instance::new(s.clone());
        i.insert_consts("P", &["a", "b"]).unwrap();
        i.insert_consts("Q", &["a"]).unwrap();
        let p = Pattern {
            facts: vec![
                PatFact {
                    rel: s.rel("P").unwrap(),
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
                // Arity mismatch: Q used with 2 args — no occurrence rows.
                PatFact {
                    rel: s.rel("Q").unwrap(),
                    args: vec![PatTerm::Var(0), PatTerm::Var(1)],
                },
            ],
            nvars: 2,
        };
        let pf = build_prefilter(&p, i.store());
        assert_eq!(pf.occurrences[0], vec![(0, 0, 0)]);
        assert_eq!(pf.occurrences[1], vec![(0, 0, 1)]);
    }

    #[test]
    fn est_cost_tracks_prefix_products() {
        let atom_vars = vec![vec![0], vec![0, 1]];
        let plan = greedy_order(&atom_vars, 2, None, |i, _| if i == 0 { 4 } else { 2 });
        // order [1, 0]: estimates 2 then 4 → cost 2 + 8.
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.est_cost, 2 + 2 * 4);
    }
}
