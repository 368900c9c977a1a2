//! The disjunctive chase (Definitions 6.3 and 6.4).
//!
//! Chasing an instance of the form `(U, ∅)` with target-to-source
//! disjunctive tgds with constants and inequalities builds a *chase tree*:
//! a dependency `σ` applies at a node with a premise homomorphism `h`
//! (respecting the `Constant` and `≠` guards) when **no** disjunct of `σ`
//! has an extension of `h` into the current node; applying it branches
//! into one child per disjunct, each adding that disjunct's facts with
//! fresh nulls for its existential variables. The *result* of the chase is
//! the set of leaves (Definition 6.4).
//!
//! Because the premise side (`from`) is fixed — target-to-source
//! dependencies cannot re-trigger themselves — the set of premise matches
//! is finite and each match fires at most once per root-to-leaf path, so
//! the tree is finite. A node budget still guards against combinatorial
//! blow-up on large inputs.

use crate::error::{ChaseError, ChasePartial};
use crate::standard::absorb_match_counters;
use crate::strategy::ChaseStrategy;
use qi_exec::{par_map, CostHint, ExecConfig, ExecStats};
use qi_lang::{compile_atoms, DisjTgd, Var};
use qi_schema::{
    planning_enabled_for, Instance, MatchConstraints, MatchCounters, MatchEngine, PatTerm, Pattern,
    Schema, Value,
};

/// Options for the disjunctive chase.
#[derive(Clone, Debug)]
pub struct DisjChaseOptions {
    /// Maximum number of chase-tree nodes to visit before giving up.
    pub max_nodes: usize,
    /// Trigger probing per node: semi-naive (the default) resumes the
    /// scan after the parent's fired trigger — trigger satisfaction is
    /// monotone along a root-to-leaf path, so earlier triggers can never
    /// re-fire; naive re-probes every trigger at every node. The chase
    /// tree (and its leaves) is byte-identical either way.
    pub strategy: ChaseStrategy,
    /// Per-request execution configuration: degree of parallelism for
    /// the branch-exploration fan-out (the leaves are bit-identical at
    /// every setting, see `qi-exec`), planning mode for the match
    /// engines, and the cooperative resource budget — checked per wave
    /// and between executor tasks; each applied disjunct charges its
    /// fresh facts. Exhaustion surfaces as [`ChaseError::Resource`]
    /// carrying the settled leaves so far — each a genuine leaf of the
    /// full tree. Unlimited by default.
    pub exec: ExecConfig,
}

impl Default for DisjChaseOptions {
    fn default() -> Self {
        DisjChaseOptions {
            max_nodes: 200_000,
            strategy: ChaseStrategy::default(),
            exec: ExecConfig::default(),
        }
    }
}

/// Result of a disjunctive chase run with statistics attached.
#[derive(Clone, Debug)]
pub struct DisjChaseOutcome {
    /// The leaves' `to` sides (exact duplicates removed), in the
    /// deterministic left-to-right chase-tree order.
    pub leaves: Vec<Instance>,
    /// Chase-tree nodes visited (internal nodes and leaves).
    pub nodes_visited: usize,
    /// Breadth-first waves the frontier went through.
    pub waves: usize,
    /// Executor counters for the branch-exploration stage.
    pub stats: ExecStats,
}

struct CompiledDep {
    body: Pattern,
    body_constraints: MatchConstraints,
    n_body: usize,
    /// One pattern per disjunct; variables `0..n_body` are shared with the
    /// body, the rest are the disjunct's existentials in order.
    disjuncts: Vec<Pattern>,
}

fn compile(dep: &DisjTgd) -> CompiledDep {
    let mut vars: Vec<Var> = Vec::new();
    let body_facts = compile_atoms(&dep.body, &mut vars);
    let n_body = vars.len();
    let var_idx = |v: &Var, vars: &[Var]| -> u32 {
        vars.iter().position(|w| w == v).expect("validated") as u32
    };
    let body_constraints = MatchConstraints {
        constants_only: dep.constant.iter().map(|v| var_idx(v, &vars)).collect(),
        distinct: dep
            .neq
            .iter()
            .map(|(a, b)| (var_idx(a, &vars), var_idx(b, &vars)))
            .collect(),
        ..Default::default()
    };
    let disjuncts = dep
        .disjuncts
        .iter()
        .map(|d| {
            let mut dvars = vars[..n_body].to_vec();
            let facts = compile_atoms(&d.atoms, &mut dvars);
            Pattern {
                facts,
                nvars: dvars.len(),
            }
        })
        .collect();
    CompiledDep {
        body: Pattern {
            facts: body_facts,
            nvars: n_body,
        },
        body_constraints,
        n_body,
        disjuncts,
    }
}

/// A premise match: which dependency, and the values of its body variables.
struct Trigger {
    dep: usize,
    fixed: Vec<(u32, Value)>,
}

/// Is some disjunct of `dep` satisfied in `to` under the trigger's fixed
/// body assignment? Each probe's engine is a throwaway, so its match
/// counters are drained into `counters` before it drops.
fn trigger_satisfied(
    dep: &CompiledDep,
    fixed: &[(u32, Value)],
    to: &Instance,
    counters: &mut MatchCounters,
    planned: bool,
) -> bool {
    dep.disjuncts.iter().any(|pattern| {
        let constraints = MatchConstraints {
            fixed: fixed.to_vec(),
            ..Default::default()
        };
        let engine = MatchEngine::new(pattern, to, &constraints).with_planning(planned);
        let sat = engine.exists();
        counters.merge(&engine.counters());
        sat
    })
}

/// Per-node probe cost hint: each trigger check builds at least one
/// engine over the node instance (≈2µs with construction overhead).
/// Only shapes morsel sizing and worker fan-out, never results; no hint
/// when planning is disabled, preserving historical scheduling.
fn probe_hint(n_triggers: usize, planned: bool) -> CostHint {
    if n_triggers == 0 || !planned {
        return CostHint::none();
    }
    CostHint::per_item_ns((n_triggers as u64).saturating_mul(2_000))
}

/// Add the facts of disjunct `di` of `dep` instantiated by `fixed`,
/// minting fresh nulls for the disjunct's existential variables.
fn apply_disjunct(
    dep: &CompiledDep,
    di: usize,
    fixed: &[(u32, Value)],
    to: &Instance,
    next_null: u64,
) -> (Instance, u64) {
    let pattern = &dep.disjuncts[di];
    let mut out = to.clone();
    let mut next = next_null;
    let mut exist_vals: Vec<Option<Value>> = vec![None; pattern.nvars];
    for fact in &pattern.facts {
        let args: Vec<Value> = fact
            .args
            .iter()
            .map(|term| match *term {
                PatTerm::Value(v) => v,
                PatTerm::Var(i) => {
                    if (i as usize) < dep.n_body {
                        fixed
                            .iter()
                            .find(|(var, _)| *var == i)
                            .expect("body variable bound by trigger")
                            .1
                    } else {
                        *exist_vals[i as usize].get_or_insert_with(|| {
                            let v = Value::null(next);
                            next += 1;
                            v
                        })
                    }
                }
            })
            .collect();
        out.insert(fact.rel, args)
            .expect("disjunct arity validated at construction");
    }
    (out, next)
}

/// Run the disjunctive chase of `(from, to0)` with `deps`; returns the
/// leaves' `to` sides (exact duplicates removed), in deterministic order.
///
/// `to0` is usually the empty instance over the dependencies' `to` schema
/// (the paper chases `(U, ∅)`).
///
/// ```
/// use qi_chase::{disjunctive_chase, DisjChaseOptions};
/// use qi_lang::parse_disj_tgd;
/// use qi_schema::{Instance, Schema};
///
/// let t = Schema::parse("S/1").unwrap();
/// let s = Schema::parse("P/1 Q/1").unwrap();
/// let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
/// let u = Instance::parse(&t, "S(a)").unwrap();
/// let leaves = disjunctive_chase(
///     &[dep], &u, &Instance::new(s), DisjChaseOptions::default(),
/// ).unwrap();
/// assert_eq!(leaves.len(), 2); // one leaf per disjunct
/// ```
pub fn disjunctive_chase(
    deps: &[DisjTgd],
    from: &Instance,
    to0: &Instance,
    options: DisjChaseOptions,
) -> Result<Vec<Instance>, ChaseError> {
    Ok(disjunctive_chase_with_stats(deps, from, to0, options)?.leaves)
}

/// A frontier entry: either a settled leaf or a node still to be
/// examined, carrying its private fresh-null counter and the index of
/// the first trigger that could still be unsatisfied (every earlier
/// trigger was satisfied at an ancestor, and satisfaction only grows
/// along a path).
enum Node {
    Open(Instance, u64, usize),
    Leaf(Instance),
}

/// [`disjunctive_chase`] returning the full [`DisjChaseOutcome`].
///
/// The chase tree is explored in waves: each wave examines every open
/// node *in parallel* against the immutable trigger list, then a
/// sequential commit phase replaces each node (left to right) by its
/// children — or marks it a leaf. Children are inserted in disjunct
/// order at their parent's position, so the frontier stays in the
/// chase tree's left-to-right order and the final leaf list (and its
/// first-occurrence dedup) is exactly the one the depth-first
/// sequential exploration produces. The node budget likewise trips iff
/// the sequential exploration would trip it, since both visit the whole
/// tree.
pub fn disjunctive_chase_with_stats(
    deps: &[DisjTgd],
    from: &Instance,
    to0: &Instance,
    options: DisjChaseOptions,
) -> Result<DisjChaseOutcome, ChaseError> {
    for d in deps {
        if !d.from.same_as(from.schema()) {
            return Err(ChaseError::SchemaMismatch(
                "dependency `from` schema differs from the premise instance".into(),
            ));
        }
        if !d.to.same_as(to0.schema()) {
            return Err(ChaseError::SchemaMismatch(
                "dependency `to` schema differs from the initial instance".into(),
            ));
        }
    }
    let compiled: Vec<CompiledDep> = deps.iter().map(compile).collect();
    // Resolve the per-request planning mode once at entry.
    let planned = planning_enabled_for(options.exec.planning);
    // Enumerate all premise matches once (the premise side never grows).
    // The trigger list's order shapes the chase tree; `all()` emits in
    // the canonical source order planned or not.
    let mut premise_counters = MatchCounters::default();
    let mut triggers: Vec<Trigger> = Vec::new();
    for (di, dep) in compiled.iter().enumerate() {
        let engine =
            MatchEngine::new(&dep.body, from, &dep.body_constraints).with_planning(planned);
        for assignment in engine.all() {
            triggers.push(Trigger {
                dep: di,
                fixed: (0..dep.n_body as u32)
                    .map(|i| (i, assignment.value(i)))
                    .collect(),
            });
        }
        premise_counters.merge(&engine.counters());
    }
    let mut frontier: Vec<Node> = vec![Node::Open(
        to0.clone(),
        from.fresh_null_floor().max(to0.fresh_null_floor()),
        0,
    )];
    let naive = matches!(options.strategy, ChaseStrategy::Naive);
    let budget = &options.exec.budget;
    let limited = !budget.is_unlimited();
    // On budget exhaustion, the settled leaves are a sound partial
    // result: each is a genuine leaf of the full chase tree.
    let settled = |frontier: &[Node]| -> ChasePartial {
        let mut leaves: Vec<Instance> = Vec::new();
        for node in frontier {
            if let Node::Leaf(to) = node {
                if !leaves.contains(to) {
                    leaves.push(to.clone());
                }
            }
        }
        ChasePartial::Leaves(leaves)
    };
    let mut visited = 0usize;
    let mut waves = 0usize;
    let mut stats = ExecStats::default();
    absorb_match_counters(&mut stats, &premise_counters);
    loop {
        // Per-wave budget check: a combinatorial tree spends its life in
        // this loop, so the wave boundary is where exhaustion surfaces.
        if limited {
            if let Err(e) = budget.check() {
                return Err(ChaseError::resource(e, stats, settled(&frontier)));
            }
        }
        // Snapshot the open nodes of this wave.
        let open: Vec<(&Instance, usize)> = frontier
            .iter()
            .filter_map(|n| match n {
                Node::Open(to, _, next_trigger) => Some((to, *next_trigger)),
                Node::Leaf(_) => None,
            })
            .collect();
        if open.is_empty() {
            break;
        }
        waves += 1;
        visited += open.len();
        if visited > options.max_nodes {
            return Err(ChaseError::Budget {
                max_nodes: options.max_nodes,
            });
        }
        // Parallel enumerate: the first unsatisfied trigger per node, a
        // pure function of the node's immutable instance. Semi-naive
        // nodes resume the probe after the parent's fired trigger.
        let hint = probe_hint(triggers.len(), planned);
        let wave = par_map(
            options.exec.parallelism,
            &open,
            budget,
            hint,
            |&(to, start)| {
                let from_idx = if naive { 0 } else { start };
                let mut counters = MatchCounters::default();
                let found = triggers[from_idx..].iter().position(|t| {
                    !trigger_satisfied(&compiled[t.dep], &t.fixed, to, &mut counters, planned)
                });
                let probed = match found {
                    Some(k) => k as u64 + 1,
                    None => (triggers.len() - from_idx) as u64,
                };
                (found.map(|k| from_idx + k), probed, counters)
            },
        );
        let (pending, wave_stats) = match wave {
            Ok(out) => out,
            Err(e) => return Err(ChaseError::resource(e, stats, settled(&frontier))),
        };
        stats.absorb(&wave_stats);
        // Ordered commit: expand (or settle) every open node in place.
        let mut next_frontier: Vec<Node> = Vec::with_capacity(frontier.len());
        let mut open_at = 0usize;
        for node in frontier {
            match node {
                Node::Leaf(to) => next_frontier.push(Node::Leaf(to)),
                Node::Open(to, next_null, _) => {
                    let (verdict, probed, counters) = &pending[open_at];
                    open_at += 1;
                    stats.triggers_enumerated += probed;
                    absorb_match_counters(&mut stats, counters);
                    match *verdict {
                        None => next_frontier.push(Node::Leaf(to)),
                        Some(ti) => {
                            let t = &triggers[ti];
                            let dep = &compiled[t.dep];
                            stats.triggers_fired += 1;
                            for di in 0..dep.disjuncts.len() {
                                let (child, next) =
                                    apply_disjunct(dep, di, &t.fixed, &to, next_null);
                                budget.charge_facts((child.fact_count() - to.fact_count()) as u64);
                                // The applied disjunct satisfies trigger
                                // `ti` in every child; the child's probe
                                // resumes right after it.
                                next_frontier.push(Node::Open(child, next, ti + 1));
                            }
                        }
                    }
                }
            }
        }
        frontier = next_frontier;
    }
    let mut leaves: Vec<Instance> = Vec::new();
    for node in frontier {
        let Node::Leaf(to) = node else {
            unreachable!("loop exits only when no open nodes remain")
        };
        if !leaves.contains(&to) {
            leaves.push(to);
        }
    }
    Ok(DisjChaseOutcome {
        leaves,
        nodes_visited: visited,
        waves,
        stats,
    })
}

/// Chase with *non-disjunctive* tgds with constants and inequalities:
/// every dependency has a single disjunct, so the tree is a path and the
/// result is a single instance.
pub fn chase_with_guards(
    deps: &[DisjTgd],
    from: &Instance,
    to_schema: &Schema,
) -> Result<Instance, ChaseError> {
    for d in deps {
        if d.has_disjunction() {
            return Err(ChaseError::InconsistentDependencies(
                "chase_with_guards requires single-disjunct dependencies".into(),
            ));
        }
    }
    let to0 = Instance::new(to_schema.clone());
    let mut leaves = disjunctive_chase(deps, from, &to0, DisjChaseOptions::default())?;
    debug_assert_eq!(leaves.len(), 1, "non-disjunctive chase has one leaf");
    Ok(leaves.pop().expect("non-disjunctive chase yields a leaf"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::parse_disj_tgd;
    use qi_schema::Schema;

    #[test]
    fn union_quasi_inverse_branches() {
        // S(x) -> P(x) | Q(x) applied to S(a): two leaves.
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let u = Instance::parse(&t, "S(a)").unwrap();
        let leaves = disjunctive_chase(
            &[dep],
            &u,
            &Instance::new(s.clone()),
            DisjChaseOptions::default(),
        )
        .unwrap();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.contains(&Instance::parse(&s, "P(a)").unwrap()));
        assert!(leaves.contains(&Instance::parse(&s, "Q(a)").unwrap()));
    }

    #[test]
    fn two_facts_give_four_leaves() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let u = Instance::parse(&t, "S(a) S(b)").unwrap();
        let leaves =
            disjunctive_chase(&[dep], &u, &Instance::new(s), DisjChaseOptions::default()).unwrap();
        assert_eq!(leaves.len(), 4);
    }

    #[test]
    fn satisfied_trigger_does_not_fire() {
        // If one disjunct is already satisfied, Definition 6.3 forbids the
        // step entirely.
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let u = Instance::parse(&t, "S(a)").unwrap();
        let pre = Instance::parse(&s, "P(a)").unwrap();
        let leaves = disjunctive_chase(&[dep], &u, &pre, DisjChaseOptions::default()).unwrap();
        assert_eq!(leaves, vec![pre]);
    }

    #[test]
    fn existentials_get_fresh_nulls() {
        let t = Schema::parse("Q/2").unwrap();
        let s = Schema::parse("P/3").unwrap();
        let dep = parse_disj_tgd(&t, &s, "Q(x,y) -> exists z . P(x,y,z)").unwrap();
        let u = Instance::parse(&t, "Q(a,b) Q(c,N7)").unwrap();
        let v = chase_with_guards(&[dep], &u, &s).unwrap();
        assert_eq!(v.fact_count(), 2);
        // fresh nulls avoid N7
        assert!(v.nulls().iter().all(|n| n.0 >= 8 || n.0 == 7));
        assert_eq!(v.nulls().len(), 3); // N7 carried over + two fresh
    }

    #[test]
    fn guards_filter_triggers() {
        let t = Schema::parse("S/2").unwrap();
        let s = Schema::parse("P/2").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x,y) & const(x) & x != y -> P(x,y)").unwrap();
        let u = Instance::parse(&t, "S(a,a) S(a,b) S(N1,b)").unwrap();
        let v = chase_with_guards(&[dep], &u, &s).unwrap();
        // Only S(a,b) passes both guards.
        assert_eq!(v, Instance::parse(&s, "P(a,b)").unwrap());
    }

    #[test]
    fn budget_is_enforced() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let mut u = Instance::new(t.clone());
        for i in 0..20 {
            u.insert_consts("S", &[&format!("c{i}")]).unwrap();
        }
        let err = disjunctive_chase(
            &[dep],
            &u,
            &Instance::new(s),
            DisjChaseOptions {
                max_nodes: 100,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChaseError::Budget { .. }));
    }

    #[test]
    fn chase_with_guards_rejects_disjunction() {
        let t = Schema::parse("S/1").unwrap();
        let s = Schema::parse("P/1 Q/1").unwrap();
        let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
        let u = Instance::new(t);
        assert!(chase_with_guards(&[dep], &u, &s).is_err());
    }

    #[test]
    fn decomposition_reverse_chase_matches_figure_1() {
        // Σ' = Q(x,y) & R(y,z) -> P(x,y,z) applied to U of Figure 1.
        let t = Schema::parse("Q/2 R/2").unwrap();
        let s = Schema::parse("P/3").unwrap();
        let dep = parse_disj_tgd(&t, &s, "Q(x,y) & R(y,z) -> P(x,y,z)").unwrap();
        let u = Instance::parse(&t, "Q(a,b) Q(a2,b) R(b,c) R(b,c2)").unwrap();
        let v1 = chase_with_guards(&[dep], &u, &s).unwrap();
        assert_eq!(
            v1,
            Instance::parse(&s, "P(a,b,c) P(a,b,c2) P(a2,b,c) P(a2,b,c2)").unwrap()
        );
    }
}
