//! Algorithm **MinGen** (§4): exhaustive search for minimal generators.
//!
//! Definition 4.2: `β(x,z)` is a *generator* of `∃y ψ(x,y)` w.r.t. `Σ`
//! when the tgd `β(x,z) → ∃y ψ(x,y)` is a logical consequence of `Σ`;
//! Definition 4.3 asks for the conjuncts to be minimal. Lemma 4.4 bounds
//! minimal generators by `s1·s2` atoms (`s1` = largest premise in `Σ`,
//! `s2` = `|ψ|`), which makes exhaustive search complete.
//!
//! ## Enumeration
//!
//! Conjunctions are enumerated in *encoded* form — each term is either a
//! frontier variable `x_i` or an existential `z_j` — by iterative
//! deepening on the atom count:
//!
//! * atom sequences are non-decreasing in relation id, and `z`-variables
//!   are introduced consecutively in first-occurrence order, which covers
//!   every conjunction up to renaming of `z` (order the class's atoms by
//!   relation and relabel: both constraints hold);
//! * only relations that occur in some tgd premise are considered — facts
//!   over other relations can never fire a trigger, so dropping such an
//!   atom leaves the chase unchanged and the conjunction non-minimal;
//! * a branch whose prefix already contains (up to `z`-renaming) a found
//!   generator is pruned: every extension is non-minimal;
//! * because sizes grow monotonically, a candidate that survives pruning
//!   and passes the chase test of Definition 4.2 is a **minimal**
//!   generator — all of its strict sub-conjunctions were enumerated at
//!   smaller sizes.

use crate::error::{CoreError, CorePartial};
use crate::mapping::SchemaMapping;
use qi_chase::is_generator;
use qi_exec::{par_map, Budget, CostHint, Exceeded, ExecConfig, ExecStats};
use qi_lang::atom::vars_of;
use qi_lang::{Atom, Var, VarGen};
use qi_schema::{
    ConstId, Instance, MatchConstraints, MatchEngine, PatFact, PatTerm, Pattern, RelId, Value,
};
use std::collections::BTreeSet;

/// Options bounding the MinGen search.
#[derive(Clone, Debug)]
pub struct MinGenOptions {
    /// Override Lemma 4.4's `s1·s2` atom bound (a *smaller* value trades
    /// completeness for speed; a larger one is never needed).
    pub max_atoms: Option<usize>,
    /// Budget on chase tests; exceeded ⇒ [`CoreError::Budget`].
    pub max_candidates: usize,
    /// Per-request execution configuration. Parallelism drives the
    /// candidate chase tests — the output (and the budget-error point)
    /// is bit-identical at every setting; planning gates the coverage
    /// probes' join ordering (also bit-identical); the cooperative
    /// resource budget is checked per committed candidate, in the
    /// enumerator's pruning loop, and between executor tasks.
    /// Exhaustion surfaces as [`CoreError::Resource`] carrying the
    /// generators confirmed so far (each a genuine generator; only the
    /// final subsumption sweep may be missing). Unlike
    /// [`MinGenOptions::max_candidates`] — whose trip point is
    /// bit-identical at every thread count — the *point* where a
    /// deadline or cancellation interrupts may vary; the error shape and
    /// the soundness of the partial may not. Unlimited by default.
    pub exec: ExecConfig,
}

impl Default for MinGenOptions {
    fn default() -> Self {
        MinGenOptions {
            max_atoms: None,
            max_candidates: 1_000_000,
            exec: ExecConfig::default(),
        }
    }
}

/// Result of a MinGen run with search statistics attached.
#[derive(Clone, Debug)]
pub struct MinGenOutcome {
    /// The minimal generators, in canonical enumeration order.
    pub generators: Vec<Generator>,
    /// Candidates that were chase-tested against the budget (identical
    /// at every thread count).
    pub candidates_tested: usize,
    /// Executor counters for the candidate-evaluation stage.
    pub stats: ExecStats,
}

/// A generator `β(x,z)`: its atoms and its existential variables `z`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Generator {
    /// The conjuncts of `β` (over the mapping's source schema).
    pub atoms: Vec<Atom>,
    /// The variables of `β` that are not frontier variables.
    pub exists: Vec<Var>,
}

/// Term encoding: `0..nx` are the frontier variables in order, `nx + j`
/// is the existential variable `z_j`.
type Code = u16;
type EncAtom = (RelId, Vec<Code>);

/// Immutable encoding context shared by the enumerator and the workers.
struct EncCtx<'a> {
    m: &'a SchemaMapping,
    psi: &'a [Atom],
    x: &'a [Var],
    nx: usize,
    /// Relations eligible to appear in generators.
    rels: Vec<RelId>,
    /// Frozen constants for the subset-up-to-renaming encoding.
    x_consts: Vec<Value>,
    /// Resolved per-request planning mode for every coverage probe.
    planned: bool,
}

impl EncCtx<'_> {
    /// Instance encoding of a conjunction: `x_i` as a reserved constant,
    /// `z_j` as the null `N_j`.
    fn as_instance(&self, atoms: &[EncAtom]) -> Instance {
        let mut inst = Instance::new(self.m.source.clone());
        for (rel, args) in atoms {
            let vals: Vec<Value> = args
                .iter()
                .map(|&c| {
                    if (c as usize) < self.nx {
                        self.x_consts[c as usize]
                    } else {
                        Value::null((c as usize - self.nx) as u64)
                    }
                })
                .collect();
            inst.insert(*rel, vals).expect("arity by construction");
        }
        inst
    }

    /// Pattern encoding: `x_i` fixed to its reserved constant, `z_j` as
    /// match variable `j`.
    fn as_pattern(&self, atoms: &[EncAtom]) -> Pattern {
        let mut nvars = 0usize;
        let facts = atoms
            .iter()
            .map(|(rel, args)| PatFact {
                rel: *rel,
                args: args
                    .iter()
                    .map(|&c| {
                        if (c as usize) < self.nx {
                            PatTerm::Value(self.x_consts[c as usize])
                        } else {
                            let v = c as usize - self.nx;
                            nvars = nvars.max(v + 1);
                            PatTerm::Var(v as u32)
                        }
                    })
                    .collect(),
            })
            .collect();
        Pattern { facts, nvars }
    }

    /// Does the prefix already contain a found generator (⇒ prune)?
    ///
    /// A conjunction `sub` *subsumes* `sup` when a substitution fixing
    /// every frontier variable maps `sub`'s existential variables to
    /// arbitrary variables of `sup` such that `sub`'s conjuncts become a
    /// subset of `sup`'s. This is the "subset of the conjuncts (up to
    /// renaming of variables in z, z')" of the algorithm's Step 3, read
    /// the way the paper's own examples require: §4 lists only `S(x,x)`
    /// and `T(x,y)` as the generators of `P(x,x)` — `T(x,x)` is excluded
    /// exactly because renaming `T(x,y)`'s existential `y` **to `x`**
    /// turns it into a subset of `{T(x,x)}`; and Example 4.5's remark
    /// discards the disjunct `T(x1,x1) ∧ R(x1,x1,x4)` because
    /// `T(x3,x1) ∧ R(x3,x3,x4)` maps onto it with `x3 ↦ x1`.
    ///
    /// `found_pats` holds the found generators' *pre-compiled* patterns
    /// (built once when each generator was committed), paired with their
    /// atom counts; the prefix is encoded as an instance once per call
    /// instead of once per found generator. The same encodings drive the
    /// Step 3 minimization sweep in [`min_gen_with_stats`].
    fn covered(&self, prefix: &[EncAtom], found_pats: &[FoundPat]) -> bool {
        if found_pats.is_empty() {
            return false;
        }
        let constraints = MatchConstraints::default();
        // Refutation prefilter: a generator mentioning a relation absent
        // from the prefix cannot map into it — most probes die here, for
        // the price of a sorted-vec subset test, before any instance or
        // search is paid for.
        let mut prefix_rels: Vec<RelId> = prefix.iter().map(|(r, _)| *r).collect();
        prefix_rels.sort_unstable();
        prefix_rels.dedup();
        // The target instance is built lazily, once, and only if some
        // generator survives the prefilter.
        let mut target: Option<Instance> = None;
        found_pats.iter().any(|fp| {
            fp.len <= prefix.len()
                && fp.rels.iter().all(|r| prefix_rels.binary_search(r).is_ok())
                && {
                    let t = target.get_or_insert_with(|| self.as_instance(prefix));
                    MatchEngine::new(&fp.pattern, t, &constraints)
                        .with_planning(self.planned)
                        .exists()
                }
        })
    }

    /// Safety of the induced tgd: every frontier variable occurs.
    fn safe(&self, atoms: &[EncAtom]) -> bool {
        let present: BTreeSet<Code> = atoms
            .iter()
            .flat_map(|(_, args)| args.iter().copied())
            .filter(|&c| (c as usize) < self.nx)
            .collect();
        present.len() == self.nx
    }

    /// Heuristic normal form used only to avoid re-testing duplicates:
    /// sort the atoms, then relabel `z` by first occurrence. Not a perfect
    /// canonical form — collisions are impossible (it is a renaming), and
    /// misses only cost a repeated chase test.
    fn normal_form(&self, atoms: &[EncAtom]) -> Vec<EncAtom> {
        let mut sorted = atoms.to_vec();
        sorted.sort();
        let mut relabel: Vec<Option<Code>> = Vec::new();
        let mut next: Code = 0;
        let mut out = Vec::with_capacity(sorted.len());
        for (rel, args) in &sorted {
            let new_args: Vec<Code> = args
                .iter()
                .map(|&c| {
                    if (c as usize) < self.nx {
                        c
                    } else {
                        let z = c as usize - self.nx;
                        if relabel.len() <= z {
                            relabel.resize(z + 1, None);
                        }
                        *relabel[z].get_or_insert_with(|| {
                            let v = next;
                            next += 1;
                            v
                        }) + self.nx as Code
                    }
                })
                .collect();
            out.push((*rel, new_args));
        }
        out.sort();
        out
    }

    /// Decode an encoded conjunction into real atoms, naming the `z`
    /// variables freshly (avoiding the frontier and `ψ`'s variables).
    fn decode(&self, atoms: &[EncAtom]) -> Generator {
        let avoid: Vec<Var> = vars_of(self.psi)
            .into_iter()
            .chain(self.x.iter().cloned())
            .collect();
        let mut gen = VarGen::new("z", avoid);
        let mut z_names: Vec<Option<Var>> = Vec::new();
        let mut out_atoms = Vec::with_capacity(atoms.len());
        for (rel, args) in atoms {
            let vars: Vec<Var> = args
                .iter()
                .map(|&c| {
                    if (c as usize) < self.nx {
                        self.x[c as usize].clone()
                    } else {
                        let z = c as usize - self.nx;
                        if z_names.len() <= z {
                            z_names.resize(z + 1, None);
                        }
                        z_names[z].get_or_insert_with(|| gen.fresh()).clone()
                    }
                })
                .collect();
            out_atoms.push(Atom::new(*rel, vars));
        }
        let exists: Vec<Var> = z_names.into_iter().flatten().collect();
        Generator {
            atoms: out_atoms,
            exists,
        }
    }

    /// Enumerate the atoms that may follow the current prefix: relation id
    /// at least `min_rel`, new `z` variables introduced consecutively
    /// starting at `z_used`.
    fn next_atoms(&self, min_rel: u32, z_used: usize) -> Vec<(EncAtom, usize)> {
        let mut out = Vec::new();
        for &rel in &self.rels {
            if rel.0 < min_rel {
                continue;
            }
            let arity = self.m.source.arity(rel);
            let mut partial: Vec<(Vec<Code>, usize)> = vec![(Vec::new(), z_used)];
            for _ in 0..arity {
                let mut next = Vec::new();
                for (args, used) in &partial {
                    // existing x vars and z vars
                    for c in 0..self.nx + *used {
                        let mut a = args.clone();
                        a.push(c as Code);
                        next.push((a, *used));
                    }
                    // one new z var (the next index)
                    let mut a = args.clone();
                    a.push((self.nx + *used) as Code);
                    next.push((a, used + 1));
                }
                partial = next;
            }
            for (args, used) in partial {
                out.push(((rel, args), used));
            }
        }
        out
    }
}

/// A committed generator in the form every coverage/subsumption check
/// consumes: atom count (for the cheap length gate) and pre-compiled
/// pattern.
struct FoundPat {
    len: usize,
    pattern: Pattern,
    /// Sorted, deduplicated relations of the pattern, for the coverage
    /// prefilter: a hom may send several pattern facts to one target
    /// fact, so only *presence* of each relation is required.
    rels: Vec<RelId>,
}

/// One level of the explicit DFS stack: the options for the atom at this
/// depth and the cursor into them.
struct Frame {
    opts: Vec<(EncAtom, usize)>,
    next: usize,
}

/// Resumable iterative-deepening enumerator over encoded conjunctions.
///
/// Yields, in the canonical (size-then-lexicographic) order of the
/// sequential search, each candidate that (a) survives prefix-pruning
/// against the generators found *so far*, (b) is safe (all frontier
/// variables occur) and (c) has an unseen normal form. Because pruning
/// is monotone in `found` — a conjunction covered now stays covered
/// forever — drawing a batch of candidates against a stale `found` and
/// re-checking coverage at commit time reproduces the sequential
/// candidate stream exactly.
struct Enumerator {
    size: usize,
    cap: usize,
    prefix: Vec<EncAtom>,
    frames: Vec<Frame>,
    done: bool,
    /// Iterations since the last budget check: heavy pruning can spin
    /// this loop exponentially long between yields, so the enumerator
    /// itself must be interruptible — but `Instant::now()` per iteration
    /// would dominate, so the check runs every [`SPIN_CHECK`] spins.
    spins: u32,
}

/// Enumerator iterations between budget checks.
const SPIN_CHECK: u32 = 1024;

impl Enumerator {
    fn new(cap: usize) -> Self {
        Enumerator {
            size: 0,
            cap,
            prefix: Vec::new(),
            frames: Vec::new(),
            done: false,
            spins: 0,
        }
    }

    fn next_candidate(
        &mut self,
        ctx: &EncCtx,
        found_pats: &[FoundPat],
        tested: &mut BTreeSet<Vec<EncAtom>>,
        budget: &Budget,
    ) -> Result<Option<Vec<EncAtom>>, Exceeded> {
        let limited = !budget.is_unlimited();
        while !self.done {
            if limited {
                self.spins += 1;
                if self.spins >= SPIN_CHECK {
                    self.spins = 0;
                    budget.check()?;
                }
            }
            if self.frames.is_empty() {
                // Begin the next deepening level.
                self.size += 1;
                if self.size > self.cap {
                    self.done = true;
                    return Ok(None);
                }
                self.prefix.clear();
                self.frames.push(Frame {
                    opts: ctx.next_atoms(0, 0),
                    next: 0,
                });
            }
            let frame = self.frames.last_mut().expect("nonempty");
            if frame.next >= frame.opts.len() {
                self.frames.pop();
                if !self.frames.is_empty() {
                    self.prefix.pop();
                }
                continue;
            }
            let (atom, z_used) = frame.opts[frame.next].clone();
            frame.next += 1;
            if self.prefix.contains(&atom) {
                continue; // duplicate conjunct adds nothing
            }
            self.prefix.push(atom);
            if ctx.covered(&self.prefix, found_pats) {
                self.prefix.pop();
                continue;
            }
            if self.prefix.len() == self.size {
                let cand = self.prefix.clone();
                self.prefix.pop();
                if ctx.safe(&cand) && tested.insert(ctx.normal_form(&cand)) {
                    return Ok(Some(cand));
                }
                continue;
            }
            let min_rel = self.prefix.last().map(|(r, _)| r.0).expect("just pushed");
            self.frames.push(Frame {
                opts: ctx.next_atoms(min_rel, z_used),
                next: 0,
            });
        }
        Ok(None)
    }
}

/// Run Algorithm MinGen: all minimal generators of `∃y ψ(x,y)` w.r.t. the
/// mapping's tgds, where `x` designates the frontier variables of `ψ`
/// (its remaining variables are the existential `y`).
pub fn min_gen(
    m: &SchemaMapping,
    psi: &[Atom],
    x: &[Var],
    options: &MinGenOptions,
) -> Result<Vec<Generator>, CoreError> {
    Ok(min_gen_with_stats(m, psi, x, options)?.generators)
}

/// [`min_gen`] returning the full [`MinGenOutcome`].
///
/// ## How the parallel search stays exact
///
/// Candidates are drawn from the canonical enumeration in batches and
/// chase-tested speculatively in parallel; a sequential commit phase then
/// walks the batch in enumeration order, re-checks each candidate against
/// the generators found *before it* (a candidate whose prefix became
/// covered mid-batch is dropped, exactly as the sequential search's
/// pruning would have skipped it), charges the budget, and records the
/// speculative verdict. Coverage is monotone — found generators only
/// accumulate — so the committed candidate stream, the found-generator
/// order, and the point where the budget trips are all bit-identical to
/// the single-threaded search.
pub fn min_gen_with_stats(
    m: &SchemaMapping,
    psi: &[Atom],
    x: &[Var],
    options: &MinGenOptions,
) -> Result<MinGenOutcome, CoreError> {
    if psi.is_empty() {
        return Err(CoreError::Precondition("ψ must be nonempty".into()));
    }
    let psi_vars = vars_of(psi);
    for v in x {
        if !psi_vars.contains(v) {
            return Err(CoreError::Precondition(format!(
                "frontier variable `{v}` does not occur in ψ"
            )));
        }
    }
    let s1 = m.max_body_atoms();
    if s1 == 0 {
        return Ok(MinGenOutcome {
            generators: Vec::new(), // Σ empty: nothing generates anything
            candidates_tested: 0,
            stats: ExecStats::default(),
        });
    }
    let cap = options.max_atoms.unwrap_or(s1 * psi.len());
    // Only relations occurring in some premise can matter.
    let mut rels: Vec<RelId> = m
        .source
        .rel_ids()
        .filter(|r| m.tgds.iter().any(|t| t.body.iter().any(|a| a.rel == *r)))
        .collect();
    rels.sort();
    let nx = x.len();
    let x_consts: Vec<Value> = (0..nx)
        .map(|i| Value::Const(ConstId::new(&format!("$mgx{i}"))))
        .collect();
    let planned = qi_schema::planning_enabled_for(options.exec.planning);
    let ctx = EncCtx {
        m,
        psi,
        x,
        nx,
        rels,
        x_consts,
        planned,
    };
    let mut enumerator = Enumerator::new(cap);
    let mut tested: BTreeSet<Vec<EncAtom>> = BTreeSet::new();
    let mut found: Vec<Vec<EncAtom>> = Vec::new();
    // Compiled pattern per found generator, reused by every coverage
    // check instead of re-encoding the generator each time.
    let mut found_pats: Vec<FoundPat> = Vec::new();
    let mut out: Vec<Generator> = Vec::new();
    let mut candidates_tested = 0usize;
    let mut stats = ExecStats::default();
    // Speculation depth: enough work per wave to keep every worker busy.
    // Batching never changes the result (see above), only the amount of
    // possibly-wasted speculative work.
    let threads = options.exec.parallelism.resolve();
    let batch_cap = if threads == 1 { 1 } else { threads * 4 };
    let budget = &options.exec.budget;
    let limited = !budget.is_unlimited();
    loop {
        let mut batch: Vec<Vec<EncAtom>> = Vec::with_capacity(batch_cap);
        loop {
            if batch.len() >= batch_cap {
                break;
            }
            match enumerator.next_candidate(&ctx, &found_pats, &mut tested, budget) {
                Ok(Some(c)) => batch.push(c),
                Ok(None) => break,
                Err(e) => return Err(CoreError::resource(e, stats, CorePartial::Generators(out))),
            }
        }
        if batch.is_empty() {
            break;
        }
        // Parallel enumerate: chase-test the whole batch speculatively.
        let wave = par_map(
            options.exec.parallelism,
            &batch,
            budget,
            CostHint::none(),
            |cand| {
                let gen = ctx.decode(cand);
                is_generator(&m.tgds, &m.source, &m.target, &gen.atoms, psi, x).map(|ok| (gen, ok))
            },
        );
        let (verdicts, wave_stats) = match wave {
            Ok(v) => v,
            Err(e) => return Err(CoreError::resource(e, stats, CorePartial::Generators(out))),
        };
        stats.absorb(&wave_stats);
        // Ordered commit, in canonical enumeration order. The resource
        // budget is re-checked per committed candidate: the generators
        // confirmed so far are the sound partial on exhaustion.
        for (cand, verdict) in batch.iter().zip(verdicts) {
            if limited {
                if let Err(e) = budget.check() {
                    return Err(CoreError::resource(e, stats, CorePartial::Generators(out)));
                }
            }
            if ctx.covered(cand, &found_pats) {
                continue; // a generator committed just before it covers it
            }
            candidates_tested += 1;
            if candidates_tested > options.max_candidates {
                return Err(CoreError::Budget(format!(
                    "MinGen exceeded {} candidate chase tests",
                    options.max_candidates
                )));
            }
            let (gen, ok) = verdict?;
            if ok {
                let mut rels: Vec<RelId> = cand.iter().map(|(r, _)| *r).collect();
                rels.sort_unstable();
                rels.dedup();
                found_pats.push(FoundPat {
                    len: cand.len(),
                    pattern: ctx.as_pattern(cand),
                    rels,
                });
                found.push(cand.clone());
                out.push(gen);
            }
        }
    }
    // Step 3 (minimize): drop every generator subsumed by another kept
    // one. For mutually-subsuming pairs the earlier (smaller, since sizes
    // ascend) is kept.
    let n = found.len();
    // Encode every found generator as pattern and instance once; the
    // O(n²) subsumption sweep below then reuses them pairwise.
    let insts: Vec<Instance> = found.iter().map(|g| ctx.as_instance(g)).collect();
    let constraints = MatchConstraints::default();
    let subsumes = |i: usize, j: usize| -> bool {
        found[i].len() <= found[j].len()
            && found_pats[i]
                .rels
                .iter()
                .all(|r| found_pats[j].rels.binary_search(r).is_ok())
            && MatchEngine::new(&found_pats[i].pattern, &insts[j], &constraints)
                .with_planning(ctx.planned)
                .exists()
    };
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
            if subsumes(i, j) && !(j < i && subsumes(j, i)) {
                alive[j] = false;
            }
        }
    }
    Ok(MinGenOutcome {
        generators: out
            .into_iter()
            .zip(alive)
            .filter(|(_, a)| *a)
            .map(|(g, _)| g)
            .collect(),
        candidates_tested,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(schema: &qi_schema::Schema, specs: &[(&str, &[&str])]) -> Vec<Atom> {
        specs
            .iter()
            .map(|(r, args)| Atom::parse_parts(schema, r, args).unwrap())
            .collect()
    }

    #[test]
    fn projection_generator() {
        let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
        let psi = atoms(&m.target, &[("Q", &["x"])]);
        let x = vec![Var::new("x")];
        let gens = min_gen(&m, &psi, &x, &MinGenOptions::default()).unwrap();
        assert_eq!(gens.len(), 1);
        assert_eq!(gens[0].atoms.len(), 1);
        assert_eq!(gens[0].exists.len(), 1); // P(x, z)
        assert_eq!(m.source.name(gens[0].atoms[0].rel), "P");
    }

    #[test]
    fn union_has_two_generators() {
        let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
        let psi = atoms(&m.target, &[("S", &["x"])]);
        let x = vec![Var::new("x")];
        let gens = min_gen(&m, &psi, &x, &MinGenOptions::default()).unwrap();
        assert_eq!(gens.len(), 2);
        let names: BTreeSet<&str> = gens.iter().map(|g| m.source.name(g.atoms[0].rel)).collect();
        assert_eq!(names, BTreeSet::from(["P", "Q"]));
    }

    #[test]
    fn inequality_example_from_section_4() {
        // Σ = { S(x,y) -> P(x,y), T(x,y) -> P(x,x) }.
        // Generators of P(x1,x2) (x1 ≠ x2 case handled by QuasiInverse):
        // S(x1,x2) only. Generators of P(x1,x1): S(x1,x1) and ∃y T(x1,y).
        let m = SchemaMapping::parse("S/2 T/2", "P/2", &["S(x,y) -> P(x,y)", "T(x,y) -> P(x,x)"])
            .unwrap();
        let psi_distinct = atoms(&m.target, &[("P", &["x1", "x2"])]);
        let gens = min_gen(
            &m,
            &psi_distinct,
            &[Var::new("x1"), Var::new("x2")],
            &MinGenOptions::default(),
        )
        .unwrap();
        assert_eq!(gens.len(), 1);
        assert_eq!(m.source.name(gens[0].atoms[0].rel), "S");

        let psi_equal = atoms(&m.target, &[("P", &["x1", "x1"])]);
        let gens = min_gen(&m, &psi_equal, &[Var::new("x1")], &MinGenOptions::default()).unwrap();
        assert_eq!(gens.len(), 2);
    }

    #[test]
    fn multi_atom_generator_is_found_and_minimal() {
        // Decomposition reversed: Q(x,y) ∧ R(y,z) is generated by the
        // single fact P(x,y,z), and also — with two facts — by
        // P(x,y,w1) ∧ P(w2,y,z) (the Q-part from one, the R-part from the
        // other). Every other two-fact generator is subsumed by the latter.
        let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
        let psi = atoms(&m.target, &[("Q", &["x", "y"]), ("R", &["y", "z"])]);
        let x = vec![Var::new("x"), Var::new("y"), Var::new("z")];
        let gens = min_gen(&m, &psi, &x, &MinGenOptions::default()).unwrap();
        assert_eq!(gens.len(), 2, "{gens:?}");
        assert_eq!(gens[0].atoms.len(), 1); // P(x,y,z)
        assert!(gens[0].exists.is_empty());
        assert_eq!(gens[1].atoms.len(), 2); // P(x,y,w1) & P(w2,y,z)
        assert_eq!(gens[1].exists.len(), 2);
    }

    #[test]
    fn budget_is_enforced() {
        let m = SchemaMapping::parse(
            "A/2 B/2 C/2",
            "T/2",
            &["A(x,y) & B(y,z) & C(z,x) -> T(x,y)"],
        )
        .unwrap();
        let psi = atoms(&m.target, &[("T", &["x", "y"])]);
        let x = vec![Var::new("x"), Var::new("y")];
        let err = min_gen(
            &m,
            &psi,
            &x,
            &MinGenOptions {
                max_atoms: None,
                max_candidates: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Budget(_)));
    }

    #[test]
    fn no_generator_when_target_unreachable() {
        let m = SchemaMapping::parse("P/1", "S/1 W/1", &["P(x) -> S(x)"]).unwrap();
        let psi = atoms(&m.target, &[("W", &["x"])]);
        let gens = min_gen(&m, &psi, &[Var::new("x")], &MinGenOptions::default()).unwrap();
        assert!(gens.is_empty());
    }

    #[test]
    fn frontier_must_occur_in_psi() {
        let m = SchemaMapping::parse("P/1", "S/1", &["P(x) -> S(x)"]).unwrap();
        let psi = atoms(&m.target, &[("S", &["x"])]);
        assert!(min_gen(&m, &psi, &[Var::new("w")], &MinGenOptions::default()).is_err());
    }
}
