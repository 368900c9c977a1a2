//! Incremental chase maintenance: differential re-chase over a fact
//! [`Diff`] instead of a from-scratch run.
//!
//! # Contract
//!
//! `chase_delta(chase_incremental(I), Δ)` renders **byte-identically**
//! to `chase_incremental(I ± Δ)` — at every thread count, planned and
//! unplanned, and (when a budget trips) with a typed
//! [`ChaseError::Resource`] whose partial instance is a sound subset of
//! the uninterrupted result. Stats are *not* part of the contract: an
//! incremental run does less work and its counters say so.
//!
//! # How
//!
//! The s-t stage is **memoize enumeration, redo commits**: the producing
//! run records each tgd's full trigger enumeration (`body_vals` in the
//! engine's deterministic order). On a delta, old triggers whose body
//! facts survive are *replayed*, new triggers are enumerated with the
//! engine's delta-atom restriction (one body atom pinned to the newly
//! inserted facts), and the two streams are merged by the triggers'
//! enumeration key — the substituted body-atom fact sequence, which
//! `MatchEngine::all` visits in lexicographic order. The merged stream
//! is exactly the from-scratch stream on the updated source, so the
//! sequential commit loop (restricted-chase satisfaction checks, fresh
//! nulls in firing order) reproduces the from-scratch target bit for
//! bit.
//!
//! The target stage is incremental only when it is **Datalog**: every
//! target tgd is existential-free and there are no egds. Then the
//! target fixpoint is the unique least fixpoint of a monotone operator
//! over the s-t output, so the *fact set* determines the render and
//! deletions can use classic **DRed** (delete/re-derive): over-delete
//! every fact whose recorded derivation transitively touches a removed
//! base fact, re-derive the survivors from the remaining facts, then
//! run the ordinary semi-naive continuation seeded with the re-inserted
//! and newly added facts. Support edges (one recorded derivation per
//! derived fact) are collected during eligible runs by
//! `crate::target::run_rounds`. Settings with existential target tgds
//! or egds fall back to re-running the target stage from the replayed
//! s-t output — still byte-identical, still skipping nothing observable.
//!
//! Finally, fingerprint-keyed [`HomCache`] entries mentioning a changed
//! relation are evicted (a freshness/memory policy — cached entries are
//! keyed by instance content, so eviction is never needed for
//! correctness).

use crate::error::{ChaseError, ChasePartial};
use crate::standard::{
    absorb_match_counters, body_fact_keys, compile, enumeration_hint, fire, fire_collect,
    head_satisfied, run_st, ChaseOptions, ChaseOutcome, CompiledTgd, FactKey, StTriggerLog,
};
use crate::target::{
    derive_step_budget, run_rounds, ExchangeSetting, RoundsCfg, RoundsEnd, TargetChaseResult,
    TargetChaseStats,
};
use qi_exec::{par_map, ExecConfig, ExecStats};
use qi_schema::{
    planning_enabled_for, Diff, Fact, HomCache, Instance, MatchConstraints, MatchEngine, PatTerm,
    RelId, Schema, Value,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// One recorded derivation per derived target fact: the body facts of
/// the trigger that first inserted it. This is the (single-support)
/// edge set DRed walks when base facts disappear.
#[derive(Clone, Debug, Default)]
pub struct SupportLog {
    /// derived fact → body facts of its recorded deriving trigger.
    pub(crate) derived: BTreeMap<FactKey, Vec<FactKey>>,
}

impl SupportLog {
    /// Number of derived facts with a recorded derivation.
    pub fn len(&self) -> usize {
        self.derived.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.derived.is_empty()
    }
}

/// Options for [`chase_incremental`] / [`chase_delta`].
#[derive(Clone, Debug)]
pub struct DeltaChaseOptions {
    /// Per-request execution configuration: fan-out for trigger
    /// enumeration (commits stay sequential), planning mode for the
    /// match engines, and the cooperative resource budget — end-to-end
    /// across both stages.
    pub exec: ExecConfig,
    /// Record the memo (s-t trigger log + target support edges) that a
    /// later [`chase_delta`] needs. Off = plain chase; a subsequent
    /// `chase_delta` then falls back to a full re-chase.
    pub record: bool,
    /// Fingerprint-keyed homomorphism cache to invalidate: after a
    /// delta, entries whose canonical fingerprint mentions a changed
    /// relation are evicted (counted in `ExecStats::cache_evictions`).
    pub cache: Option<Arc<HomCache>>,
}

impl Default for DeltaChaseOptions {
    fn default() -> Self {
        DeltaChaseOptions {
            exec: ExecConfig::default(),
            record: true,
            cache: None,
        }
    }
}

/// The memo a producing run leaves behind for [`chase_delta`].
#[derive(Clone, Debug, Default)]
struct Memo {
    /// Per-tgd s-t trigger enumerations, in enumeration order.
    st_log: StTriggerLog,
    /// Target-stage support edges (Datalog-eligible settings only).
    supports: SupportLog,
}

/// A chase result that can be maintained incrementally: the inputs, the
/// intermediate s-t output, the target outcome, stats, and (when
/// recording was on) the replay memo.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The data-exchange setting that was chased.
    pub setting: ExchangeSetting,
    /// The source instance this result is the chase of.
    pub source: Instance,
    /// The s-t stage output (input of the target stage).
    pub base: Instance,
    /// The target-stage outcome: solution or egd conflict.
    pub outcome: TargetChaseResult,
    /// Budget accounting for the run that produced this result.
    pub stats: TargetChaseStats,
    memo: Option<Memo>,
}

impl ChaseResult {
    /// The universal solution, if the target stage reached one.
    pub fn solution(&self) -> Option<&Instance> {
        match &self.outcome {
            TargetChaseResult::Solution(u) => Some(u),
            TargetChaseResult::Failed { .. } => None,
        }
    }

    /// True when this result carries the memo [`chase_delta`] replays
    /// (recording was on and the target stage succeeded).
    pub fn has_memo(&self) -> bool {
        self.memo.is_some()
    }
}

/// Is the target stage a Datalog program (existential-free tgds, no
/// egds)? Then its fixpoint is a unique least fixpoint and the DRed +
/// semi-naive continuation path is exact.
fn datalog_eligible(setting: &ExchangeSetting, compiled: &[CompiledTgd]) -> bool {
    setting.egds.is_empty() && compiled.iter().all(|c| c.head.nvars == c.n_body_vars)
}

/// Full chase that records the incremental memo: s-t chase (logging the
/// trigger enumeration), then the target round loop (logging support
/// edges when the setting is Datalog-eligible).
///
/// The produced artifacts are byte-identical to
/// [`crate::chase_with_target_deps_stats`] with default target options —
/// both run the same staged code, recording is observation-only.
pub fn chase_incremental(
    setting: &ExchangeSetting,
    source: &Instance,
    target_schema: &Schema,
    opts: &DeltaChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    let mut st_log = StTriggerLog::default();
    let ChaseOutcome {
        instance: base,
        stats: st_stats,
        ..
    } = run_st(
        &setting.st_tgds,
        source,
        target_schema,
        true,
        ChaseOptions {
            exec: opts.exec.clone(),
        },
        opts.record.then_some(&mut st_log),
    )?;
    let compiled: Vec<CompiledTgd> = setting.target_tgds.iter().map(compile).collect();
    let eligible = datalog_eligible(setting, &compiled);
    let (step_budget, certified) =
        derive_step_budget(None, None, &setting.target_tgds, base.active_domain().len());
    let mut next_null = base.fresh_null_floor().max(source.fresh_null_floor());
    let mut steps = 0usize;
    let mut exec = st_stats;
    let mut supports = SupportLog::default();
    let cfg = RoundsCfg {
        compiled: &compiled,
        egds: &setting.egds,
        planned: planning_enabled_for(opts.exec.planning),
        exec: opts.exec.clone(),
        naive: false,
        step_budget,
    };
    let end = run_rounds(
        &cfg,
        base.clone(),
        &mut next_null,
        &mut steps,
        true,
        &mut exec,
        (opts.record && eligible).then_some(&mut supports),
    )?;
    let outcome = match end {
        RoundsEnd::Fixpoint(u) => TargetChaseResult::Solution(u),
        RoundsEnd::EgdConflict { left, right } => TargetChaseResult::Failed { left, right },
    };
    let memo = (opts.record && matches!(outcome, TargetChaseResult::Solution(_)))
        .then_some(Memo { st_log, supports });
    Ok(ChaseResult {
        setting: setting.clone(),
        source: source.clone(),
        base,
        outcome,
        stats: TargetChaseStats {
            steps,
            budget: step_budget,
            certified,
            exec,
        },
        memo,
    })
}

/// Store-style key of a fact.
fn fact_key(f: &Fact) -> FactKey {
    (f.rel.index(), f.args.clone())
}

/// Rebuild a [`Fact`] from its store-style key.
fn key_fact(k: &FactKey) -> Fact {
    Fact::new(RelId(k.0 as u32), k.1.clone())
}

/// Maintain `prev` under `diff` (applied to the *source*): the returned
/// result renders byte-identically to `chase_incremental` on the
/// updated source, at a fraction of the work when `diff` is small. A
/// memo-less or failed `prev` falls back to a full re-chase.
pub fn chase_delta(
    prev: &ChaseResult,
    diff: &Diff,
    opts: &DeltaChaseOptions,
) -> Result<ChaseResult, ChaseError> {
    // New source, staged so the store's per-round delta is exactly the
    // effectively-added facts: removals never enter the delta, and
    // already-present additions are no-ops.
    let mut source = prev.source.clone();
    source.begin_round();
    let (eff_removed, eff_added) = diff
        .apply(&mut source)
        .map_err(|e| ChaseError::SchemaMismatch(e.to_string()))?;
    let setting = &prev.setting;
    let target_schema = prev.base.schema().clone();

    let memo = match (&prev.memo, prev.solution()) {
        (Some(m), Some(_)) => m,
        // Nothing to replay: a memo-less or failed previous run gives
        // the delta no sound starting point.
        _ => {
            let mut next = chase_incremental(setting, &source, &target_schema, opts)?;
            next.stats.exec.delta_facts_in += (eff_removed + eff_added) as u64;
            evict_cache(opts, prev, &mut next);
            return Ok(next);
        }
    };

    let mut exec = ExecStats {
        delta_facts_in: (eff_removed + eff_added) as u64,
        ..ExecStats::default()
    };

    // ---- s-t stage: memoized replay + delta enumeration ----
    let removed_keys: HashSet<FactKey> = diff.removed.iter().map(fact_key).collect();
    let st_compiled: Vec<CompiledTgd> = setting.st_tgds.iter().map(compile).collect();
    let planned = planning_enabled_for(opts.exec.planning);
    let budget = &opts.exec.budget;
    let limited = !budget.is_unlimited();

    // Enumerate only the *new* triggers: one delta-restricted task per
    // (tgd, body atom); the per-round delta of `source` holds exactly
    // the effectively added facts.
    let mut tasks: Vec<(usize, usize)> = Vec::new();
    for (ti, c) in st_compiled.iter().enumerate() {
        for atom in 0..c.body.facts.len() {
            tasks.push((ti, atom));
        }
    }
    let constraints = MatchConstraints::default();
    let hint = enumeration_hint(&st_compiled, &source, planned);
    let (results, stats) = par_map(
        opts.exec.parallelism,
        &tasks,
        budget,
        hint,
        |&(ti, atom)| {
            let c = &st_compiled[ti];
            let engine = MatchEngine::new(&c.body, &source, &constraints)
                .with_planning(planned)
                .with_delta_atom(Some(atom));
            // Unordered is safe: the per-tgd merge below re-keys every
            // new trigger by its enumeration key.
            let matches: Vec<Vec<Value>> = engine
                .all_unordered()
                .iter()
                .map(|a| (0..c.n_body_vars as u32).map(|i| a.value(i)).collect())
                .collect();
            (matches, engine.counters())
        },
    )
    .map_err(|e| ChaseError::resource(e, exec.clone(), ChasePartial::None))?;
    exec.absorb(&stats);
    // fresh[ti]: enumeration key → body_vals, deduped across the atom
    // tasks of one tgd (a trigger with two new body facts shows up in
    // two tasks).
    let mut fresh: Vec<BTreeMap<Vec<FactKey>, Vec<Value>>> =
        vec![BTreeMap::new(); st_compiled.len()];
    for ((ti, _), (matches, counters)) in tasks.iter().zip(results) {
        absorb_match_counters(&mut exec, &counters);
        for body_vals in matches {
            let key = body_fact_keys(&st_compiled[*ti], &body_vals);
            fresh[*ti].insert(key, body_vals);
        }
    }

    // Merge memoized survivors with the fresh triggers by enumeration
    // key. Old triggers arrive in enumeration order (= key order), and
    // fresh triggers cannot collide with survivors (each uses at least
    // one genuinely new fact), so this merge *is* the from-scratch
    // enumeration of the updated source.
    let mut merged_log: StTriggerLog = Vec::with_capacity(st_compiled.len());
    for (ti, c) in st_compiled.iter().enumerate() {
        let old = &memo.st_log[ti];
        let mut out: Vec<Vec<Value>> = Vec::with_capacity(old.len() + fresh[ti].len());
        let mut new_iter = fresh[ti].iter().peekable();
        for body_vals in old {
            let key = body_fact_keys(c, body_vals);
            if key.iter().any(|k| removed_keys.contains(k)) {
                continue; // trigger lost a body fact
            }
            while let Some((nk, _)) = new_iter.peek() {
                if **nk < key {
                    out.push(new_iter.next().unwrap().1.clone());
                } else {
                    break;
                }
            }
            out.push(body_vals.clone());
        }
        out.extend(new_iter.map(|(_, bv)| bv.clone()));
        merged_log.push(out);
    }

    // Redo the commits: same sequential loop as the from-scratch s-t
    // chase, over the merged stream.
    let mut base_new = Instance::new(target_schema.clone());
    let mut next_null = source.fresh_null_floor();
    let mut triggers = 0usize;
    let mut fired = 0usize;
    for (c, matches) in st_compiled.iter().zip(&merged_log) {
        for body_vals in matches {
            if limited {
                if let Err(e) = budget.check() {
                    exec.triggers_enumerated += triggers as u64;
                    exec.triggers_fired += fired as u64;
                    return Err(ChaseError::resource(
                        e,
                        exec,
                        ChasePartial::Instance(base_new),
                    ));
                }
            }
            triggers += 1;
            if head_satisfied(c, body_vals, &base_new, &mut exec, planned) {
                continue;
            }
            let before = base_new.fact_count();
            fire(c, body_vals, &mut base_new, &mut next_null);
            budget.charge_facts((base_new.fact_count() - before) as u64);
            fired += 1;
        }
    }
    exec.rounds += 1;
    exec.triggers_enumerated += triggers as u64;
    exec.triggers_fired += fired as u64;

    // ---- target stage ----
    let compiled: Vec<CompiledTgd> = setting.target_tgds.iter().map(compile).collect();
    let eligible = datalog_eligible(setting, &compiled);
    let (step_budget, certified) = derive_step_budget(
        None,
        None,
        &setting.target_tgds,
        base_new.active_domain().len(),
    );
    let mut steps = 0usize;
    let mut next_null = base_new.fresh_null_floor().max(source.fresh_null_floor());
    let cfg = RoundsCfg {
        compiled: &compiled,
        egds: &setting.egds,
        planned,
        exec: opts.exec.clone(),
        naive: false,
        step_budget,
    };
    let base_diff = Diff::between(&prev.base, &base_new);

    let (outcome, supports) = if eligible && opts.record {
        let mut supports = memo.supports.clone();
        let prev_solution = prev.solution().expect("memo implies solution").clone();
        let mut working = prev_solution;
        let mut deleted = dred_over_delete(
            &mut working,
            &mut supports,
            base_diff.removed.iter().map(fact_key),
            &mut exec,
        );
        // Re-inserted and newly added base facts all join the store
        // delta that seeds the semi-naive continuation.
        working.begin_round();
        let base_new_keys: BTreeSet<FactKey> = base_new.facts().map(|f| fact_key(&f)).collect();
        dred_rederive(
            &cfg,
            &mut working,
            &mut supports,
            &mut deleted,
            &base_new_keys,
            &mut exec,
        )?;
        for f in &base_diff.added {
            working
                .insert_fact(f.clone())
                .map_err(|e| ChaseError::SchemaMismatch(e.to_string()))?;
        }
        let end = run_rounds(
            &cfg,
            working,
            &mut next_null,
            &mut steps,
            false,
            &mut exec,
            Some(&mut supports),
        )?;
        let outcome = match end {
            RoundsEnd::Fixpoint(u) => TargetChaseResult::Solution(u),
            RoundsEnd::EgdConflict { .. } => unreachable!("eligible settings have no egds"),
        };
        (outcome, supports)
    } else {
        // Existential target tgds or egds: re-run the target stage from
        // the replayed base — byte-identical by construction.
        let end = run_rounds(
            &cfg,
            base_new.clone(),
            &mut next_null,
            &mut steps,
            true,
            &mut exec,
            None,
        )?;
        let outcome = match end {
            RoundsEnd::Fixpoint(u) => TargetChaseResult::Solution(u),
            RoundsEnd::EgdConflict { left, right } => TargetChaseResult::Failed { left, right },
        };
        (outcome, SupportLog::default())
    };

    let memo = (opts.record && matches!(outcome, TargetChaseResult::Solution(_))).then_some(Memo {
        st_log: merged_log,
        supports,
    });
    let mut next = ChaseResult {
        setting: setting.clone(),
        source,
        base: base_new,
        outcome,
        stats: TargetChaseStats {
            steps,
            budget: step_budget,
            certified,
            exec,
        },
        memo,
    };
    evict_cache(opts, prev, &mut next);
    Ok(next)
}

/// DRed phase 1: transitively delete every fact whose recorded
/// derivation touches a removed base fact (starting from the removed
/// base facts themselves). Returns the set of deleted keys; the support
/// log forgets them (survivors re-record on re-derivation).
fn dred_over_delete(
    working: &mut Instance,
    supports: &mut SupportLog,
    removed_base: impl Iterator<Item = FactKey>,
    exec: &mut ExecStats,
) -> BTreeSet<FactKey> {
    // Reverse index: body fact → derived facts recorded over it.
    let mut dependents: BTreeMap<&FactKey, Vec<&FactKey>> = BTreeMap::new();
    for (derived, body) in &supports.derived {
        for b in body {
            dependents.entry(b).or_default().push(derived);
        }
    }
    let mut deleted: BTreeSet<FactKey> = BTreeSet::new();
    let mut work: BTreeSet<FactKey> = removed_base.collect();
    while let Some(k) = work.pop_first() {
        if !deleted.insert(k.clone()) {
            continue;
        }
        if working.remove_fact(&key_fact(&k)) {
            exec.facts_deleted += 1;
        }
        if let Some(ds) = dependents.get(&k) {
            for d in ds {
                if !deleted.contains(*d) {
                    work.insert((*d).clone());
                }
            }
        }
    }
    for k in &deleted {
        supports.derived.remove(k);
    }
    deleted
}

/// DRed phase 2: re-derive over-deleted facts that survive the update.
/// A deleted fact comes back if it is a base fact of the *new* s-t
/// output, or some target tgd can fire a trigger producing it from the
/// facts still standing. Restored facts enter the store delta (the
/// caller opened a round) and re-record their support; iterate to a
/// fixpoint since one restoration can enable the next.
fn dred_rederive(
    cfg: &RoundsCfg<'_>,
    working: &mut Instance,
    supports: &mut SupportLog,
    deleted: &mut BTreeSet<FactKey>,
    base_new_keys: &BTreeSet<FactKey>,
    exec: &mut ExecStats,
) -> Result<(), ChaseError> {
    // head_index: relation → (tgd, head atom) pairs that can produce it.
    let mut head_index: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (ti, c) in cfg.compiled.iter().enumerate() {
        for (ai, f) in c.head.facts.iter().enumerate() {
            head_index.entry(f.rel.index()).or_default().push((ti, ai));
        }
    }
    let limited = !cfg.exec.budget.is_unlimited();
    loop {
        let mut restored: Vec<FactKey> = Vec::new();
        for k in deleted.iter() {
            if limited {
                if let Err(e) = cfg.exec.budget.check() {
                    return Err(ChaseError::resource(
                        e,
                        exec.clone(),
                        ChasePartial::Instance(working.clone()),
                    ));
                }
            }
            if working.contains_fact(&key_fact(k)) {
                restored.push(k.clone());
                continue;
            }
            if base_new_keys.contains(k) {
                // Derived before, a base fact now: unconditionally in.
                working
                    .insert(RelId(k.0 as u32), k.1.clone())
                    .expect("key came from a same-schema instance");
                exec.facts_rederived += 1;
                restored.push(k.clone());
                continue;
            }
            let Some(producers) = head_index.get(&k.0) else {
                continue;
            };
            'producers: for &(ti, ai) in producers {
                let c = &cfg.compiled[ti];
                let atom = &c.head.facts[ai];
                // Unify the head atom with the deleted fact: constants
                // must match, repeated variables must agree. Eligible
                // settings are existential-free, so every head variable
                // is a body variable.
                let mut fixed: Vec<(u32, Value)> = Vec::new();
                for (t, &v) in atom.args.iter().zip(&k.1) {
                    match *t {
                        PatTerm::Value(pv) => {
                            if pv != v {
                                continue 'producers;
                            }
                        }
                        PatTerm::Var(i) => match fixed.iter().find(|(j, _)| *j == i) {
                            Some(&(_, w)) if w != v => continue 'producers,
                            Some(_) => {}
                            None => fixed.push((i, v)),
                        },
                    }
                }
                let constraints = MatchConstraints {
                    fixed,
                    ..Default::default()
                };
                let engine =
                    MatchEngine::new(&c.body, working, &constraints).with_planning(cfg.planned);
                let witness = engine.first();
                absorb_match_counters(exec, &engine.counters());
                if let Some(a) = witness {
                    let body_vals: Vec<Value> =
                        (0..c.n_body_vars as u32).map(|i| a.value(i)).collect();
                    let body = body_fact_keys(c, &body_vals);
                    let mut n = 0u64;
                    fire_collect(c, &body_vals, working, &mut 0, |fact| {
                        supports.derived.insert(fact, body.clone());
                        n += 1;
                    });
                    exec.facts_rederived += n;
                    if working.contains_fact(&key_fact(k)) {
                        restored.push(k.clone());
                        break 'producers;
                    }
                }
            }
        }
        if restored.is_empty() {
            return Ok(());
        }
        for k in &restored {
            deleted.remove(k);
        }
    }
}

/// Evict [`HomCache`] entries whose fingerprint mentions a relation
/// changed anywhere in the pipeline (source, s-t output, or solution),
/// counting the evictions into the new result's stats.
fn evict_cache(opts: &DeltaChaseOptions, prev: &ChaseResult, next: &mut ChaseResult) {
    let Some(cache) = &opts.cache else { return };
    let mut rels: BTreeSet<usize> = BTreeSet::new();
    for d in [
        Diff::between(&prev.source, &next.source),
        Diff::between(&prev.base, &next.base),
    ] {
        rels.extend(d.touched_rels().iter().map(|r| r.index()));
    }
    if let (Some(a), Some(b)) = (prev.solution(), next.solution()) {
        rels.extend(Diff::between(a, b).touched_rels().iter().map(|r| r.index()));
    }
    let rels: Vec<usize> = rels.into_iter().collect();
    next.stats.exec.cache_evictions += cache.evict_rels(&rels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lang::{parse_egd, parse_tgd};
    use qi_schema::Schema;

    fn render(r: &ChaseResult) -> String {
        let sol = match &r.outcome {
            TargetChaseResult::Solution(u) => format!("{u}"),
            TargetChaseResult::Failed { left, right } => format!("failed {left:?} {right:?}"),
        };
        format!("base={} sol={}", r.base, sol)
    }

    fn closure_setting() -> (Schema, Schema, ExchangeSetting) {
        let s = Schema::parse("E/2").unwrap();
        let t = Schema::parse("T/2").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![parse_tgd(&s, &t, "E(x,y) -> T(x,y)").unwrap()],
            target_tgds: vec![parse_tgd(&t, &t, "T(x,y), T(y,z) -> T(x,z)").unwrap()],
            egds: vec![],
        };
        (s, t, setting)
    }

    #[test]
    fn datalog_delta_matches_from_scratch() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        assert!(prev.has_memo());
        for text in [
            "+ E(d,e)",
            "- E(a,b)",
            "- E(b,c)\n+ E(b,e) E(e,c)",
            "+ E(a,b)",               // no-op add
            "- E(z,z)",               // no-op remove
            "- E(a,b) E(b,c) E(c,d)", // delete everything
        ] {
            let diff = Diff::parse(&s, text).unwrap();
            let next = chase_delta(&prev, &diff, &opts).unwrap();
            let mut updated = source.clone();
            diff.apply(&mut updated).unwrap();
            let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
            assert_eq!(render(&next), render(&scratch), "diff `{text}`");
            let (rm, add) = diff.apply(&mut source.clone()).unwrap();
            assert_eq!(next.stats.exec.delta_facts_in, (rm + add) as u64);
        }
    }

    #[test]
    fn chained_deltas_stay_identical() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let opts = DeltaChaseOptions::default();
        let mut cur = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let mut inst = source.clone();
        for text in ["+ E(c,d)", "- E(a,b)", "+ E(d,a) E(a,b)", "- E(b,c)"] {
            let diff = Diff::parse(&s, text).unwrap();
            cur = chase_delta(&cur, &diff, &opts).unwrap();
            diff.apply(&mut inst).unwrap();
            let scratch = chase_incremental(&setting, &inst, &t, &opts).unwrap();
            assert_eq!(render(&cur), render(&scratch), "after `{text}`");
            assert!(cur.has_memo());
        }
    }

    #[test]
    fn existential_st_replay_preserves_null_numbering() {
        let s = Schema::parse("E/2").unwrap();
        let t = Schema::parse("T/2 L/1").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![
                parse_tgd(&s, &t, "E(x,y) -> exists z . T(x,z)").unwrap(),
                parse_tgd(&s, &t, "E(x,y) -> L(y)").unwrap(),
            ],
            target_tgds: vec![],
            egds: vec![],
        };
        let source = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        for text in ["+ E(a,a)", "- E(b,c)", "- E(a,b)\n+ E(d,e)"] {
            let diff = Diff::parse(&s, text).unwrap();
            let next = chase_delta(&prev, &diff, &opts).unwrap();
            let mut updated = source.clone();
            diff.apply(&mut updated).unwrap();
            let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
            assert_eq!(render(&next), render(&scratch), "diff `{text}`");
        }
    }

    #[test]
    fn egd_setting_falls_back_and_stays_identical() {
        // Weakly acyclic: Dept feeds Audit, nothing feeds back.
        let s = Schema::parse("Emp/2").unwrap();
        let t = Schema::parse("Dept/2 Audit/2").unwrap();
        let setting = ExchangeSetting {
            st_tgds: vec![parse_tgd(&s, &t, "Emp(e,d) -> Dept(d,e)").unwrap()],
            target_tgds: vec![parse_tgd(&t, &t, "Dept(d,m) -> exists q . Audit(m,q)").unwrap()],
            egds: vec![parse_egd(&t, "Dept(d,m), Dept(d,n) -> m = n").unwrap()],
        };
        let source = Instance::parse(&s, "Emp(a,d1)").unwrap();
        let opts = DeltaChaseOptions::default();
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        let diff = Diff::parse(&s, "+ Emp(b,d2)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        let mut updated = source.clone();
        diff.apply(&mut updated).unwrap();
        let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
        assert_eq!(render(&next), render(&scratch));
        // Conflict after the delta: Dept(d1,a), Dept(d1,c) forces a = c.
        let diff2 = Diff::parse(&s, "+ Emp(c,d1)").unwrap();
        let next2 = chase_delta(&next, &diff2, &opts).unwrap();
        assert!(next2.solution().is_none());
        assert!(!next2.has_memo());
    }

    #[test]
    fn record_off_yields_no_memo_and_delta_falls_back() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let opts = DeltaChaseOptions {
            record: false,
            ..Default::default()
        };
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        assert!(!prev.has_memo());
        let diff = Diff::parse(&s, "+ E(c,d)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        let mut updated = source.clone();
        diff.apply(&mut updated).unwrap();
        let scratch = chase_incremental(&setting, &updated, &t, &opts).unwrap();
        assert_eq!(render(&next), render(&scratch));
    }

    #[test]
    fn cache_eviction_is_scoped_and_counted() {
        let (s, t, setting) = closure_setting();
        let source = Instance::parse(&s, "E(a,b) E(b,c)").unwrap();
        let cache = Arc::new(HomCache::new());
        let opts = DeltaChaseOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let prev = chase_incremental(&setting, &source, &t, &opts).unwrap();
        // Seed the cache with an entry mentioning the solution relation
        // (null-only probe: the quick-refutation prefilter passes, so
        // the answer is computed and memoized under both fingerprints).
        let sol = prev.solution().unwrap();
        let other = Instance::parse(&t, "T(N90,N91)").unwrap();
        cache.has_hom(&other, sol);
        let diff = Diff::parse(&s, "+ E(c,d)").unwrap();
        let next = chase_delta(&prev, &diff, &opts).unwrap();
        assert!(next.stats.exec.cache_evictions > 0);
        assert_eq!(cache.evictions(), next.stats.exec.cache_evictions);
    }
}
