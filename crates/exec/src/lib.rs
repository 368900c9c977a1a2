//! # qi-exec — the deterministic parallel executor
//!
//! Every search-heavy path of the reproduction (MinGen candidate
//! evaluation, chase trigger enumeration, disjunctive-chase branch
//! exploration) is exponential by construction, yet each decomposes into
//! *independent pure tasks over an immutable snapshot*. This crate is the
//! one place that turns such task lists into wall-clock parallelism
//! without sacrificing reproducibility.
//!
//! ## Determinism contract
//!
//! [`par_map`] is the executor's single entry point and [`ExecConfig`]
//! the only way to configure it: there is no process-wide mutable
//! execution state.
//!
//! 1. **Snapshot** — callers hand [`par_map`] an immutable slice of task
//!    inputs; tasks must not mutate shared state.
//! 2. **Parallel enumerate** — tasks are pulled off a shared atomic
//!    cursor by scoped worker threads in unspecified interleaving.
//! 3. **Ordered commit** — results are returned in *input order*, so any
//!    downstream fold (pruning, dedup, output) observes exactly the
//!    sequence the sequential run would produce.
//!
//! With [`Parallelism`] resolving to one thread, `par_map` degenerates to
//! a plain in-place `iter().map()` — the exact sequential code path, with
//! no thread spawned. Consequently a parallel run is *bit-identical* to
//! the sequential run whenever the per-task closure is a pure function of
//! its input, which `tests/determinism.rs` locks down across thread
//! counts for every workload. Every worker count — fixed, `QI_THREADS`
//! or auto — is capped at the CPU count.
//!
//! ## Resource budgets
//!
//! The same task lists are where unbounded exponential searches burn
//! their time, so the executor also owns the cooperative [`Budget`]: a
//! wall-clock deadline, caps on executor tasks and derived facts, and an
//! external cancellation flag, shared by `Arc` across every stage of one
//! algorithm run. [`par_map`] workers re-check the budget
//! between tasks and stop pulling work the moment it is exhausted;
//! higher layers (the chase loops, MinGen's commit phase) add their own
//! per-round / per-trigger / per-candidate checks. Exhaustion is always
//! surfaced as a structured [`Exceeded`] value — never a panic — and a
//! run that *completes* under its budget is byte-identical to the
//! unbudgeted run at every thread count (the budget can only decide
//! *whether* the search finishes, never *what* it returns).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The `QI_THREADS` environment variable, parsed **once** per process —
/// the meaning of [`Parallelism::auto`] for this process. An unset
/// variable is "no opinion"; `0`, empty, or unparsable values are
/// rejected with a single warning instead of being silently treated as
/// auto.
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| match std::env::var("QI_THREADS") {
        Err(_) => None,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!(
                    "qi-exec: ignoring invalid QI_THREADS value `{v}` \
                     (expected a positive integer); auto-detecting"
                );
                None
            }
        },
    })
}

/// The `QI_THREADS` value this process is running under, if any —
/// the cached result of the once-per-process parse above. Servers log
/// this at bind time so operators are never debugged by a stale env
/// read: changing `QI_THREADS` under a running process has **no**
/// effect.
pub fn effective_env_threads() -> Option<usize> {
    env_threads()
}

/// `std::thread::available_parallelism()`, probed once per process.
fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Degree of parallelism for the deterministic executor.
///
/// `auto` (the default) resolves to the `QI_THREADS` environment
/// variable, else `std::thread::available_parallelism()`. `fixed(1)`
/// selects the exact sequential code path. Every source is capped at
/// the CPU count: threads beyond it only serialize the same work behind
/// extra spawns, and the cap bounds what an untrusted request's
/// `threads` field can make one map spawn.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Parallelism {
    /// `None` = auto-detect at resolution time.
    threads: Option<NonZeroUsize>,
}

impl Parallelism {
    /// Auto-detect (`QI_THREADS`, then cores).
    pub fn auto() -> Self {
        Parallelism { threads: None }
    }

    /// `n` worker threads (`n` is clamped up to 1, and down to the CPU
    /// count at resolution).
    pub fn fixed(n: usize) -> Self {
        Parallelism {
            threads: Some(NonZeroUsize::new(n.max(1)).expect("clamped")),
        }
    }

    /// The exact sequential code path (one thread, no spawns).
    pub fn sequential() -> Self {
        Parallelism::fixed(1)
    }

    /// The concrete thread count this configuration resolves to: the
    /// requested count, capped at `available_parallelism()`.
    ///
    /// The `QI_THREADS` and core-count probes are cached in `OnceLock`s:
    /// this is called in hot loops and must stay cheap.
    pub fn resolve(self) -> usize {
        let cores = available_threads();
        match self.threads {
            Some(n) => n.get(),
            None => env_threads().unwrap_or(cores),
        }
        .min(cores)
    }
}

/// Per-request join-planning mode. `Auto` (the default) follows the
/// `QI_PLAN` environment variable (parsed once per process); `On`/`Off`
/// are explicit.
///
/// Planning never changes rendered results (the plan-invariance oracle
/// locks byte-identity) — this knob only controls which schedule a
/// request's match engines run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Planning {
    /// Follow the `QI_PLAN` environment variable (parsed once per
    /// process), else the default (on).
    #[default]
    Auto,
    /// Force cost-based planning on for this request.
    On,
    /// Force source-order execution for this request.
    Off,
}

impl Planning {
    /// Is this an explicit (non-`Auto`) mode?
    pub fn is_fixed(self) -> bool {
        !matches!(self, Planning::Auto)
    }
}

/// The complete per-request execution configuration: degree of
/// parallelism, join-planning mode, and cooperative resource budget.
///
/// This is the only way to configure execution: every chase/core
/// options struct embeds one, the CLI builds one per invocation, and
/// the `qimap serve` session layer builds one per request. There is no
/// process-wide mutable execution state, so concurrent requests with
/// different configurations are isolated by construction; `Auto`
/// settings read only the environment, once per process.
///
/// The default is fully automatic and unlimited.
#[derive(Clone, Debug, Default)]
pub struct ExecConfig {
    /// Worker fan-out for the deterministic executor. Results are
    /// bit-identical at every setting.
    pub parallelism: Parallelism,
    /// Join-planning mode for the match engines. Results are
    /// bit-identical at every setting.
    pub planning: Planning,
    /// Cooperative resource budget shared (via its internal `Arc`) by
    /// every stage of the request.
    pub budget: Budget,
}

impl ExecConfig {
    /// An automatic, unlimited configuration (the default).
    pub fn auto() -> Self {
        ExecConfig::default()
    }

    /// Replace the parallelism.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Replace the planning mode.
    #[must_use]
    pub fn with_planning(mut self, planning: Planning) -> Self {
        self.planning = planning;
        self
    }

    /// Replace the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Which resource limit a budgeted search exhausted. Carried by the
/// structured resource errors of the chase and core crates; never a
/// panic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Exceeded {
    /// The wall-clock deadline passed ([`Budget::with_deadline`]).
    Deadline,
    /// The executor-task cap was reached ([`Budget::with_max_tasks`]).
    Tasks,
    /// The derived-fact cap was reached ([`Budget::with_max_facts`]).
    Facts,
    /// The shared cancellation flag was raised ([`Budget::with_cancel`]).
    Cancelled,
}

impl fmt::Display for Exceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exceeded::Deadline => write!(f, "deadline"),
            Exceeded::Tasks => write!(f, "task budget"),
            Exceeded::Facts => write!(f, "fact budget"),
            Exceeded::Cancelled => write!(f, "cancellation"),
        }
    }
}

/// Usage counters shared by every clone of one [`Budget`].
#[derive(Debug, Default)]
struct Charged {
    tasks: AtomicU64,
    facts: AtomicU64,
}

/// A cooperative resource budget for the exponential search paths.
///
/// A budget combines up to four independent limits — a wall-clock
/// deadline, a cap on executor tasks, a cap on derived facts, and an
/// externally owned cancellation flag — and a pair of usage counters.
/// **Cloning shares the counters** (they live behind an `Arc`), so one
/// budget threaded through every stage of an algorithm run (s-t chase,
/// target rounds, MinGen candidate tests, …) charges a single pool; this
/// is what makes the caps *end-to-end* rather than per-stage.
///
/// The default budget is unlimited: every check passes and the budgeted
/// entry points behave exactly like their unbudgeted counterparts.
///
/// Checks are cooperative — search loops call [`Budget::check`] between
/// units of work (executor workers between tasks, the chase per round
/// and per trigger, MinGen per candidate) — so exhaustion surfaces at
/// the next check, never mid-task. The *point* of interruption may vary
/// with thread count and machine speed; the error shape and the
/// soundness of any partial artifact may not.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_tasks: Option<u64>,
    max_facts: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    charged: Arc<Charged>,
}

impl Budget {
    /// The default: no limits, every check passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limit wall-clock time to `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Limit wall-clock time to the absolute instant `at`.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Cap the number of executor tasks charged against this budget.
    #[must_use]
    pub fn with_max_tasks(mut self, n: u64) -> Self {
        self.max_tasks = Some(n);
        self
    }

    /// Cap the number of derived facts charged against this budget.
    #[must_use]
    pub fn with_max_facts(mut self, n: u64) -> Self {
        self.max_facts = Some(n);
        self
    }

    /// Attach an external cancellation flag: any thread storing `true`
    /// makes the next check fail with [`Exceeded::Cancelled`].
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The attached cancellation flag, if any.
    pub fn cancel_flag(&self) -> Option<&Arc<AtomicBool>> {
        self.cancel.as_ref()
    }

    /// `true` when no limit is configured — the budgeted entry points
    /// use this to skip per-task checking entirely.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_tasks.is_none()
            && self.max_facts.is_none()
            && self.cancel.is_none()
    }

    /// Charge `n` executor tasks against the shared pool.
    pub fn charge_tasks(&self, n: u64) {
        self.charged.tasks.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` derived facts against the shared pool.
    pub fn charge_facts(&self, n: u64) {
        self.charged.facts.fetch_add(n, Ordering::Relaxed);
    }

    /// Executor tasks charged so far (across every clone).
    pub fn tasks_charged(&self) -> u64 {
        self.charged.tasks.load(Ordering::Relaxed)
    }

    /// Derived facts charged so far (across every clone).
    pub fn facts_charged(&self) -> u64 {
        self.charged.facts.load(Ordering::Relaxed)
    }

    /// Is the budget exhausted? Checked in a fixed order — cancellation,
    /// deadline, tasks, facts — so concurrent exhaustion of several
    /// limits reports deterministically.
    ///
    /// Both caps are inclusive: exactly `max_tasks` tasks (the check
    /// runs before each task, so the `max + 1`-th never starts) and
    /// exactly `max_facts` derived facts are within budget. The fact
    /// cap trips at the first checkpoint after it is *exceeded* — one
    /// chase step may overshoot it by that step's delta, which is why a
    /// search that derives exactly `max_facts` facts and stops still
    /// completes.
    pub fn check(&self) -> Result<(), Exceeded> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(Exceeded::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Exceeded::Deadline);
            }
        }
        if let Some(max) = self.max_tasks {
            if self.tasks_charged() >= max {
                return Err(Exceeded::Tasks);
            }
        }
        if let Some(max) = self.max_facts {
            if self.facts_charged() > max {
                return Err(Exceeded::Facts);
            }
        }
        Ok(())
    }
}

/// Dispatch target for one morsel: workers claim batches of work sized
/// so each claim amortizes the shared-cursor traffic and (on the first
/// claim) the thread-spawn cost over at least this much estimated work.
/// See [`CostHint`].
pub const MORSEL_TARGET_NS: u64 = 64_000;

/// An optional per-item cost estimate for [`par_map`].
///
/// With a hint the executor sizes morsels to `⌈64µs / est⌉` items and
/// caps the worker fan-out at `total_estimated / (2 × 64µs)` threads, so
/// tiny task lists never pay for spawns they cannot amortize (the cap
/// reaching 1 selects the exact sequential code path). Without a hint
/// morsels are one item and only the resolved [`Parallelism`] and the
/// item count bound the fan-out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CostHint {
    est_ns_per_item: Option<u64>,
}

impl CostHint {
    /// No estimate: single-item morsels, no work-based fan-out cap.
    pub fn none() -> Self {
        CostHint::default()
    }

    /// Estimate each item at `ns` nanoseconds (clamped up to 1).
    pub fn per_item_ns(ns: u64) -> Self {
        CostHint {
            est_ns_per_item: Some(ns.max(1)),
        }
    }

    /// The morsel size this hint selects: enough items per claim to
    /// cover [`MORSEL_TARGET_NS`] of estimated work.
    pub fn morsel_size(self) -> usize {
        match self.est_ns_per_item {
            Some(ns) => MORSEL_TARGET_NS.div_ceil(ns).max(1) as usize,
            None => 1,
        }
    }

    /// How many workers `n_items` of estimated work keep busy: each
    /// spawned thread must have at least two morsels' worth of work to
    /// be worth its spawn. `usize::MAX` when there is no estimate.
    pub fn useful_workers(self, n_items: usize) -> usize {
        match self.est_ns_per_item {
            Some(ns) => {
                let total = ns.saturating_mul(n_items as u64);
                (total / (2 * MORSEL_TARGET_NS)).max(1) as usize
            }
            None => usize::MAX,
        }
    }
}

/// Counters describing one executor run, for bench JSON and utilization
/// reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads that participated (1 for the sequential path);
    /// after [`ExecStats::absorb`], the largest count of any merged run.
    pub workers: usize,
    /// Total tasks executed.
    pub tasks: u64,
    /// The heaviest single-worker load of any one run: the largest
    /// number of tasks one worker executed within a run (absorbing takes
    /// the max across runs — per-run loads are never summed across runs
    /// with unrelated worker layouts).
    pub max_load: u64,
    /// Worker-slot capacity under each run's critical path, summed over
    /// absorbed runs: `Σ_run workers · max_load`. The denominator of
    /// [`ExecStats::utilization`]; for a single run this is
    /// `workers × max_load`.
    pub capacity: u64,
    /// Chase rounds executed (semi-naive or naive).
    pub rounds: u64,
    /// Trigger candidates enumerated by the match engines (pre-dedup).
    pub triggers_enumerated: u64,
    /// Triggers that actually fired (inserted head facts).
    pub triggers_fired: u64,
    /// Match-engine candidate queries served from an incrementally
    /// maintained posting list.
    pub postings_reused: u64,
    /// Match-engine candidate queries that scanned a whole relation
    /// (no pattern position bound).
    pub postings_rebuilt: u64,
    /// Sum of per-round delta sizes consulted by semi-naive rounds.
    pub delta_facts: u64,
    /// Homomorphism-cache lookups answered without a search. No current
    /// algorithm charges it (MinGen's probe cache is gone); the field
    /// stays for readers built against it and is always 0.
    pub hom_cache_hits: u64,
    /// Homomorphism-cache lookups that had to run the search. Charged by
    /// no current algorithm, like [`ExecStats::hom_cache_hits`].
    pub hom_cache_misses: u64,
    /// Morsels (batched work claims) dispatched by parallel workers;
    /// 0 on the sequential path, which claims nothing.
    pub morsels: u64,
    /// Join plans consulted by the match engines (one per planned
    /// pattern search).
    pub plans_applied: u64,
    /// Candidate bindings rejected by the per-`(relation, position)`
    /// posting prefilters before any extension was attempted.
    pub prefilter_hits: u64,
    /// Prefilter prunes decided by a bloom-filter exact negative alone
    /// (no posting-map probe needed).
    pub bloom_hits: u64,
    /// Bloom-filter "maybe"s that the posting probe then refuted — the
    /// filters' false positives.
    pub bloom_false_positives: u64,
    /// Facts handed to an incremental re-chase as the input diff
    /// (effective additions + removals of the source delta).
    pub delta_facts_in: u64,
    /// Facts removed by DRed over-deletion during an incremental
    /// re-chase (before re-derivation restores survivors).
    pub facts_deleted: u64,
    /// Over-deleted facts restored because an alternative derivation
    /// (or new base membership) survived the deletion.
    pub facts_rederived: u64,
    /// `HomCache` entries evicted by fingerprint-scoped invalidation.
    pub cache_evictions: u64,
}

impl ExecStats {
    /// Merge another run's counters into this one. `workers` and
    /// `max_load` take the max, `capacity` and everything else sums —
    /// per-worker loads of runs with different worker counts are *never*
    /// zipped index-wise (worker 0 of a sequential run has nothing to do
    /// with worker 0 of a 4-way run), so [`ExecStats::utilization`]
    /// stays meaningful across merges.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.workers = self.workers.max(other.workers);
        self.tasks += other.tasks;
        self.max_load = self.max_load.max(other.max_load);
        self.capacity += other.capacity;
        self.rounds += other.rounds;
        self.triggers_enumerated += other.triggers_enumerated;
        self.triggers_fired += other.triggers_fired;
        self.postings_reused += other.postings_reused;
        self.postings_rebuilt += other.postings_rebuilt;
        self.delta_facts += other.delta_facts;
        self.hom_cache_hits += other.hom_cache_hits;
        self.hom_cache_misses += other.hom_cache_misses;
        self.morsels += other.morsels;
        self.plans_applied += other.plans_applied;
        self.prefilter_hits += other.prefilter_hits;
        self.bloom_hits += other.bloom_hits;
        self.bloom_false_positives += other.bloom_false_positives;
        self.delta_facts_in += other.delta_facts_in;
        self.facts_deleted += other.facts_deleted;
        self.facts_rederived += other.facts_rederived;
        self.cache_evictions += other.cache_evictions;
    }

    /// Load balance in `[0, 1]`: tasks executed over the worker-slot
    /// capacity available under each run's critical path
    /// (`Σ_run workers · max_load`). For a single run this equals the
    /// classical mean-over-max per-worker load; for merged runs each
    /// run's balance is weighted by its own critical path instead of
    /// conflating unrelated worker indexes. `1.0` means perfectly even;
    /// reported as 1.0 when no tasks ran.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.tasks as f64 / self.capacity as f64
    }
}

/// Map `f` over `items` under a cooperative [`Budget`], returning the
/// results in input order plus per-run counters.
///
/// The parallel path fans items out to scoped worker threads through a
/// shared atomic cursor and scatters the results back by index, so the
/// output is independent of scheduling. With one worker this is exactly
/// `items.iter().map(f).collect()`, with no thread spawned.
///
/// The fan-out is the resolved [`Parallelism`] (itself capped at the CPU
/// count), capped again at the item count and at the workers the
/// [`CostHint`] estimate keeps busy; the calling thread always
/// participates as worker 0. Workers claim *morsels* of consecutive
/// items sized by the hint.
///
/// Every worker re-checks the budget before each task and charges one
/// executor task per item executed. When the budget trips, workers stop
/// pulling, in-flight results are discarded, and the exhaustion reason
/// is returned — the caller owns whatever partial artifact it was
/// building around the map. A call that returns `Ok` is byte-identical
/// at every thread count and hint; with several limits exhausted
/// concurrently the reported reason follows [`Budget::check`]'s fixed
/// order per worker, and the first-tripping worker wins.
pub fn par_map<I, T, F>(
    par: Parallelism,
    items: &[I],
    budget: &Budget,
    hint: CostHint,
    f: F,
) -> Result<(Vec<T>, ExecStats), Exceeded>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = par
        .resolve()
        .min(items.len())
        .min(hint.useful_workers(items.len()))
        .max(1);
    let unlimited = budget.is_unlimited();
    if threads == 1 {
        let mut out: Vec<T> = Vec::with_capacity(items.len());
        for item in items {
            if !unlimited {
                budget.check()?;
            }
            out.push(f(item));
            budget.charge_tasks(1);
        }
        let n = out.len() as u64;
        let stats = ExecStats {
            workers: 1,
            tasks: n,
            max_load: n,
            capacity: n,
            ..Default::default()
        };
        return Ok((out, stats));
    }
    let morsel = hint.morsel_size();
    let cursor = AtomicUsize::new(0);
    // First exhaustion reason, encoded as 1 + discriminant (0 = none).
    let tripped = AtomicUsize::new(0);
    let encode = |e: Exceeded| match e {
        Exceeded::Deadline => 1,
        Exceeded::Tasks => 2,
        Exceeded::Facts => 3,
        Exceeded::Cancelled => 4,
    };
    let worker = || {
        let mut local = Vec::new();
        let mut claims = 0u64;
        'claims: loop {
            // Claim a morsel *before* checking the budget: a budget of
            // exactly `items.len()` tasks must complete here just like
            // it does sequentially (the sequential path only checks
            // when another item remains), or thread count would change
            // the outcome.
            let start = cursor.fetch_add(morsel, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            claims += 1;
            let end = (start + morsel).min(items.len());
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                if !unlimited {
                    if tripped.load(Ordering::Relaxed) != 0 {
                        break 'claims;
                    }
                    if let Err(e) = budget.check() {
                        let _ = tripped.compare_exchange(
                            0,
                            encode(e),
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        break 'claims;
                    }
                }
                local.push((i, f(item)));
                budget.charge_tasks(1);
            }
        }
        (local, claims)
    };
    let buckets: Vec<(Vec<(usize, T)>, u64)> = std::thread::scope(|scope| {
        // Helpers first, then the calling thread drains the same cursor
        // as worker 0 — the dominant fixed cost of small fan-outs is
        // the spawns themselves, so the caller never idles behind them.
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut all = vec![worker()];
        for h in handles {
            match h.join() {
                Ok(local) => all.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    match tripped.load(Ordering::Relaxed) {
        0 => {}
        1 => return Err(Exceeded::Deadline),
        2 => return Err(Exceeded::Tasks),
        3 => return Err(Exceeded::Facts),
        _ => return Err(Exceeded::Cancelled),
    }
    let mut max_load = 0u64;
    let mut morsels = 0u64;
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (bucket, claims) in buckets {
        max_load = max_load.max(bucket.len() as u64);
        morsels += claims;
        for (i, value) in bucket {
            debug_assert!(slots[i].is_none(), "index produced twice");
            slots[i] = Some(value);
        }
    }
    let out: Vec<T> = slots
        .into_iter()
        .map(|s| s.expect("atomic cursor visits every index exactly once"))
        .collect();
    let stats = ExecStats {
        workers: threads,
        tasks: out.len() as u64,
        max_load,
        capacity: threads as u64 * max_load,
        morsels,
        ..Default::default()
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unbudgeted, unhinted map — the shape most tests exercise.
    fn map<I: Sync, T: Send>(
        par: Parallelism,
        items: &[I],
        f: impl Fn(&I) -> T + Sync,
    ) -> (Vec<T>, ExecStats) {
        par_map(par, items, &Budget::unlimited(), CostHint::none(), f).unwrap()
    }

    #[test]
    fn ordered_results_at_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let (got, _) = map(Parallelism::fixed(threads), &items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(map(Parallelism::fixed(4), &none, |&x| x).0.is_empty());
        assert_eq!(map(Parallelism::fixed(4), &[7u32], |&x| x + 1).0, vec![8]);
    }

    #[test]
    fn stats_account_for_every_task() {
        let items: Vec<u32> = (0..100).collect();
        let (_, stats) = map(Parallelism::fixed(4), &items, |&x| x);
        let workers = 4.min(available_threads());
        assert_eq!(stats.tasks, 100);
        assert!(
            stats.max_load >= 100 / workers as u64,
            "some worker ran ≥ mean load"
        );
        assert_eq!(stats.capacity, workers as u64 * stats.max_load);
        assert_eq!(stats.workers, workers);
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn sequential_stats() {
        let (_, stats) = map(Parallelism::sequential(), &[1, 2, 3], |&x: &i32| x);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.max_load, 3);
        assert_eq!(stats.capacity, 3);
        assert_eq!(stats.utilization(), 1.0);
    }

    #[test]
    fn every_source_is_capped_at_the_cpu_count() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert!(Parallelism::fixed(4096).resolve() <= cores);
        assert_eq!(Parallelism::fixed(4096).resolve(), cores);
        assert!(Parallelism::auto().resolve() <= cores);
        assert_eq!(Parallelism::fixed(2).resolve(), 2.min(cores));
        assert_eq!(Parallelism::fixed(0).resolve(), 1, "clamped up to 1");
    }

    #[test]
    fn planning_modes_report_fixedness() {
        assert!(Planning::On.is_fixed() && Planning::Off.is_fixed());
        assert!(!Planning::Auto.is_fixed());
    }

    #[test]
    fn workers_capped_by_item_count() {
        let (_, stats) = map(Parallelism::fixed(8), &[1, 2], |&x: &i32| x);
        assert_eq!(stats.workers, 2.min(available_threads()));
    }

    #[test]
    fn absorb_merges_counters() {
        let mut a = ExecStats {
            workers: 2,
            tasks: 4,
            max_load: 2,
            capacity: 4,
            triggers_enumerated: 10,
            postings_reused: 3,
            hom_cache_hits: 2,
            ..Default::default()
        };
        let b = ExecStats {
            workers: 4,
            tasks: 8,
            max_load: 2,
            capacity: 8,
            rounds: 2,
            triggers_enumerated: 5,
            triggers_fired: 4,
            postings_rebuilt: 1,
            delta_facts: 7,
            hom_cache_hits: 5,
            hom_cache_misses: 6,
            morsels: 3,
            plans_applied: 9,
            prefilter_hits: 11,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.workers, 4);
        assert_eq!(a.tasks, 12);
        assert_eq!(a.max_load, 2);
        assert_eq!(a.capacity, 12);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.triggers_enumerated, 15);
        assert_eq!(a.triggers_fired, 4);
        assert_eq!(a.postings_reused, 3);
        assert_eq!(a.postings_rebuilt, 1);
        assert_eq!(a.delta_facts, 7);
        assert_eq!(a.hom_cache_hits, 7);
        assert_eq!(a.hom_cache_misses, 6);
        assert_eq!(a.morsels, 3);
        assert_eq!(a.plans_applied, 9);
        assert_eq!(a.prefilter_hits, 11);
    }

    #[test]
    fn cost_hints_size_morsels_and_cap_fanout() {
        // No hint: single-item morsels, no cap.
        assert_eq!(CostHint::none().morsel_size(), 1);
        assert_eq!(CostHint::none().useful_workers(3), usize::MAX);
        // 16µs items: 4 to a morsel; 9 of them keep one worker busy.
        let h = CostHint::per_item_ns(16_000);
        assert_eq!(h.morsel_size(), 4);
        assert_eq!(h.useful_workers(9), 1);
        // 48µs items: 2 to a morsel; 9 of them keep 3 workers busy.
        let h = CostHint::per_item_ns(48_000);
        assert_eq!(h.morsel_size(), 2);
        assert_eq!(h.useful_workers(9), 3);
        // Oversized items still get a 1-item morsel.
        assert_eq!(CostHint::per_item_ns(1_000_000).morsel_size(), 1);
        // A zero hint is clamped, not a division by zero.
        assert_eq!(
            CostHint::per_item_ns(0).morsel_size(),
            MORSEL_TARGET_NS as usize
        );
    }

    #[test]
    fn hinted_map_is_byte_identical_and_counts_morsels() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        for (threads, hint) in [
            (1usize, CostHint::none()),
            (4, CostHint::none()),
            (4, CostHint::per_item_ns(64_000)),
            (4, CostHint::per_item_ns(20_000)),
            (8, CostHint::per_item_ns(1)), // cap drops to the sequential path
        ] {
            let (out, stats) = par_map(
                Parallelism::fixed(threads),
                &items,
                &Budget::unlimited(),
                hint,
                |&x| x * 7,
            )
            .unwrap();
            assert_eq!(out, expect, "threads={threads} hint={hint:?}");
            assert_eq!(stats.tasks, 100);
            if stats.workers > 1 {
                assert!(stats.morsels > 0, "parallel runs count their claims");
                assert!(
                    stats.morsels
                        <= 100_u64.div_ceil(hint.morsel_size() as u64) + stats.workers as u64,
                    "claims are batched, not per-item beyond the tail"
                );
            } else {
                assert_eq!(stats.morsels, 0, "sequential path claims nothing");
            }
        }
        // The tiny-item hint must have collapsed the fan-out entirely.
        let (_, stats) = par_map(
            Parallelism::fixed(8),
            &items,
            &Budget::unlimited(),
            CostHint::per_item_ns(1),
            |&x| x,
        )
        .unwrap();
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn hinted_map_preserves_budget_protocol() {
        let items: Vec<u64> = (0..64).collect();
        let hint = CostHint::per_item_ns(64_000);
        // A budget of exactly `len` tasks completes at any fan-out.
        let budget = Budget::unlimited().with_max_tasks(64);
        let (out, _) = par_map(Parallelism::fixed(4), &items, &budget, hint, |&x| x).unwrap();
        assert_eq!(out, items);
        // A smaller budget trips with the structured reason.
        let budget = Budget::unlimited().with_max_tasks(10);
        let err = par_map(Parallelism::fixed(4), &items, &budget, hint, |&x| x).unwrap_err();
        assert_eq!(err, Exceeded::Tasks);
    }

    #[test]
    fn absorb_keeps_utilization_meaningful_across_worker_counts() {
        let mut a = ExecStats {
            workers: 4,
            tasks: 12,
            max_load: 3,
            capacity: 12,
            ..Default::default()
        };
        let b = ExecStats {
            workers: 1,
            tasks: 100,
            max_load: 100,
            capacity: 100,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.tasks, 112);
        assert_eq!(a.capacity, 112);
        assert_eq!(a.max_load, 100);
        assert_eq!(a.utilization(), 1.0, "two balanced runs merge balanced");
        // An imbalanced run degrades the merged number proportionally.
        let c = ExecStats {
            workers: 2,
            tasks: 10,
            max_load: 9,
            capacity: 18,
            ..Default::default()
        };
        a.absorb(&c);
        let u = a.utilization();
        assert!(u < 1.0 && u > 0.9, "122/130 ≈ 0.94, got {u}");
    }

    #[test]
    fn task_budget_trips_without_panicking() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1usize, 4] {
            let budget = Budget::unlimited().with_max_tasks(10);
            let err = par_map(
                Parallelism::fixed(threads),
                &items,
                &budget,
                CostHint::none(),
                |&x| x,
            )
            .unwrap_err();
            assert_eq!(err, Exceeded::Tasks, "threads = {threads}");
            assert!(budget.tasks_charged() >= 10);
        }
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let items: Vec<u64> = (0..100).collect();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let err = par_map(
            Parallelism::fixed(4),
            &items,
            &budget,
            CostHint::none(),
            |&x| x,
        )
        .unwrap_err();
        assert_eq!(err, Exceeded::Deadline);
    }

    #[test]
    fn cancellation_flag_stops_workers() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = Budget::unlimited().with_cancel(Arc::clone(&flag));
        let items: Vec<u64> = (0..8).collect();
        let run = || {
            par_map(
                Parallelism::fixed(2),
                &items,
                &budget,
                CostHint::none(),
                |&x| x,
            )
        };
        // Not yet cancelled: behaves like the plain map.
        assert_eq!(run().unwrap().0, items);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(run().unwrap_err(), Exceeded::Cancelled);
    }

    #[test]
    fn clones_share_one_charge_pool() {
        let budget = Budget::unlimited().with_max_tasks(5);
        let clone = budget.clone();
        clone.charge_tasks(5);
        assert_eq!(budget.check(), Err(Exceeded::Tasks));
        assert_eq!(budget.tasks_charged(), 5);
        // Fact charges are likewise shared; the cap is inclusive, so
        // exactly 2 facts is within budget and the 3rd trips it.
        let fb = Budget::unlimited().with_max_facts(2);
        fb.clone().charge_facts(2);
        assert_eq!(fb.check(), Ok(()));
        fb.clone().charge_facts(1);
        assert_eq!(fb.check(), Err(Exceeded::Facts));
    }

    #[test]
    fn check_order_is_deterministic() {
        // Cancellation outranks deadline outranks tasks outranks facts.
        let flag = Arc::new(AtomicBool::new(true));
        let b = Budget::unlimited()
            .with_cancel(flag)
            .with_deadline(Duration::ZERO)
            .with_max_tasks(0)
            .with_max_facts(0);
        assert_eq!(b.check(), Err(Exceeded::Cancelled));
        let b = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_max_tasks(0);
        assert_eq!(b.check(), Err(Exceeded::Deadline));
        let b = Budget::unlimited().with_max_tasks(0).with_max_facts(0);
        b.charge_facts(1);
        assert_eq!(b.check(), Err(Exceeded::Tasks));
        let b = Budget::unlimited().with_max_facts(0);
        b.charge_facts(1);
        assert_eq!(b.check(), Err(Exceeded::Facts));
        assert!(Budget::unlimited().check().is_ok());
        assert!(Budget::unlimited().is_unlimited());
    }
}
