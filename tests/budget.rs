//! Resource budgets and cooperative cancellation: the exponential search
//! paths (chase, disjunctive chase, MinGen, QuasiInverse) stop at the
//! next checkpoint when a wall-clock deadline, task cap, fact cap, or
//! cancellation flag trips — surfacing a structured `ResourceError`
//! carrying a *sound* partial artifact, never a panic or a hang — while
//! runs that complete under budget stay byte-identical to unbudgeted
//! runs at every thread count (see DESIGN.md, "Resource budgets and
//! graceful degradation").
//!
//! Also home to the regression test for a latent bug found in the same
//! audit: `ExecStats::absorb` conflating unrelated worker indexes.

use quasi_inverse::chase::{
    chase_with_target_deps, ChaseError, ChasePartial, ExchangeSetting, TargetChaseOptions,
};
use quasi_inverse::core::CoreError;
use quasi_inverse::exec::{Budget, Exceeded};
use quasi_inverse::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A non-weakly-acyclic setting whose target chase never terminates:
/// every `E`-edge demands a fresh successor, so the chase grows a chain
/// of nulls forever. The analyzer rightly refuses a termination
/// certificate for it; only a resource budget can stop it.
fn adversarial_setting() -> (ExchangeSetting, Schema, Instance) {
    let s = Schema::parse("S0/1").unwrap();
    let t = Schema::parse("E/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![parse_tgd(&s, &t, "S0(x) -> exists y . E(x,y)").unwrap()],
        target_tgds: vec![parse_tgd(&t, &t, "E(x,y) -> exists z . E(y,z)").unwrap()],
        egds: vec![],
    };
    let i = Instance::parse(&s, "S0(a)").unwrap();
    (setting, t, i)
}

/// A terminating closure workload with a known resource shape: the
/// transitive closure of a 6-node chain (5 copied edges + 10 derived).
fn closure_setting() -> (ExchangeSetting, Schema, Instance) {
    let s = Schema::parse("E0/2").unwrap();
    let t = Schema::parse("E/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![parse_tgd(&s, &t, "E0(x,y) -> E(x,y)").unwrap()],
        target_tgds: vec![parse_tgd(&t, &t, "E(x,y) & E(y,z) -> E(x,z)").unwrap()],
        egds: vec![],
    };
    let i = Instance::parse(&s, "E0(a,b) E0(b,c) E0(c,d) E0(d,e) E0(e,f)").unwrap();
    (setting, t, i)
}

fn options_with(parallelism: Parallelism, budget: Budget) -> TargetChaseOptions {
    TargetChaseOptions {
        // Lift the analyzer's step-count safety net well out of the way
        // so the *resource* budget is what stops the chase.
        max_steps: Some(100_000_000),
        exec: quasi_inverse::exec::ExecConfig::default()
            .with_parallelism(parallelism)
            .with_budget(budget),
        ..Default::default()
    }
}

fn expect_resource(err: ChaseError) -> quasi_inverse::chase::ResourceError {
    match err {
        ChaseError::Resource(r) => *r,
        other => panic!("expected a structured resource error, got: {other}"),
    }
}

#[test]
fn adversarial_deadline_returns_structured_error_in_bounded_time() {
    let (setting, t, i) = adversarial_setting();
    let deadline = Duration::from_millis(100);
    for (label, par) in [
        ("1", Parallelism::sequential()),
        ("4", Parallelism::fixed(4)),
        ("auto", Parallelism::auto()),
    ] {
        let budget = Budget::unlimited().with_deadline(deadline);
        let start = Instant::now();
        let err = chase_with_target_deps(&setting, &i, &t, options_with(par, budget.clone()))
            .unwrap_err();
        let elapsed = start.elapsed();
        // The acceptance bound: checks are per round and per trigger, so
        // the chase must notice the expired deadline promptly.
        assert!(
            elapsed < deadline * 2,
            "threads {label}: took {elapsed:?} against a {deadline:?} deadline"
        );
        let r = expect_resource(err);
        assert_eq!(r.exceeded, Exceeded::Deadline, "threads {label}");
        match &r.partial {
            ChasePartial::Instance(inst) => {
                // The partial is the chain built so far — the st-stage
                // fact at minimum, every fact a genuine chase step.
                assert!(inst.fact_count() >= 1, "threads {label}");
            }
            other => panic!("threads {label}: expected a partial instance, got {other:?}"),
        }
        assert!(budget.tasks_charged() > 0, "threads {label}");
    }
}

#[test]
fn cancellation_flag_stops_the_chase_promptly() {
    let (setting, t, i) = adversarial_setting();
    // Pre-cancelled: the very first checkpoint must surface it.
    let flag = Arc::new(AtomicBool::new(true));
    let budget = Budget::unlimited().with_cancel(Arc::clone(&flag));
    let start = Instant::now();
    let err = chase_with_target_deps(&setting, &i, &t, options_with(Parallelism::auto(), budget))
        .unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(expect_resource(err).exceeded, Exceeded::Cancelled);
}

#[test]
fn max_facts_boundary_exactly_at_and_one_below_the_true_count() {
    let (setting, t, i) = closure_setting();
    // Measure the true resource shape with a never-tripping budget (the
    // pool is charged end-to-end across the s-t stage and every round).
    let probe = Budget::unlimited().with_max_facts(1_000_000);
    let full = match chase_with_target_deps(
        &setting,
        &i,
        &t,
        options_with(Parallelism::auto(), probe.clone()),
    )
    .unwrap()
    {
        quasi_inverse::chase::TargetChaseResult::Solution(u) => u,
        other => panic!("unexpected: {other:?}"),
    };
    let true_count = probe.facts_charged();
    assert_eq!(true_count, 15, "5 copied edges + 10 closure edges");

    // Exactly at the true count: the cap is inclusive, so the chase
    // completes — byte-identically to the unbudgeted run.
    let at = Budget::unlimited().with_max_facts(true_count);
    let out =
        chase_with_target_deps(&setting, &i, &t, options_with(Parallelism::auto(), at)).unwrap();
    match out {
        quasi_inverse::chase::TargetChaseResult::Solution(u) => {
            assert_eq!(u.to_string(), full.to_string())
        }
        other => panic!("unexpected: {other:?}"),
    }

    // One below: a structured trip whose partial is a sound subset of
    // the full run's facts (the final step may overshoot the cap by its
    // delta, so the subset need not be strict — but nothing unsound is
    // ever committed).
    let below = Budget::unlimited().with_max_facts(true_count - 1);
    let err = chase_with_target_deps(&setting, &i, &t, options_with(Parallelism::auto(), below))
        .unwrap_err();
    let r = expect_resource(err);
    assert_eq!(r.exceeded, Exceeded::Facts);
    match &r.partial {
        ChasePartial::Instance(inst) => {
            assert!(inst.is_subinstance_of(&full).unwrap());
        }
        other => panic!("expected a partial instance, got {other:?}"),
    }

    // A genuinely tight cap trips mid-run with a strict subset.
    let tight = Budget::unlimited().with_max_facts(7);
    let err = chase_with_target_deps(&setting, &i, &t, options_with(Parallelism::auto(), tight))
        .unwrap_err();
    let r = expect_resource(err);
    assert_eq!(r.exceeded, Exceeded::Facts);
    match &r.partial {
        ChasePartial::Instance(inst) => {
            assert!(inst.fact_count() < full.fact_count());
            assert!(inst.is_subinstance_of(&full).unwrap());
        }
        other => panic!("expected a partial instance, got {other:?}"),
    }
}

#[test]
fn under_budget_runs_are_byte_identical_at_every_thread_count() {
    let (setting, t, i) = closure_setting();
    let unbudgeted =
        chase_with_target_deps(&setting, &i, &t, TargetChaseOptions::default()).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let ample = Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_tasks(1_000_000)
            .with_max_facts(1_000_000);
        let out = chase_with_target_deps(
            &setting,
            &i,
            &t,
            options_with(Parallelism::fixed(threads), ample),
        )
        .unwrap();
        assert_eq!(out, unbudgeted, "threads {threads}");
    }
}

#[test]
fn task_budget_trips_the_standard_chase_without_panicking() {
    let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
    let i = Instance::parse(&m.source, "P(a,b,c) P(d,e,f)").unwrap();
    // A zero-task budget trips before the first enumeration task.
    let budget = Budget::unlimited().with_max_tasks(0);
    let err = m.chase_budgeted(&i, &budget).unwrap_err();
    assert_eq!(expect_resource(err).exceeded, Exceeded::Tasks);
    // An ample budget is transparent.
    let ample = Budget::unlimited().with_max_tasks(1_000_000);
    assert_eq!(
        m.chase_budgeted(&i, &ample).unwrap().to_string(),
        m.chase(&i).unwrap().to_string()
    );
}

#[test]
fn quasi_inverse_inherits_the_entry_point_budget() {
    let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
    // An already-expired deadline: the whole pipeline (MinGen candidate
    // loop included) must surface a structured resource error.
    let options = QuasiInverseOptions {
        exec: quasi_inverse::exec::ExecConfig::default()
            .with_budget(Budget::unlimited().with_deadline(Duration::ZERO)),
        ..Default::default()
    };
    let start = Instant::now();
    let err = quasi_inverse::core::quasi_inverse(&m, &options).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5));
    match err {
        CoreError::Resource(r) => assert_eq!(r.exceeded, Exceeded::Deadline),
        other => panic!("expected a resource error, got: {other}"),
    }
    // Unlimited budget: unchanged output.
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    assert!(!rev.deps.is_empty());
}

#[test]
fn bounded_verification_is_interruptible() {
    let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let universe = quasi_inverse::core::enumerate::ground_instances(&m.source, &["a", "b"], 2);
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let err =
        quasi_inverse::core::is_quasi_inverse_bounded(&m, &rev, &universe, &budget).unwrap_err();
    match err {
        CoreError::Resource(r) => assert_eq!(r.exceeded, Exceeded::Deadline),
        other => panic!("expected a resource error, got: {other}"),
    }
    // A generous budget agrees with an unlimited one.
    let a =
        quasi_inverse::core::is_quasi_inverse_bounded(&m, &rev, &universe, &Budget::unlimited())
            .unwrap();
    let roomy = Budget::unlimited().with_deadline(Duration::from_secs(600));
    let b = quasi_inverse::core::is_quasi_inverse_bounded(&m, &rev, &universe, &roomy).unwrap();
    assert_eq!(a.holds, b.holds);
    assert_eq!(a.mismatches, b.mismatches);
}

/// Regression: `ExecStats::absorb` used to sum `per_worker` loads
/// element-wise across runs with different worker counts, crediting a
/// sequential run's whole load to worker 0 of a wider layout —
/// `utilization()` after such a merge reported ≈ 0.28 for two perfectly
/// balanced runs.
#[test]
fn execstats_absorb_reports_meaningful_utilization_across_layouts() {
    let mut wide = ExecStats {
        workers: 4,
        tasks: 12,
        max_load: 3,
        capacity: 12,
        ..Default::default()
    };
    let sequential = ExecStats {
        workers: 1,
        tasks: 100,
        max_load: 100,
        capacity: 100,
        ..Default::default()
    };
    wide.absorb(&sequential);
    assert_eq!(wide.workers, 4);
    assert_eq!(wide.tasks, 112);
    assert_eq!(
        wide.utilization(),
        1.0,
        "two balanced runs must merge balanced"
    );
}
