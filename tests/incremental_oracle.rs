//! Incremental-chase oracle: `chase_delta` may change only *how much
//! work* a re-chase does, never the artifact. Every sweep replays a
//! randomized update stream (insert-only, delete-only, mixed) through
//! `chase_delta` and compares the rendered s-t output, solution, and
//! core byte for byte against a from-scratch `chase_incremental` of the
//! evolved instance — over the full `{unplanned, planned} × {1, 4,
//! auto} threads` grid, so the differential path inherits the planning
//! oracle's guarantees too.
//!
//! Budget trips must stay *sound*: a tripped delta run returns a typed
//! resource error whose partial instance is a subinstance of the
//! uninterrupted result — never a wrong fixpoint presented as done.
//!
//! The randomized sweep count defaults to 12, overridden by
//! `PROPTEST_CASES` (the deep push-only CI tier runs 1024).

use quasi_inverse::chase::{
    chase_delta, chase_incremental, is_universal_solution, ChaseError, ChasePartial, ChaseResult,
    DeltaChaseOptions, ExchangeSetting, TargetChaseResult,
};
use quasi_inverse::exec::{Budget, ExecConfig, Parallelism, Planning};
use quasi_inverse::lang::{parse_egd, parse_tgd};
use quasi_inverse::schema::{core_delta, core_of, Diff, HomCache, Instance, Schema};
use quasi_inverse::workloads::random::{random_ground_instance, rng, InstanceParams};
use quasi_inverse::workloads::updates::{update_stream, UpdateMix, UpdateParams};

/// Randomized cases per sweep: 12 by default, via `PROPTEST_CASES` in
/// the deep CI tier.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// The planning × threads grid; `None` is auto parallelism. The
/// unplanned sequential cell runs first and is the byte reference.
const GRID: [(Planning, Option<usize>); 6] = [
    (Planning::Off, Some(1)),
    (Planning::Off, Some(4)),
    (Planning::Off, None),
    (Planning::On, Some(1)),
    (Planning::On, Some(4)),
    (Planning::On, None),
];

/// Run `render` over the whole grid and assert byte identity against
/// the first (unplanned, sequential) cell. `core_of`/`core_delta` take
/// no `ExecConfig`: they run under the process's `QI_PLAN`/`QI_THREADS`,
/// which the CI env matrices vary.
fn sweep_grid(ctx: &str, mut render: impl FnMut(&ExecConfig) -> String) {
    let mut reference: Option<String> = None;
    for (planning, threads) in GRID {
        let exec = ExecConfig::auto()
            .with_planning(planning)
            .with_parallelism(threads.map_or_else(Parallelism::auto, Parallelism::fixed));
        let rendered = render(&exec);
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(
                &rendered, r,
                "{ctx}: planning={planning:?} × threads={threads:?} diverged"
            ),
        }
    }
}

/// The sequential configuration of the non-grid checks.
fn sequential() -> ExecConfig {
    ExecConfig::auto().with_parallelism(Parallelism::sequential())
}

/// Render every maintained artifact of one result.
fn render(r: &ChaseResult) -> String {
    let sol = match &r.outcome {
        TargetChaseResult::Solution(u) => format!("{u}"),
        TargetChaseResult::Failed { left, right } => format!("failed {left} {right}"),
    };
    format!("base={}\nsol={sol}", r.base)
}

fn opts(exec: &ExecConfig) -> DeltaChaseOptions {
    DeltaChaseOptions {
        exec: exec.clone(),
        ..Default::default()
    }
}

/// Copy + transitive closure: the Datalog-eligible DRed fast path.
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

/// Replay `stream` through `chase_delta`, asserting byte identity with
/// a from-scratch chase (and exact core maintenance) at every step.
/// Returns a transcript of every step's artifacts for the grid sweep.
fn replay_and_check(
    setting: &ExchangeSetting,
    target: &Schema,
    start: &Instance,
    stream: &[Diff],
    exec: &ExecConfig,
    ctx: &str,
) -> String {
    let o = opts(exec);
    let mut cur = chase_incremental(setting, start, target, &o).unwrap();
    let mut inst = start.clone();
    let mut core = cur.solution().map(core_of);
    let mut transcript = render(&cur);
    for (step, diff) in stream.iter().enumerate() {
        let prev = cur;
        cur = chase_delta(&prev, diff, &o).unwrap();
        diff.apply(&mut inst).unwrap();
        let scratch = chase_incremental(setting, &inst, target, &o).unwrap();
        assert_eq!(
            render(&cur),
            render(&scratch),
            "{ctx}: delta diverged from scratch at step {step}"
        );
        // Incremental core repair must equal the from-scratch core.
        if let (Some(prev_core), Some(prev_sol), Some(new_sol)) =
            (&core, prev.solution(), cur.solution())
        {
            let (repaired, _) = core_delta(prev_sol, prev_core, new_sol);
            assert_eq!(
                format!("{repaired}"),
                format!("{}", core_of(new_sol)),
                "{ctx}: core repair diverged at step {step}"
            );
            core = Some(repaired);
        } else {
            core = cur.solution().map(core_of);
        }
        transcript.push_str("\n---\n");
        transcript.push_str(&render(&cur));
    }
    transcript
}

#[test]
fn closure_streams_match_from_scratch() {
    let (s, t, setting) = closure_setting();
    for (mix, tag) in [
        (UpdateMix::InsertOnly, "insert"),
        (UpdateMix::DeleteOnly, "delete"),
        (UpdateMix::Mixed, "mixed"),
    ] {
        for seed in 0..cases() {
            let mut r = rng(47_000 + seed);
            let start = random_ground_instance(
                &s,
                &mut r,
                &InstanceParams {
                    n_consts: 6,
                    n_facts: 10,
                },
            );
            let stream = update_stream(
                &start,
                &mut r,
                &UpdateParams {
                    steps: 4,
                    step_size: 3,
                    n_consts: 6,
                    mix,
                },
            );
            sweep_grid(&format!("closure {tag} stream, seed {seed}"), |exec| {
                replay_and_check(&setting, &t, &start, &stream, exec, tag)
            });
        }
    }
}

#[test]
fn existential_st_streams_match_from_scratch() {
    // LAV-style mapping with existentials and no target dependencies:
    // exercises the memoized-enumeration s-t replay, where fresh-null
    // numbering is part of the render.
    let s = Schema::parse("R/2").unwrap();
    let t = Schema::parse("P/2 Q/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            parse_tgd(&s, &t, "R(x,y) -> exists z . P(x,z), Q(z,y)").unwrap(),
            parse_tgd(&s, &t, "R(x,x) -> P(x,x)").unwrap(),
        ],
        target_tgds: vec![],
        egds: vec![],
    };
    for seed in 0..cases() {
        let mut r = rng(53_000 + seed);
        let start = random_ground_instance(
            &s,
            &mut r,
            &InstanceParams {
                n_consts: 5,
                n_facts: 8,
            },
        );
        let stream = update_stream(
            &start,
            &mut r,
            &UpdateParams {
                steps: 4,
                step_size: 2,
                n_consts: 5,
                mix: UpdateMix::Mixed,
            },
        );
        sweep_grid(&format!("existential stream, seed {seed}"), |exec| {
            replay_and_check(&setting, &t, &start, &stream, exec, "existential")
        });
        // Verification verdict: both chased instances are (the same)
        // universal solution for the evolved source.
        let mut inst = start.clone();
        let o = opts(&sequential());
        let mut cur = chase_incremental(&setting, &start, &t, &o).unwrap();
        for diff in &stream {
            cur = chase_delta(&cur, diff, &o).unwrap();
            diff.apply(&mut inst).unwrap();
        }
        let delta_verdict =
            is_universal_solution(&setting.st_tgds, &inst, cur.solution().unwrap()).unwrap();
        let scratch = chase_incremental(&setting, &inst, &t, &o).unwrap();
        let scratch_verdict =
            is_universal_solution(&setting.st_tgds, &inst, scratch.solution().unwrap()).unwrap();
        assert!(delta_verdict && scratch_verdict, "seed {seed}");
    }
}

#[test]
fn egd_fallback_streams_match_from_scratch() {
    // Existentials + closure + key egd: the ineligible fallback path
    // (replayed s-t stage, from-scratch target rounds).
    let s = Schema::parse("EmpSrc/2 Boss/2").unwrap();
    let t = Schema::parse("Emp/2 Reports/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![
            parse_tgd(&s, &t, "EmpSrc(id,name) -> Emp(id,name)").unwrap(),
            parse_tgd(&s, &t, "Boss(e,b) -> Reports(e,b)").unwrap(),
        ],
        target_tgds: vec![
            parse_tgd(&t, &t, "Reports(x,y) & Reports(y,z) -> Reports(x,z)").unwrap(),
        ],
        egds: vec![parse_egd(&t, "Emp(id,n1) & Emp(id,n2) -> n1 = n2").unwrap()],
    };
    let start = Instance::parse(
        &s,
        "EmpSrc(e1,ann) EmpSrc(e2,bo) Boss(e1,e2) Boss(e2,e3) Boss(e3,e4)",
    )
    .unwrap();
    // Hand-picked diffs covering repair, conflict, and recovery.
    let diffs = [
        "+ Boss(e4,e5)",
        "- Boss(e2,e3)\n+ EmpSrc(e3,cy)",
        "+ EmpSrc(e1,anne)", // egd merges ann/anne? both constants: conflict
        "- EmpSrc(e1,anne)", // back to a solvable instance
    ];
    sweep_grid("egd fallback stream", |exec| {
        let o = opts(exec);
        let mut cur = chase_incremental(&setting, &start, &t, &o).unwrap();
        let mut inst = start.clone();
        let mut transcript = render(&cur);
        for (step, text) in diffs.iter().enumerate() {
            let diff = Diff::parse(&s, text).unwrap();
            cur = chase_delta(&cur, &diff, &o).unwrap();
            diff.apply(&mut inst).unwrap();
            let scratch = chase_incremental(&setting, &inst, &t, &o).unwrap();
            assert_eq!(
                render(&cur),
                render(&scratch),
                "egd fallback diverged at step {step} (`{text}`)"
            );
            transcript.push_str("\n---\n");
            transcript.push_str(&render(&cur));
        }
        // The conflict step really failed, and the stream recovered.
        assert!(transcript.contains("failed"), "{transcript}");
        assert!(cur.solution().is_some());
        transcript
    });
}

#[test]
fn evicted_hom_cache_answers_like_a_fresh_one() {
    // A shared fingerprint-keyed cache survives the delta (scoped
    // eviction only) and must keep answering exactly like a fresh
    // cache-free computation.
    let (s, t, setting) = closure_setting();
    let cache = std::sync::Arc::new(HomCache::new());
    let o = DeltaChaseOptions {
        cache: Some(cache.clone()),
        ..Default::default()
    };
    let start = Instance::parse(&s, "E(a,b) E(b,c) E(c,d)").unwrap();
    let cur = chase_incremental(&setting, &start, &t, &o).unwrap();
    // Warm the cache with solution-touching entries.
    let probe = Instance::parse(&t, "T(N80,N81)").unwrap();
    let warm = cache.has_hom(&probe, cur.solution().unwrap());
    let diff = Diff::parse(&s, "- E(a,b)\n+ E(d,e)").unwrap();
    let next = chase_delta(&cur, &diff, &o).unwrap();
    assert!(next.stats.exec.cache_evictions > 0, "eviction must fire");
    // Post-eviction answers match a cache-free recompute.
    let new_sol = next.solution().unwrap();
    assert_eq!(
        cache.has_hom(&probe, new_sol),
        quasi_inverse::schema::has_hom(&probe, new_sol),
    );
    assert_eq!(
        warm,
        quasi_inverse::schema::has_hom(&probe, cur.solution().unwrap())
    );
}

#[test]
fn budget_trip_is_typed_and_sound() {
    let (s, t, setting) = closure_setting();
    // A chain long enough that its closure far exceeds the fact cap.
    let start = Instance::parse(
        &s,
        &(0..20)
            .map(|i| format!("E(v{i},v{})", i + 1))
            .collect::<Vec<_>>()
            .join(" "),
    )
    .unwrap();
    let full = chase_incremental(&setting, &start, &t, &opts(&sequential())).unwrap();
    let prev = {
        // Memoized result produced under no budget; the *delta* runs
        // with a tight cap.
        let small = Instance::parse(&s, "E(v0,v1)").unwrap();
        let diff = Diff::between(&small, &start);
        let base = chase_incremental(&setting, &small, &t, &opts(&sequential()));
        chase_delta(&base.unwrap(), &diff, &opts(&sequential())).unwrap()
    };
    assert_eq!(render(&prev), render(&full), "unbudgeted delta must agree");

    // Now trip the budget mid-delta: extend the chain massively with a
    // cap that cannot fit the new closure facts.
    let ext = Diff::parse(
        &s,
        &(20..40)
            .map(|i| format!("+ E(v{i},v{})", i + 1))
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .unwrap();
    let capped = DeltaChaseOptions {
        exec: ExecConfig::default()
            .with_parallelism(Parallelism::sequential())
            .with_budget(Budget::unlimited().with_max_facts(5)),
        ..Default::default()
    };
    let mut updated = start.clone();
    ext.apply(&mut updated).unwrap();
    let uninterrupted = chase_incremental(&setting, &updated, &t, &opts(&sequential())).unwrap();
    match chase_delta(&prev, &ext, &capped) {
        Err(ChaseError::Resource(r)) => match &r.partial {
            ChasePartial::Instance(partial) => {
                let sol = uninterrupted.solution().unwrap();
                assert!(
                    partial.is_subinstance_of(sol).unwrap(),
                    "partial must be a sound subset of the true fixpoint"
                );
            }
            ChasePartial::None => {}
            other => panic!("unexpected partial shape: {other:?}"),
        },
        Err(other) => panic!("expected a typed resource error, got {other}"),
        Ok(_) => panic!("a 5-fact cap cannot fit the extended closure"),
    }
}
