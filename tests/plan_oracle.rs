//! Plan-invariance oracle: cost-based join planning, prefilters, and
//! morsel-driven scheduling may change only *how fast* an answer is
//! found, never the answer. Every sweep here runs the same workload
//! over the full `{unplanned, planned} × {1, 4, auto} threads` grid and
//! compares rendered artifacts byte for byte against the unplanned
//! sequential reference:
//!
//! - the standard chase output and its core (fresh-null numbering is
//!   part of the render, so visit-order leaks show up as byte diffs),
//! - the iterated target chase (solution or failure rendering + step
//!   counts),
//! - quasi-inverse dependency lists and disjunctive back-chase leaves.
//!
//! Every cell passes its planning mode and thread count in an explicit
//! `ExecConfig`. `core_of` takes none: it runs under the process's
//! `QI_PLAN`/`QI_THREADS`, which the CI env matrices vary.
//!
//! The randomized sweep count defaults to 12, overridden by
//! `PROPTEST_CASES` (the deep push-only CI tier runs 1024).

use quasi_inverse::chase::{
    chase_with_options, chase_with_target_deps_stats, disjunctive_chase_with_stats, ChaseOptions,
    DisjChaseOptions, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use quasi_inverse::core::QuasiInverseOptions;
use quasi_inverse::exec::{ExecConfig, Parallelism, Planning};
use quasi_inverse::lang::{parse_egd, parse_tgd};
use quasi_inverse::schema::{core_of, Instance, Schema, Value};
use quasi_inverse::workloads::paper;
use quasi_inverse::workloads::random::{random_ground_instance, rng, InstanceParams};

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
/// the first (unplanned, sequential) cell.
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

/// The 9-tgd join mapping of the bench sweep: every ordered pair of
/// three graph relations joined into its own target relation.
fn nine_tgd_mapping() -> quasi_inverse::core::SchemaMapping {
    let rels = ["A1", "A2", "A3"];
    let tgds: Vec<String> = rels
        .iter()
        .enumerate()
        .flat_map(|(i, a)| {
            rels.iter()
                .enumerate()
                .map(move |(j, b)| format!("{a}(x,y) & {b}(y,z) -> T{i}{j}(x,z)"))
        })
        .collect();
    let tgd_refs: Vec<&str> = tgds.iter().map(String::as_str).collect();
    let targets: Vec<String> = (0..rels.len())
        .flat_map(|i| (0..rels.len()).map(move |j| format!("T{i}{j}/2")))
        .collect();
    quasi_inverse::core::SchemaMapping::parse("A1/2 A2/2 A3/2", &targets.join(" "), &tgd_refs)
        .unwrap()
}

#[test]
fn standard_chase_and_core_are_plan_invariant() {
    // Random multi-join sources through the 9-tgd mapping: the chase
    // render pins trigger visit order (fresh nulls are numbered in
    // firing order), and the core render additionally pins the folding.
    let m = nine_tgd_mapping();
    for seed in 0..cases() {
        let mut r = rng(31_000 + seed);
        let mut i = Instance::new(m.source.clone());
        for rel in ["A1", "A2", "A3"] {
            let rel = m.source.rel(rel).unwrap();
            for _ in 0..8 {
                let a = r.random_range(0..6);
                let b = r.random_range(0..6);
                i.insert(
                    rel,
                    vec![
                        Value::constant(&format!("v{a}")),
                        Value::constant(&format!("v{b}")),
                    ],
                )
                .unwrap();
            }
        }
        sweep_grid(&format!("9-tgd chase, seed {seed}"), |exec| {
            let out = chase_with_options(
                &m.tgds,
                &i,
                &m.target,
                ChaseOptions::with_exec(exec.clone()),
            )
            .unwrap();
            format!("{}\n=== core ===\n{}", out.instance, core_of(&out.instance))
        });
    }
}

#[test]
fn target_chase_is_plan_invariant() {
    // Transitive closure over a chain (several semi-naive delta rounds)
    // plus the employee setting (existentials, a closure tgd, and a key
    // egd whose repair forces re-enumeration).
    let s = Schema::parse("E0/2").unwrap();
    let t = Schema::parse("E/2").unwrap();
    let setting = ExchangeSetting {
        st_tgds: vec![parse_tgd(&s, &t, "E0(x,y) -> E(x,y)").unwrap()],
        target_tgds: vec![parse_tgd(&t, &t, "E(x,y) & E(y,z) -> E(x,z)").unwrap()],
        egds: vec![],
    };
    let chain = Instance::parse(&s, "E0(a,b) E0(b,c) E0(c,d) E0(d,e) E0(e,f)").unwrap();
    run_target_sweep(&setting, &chain, &t, "closure chain");

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
    let i = Instance::parse(
        &s,
        "EmpSrc(e1,ann) EmpSrc(e1,anne) EmpSrc(e2,bo) Boss(e1,e2) Boss(e2,e3) Boss(e3,e4)",
    )
    .unwrap();
    run_target_sweep(&setting, &i, &t, "employee");
}

fn run_target_sweep(setting: &ExchangeSetting, source: &Instance, target: &Schema, ctx: &str) {
    sweep_grid(ctx, |exec| {
        let (result, stats) = chase_with_target_deps_stats(
            setting,
            source,
            target,
            TargetChaseOptions {
                exec: exec.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let rendered = match &result {
            TargetChaseResult::Solution(u) => format!("{u}"),
            TargetChaseResult::Failed { left, right } => format!("failed {left} {right}"),
        };
        format!("{rendered}\nsteps={}", stats.steps)
    });
}

#[test]
fn quasi_inverse_and_disjunctive_chase_are_plan_invariant() {
    // Paper mappings with disjunctive quasi-inverses: the forward chase,
    // the quasi-inverse dependency list, and the back-chase leaf list
    // must all come back identical on every grid cell.
    for (name, m) in [
        ("union", paper::union_mapping()),
        ("decomposition", paper::decomposition()),
        ("example 4.5", paper::example_4_5()),
    ] {
        let mut r = rng(731);
        let i = random_ground_instance(
            &m.source,
            &mut r,
            &InstanceParams {
                n_consts: 3,
                n_facts: 4,
            },
        );
        sweep_grid(name, |exec| {
            let options = QuasiInverseOptions {
                exec: exec.clone(),
                ..Default::default()
            };
            let rev = quasi_inverse::core::quasi_inverse(&m, &options).unwrap();
            let deps: Vec<String> = rev.deps.iter().map(|d| d.to_string()).collect();
            let u = m.clone().with_exec(exec.clone()).chase(&i).unwrap();
            let empty = Instance::new(m.source.clone());
            let outcome = disjunctive_chase_with_stats(
                &rev.deps,
                &u,
                &empty,
                DisjChaseOptions {
                    exec: exec.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
            let leaves = outcome
                .leaves
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("\n---\n");
            format!(
                "{}\n=== chased ===\n{u}\n=== leaves ===\n{leaves}",
                deps.join("\n")
            )
        });
    }
}
