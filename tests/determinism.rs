//! Determinism guarantees: every algorithm in the stack is a pure
//! function of its inputs — re-running yields identical (not merely
//! equivalent) artifacts, and running on more threads yields the *same
//! bytes* as running on one. This is what makes the examples, the CLI
//! and EXPERIMENTS.md reproducible byte-for-byte, and what lets the
//! parallel executor be on by default (see DESIGN.md, "The determinism
//! contract").

use quasi_inverse::chase::{
    chase_with_options, disjunctive_chase_with_stats, ChaseOptions, DisjChaseOptions,
};
use quasi_inverse::core::min_gen_with_stats;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::families::{chain_join_j, union_instance, union_n};
use quasi_inverse::workloads::paper;
use quasi_inverse::workloads::random::{
    random_ground_instance, random_mapping, rng, InstanceParams, MappingParams,
};

/// The parallel side of every sweep; threads = 1 is the baseline.
const SWEEP: [usize; 3] = [2, 4, 8];

/// A sweep that silently ran sequentially would prove nothing: on a
/// host with two or more CPUs, a `Parallelism::fixed(2)` run must
/// report two workers. (Every worker count is capped at the CPU count,
/// so a one-CPU host runs each sweep point sequentially.)
fn assert_ran_in_parallel(threads: usize, stats: &ExecStats, what: &str) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads == 2 && cpus >= 2 {
        assert_eq!(stats.workers, 2, "{what}: threads=2 ran on one worker");
    }
}

#[test]
fn chase_is_deterministic() {
    for seed in 0..8 {
        let mut r = rng(seed);
        let m = random_mapping(&mut r, &MappingParams::default());
        let i = random_ground_instance(
            &m.source,
            &mut r,
            &InstanceParams {
                n_consts: 3,
                n_facts: 6,
            },
        );
        let a = m.chase(&i).unwrap();
        let b = m.chase(&i).unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn quasi_inverse_algorithm_is_deterministic() {
    for m in [
        paper::decomposition(),
        paper::example_4_5(),
        paper::thm_4_10(),
    ] {
        let a = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
        let b = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
        assert_eq!(a.deps.len(), b.deps.len());
        for (da, db) in a.deps.iter().zip(&b.deps) {
            assert_eq!(da.to_string(), db.to_string());
        }
    }
}

#[test]
fn inverse_algorithm_is_deterministic() {
    for m in [paper::copy(), paper::example_5_4(), paper::thm_4_9()] {
        let a = inverse(&m).unwrap().unwrap();
        let b = inverse(&m).unwrap().unwrap();
        assert_eq!(
            a.deps.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            b.deps.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn disjunctive_chase_leaf_order_is_stable() {
    let m = paper::union_mapping();
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let i = Instance::parse(&m.source, "P(a) Q(b)").unwrap();
    let a = round_trip(&m, &rev, &i, Default::default()).unwrap();
    let b = round_trip(&m, &rev, &i, Default::default()).unwrap();
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.faithful_witness, b.faithful_witness);
}

#[test]
fn fresh_nulls_are_deterministic_and_disjoint_from_input() {
    let m = paper::thm_4_8();
    let i = Instance::parse(&m.source, "P(a,b) P(c,d)").unwrap();
    let u = m.chase(&i).unwrap();
    // Exactly one fresh null per P-fact (the ∃z), numbered from 0.
    assert_eq!(u.nulls().len(), 2);
    let i2 = Instance::parse(&m.source, "P(a,b)").unwrap();
    let u2 = m.chase(&i2).unwrap();
    // A subinstance chases to a subinstance here (same trigger order).
    assert!(u2.is_subinstance_of(&u).unwrap());
}

#[test]
fn parallel_chase_is_byte_identical_to_sequential() {
    // threads ∈ {2,4,8} vs threads = 1, compared on rendered output —
    // `Display` serializes every fact and null id, so byte equality is
    // the strongest observable form of "same instance".
    for seed in 0..8 {
        let mut r = rng(seed);
        let m = random_mapping(&mut r, &MappingParams::default());
        let i = random_ground_instance(
            &m.source,
            &mut r,
            &InstanceParams {
                n_consts: 3,
                n_facts: 8,
            },
        );
        let seq = chase_with_options(
            &m.tgds,
            &i,
            &m.target,
            ChaseOptions {
                exec: ExecConfig::default().with_parallelism(Parallelism::sequential()),
            },
        )
        .unwrap();
        for threads in SWEEP {
            let par = chase_with_options(
                &m.tgds,
                &i,
                &m.target,
                ChaseOptions {
                    exec: ExecConfig::default().with_parallelism(Parallelism::fixed(threads)),
                },
            )
            .unwrap();
            assert_eq!(
                par.instance.to_string(),
                seq.instance.to_string(),
                "seed {seed}, threads {threads}"
            );
            assert_eq!(par.triggers, seq.triggers, "seed {seed}, threads {threads}");
            assert_eq!(par.fired, seq.fired, "seed {seed}, threads {threads}");
            // The planned scheduler's cost hint may keep inputs this
            // small on one worker; unplanned, every tgd is a task.
            let unplanned = chase_with_options(
                &m.tgds,
                &i,
                &m.target,
                ChaseOptions {
                    exec: ExecConfig::default()
                        .with_parallelism(Parallelism::fixed(threads))
                        .with_planning(Planning::Off),
                },
            )
            .unwrap();
            assert_eq!(
                unplanned.instance.to_string(),
                seq.instance.to_string(),
                "seed {seed}, threads {threads}, unplanned"
            );
            if m.tgds.len() >= 2 {
                assert_ran_in_parallel(threads, &unplanned.stats, &format!("chase seed {seed}"));
            }
        }
    }
}

#[test]
fn parallel_mapping_chase_is_byte_identical_to_sequential() {
    // The same sweep through the `SchemaMapping::with_parallelism`
    // surface the CLI and examples use.
    let m = paper::decomposition();
    let i = Instance::parse(&m.source, "P(a,b,c) P(a2,b,c2) P(a,b2,c)").unwrap();
    let seq = m
        .clone()
        .with_parallelism(Parallelism::sequential())
        .chase(&i)
        .unwrap();
    for threads in SWEEP {
        let par = m
            .clone()
            .with_parallelism(Parallelism::fixed(threads))
            .chase(&i)
            .unwrap();
        assert_eq!(par.to_string(), seq.to_string(), "threads {threads}");
    }
}

#[test]
fn parallel_disjunctive_chase_is_byte_identical_to_sequential() {
    // Leaves in chase-tree order, rendered — order and content both
    // locked across the sweep. The union quasi-inverse gives a genuinely
    // branching tree (2^k leaves).
    let m = union_n(2);
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let u = m.chase(&union_instance(&m, 5)).unwrap();
    let empty = Instance::new(m.source.clone());
    let seq = disjunctive_chase_with_stats(
        &rev.deps,
        &u,
        &empty,
        DisjChaseOptions {
            exec: ExecConfig::default().with_parallelism(Parallelism::sequential()),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(seq.leaves.len(), 32);
    let render = |leaves: &[Instance]| {
        leaves
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("\n---\n")
    };
    for threads in SWEEP {
        let par = disjunctive_chase_with_stats(
            &rev.deps,
            &u,
            &empty,
            DisjChaseOptions {
                exec: ExecConfig::default().with_parallelism(Parallelism::fixed(threads)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            render(&par.leaves),
            render(&seq.leaves),
            "threads {threads}"
        );
        assert_eq!(par.nodes_visited, seq.nodes_visited, "threads {threads}");
        assert_eq!(par.waves, seq.waves, "threads {threads}");
        assert_ran_in_parallel(threads, &par.stats, "disjunctive chase");
    }
}

#[test]
fn parallel_mingen_is_byte_identical_to_sequential() {
    // Candidate enumeration order, pruning decisions and the budget
    // counter must all survive batching: same generators, same strings,
    // same `candidates_tested` at every thread count.
    let m = chain_join_j(2);
    let psi = vec![quasi_inverse::lang::Atom::parse_parts(&m.target, "T", &["x0", "x2"]).unwrap()];
    let x = vec![Var::new("x0"), Var::new("x2")];
    let seq = min_gen_with_stats(
        &m,
        &psi,
        &x,
        &MinGenOptions {
            exec: ExecConfig::default().with_parallelism(Parallelism::sequential()),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(!seq.generators.is_empty());
    let render = |g: &[quasi_inverse::core::Generator]| {
        g.iter()
            .map(|g| format!("{g:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for threads in SWEEP {
        let par = min_gen_with_stats(
            &m,
            &psi,
            &x,
            &MinGenOptions {
                exec: ExecConfig::default().with_parallelism(Parallelism::fixed(threads)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            render(&par.generators),
            render(&seq.generators),
            "threads {threads}"
        );
        assert_eq!(
            par.candidates_tested, seq.candidates_tested,
            "threads {threads}"
        );
        assert_ran_in_parallel(threads, &par.stats, "MinGen");
    }
}

#[test]
fn parallel_quasi_inverse_is_byte_identical_to_sequential() {
    // End-to-end: the QuasiInverse algorithm runs MinGen per complete
    // description; the mapping-level parallelism knob must not change a
    // single rendered dependency.
    let m = paper::decomposition().with_parallelism(Parallelism::sequential());
    let seq = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let seq_text: Vec<String> = seq.deps.iter().map(|d| d.to_string()).collect();
    for threads in SWEEP {
        let mp = paper::decomposition().with_parallelism(Parallelism::fixed(threads));
        let par = quasi_inverse::core::quasi_inverse(&mp, &Default::default()).unwrap();
        let par_text: Vec<String> = par.deps.iter().map(|d| d.to_string()).collect();
        assert_eq!(par_text, seq_text, "threads {threads}");
    }
}

#[test]
fn workload_generators_are_seed_stable() {
    // A pinned seed must keep producing the same mapping across releases
    // (bench comparability). If this test fails after an intentional
    // generator change, update the pinned strings.
    let m = random_mapping(&mut rng(42), &MappingParams::default());
    let rendered: Vec<String> = m.tgds.iter().map(|t| t.to_string()).collect();
    let again: Vec<String> = random_mapping(&mut rng(42), &MappingParams::default())
        .tgds
        .iter()
        .map(|t| t.to_string())
        .collect();
    assert_eq!(rendered, again);
}

#[test]
fn budgeted_runs_under_budget_are_byte_identical_across_the_sweep() {
    // The determinism contract extends to budgeted runs: an ample
    // (never-tripping) budget may only decide *whether* a search
    // finishes, never *what* it returns — so a run that completes under
    // budget is byte-identical to the unbudgeted sequential baseline at
    // every thread count, budget present or not.
    use quasi_inverse::exec::Budget;
    use std::time::Duration;
    let ample = || {
        Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_max_tasks(10_000_000)
            .with_max_facts(10_000_000)
    };
    // Standard chase.
    let m = chain_join_j(3);
    let mut i = Instance::new(m.source.clone());
    for rel in ["A1", "A2", "A3"] {
        for k in 0..6u32 {
            let r = m.source.rel(rel).unwrap();
            i.insert(
                r,
                vec![
                    Value::constant(&format!("v{k}")),
                    Value::constant(&format!("v{}", (k + 1) % 6)),
                ],
            )
            .unwrap();
        }
    }
    let baseline = chase_with_options(
        &m.tgds,
        &i,
        &m.target,
        ChaseOptions {
            exec: ExecConfig::default().with_parallelism(Parallelism::sequential()),
        },
    )
    .unwrap();
    for threads in SWEEP {
        let budgeted = chase_with_options(
            &m.tgds,
            &i,
            &m.target,
            ChaseOptions {
                exec: ExecConfig::default()
                    .with_parallelism(Parallelism::fixed(threads))
                    .with_budget(ample()),
            },
        )
        .unwrap();
        assert_eq!(
            budgeted.instance.to_string(),
            baseline.instance.to_string(),
            "threads {threads}"
        );
    }
    // Disjunctive chase: leaves locked in order and content.
    let um = union_n(2);
    let rev = quasi_inverse::core::quasi_inverse(&um, &Default::default()).unwrap();
    let u = um.chase(&union_instance(&um, 4)).unwrap();
    let empty = Instance::new(um.source.clone());
    let base = disjunctive_chase_with_stats(
        &rev.deps,
        &u,
        &empty,
        DisjChaseOptions {
            exec: ExecConfig::default().with_parallelism(Parallelism::sequential()),
            ..Default::default()
        },
    )
    .unwrap();
    for threads in SWEEP {
        let budgeted = disjunctive_chase_with_stats(
            &rev.deps,
            &u,
            &empty,
            DisjChaseOptions {
                exec: ExecConfig::default()
                    .with_parallelism(Parallelism::fixed(threads))
                    .with_budget(ample()),
                ..Default::default()
            },
        )
        .unwrap();
        let render = |ls: &[Instance]| {
            ls.iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("\n---\n")
        };
        assert_eq!(
            render(&budgeted.leaves),
            render(&base.leaves),
            "threads {threads}"
        );
    }
}
