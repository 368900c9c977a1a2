//! Property-style tests on the extended substrates: the SO-tgd chase,
//! the target-dependency chase, and their interactions with the rest of
//! the stack. Seed-scheduled random inputs; failures reproduce from the
//! seed in the assertion message.

use quasi_inverse::analyze::is_weakly_acyclic;
use quasi_inverse::chase::{
    chase_with_target_deps, so_chase, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::random::{
    random_ground_instance, random_mapping, random_mapping_between, rng, InstanceParams,
    MappingParams,
};

const CASES: u64 = 16;

const IP: InstanceParams = InstanceParams {
    n_consts: 3,
    n_facts: 4,
};

#[test]
fn skolemized_chase_equals_plain_chase() {
    for seed in 0..CASES {
        let mut r = rng(seed);
        let m = random_mapping(&mut r, &MappingParams::default());
        let so = skolemize(&m.tgds, "");
        let i = random_ground_instance(&m.source, &mut r, &IP);
        let via_so = so_chase(&so, &i).unwrap();
        let via_fo = m.chase(&i).unwrap();
        assert!(hom_equivalent(&via_so, &via_fo), "seed {seed}");
    }
}

#[test]
fn so_composition_matches_two_hop_chase() {
    for seed in 0..CASES {
        let mut r = rng(seed);
        let m12 = random_mapping(
            &mut r,
            &MappingParams {
                max_arity: 2,
                n_tgds: 2,
                ..Default::default()
            },
        );
        let m23 = random_mapping_between(
            &mut r,
            &m12.target,
            &Schema::parse("Out0/2 Out1/1").unwrap(),
            &MappingParams {
                max_arity: 2,
                n_tgds: 2,
                ..Default::default()
            },
        );
        let so = so_compose(&m12, &m23).unwrap();
        let i = random_ground_instance(&m12.source, &mut r, &IP);
        let one = so_chase(&so, &i).unwrap();
        let two = m23.chase(&m12.chase(&i).unwrap()).unwrap();
        assert!(
            hom_equivalent(&one, &two),
            "seed {seed}: I = {i}\none: {one}\ntwo: {two}"
        );
    }
}

#[test]
fn target_chase_result_satisfies_all_dependencies() {
    for seed in 0..CASES {
        // Random s-t mapping plus a (weakly acyclic) copy-closure target
        // tgd per binary target relation and a key egd on it.
        let mut r = rng(seed);
        let m = random_mapping(
            &mut r,
            &MappingParams {
                full: true,
                max_arity: 2,
                ..Default::default()
            },
        );
        let binary: Vec<_> = m
            .target
            .rel_ids()
            .filter(|&rel| m.target.arity(rel) == 2)
            .collect();
        let mut target_tgds = Vec::new();
        let mut egds = Vec::new();
        for rel in binary {
            let name = m.target.name(rel).to_owned();
            target_tgds.push(
                parse_tgd(
                    &m.target,
                    &m.target,
                    &format!("{name}(x,y) & {name}(y,z) -> {name}(x,z)"),
                )
                .unwrap(),
            );
            egds.push(
                quasi_inverse::lang::parse_egd(
                    &m.target,
                    &format!("{name}(x,y) & {name}(y,x) -> x = y"),
                )
                .unwrap(),
            );
        }
        if !is_weakly_acyclic(&target_tgds) {
            continue;
        }
        let setting = ExchangeSetting {
            st_tgds: m.tgds.clone(),
            target_tgds,
            egds,
        };
        let i = random_ground_instance(&m.source, &mut r, &IP);
        match chase_with_target_deps(&setting, &i, &m.target, TargetChaseOptions::default())
            .unwrap()
        {
            TargetChaseResult::Failed { left, right } => {
                // Failure is legitimate (cycles on distinct constants);
                // the reported values must be distinct constants.
                assert!(
                    left.is_const() && right.is_const() && left != right,
                    "seed {seed}"
                );
            }
            TargetChaseResult::Solution(u) => {
                assert!(
                    quasi_inverse::chase::satisfies_all_tgds(&i, &u, &setting.st_tgds),
                    "seed {seed}"
                );
                assert!(
                    quasi_inverse::chase::satisfies_all_tgds(&u, &u, &setting.target_tgds),
                    "seed {seed}"
                );
                // No remaining egd violation: re-running repairs nothing.
                let again =
                    chase_with_target_deps(&setting, &i, &m.target, TargetChaseOptions::default())
                        .unwrap();
                assert_eq!(TargetChaseResult::Solution(u), again, "seed {seed}");
            }
        }
    }
}

#[test]
fn target_chase_is_deterministic() {
    for seed in 0..CASES {
        let mut r = rng(seed);
        let m = random_mapping(&mut r, &MappingParams::default());
        let setting = ExchangeSetting {
            st_tgds: m.tgds.clone(),
            target_tgds: vec![],
            egds: vec![],
        };
        let i = random_ground_instance(&m.source, &mut r, &IP);
        let a =
            chase_with_target_deps(&setting, &i, &m.target, TargetChaseOptions::default()).unwrap();
        let b =
            chase_with_target_deps(&setting, &i, &m.target, TargetChaseOptions::default()).unwrap();
        assert_eq!(a.clone(), b, "seed {seed}");
        // With no target deps, equals the plain chase.
        let TargetChaseResult::Solution(u) = a else {
            unreachable!("no egds ⇒ no failure")
        };
        assert_eq!(u, m.chase(&i).unwrap(), "seed {seed}");
    }
}

#[test]
fn par_run_fans_out_and_preserves_order() {
    let jobs: Vec<u64> = (0..16).collect();
    for threads in [1usize, 2, 4, 8] {
        let (results, _) = qi_exec::par_map(
            qi_exec::Parallelism::fixed(threads),
            &jobs,
            &qi_exec::Budget::unlimited(),
            qi_exec::CostHint::none(),
            |&k| k * k,
        )
        .unwrap();
        assert_eq!(results, (0..16).map(|k| k * k).collect::<Vec<_>>());
    }
}
