//! Property-level validation of the composition operator (experiment
//! E12): on random (full, arbitrary) mapping pairs, the syntactic
//! composition produced by `compose` agrees with chase-based membership
//! in `Inst(M12 ∘ M23)` on random instance pairs. Seed-scheduled random
//! inputs; failures reproduce from the seed in the assertion message.

use quasi_inverse::prelude::*;
use quasi_inverse::workloads::random::{
    random_ground_instance, random_mapping, random_mapping_between, rng, InstanceParams,
    MappingParams,
};

const CASES: u64 = 20;

/// The executor configuration of one sweep point (`0` = auto).
fn sweep_exec(threads: usize) -> ExecConfig {
    ExecConfig::auto().with_parallelism(match threads {
        0 => Parallelism::auto(),
        n => Parallelism::fixed(n),
    })
}

#[test]
fn compose_agrees_with_membership() {
    for seed in 0..CASES {
        let mut r = rng(seed);
        let m12 = random_mapping(
            &mut r,
            &MappingParams {
                full: true,
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
                n_tgds: 2,
                max_arity: 2,
                ..Default::default()
            },
        );
        let composed = compose(&m12, &m23, &Default::default()).unwrap();
        let ip = InstanceParams {
            n_consts: 2,
            n_facts: 3,
        };
        for _ in 0..4 {
            let i = random_ground_instance(&m12.source, &mut r, &ip);
            let k = random_ground_instance(&m23.target, &mut r, &ip);
            let direct = quasi_inverse::chase::satisfies_all_tgds(&i, &k, &composed.tgds);
            let via_chase = composition_membership(&m12, &m23, &i, &k).unwrap();
            assert_eq!(
                direct, via_chase,
                "seed {seed}: I = {i}, K = {k}\n{composed}"
            );
        }
    }
}

#[test]
fn composed_chase_equals_two_hop_chase_up_to_hom() {
    for seed in 0..CASES {
        // chase_{M13}(I) and chase_{M23}(chase_{M12}(I)) are both
        // universal solutions of the composition, hence hom-equivalent.
        let mut r = rng(seed);
        let m12 = random_mapping(
            &mut r,
            &MappingParams {
                full: true,
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
                n_tgds: 2,
                max_arity: 2,
                ..Default::default()
            },
        );
        let composed = compose(&m12, &m23, &Default::default()).unwrap();
        let i = random_ground_instance(
            &m12.source,
            &mut r,
            &InstanceParams {
                n_consts: 2,
                n_facts: 4,
            },
        );
        let one_hop = composed.chase(&i).unwrap();
        let two_hop = m23.chase(&m12.chase(&i).unwrap()).unwrap();
        assert!(
            hom_equivalent(&one_hop, &two_hop),
            "seed {seed}: I = {i}\none: {one_hop}\ntwo: {two_hop}"
        );
    }
}

/// Composition is associative up to logical equivalence:
/// `(M12 ∘ M23) ∘ M34 ≡ M12 ∘ (M23 ∘ M34)`, checked by the containment
/// engine rather than on sampled instances. The two full prefixes keep
/// every `compose` call inside the supported (full, arbitrary) fragment.
/// Swept over worker counts: containment chases must not depend on the
/// executor's parallelism.
#[test]
fn composition_is_associative_under_containment() {
    // A hard candidate cap makes the skip set deterministic: the trip
    // point is bit-identical at every worker count, unlike a deadline.
    let opts = MinGenOptions {
        max_candidates: 20_000,
        ..Default::default()
    };
    // Pre-select the seeds whose three-way composition fits the budget
    // so every thread setting exercises the identical corpus.
    let triple = |seed: u64| {
        let mut r = rng(seed);
        let m12 = random_mapping(
            &mut r,
            &MappingParams {
                full: true,
                max_arity: 2,
                n_tgds: 2,
                max_head_atoms: 1,
                ..Default::default()
            },
        );
        let m23 = random_mapping_between(
            &mut r,
            &m12.target,
            &Schema::parse("Mid0/2 Mid1/1").unwrap(),
            &MappingParams {
                full: true,
                n_tgds: 1,
                max_arity: 2,
                max_head_atoms: 1,
                ..Default::default()
            },
        );
        let m34 = random_mapping_between(
            &mut r,
            &m23.target,
            &Schema::parse("Out0/2 Out1/1").unwrap(),
            &MappingParams {
                n_tgds: 1,
                max_arity: 2,
                ..Default::default()
            },
        );
        (m12, m23, m34)
    };
    for &threads in &[1usize, 4, 0] {
        let exec = sweep_exec(threads);
        let opts = MinGenOptions {
            exec: exec.clone(),
            ..opts.clone()
        };
        let mut exercised = 0u64;
        for seed in 0..2 * CASES {
            let (m12, m23, m34) = triple(seed);
            let left = match compose(&m12, &m23, &opts).and_then(|m13| compose(&m13, &m34, &opts)) {
                Ok(m) => m,
                Err(CoreError::Budget(_)) => continue,
                Err(e) => panic!("seed {seed}: {e}"),
            };
            let right = match compose(&m23, &m34, &opts).and_then(|m24| compose(&m12, &m24, &opts))
            {
                Ok(m) => m,
                Err(CoreError::Budget(_)) => continue,
                Err(e) => panic!("seed {seed}: {e}"),
            };
            let (left, right) = (left.with_exec(exec.clone()), right.with_exec(exec.clone()));
            assert!(
                mapping_equivalent(&left, &right).unwrap(),
                "seed {seed}, threads {threads}:\nleft: {left}\nright: {right}"
            );
            exercised += 1;
        }
        assert!(
            exercised >= CASES,
            "budget skips starved the associativity property: {exercised} cases"
        );
    }
}

/// The identity mapping is a two-sided unit for composition up to
/// logical equivalence: `id ∘ M ≡ M ≡ M ∘ id`, decided by the
/// containment checker (both directions of each equivalence). Swept over
/// worker counts like the associativity property.
#[test]
fn identity_is_a_unit_for_composition_under_containment() {
    for &threads in &[1usize, 4, 0] {
        let exec = sweep_exec(threads);
        for seed in 0..CASES {
            let mut r = rng(seed);
            let m = random_mapping(
                &mut r,
                &MappingParams {
                    full: true,
                    max_arity: 2,
                    n_tgds: 2,
                    ..Default::default()
                },
            )
            .with_exec(exec.clone());
            let id_src = SchemaMapping::identity(&m.source).unwrap();
            let id_tgt = SchemaMapping::identity(&m.target).unwrap();
            let opts = MinGenOptions {
                exec: exec.clone(),
                ..Default::default()
            };
            // The replica schemas produced by `identity` are `same_as`
            // the originals, so both compositions type-check directly.
            let left = compose(&id_src, &m, &opts).unwrap().with_exec(exec.clone());
            let right = compose(&m, &id_tgt, &opts).unwrap().with_exec(exec.clone());
            assert!(
                mapping_equivalent(&left, &m).unwrap(),
                "seed {seed}, threads {threads}: id ∘ M ≢ M\n{left}"
            );
            assert!(
                mapping_equivalent(&right, &m).unwrap(),
                "seed {seed}, threads {threads}: M ∘ id ≢ M\n{right}"
            );
        }
    }
}

#[test]
fn composing_with_identity_preserves_behaviour() {
    let m = quasi_inverse::workloads::paper::copy();
    let id = SchemaMapping::identity(&m.source).unwrap();
    // M over the replica schema as its source.
    let m2 = SchemaMapping::new(
        id.target.clone(),
        m.target.clone(),
        m.tgds
            .iter()
            .map(|t| parse_tgd(&id.target, &m.target, &t.to_string()).unwrap())
            .collect(),
    )
    .unwrap();
    let composed = compose(&id, &m2, &Default::default()).unwrap();
    // Behaviour equal to m itself on concrete data.
    let i = Instance::parse(&m.source, "P(a,b) P(b,a)").unwrap();
    let via_m = m.chase(&i).unwrap();
    let via_composed = composed.chase(&i).unwrap();
    assert!(hom_equivalent(&via_m, &via_composed));
}
