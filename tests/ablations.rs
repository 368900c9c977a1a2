//! Ablations: removing individual steps of the paper's algorithms breaks
//! them in exactly the ways the paper's design anticipates.

use quasi_inverse::core::{quasi_inverse as qi_algo, QuasiInverseOptions};
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::paper;

#[test]
fn sigma_star_is_necessary() {
    // The copy mapping P(x,y) → Q(x,y): without Σ*, the only reverse
    // dependency handles Q(x,y) with x ≠ y, so the target fact Q(a,a)
    // triggers nothing and the round trip recovers the empty instance:
    // faithfulness fails.
    let m = paper::copy();
    let ablated = qi_algo(
        &m,
        &QuasiInverseOptions {
            skip_sigma_star: true,
            ..Default::default()
        },
    )
    .unwrap();
    let full = qi_algo(&m, &QuasiInverseOptions::default()).unwrap();
    assert!(full.deps.len() > ablated.deps.len());

    let i = Instance::parse(&m.source, "P(a,a)").unwrap(); // chases to Q(a,a)
    let rt_ablated = round_trip(&m, &ablated, &i, Default::default()).unwrap();
    assert!(
        !rt_ablated.is_faithful(),
        "without Σ* the identified-frontier case is lost"
    );
    let rt_full = round_trip(&m, &full, &i, Default::default()).unwrap();
    assert!(rt_full.is_faithful());
}

#[test]
fn sigma_star_ablation_detected_by_bounded_verification() {
    let m = paper::copy();
    let ablated = qi_algo(
        &m,
        &QuasiInverseOptions {
            skip_sigma_star: true,
            ..Default::default()
        },
    )
    .unwrap();
    let universe = quasi_inverse::core::enumerate::ground_instances(&m.source, &["a", "b"], 3);
    let report = is_quasi_inverse_bounded(&m, &ablated, &universe, &Budget::unlimited()).unwrap();
    assert!(!report.holds, "the ablated output is not a quasi-inverse");
}

#[test]
fn constant_guards_are_necessary_for_soundness_of_sigma_prime_style_mappings() {
    // Strip the Constant guards from the algorithm's output for
    // Theorem 4.8's mapping (whose chase produces nulls): the unguarded
    // premises fire on null-carrying facts and the recovered instance
    // invents source rows, breaking exact inverse behaviour.
    let m = paper::thm_4_8();
    let guarded = inverse(&m).unwrap().unwrap();
    let mut texts = Vec::new();
    for d in &guarded.deps {
        let mut c = d.clone();
        c.constant.clear();
        c.neq.clear(); // inequalities were among constants
        texts.push(c.to_string());
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let stripped = ReverseMapping::parse(&m, &refs).unwrap();
    let i = Instance::parse(&m.source, "P(a,b) P(b,c)").unwrap();
    // U = {Q(a,N0), Q(N0,b), Q(b,N1), Q(N1,c)}. The guarded inverse
    // recovers exactly I; the stripped variant also fires on the pure
    // null chain Q(N0,b) ∧ Q(b,N1), inventing the row P(N0,N1) — not the
    // identity behaviour.
    let rt_guarded = round_trip(&m, &guarded, &i, Default::default()).unwrap();
    assert_eq!(rt_guarded.recovered[0], i);
    let rt_stripped = round_trip(&m, &stripped, &i, Default::default()).unwrap();
    assert_ne!(rt_stripped.recovered[0], i);
    assert!(rt_stripped.recovered[0].fact_count() > i.fact_count());
}

#[test]
fn lemma_4_4_bound_is_tight_enough() {
    // Capping MinGen below Lemma 4.4's s1·s2 bound loses generators: the
    // chain-join premise needs 2 atoms, a cap of 1 finds nothing.
    use quasi_inverse::core::{min_gen, MinGenOptions};
    let m = SchemaMapping::parse("A/2 B/2", "T/2", &["A(x,y) & B(y,z) -> T(x,z)"]).unwrap();
    let psi = vec![Atom::parse_parts(&m.target, "T", &["x", "z"]).unwrap()];
    let x = vec![Var::new("x"), Var::new("z")];
    let full = min_gen(&m, &psi, &x, &MinGenOptions::default()).unwrap();
    assert!(!full.is_empty());
    let capped = min_gen(
        &m,
        &psi,
        &x,
        &MinGenOptions {
            max_atoms: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(capped.is_empty(), "a 1-atom cap cannot express the join");
}

#[test]
fn restricted_chase_avoids_oblivious_blowup() {
    // The restricted chase's satisfaction probe is not an optimization
    // nicety: on premises whose conclusions overlap, the oblivious chase
    // materializes strictly more (hom-equivalent) facts.
    let m = SchemaMapping::parse(
        "P/1 Q/1",
        "S/2",
        &["P(x) -> exists y . S(x,y)", "Q(x) -> exists z . S(x,z)"],
    )
    .unwrap();
    let mut i = Instance::new(m.source.clone());
    for k in 0..5 {
        i.insert_consts("P", &[&format!("c{k}")]).unwrap();
        i.insert_consts("Q", &[&format!("c{k}")]).unwrap();
    }
    let restricted = m.chase(&i).unwrap();
    let oblivious = quasi_inverse::chase::chase_oblivious(&m.tgds, &i, &m.target)
        .unwrap()
        .instance;
    assert_eq!(restricted.fact_count(), 5);
    assert_eq!(oblivious.fact_count(), 10);
    assert!(hom_equivalent(&restricted, &oblivious));
}
