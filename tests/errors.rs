//! Failure-path coverage: every fallible API surfaces a typed error (or
//! a documented refusal) instead of panicking, misbehaving, or silently
//! truncating.

use quasi_inverse::chase::{disjunctive_chase, ChaseError, DisjChaseOptions};
use quasi_inverse::core::{min_gen, CoreError, MinGenOptions};
use quasi_inverse::lang::{parse_disj_tgd, parse_tgd, ConjunctiveQuery, LangError};
use quasi_inverse::prelude::*;
use quasi_inverse::schema::SchemaError;

#[test]
fn schema_errors() {
    assert!(matches!(
        Schema::new(&[("P", 2), ("P", 3)]),
        Err(SchemaError::DuplicateRelation(_))
    ));
    assert!(matches!(Schema::parse("P"), Err(SchemaError::Parse(_))));
    let s = Schema::parse("P/2").unwrap();
    assert!(matches!(
        s.rel_checked("Q"),
        Err(SchemaError::UnknownRelation(_))
    ));
}

#[test]
fn instance_errors() {
    let s = Schema::parse("P/2").unwrap();
    let mut i = Instance::new(s.clone());
    assert!(matches!(
        i.insert(s.rel("P").unwrap(), vec![Value::constant("a")]),
        Err(SchemaError::ArityMismatch { .. })
    ));
    let other = Instance::new(Schema::parse("Q/1").unwrap());
    assert!(matches!(i.union(&other), Err(SchemaError::SchemaMismatch)));
    assert!(Instance::parse(&s, "P(a").is_err());
    assert!(Instance::parse(&s, "P()").is_err());
}

#[test]
fn dependency_language_errors() {
    let s = Schema::parse("P/2").unwrap();
    let t = Schema::parse("Q/1").unwrap();
    assert!(matches!(
        parse_tgd(&s, &t, "P(x,y) ->"),
        Err(LangError::Parse(_))
    ));
    assert!(matches!(
        parse_tgd(&s, &t, "P(x,y) -> Q(w)"),
        Err(LangError::Invalid(_))
    ));
    assert!(matches!(
        parse_disj_tgd(&t, &s, "Q(x) -> P(x,y) | "),
        Err(LangError::Parse(_))
    ));
    assert!(ConjunctiveQuery::parse(&t, "no arrow here").is_err());
}

#[test]
fn mapping_construction_errors() {
    // tgds over foreign schemas rejected.
    let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
    let foreign = SchemaMapping::parse("Z/1", "W/1", &["Z(x) -> W(x)"]).unwrap();
    assert!(matches!(
        SchemaMapping::new(m.source.clone(), m.target.clone(), foreign.tgds.clone()),
        Err(CoreError::Precondition(_))
    ));
    assert!(matches!(
        ReverseMapping::new(m.target.clone(), m.source.clone(), {
            let r = ReverseMapping::parse(&foreign, &["W(x) -> Z(x)"]).unwrap();
            r.deps
        }),
        Err(CoreError::Precondition(_))
    ));
}

#[test]
fn chase_budget_is_a_typed_error() {
    let t = Schema::parse("S/1").unwrap();
    let s = Schema::parse("P/1 Q/1").unwrap();
    let dep = parse_disj_tgd(&t, &s, "S(x) -> P(x) | Q(x)").unwrap();
    let mut u = Instance::new(t);
    for k in 0..30 {
        u.insert_consts("S", &[&format!("c{k}")]).unwrap();
    }
    let result = disjunctive_chase(
        &[dep],
        &u,
        &Instance::new(s),
        DisjChaseOptions {
            max_nodes: 50,
            ..Default::default()
        },
    );
    assert!(matches!(result, Err(ChaseError::Budget { max_nodes: 50 })));
}

#[test]
fn mingen_budget_and_preconditions() {
    let m = SchemaMapping::parse("A/2 B/2", "T/2", &["A(x,y) & B(y,z) -> T(x,z)"]).unwrap();
    let psi = vec![Atom::parse_parts(&m.target, "T", &["x", "z"]).unwrap()];
    // Empty ψ.
    assert!(matches!(
        min_gen(&m, &[], &[], &MinGenOptions::default()),
        Err(CoreError::Precondition(_))
    ));
    // Frontier variable absent from ψ.
    assert!(matches!(
        min_gen(&m, &psi, &[Var::new("nope")], &MinGenOptions::default()),
        Err(CoreError::Precondition(_))
    ));
    // Budget.
    assert!(matches!(
        min_gen(
            &m,
            &psi,
            &[Var::new("x"), Var::new("z")],
            &MinGenOptions {
                max_candidates: 1,
                ..Default::default()
            }
        ),
        Err(CoreError::Budget(_))
    ));
}

#[test]
fn composition_preconditions() {
    let non_full = SchemaMapping::parse("P/1", "Q/2", &["P(x) -> exists y . Q(x,y)"]).unwrap();
    let m23 = SchemaMapping::parse("Q/2", "T/1", &["Q(x,y) -> T(x)"]).unwrap();
    assert!(matches!(
        compose(&non_full, &m23, &Default::default()),
        Err(CoreError::Precondition(_))
    ));
}

#[test]
fn composition_contains_requires_guard_completeness() {
    let m = SchemaMapping::parse("P/2", "Q/2", &["P(x,y) -> Q(x,y)"]).unwrap();
    let unguarded = ReverseMapping::parse(&m, &["Q(x,y) -> P(x,y)"]).unwrap();
    let i = Instance::new(m.source.clone());
    assert!(matches!(
        composition_contains(&m, &unguarded, &i, &i),
        Err(CoreError::Precondition(_))
    ));
    // And the bounded verifiers refuse the same way.
    let universe = quasi_inverse::core::enumerate::ground_instances(&m.source, &["a"], 1);
    assert!(is_inverse_bounded(&m, &unguarded, &universe, &Budget::unlimited()).is_err());
}

#[test]
fn roundtrip_budget_propagates() {
    // A wide disjunction on a large U must surface the chase budget.
    let m = SchemaMapping::parse("P/1 Q/1", "S/1", &["P(x) -> S(x)", "Q(x) -> S(x)"]).unwrap();
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let mut i = Instance::new(m.source.clone());
    for k in 0..25 {
        i.insert_consts("P", &[&format!("c{k}")]).unwrap();
    }
    let tight = DisjChaseOptions {
        max_nodes: 10,
        ..Default::default()
    };
    assert!(matches!(
        round_trip(&m, &rev, &i, tight),
        Err(CoreError::Chase(ChaseError::Budget { .. }))
    ));
}

#[test]
fn quasi_inverse_full_propagates_resource_errors() {
    use quasi_inverse::core::CorePartial;
    use quasi_inverse::exec::Exceeded;
    use std::time::Duration;
    // Full mapping, expired deadline: the structured resource error from
    // the underlying search must surface through `quasi_inverse_full`
    // unchanged — not be swallowed into an `Ok` with a guard-stripped
    // half result.
    let m = SchemaMapping::parse("P/3", "Q/2 R/2", &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
    let tight = QuasiInverseOptions {
        exec: quasi_inverse::exec::ExecConfig::default()
            .with_budget(Budget::unlimited().with_deadline(Duration::ZERO)),
        ..Default::default()
    };
    match quasi_inverse_full(&m, &tight) {
        Err(CoreError::Resource(r)) => {
            assert_eq!(r.exceeded, Exceeded::Deadline);
            // Whatever partial rode along stays well-formed: generators
            // carry source-schema atoms, never an empty conjunction.
            if let CorePartial::Generators(gs) = &r.partial {
                for g in gs {
                    assert!(!g.atoms.is_empty());
                }
            }
            assert!(r.to_string().contains("resource budget exhausted"));
        }
        other => panic!("expected a structured resource error, got {other:?}"),
    }
    // The fragment rejection is decided before any search runs, so it
    // wins even over an already-expired budget.
    let non_full = SchemaMapping::parse("P/1", "Q/2", &["P(x) -> exists y . Q(x,y)"]).unwrap();
    assert!(matches!(
        quasi_inverse_full(&non_full, &tight),
        Err(CoreError::Rejected(_))
    ));
    // And an unlimited budget still yields the guard-free output.
    let rev = quasi_inverse_full(&m, &QuasiInverseOptions::default()).unwrap();
    assert!(rev.deps.iter().all(|d| d.constant.is_empty()));
}

#[test]
fn quasi_inverse_lav_budget_is_a_structured_resource_error() {
    use quasi_inverse::exec::Exceeded;
    use std::time::Duration;
    let m = SchemaMapping::parse("P/2", "Q/2", &["P(x,y) -> Q(x,y)"]).unwrap();
    let tight = QuasiInverseOptions {
        exec: quasi_inverse::exec::ExecConfig::default()
            .with_budget(Budget::unlimited().with_deadline(Duration::ZERO)),
        ..Default::default()
    };
    match quasi_inverse::core::quasi_inverse_lav_with(&m, &tight) {
        Err(CoreError::Resource(r)) => assert_eq!(r.exceeded, Exceeded::Deadline),
        other => panic!("expected a structured resource error, got {other:?}"),
    }
}

#[test]
fn containment_budget_trips_are_structured_resource_errors() {
    use quasi_inverse::core::{mapping_contains_with_stats, reverse_contains_with_stats};
    use std::time::Duration;
    let m = SchemaMapping::parse("P/2", "Q/1", &["P(x,y) -> Q(x)"]).unwrap();
    let expired = Budget::unlimited().with_deadline(Duration::ZERO);
    assert!(matches!(
        mapping_contains_with_stats(&m, &m, &expired),
        Err(CoreError::Resource(_))
    ));
    let rev = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    assert!(matches!(
        reverse_contains_with_stats(&rev, &rev, &expired),
        Err(CoreError::Resource(_))
    ));
    // An unlimited budget decides both, and both directions hold.
    let (verdict, _) = mapping_contains_with_stats(&m, &m, &Budget::unlimited()).unwrap();
    assert!(verdict.holds());
    let (verdict, _) = reverse_contains_with_stats(&rev, &rev, &Budget::unlimited()).unwrap();
    assert!(verdict.holds());
}

#[test]
fn reverse_containment_near_budget_trips_are_typed_and_claim_nothing() {
    use quasi_inverse::core::{reverse_contains_with_stats, CorePartial};
    use quasi_inverse::exec::Exceeded;
    // Guard-completeness does not require guarding premise variables
    // that never reach the conclusion, so this outer is accepted even
    // though `x,y,z` carry no constant guards — and every
    // Bell-partition equality type of the three then spawns its own
    // frozen-premise chase. That is exactly the exponential path a
    // budget must be able to interrupt with a typed error rather than
    // a panic or a made-up verdict.
    let m = SchemaMapping::parse("P/3", "Q/3", &["P(x,y,z) -> Q(x,y,z)"]).unwrap();
    let outer = ReverseMapping::parse(&m, &["Q(x,y,z) -> exists u . P(u,u,u)"]).unwrap();
    let inner = quasi_inverse::core::quasi_inverse(&m, &Default::default()).unwrap();
    let reference = reverse_contains_with_stats(&outer, &inner, &Budget::unlimited())
        .unwrap()
        .0
        .holds();
    // A zero-task cap trips the containment loop's own checkpoint
    // before any chase runs: typed, and the partial claims nothing.
    match reverse_contains_with_stats(&outer, &inner, &Budget::unlimited().with_max_tasks(0)) {
        Err(CoreError::Resource(r)) => {
            assert_eq!(r.exceeded, Exceeded::Tasks);
            assert!(matches!(r.partial, CorePartial::None));
            assert!(r.to_string().contains("resource budget exhausted"));
        }
        other => panic!("expected a structured resource error, got {other:?}"),
    }
    // Walking the cap upward crosses the trip point wherever it falls
    // (past the first equality type the trip may surface from inside a
    // chase rather than from the containment loop): every under-budget
    // run is still a typed resource error, and the first run that
    // completes agrees with the unlimited reference.
    let mut completed = false;
    let mut cap = 0u64;
    while cap <= 1 << 20 {
        let budget = Budget::unlimited().with_max_tasks(cap);
        match reverse_contains_with_stats(&outer, &inner, &budget) {
            Err(CoreError::Resource(r)) => assert_eq!(r.exceeded, Exceeded::Tasks),
            Ok((verdict, _)) => {
                assert_eq!(verdict.holds(), reference);
                completed = true;
                break;
            }
            other => panic!("unexpected outcome at cap {cap}: {other:?}"),
        }
        cap = if cap == 0 { 1 } else { cap * 2 };
    }
    assert!(completed, "no task cap up to 2^20 completed the check");
}

#[test]
fn errors_format_reasonably() {
    let e = CoreError::Precondition("something".into());
    assert!(e.to_string().contains("something"));
    let e: CoreError = ChaseError::Budget { max_nodes: 7 }.into();
    assert!(e.to_string().contains('7'));
    let e: CoreError = SchemaError::SchemaMismatch.into();
    assert!(!e.to_string().is_empty());
    let e: CoreError = LangError::Parse("x".into()).into();
    assert!(e.to_string().contains('x'));
}
