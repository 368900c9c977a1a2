//! Schema evolution with inverses and quasi-inverses (experiment E6).
//!
//! Scenario: a customer table is migrated to a new schema; later the
//! organization wants to roll data back. While the migration mapping is
//! invertible, the Inverse algorithm (§5) provides an exact rollback.
//! When the *source* schema is then extended with a new audit relation —
//! the robustness construction of §1 — the mapping stops being
//! invertible, yet the old inverse keeps working **as a quasi-inverse**
//! of the augmented mapping.
//!
//! ```sh
//! cargo run --release --example schema_evolution
//! ```

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;

fn main() {
    // v1 → v2 migration: split the customer name out of the order row.
    let m = SchemaMapping::parse(
        "Order/2",
        "OrderV2/2",
        &["Order(id,cust) -> OrderV2(id,cust)"],
    )
    .expect("valid mapping");
    println!("Migration mapping:\n{m}");

    // The mapping propagates constants, so the Inverse algorithm runs.
    assert!(constant_propagation_property(&m).expect("chase"));
    let rollback = inverse(&m)
        .expect("algorithm succeeds")
        .expect("constant propagation holds");
    println!("Computed rollback (Inverse algorithm, §5):\n{rollback}");

    // Exact rollback on real data.
    let i = Instance::parse(&m.source, "Order(o1,alice) Order(o2,bob)").expect("valid");
    let rt = round_trip(&m, &rollback, &i, Default::default()).expect("round trip");
    assert_eq!(rt.recovered.len(), 1);
    assert_eq!(rt.recovered[0], i, "an inverse recovers I exactly here");
    println!("Rollback of {{Order(o1,alice), Order(o2,bob)}} recovered the instance exactly.\n");

    // Verify inverse-ness exhaustively on a small closed universe.
    let universe = ground_instances(&m.source, &["a", "b"], 4);
    let report =
        is_inverse_bounded(&m, &rollback, &universe, &Budget::unlimited()).expect("verification");
    assert!(report.holds);
    println!(
        "Bounded Definition 3.3 check: {} pairs over a {}-instance universe — inverse confirmed.\n",
        report.checked,
        universe.len()
    );

    // ---- schema evolution: add an audit table to the SOURCE ----
    // §1: augmenting the source schema destroys invertibility (the audit
    // relation is not propagated at all), but every inverse of M remains
    // a QUASI-inverse of the augmented mapping.
    let m_aug = m
        .augment_source(&[("Audit", 1)])
        .expect("augmentation succeeds");
    println!("Augmented mapping (audit table added to the source):\n{m_aug}");
    assert!(
        !constant_propagation_property(&m_aug).expect("chase"),
        "audit values never reach the target ⇒ no inverse (Prop 5.3)"
    );

    // The old rollback, re-read over the augmented source schema.
    let rollback_aug = ReverseMapping::parse(
        &m_aug,
        &rollback
            .deps
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    )
    .expect("same dependencies over the augmented schemas");

    // It is no longer an inverse … but it verifies as a quasi-inverse.
    let universe_aug = ground_instances(&m_aug.source, &["a", "b"], 6);
    let inv_report = is_inverse_bounded(&m_aug, &rollback_aug, &universe_aug, &Budget::unlimited())
        .expect("verification");
    assert!(!inv_report.holds, "invertibility is destroyed");
    let qi_report =
        is_quasi_inverse_bounded(&m_aug, &rollback_aug, &universe_aug, &Budget::unlimited())
            .expect("verification");
    assert!(qi_report.holds, "…but quasi-invertibility survives (§1)");
    println!(
        "After evolution: inverse check fails ({} mismatches), quasi-inverse check holds\n\
         ({} pairs over a {}-instance universe) — the §1 robustness claim, observed.",
        inv_report.mismatches.len(),
        qi_report.checked,
        universe_aug.len()
    );
}
