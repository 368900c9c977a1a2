//! # quasi-inverse — *Quasi-inverses of Schema Mappings*, in Rust
//!
//! A complete, from-scratch reproduction of Fagin, Kolaitis, Popa and
//! Tan's PODS 2007 paper: schema mappings specified by source-to-target
//! tgds, the data-exchange chase, the disjunctive chase with constants
//! and inequalities, the `(~1,~2)`-inverse framework, and the paper's
//! three algorithms — **MinGen**, **QuasiInverse**, **Inverse** —
//! together with the soundness / faithfulness machinery of §6.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable paths.
//!
//! ```
//! use quasi_inverse::prelude::{
//!     compute_quasi_inverse, equivalent, round_trip, Instance, SchemaMapping,
//! };
//!
//! // The paper's Decomposition mapping (§1, Example 3.10, Figure 1).
//! let m = SchemaMapping::parse("P/3", "Q/2 R/2",
//!     &["P(x,y,z) -> Q(x,y) & R(y,z)"]).unwrap();
//!
//! // It has no inverse — the unique-solutions property fails: the two
//! // instances of Example 3.10 share their whole solution space …
//! let i1 = Instance::parse(&m.source, "P(c0,c0,c0) P(c0,c0,c1) P(c1,c0,c0)").unwrap();
//! let i2 = i1.union(&Instance::parse(&m.source, "P(c1,c0,c1)").unwrap()).unwrap();
//! assert!(equivalent(&m, &i1, &i2).unwrap());
//!
//! // … but the QuasiInverse algorithm produces a quasi-inverse:
//! let rev = compute_quasi_inverse(&m, &Default::default()).unwrap();
//!
//! // which recovers data-exchange-equivalent sources (Theorem 6.8):
//! let i = Instance::parse(&m.source, "P(a,b,c) P(a2,b,c2)").unwrap();
//! let rt = round_trip(&m, &rev, &i, Default::default()).unwrap();
//! assert!(rt.is_faithful());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qi_analyze as analyze;
pub use qi_chase as chase;
pub use qi_core as core;
pub use qi_exec as exec;
pub use qi_lang as lang;
pub use qi_schema as schema;
pub use qi_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use qi_analyze::{
        analyze_text, is_weakly_acyclic, Diagnostic, Diagnostics, TerminationCertificate,
    };
    pub use qi_chase::{
        chase, chase_with_guards, chase_with_target_deps, chase_with_target_deps_stats,
        disjunctive_chase, is_generator, is_solution, is_universal_solution, so_chase,
        ChaseStrategy, DisjChaseOptions, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
        TargetChaseStats,
    };
    // `quasi_inverse` (the function) is re-exported as
    // `compute_quasi_inverse` so that a glob import of this prelude does
    // not shadow the `quasi_inverse` crate name itself.
    pub use qi_chase::{ChasePartial, ResourceError};
    pub use qi_core::quasi_inverse as compute_quasi_inverse;
    pub use qi_core::{
        compose, composition_contains, composition_membership, constant_propagation_property,
        equivalent, inverse, is_inverse_bounded, is_quasi_inverse_bounded, min_gen,
        minimize_disjuncts, round_trip, sigma_star, solutions_subset, subset_property_bounded,
        union_witness_subset_property, unique_solutions_bounded, CoreError, CorePartial,
        CoreResourceError, MinGenOptions, QuasiInverseOptions, Relation, ReverseMapping, RoundTrip,
        SchemaMapping,
    };
    pub use qi_core::{
        is_maximum_recovery_bounded, is_recovery_bounded, is_recovery_on, mapping_contains,
        mapping_equivalent, maximum_recovery, reverse_contains, reverse_equivalent,
        ContainmentVerdict, ContainmentWitness, RecoveryReport,
    };
    pub use qi_core::{quasi_inverse_full, quasi_inverse_lav, so_compose};
    pub use qi_exec::{Budget, Exceeded, ExecConfig, ExecStats, Parallelism, Planning};
    pub use qi_lang::{
        parse_disj_tgd, parse_egd, parse_tgd, skolemize, Atom, DisjTgd, Egd, SoTgd, Tgd, Var,
    };
    pub use qi_schema::{
        core_of, find_hom, has_hom, hom_equivalent, is_isomorphic, Instance, Schema, Value,
    };
}
