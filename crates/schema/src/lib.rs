//! # qi-schema — relational substrate for schema-mapping research
//!
//! This crate implements the data model of *Quasi-inverses of Schema
//! Mappings* (Fagin, Kolaitis, Popa, Tan; PODS 2007), §2 "Preliminaries":
//!
//! * **Schemas** — finite sequences of relation symbols with fixed arities
//!   ([`Schema`], [`RelId`]).
//! * **Values** — the two disjoint infinite sorts of the paper: constants
//!   (`Const`) and labeled nulls (`Var` in the paper, [`Value::Null`] here).
//!   Constants are interned process-wide so equality is an integer compare.
//! * **Instances** — finite relational structures over `Const ∪ Var`
//!   ([`Instance`]), with *ground* instances (null-free) as the special case
//!   the paper focuses on for sources.
//! * **Homomorphisms** — functions `h : Const ∪ Var → Const ∪ Var` fixing
//!   every constant and mapping facts to facts ([`hom`]). Homomorphic
//!   equivalence, cores ([`core_of()`]), and isomorphism ([`iso`]) are built
//!   on a small backtracking pattern-matching engine that the chase crate
//!   reuses for trigger enumeration.
//!
//! The crate is deliberately free of any dependency-language or chase
//! machinery; those live in `qi-lang` and `qi-chase`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod core_delta;
pub mod core_of;
pub mod data;
pub mod diff;
pub mod error;
pub mod fact;
pub mod hom;
pub mod homcache;
pub mod instance;
pub mod iso;
pub mod plan;
pub mod schema;
pub mod store;
pub mod value;

pub use brute::{brute_force_matches, engine_matches};
pub use core_delta::{core_delta, CoreDeltaPath, CoreDeltaStats};
#[cfg(any(test, feature = "greedy-core"))]
pub use core_of::core_of_greedy;
pub use core_of::{core_of, core_of_with_stats, CoreStats};
pub use diff::Diff;
pub use error::SchemaError;
pub use fact::Fact;
pub use hom::{
    find_hom, has_hom, hom_equivalent, hom_refuted_quick, Assignment, MatchConstraints,
    MatchCounters, MatchEngine, PatFact, PatTerm, Pattern, VarIdx,
};
pub use homcache::HomCache;
pub use instance::Instance;
pub use iso::is_isomorphic;
pub use plan::{
    atom_var_sets, build_prefilter, greedy_order, plan_pattern, planning_enabled,
    planning_enabled_for, JoinPlan, Prefilter, StaticCosts,
};
pub use schema::{RelId, RelSym, Schema};
pub use store::{Change, ChangeEntry, FactStore, TupleId};
pub use value::{ConstId, NullId, Value};
