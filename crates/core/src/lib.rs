//! # qi-core — quasi-inverses of schema mappings
//!
//! The primary contribution of *Quasi-inverses of Schema Mappings*
//! (Fagin, Kolaitis, Popa, Tan; PODS 2007), implemented end to end:
//!
//! * [`mapping`] — schema mappings `M = (S, T, Σ)` specified by finite
//!   sets of s-t tgds, and reverse mappings `M' = (T, S, Σ')` specified by
//!   disjunctive tgds with constants and inequalities;
//! * [`solutions`] — solution spaces `Sol(M, I)`, solution-space
//!   containment, and the equivalence relation `~M` (§3), all reduced to
//!   homomorphism tests between chase results;
//! * [`framework`] — the unifying `(~1,~2)`-inverse framework:
//!   `D[~1,~2]`, the `(~1,~2)`-subset property (Definition 3.4), the
//!   unique-solutions property, and bounded checkers over finite instance
//!   universes;
//! * [`enumerate`] — exhaustive enumeration of ground instances over a
//!   finite constant pool (the universes the bounded checkers quantify
//!   over);
//! * [`mingen`] — Algorithm **MinGen**: exhaustive search for minimal
//!   generators (Definition 4.2, Lemma 4.4);
//! * [`mod@sigma_star`] — the `Σ*` construction via complete descriptions;
//! * [`mod@quasi_inverse`] — Algorithm **QuasiInverse** (Theorem 4.1) plus
//!   the implied-disjunct minimization of Example 4.5;
//! * [`mod@inverse`] — Algorithm **Inverse** (Theorem 5.1): the
//!   constant-propagation property, prime atoms, and the `ω(Σ, I_α)`
//!   dependencies;
//! * [`lint`] — the semantic lints QI014/QI015: chase-based
//!   invertibility preconditions reported through `qi-analyze`'s
//!   diagnostic vocabulary;
//! * [`exchange`] — §6: forward/backward data exchange, the
//!   chase-of-the-chase composition membership test (Proposition 6.6),
//!   and the soundness / faithfulness certificates of Definition 6.5;
//! * [`verify`] — bounded verification of Definitions 3.3/3.8 (whether a
//!   candidate reverse mapping is an inverse / quasi-inverse over a finite
//!   universe of ground instances);
//! * [`containment`] — mapping containment and equivalence
//!   (`Inst(M_B) ⊆ Inst(M_A)`) for forward and reverse mappings, with
//!   structured counterexample witnesses;
//! * [`recovery`] — maximum recoveries (Arenas–Pérez–Riveros): the total
//!   construction for s-t tgd mappings plus exact per-instance and
//!   bounded-universe recovery/maximality checks.
//!
//! ### Exact vs bounded
//!
//! Everything that the paper reduces to the chase is **exact** here
//! (chase, generator tests, `~M`, soundness/faithfulness per instance,
//! composition membership for guard-complete reverse mappings). The
//! properties that quantify over *all* ground instances — whose
//! decidability the paper explicitly leaves open (§7) — are provided as
//! `*_bounded` checkers that exhaustively quantify over a caller-supplied
//! finite universe and return witness structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod containment;
pub mod enumerate;
pub mod error;
pub mod exchange;
pub mod framework;
pub mod inverse;
pub mod lint;
pub mod mapping;
pub mod mingen;
pub mod quasi_inverse;
pub mod recovery;
pub mod sigma_star;
pub mod so_compose;
pub mod solutions;
pub mod verify;

pub use compose::{compose, composition_membership};
pub use containment::{
    mapping_contains, mapping_contains_with_exec, mapping_contains_with_stats, mapping_equivalent,
    reverse_contains, reverse_contains_with_exec, reverse_contains_with_stats, reverse_equivalent,
    ContainmentVerdict, ContainmentWitness,
};
pub use error::{CoreError, CorePartial, CoreResourceError};
pub use exchange::{composition_contains, round_trip, RoundTrip};
pub use framework::{
    relate_mod, subset_property_bounded, union_witness_subset_property, unique_solutions_bounded,
    Relation, SubsetPropertyReport,
};
pub use inverse::{constant_propagation_property, inverse, prime_atoms};
pub use lint::{
    constant_propagation_diagnostic, semantic_lints, subset_property_diagnostic, subsumption_lints,
};
pub use mapping::{ReverseMapping, SchemaMapping};
pub use mingen::{min_gen, min_gen_with_stats, Generator, MinGenOptions, MinGenOutcome};
pub use quasi_inverse::{
    minimize_disjuncts, quasi_inverse, quasi_inverse_full, quasi_inverse_lav,
    quasi_inverse_lav_with, quasi_inverse_with_stats, QuasiInverseOptions,
};
pub use recovery::{
    is_maximum_recovery_bounded, is_recovery_bounded, is_recovery_on, maximum_recovery,
    maximum_recovery_with_stats, RecoveryReport,
};
pub use sigma_star::sigma_star;
pub use so_compose::so_compose;
pub use solutions::{equivalent, solutions_subset};
pub use verify::{
    is_inverse_bounded, is_quasi_inverse_bounded, is_relaxed_inverse_bounded, VerifyReport,
};
