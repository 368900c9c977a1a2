//! The paper catalogue (experiment E1): every named mapping of the paper,
//! confronted with the algorithms and the bounded verifiers.
//!
//! For each mapping the gallery reports:
//! * its syntactic class (LAV / full),
//! * the constant-propagation property (Definition 5.2 — necessary for
//!   invertibility, Proposition 5.3),
//! * the language features the computed quasi-inverse actually uses,
//! * bounded verification verdicts (quasi-inverse / inverse over a small
//!   exhaustive universe of ground instances), and
//! * the paper's claimed verdicts for comparison.
//!
//! ```sh
//! cargo run --release --example paper_gallery
//! ```

use quasi_inverse::core::enumerate::ground_instances;
use quasi_inverse::prelude::*;
use quasi_inverse::workloads::catalogue;

fn yesno(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn claimed(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "yes",
        Some(false) => "no",
        None => "—",
    }
}

fn main() {
    println!(
        "{:<14} {:>4} {:>4} {:>6} {:<28} {:>8} {:>8}   {:<18}",
        "mapping",
        "LAV",
        "full",
        "c-prop",
        "quasi-inverse language",
        "QI ok?",
        "inv ok?",
        "paper claims (inv/qi)"
    );
    println!("{}", "-".repeat(110));
    for entry in catalogue() {
        let m = &entry.mapping;
        let cprop = constant_propagation_property(m).expect("chase succeeds");
        // Run the QuasiInverse algorithm (budgeted).
        let qi = compute_quasi_inverse(m, &Default::default()).expect("algorithm succeeds");
        let features = qi.language_features().to_string();
        // Bounded verification over the exhaustive two-constant universe,
        // taken *union-closed* (every subset of the tuple universe):
        // Definition 3.8's witnesses for these mappings are unions and
        // subinstances over the same constants, so closure keeps the check
        // honest. Skipped when the tuple universe is too large (2^22
        // instances for example-4.5).
        let tuple_universe: usize = m
            .source
            .rel_ids()
            .map(|r| 2usize.pow(m.source.arity(r) as u32))
            .sum();
        let (qi_ok, inv_ok) = if tuple_universe <= 8 {
            let universe = ground_instances(&m.source, &["a", "b"], tuple_universe);
            let q = is_quasi_inverse_bounded(m, &qi, &universe, &Budget::unlimited())
                .expect("verification");
            let inv = inverse(m).expect("algorithm succeeds");
            let i_ok = match inv {
                Some(rev) => {
                    is_inverse_bounded(m, &rev, &universe, &Budget::unlimited())
                        .expect("verification")
                        .holds
                }
                None => false,
            };
            (yesno(q.holds), yesno(i_ok))
        } else {
            ("(skip)", "(skip)")
        };
        println!(
            "{:<14} {:>4} {:>4} {:>6} {:<28} {:>8} {:>8}   {}/{}",
            entry.name,
            yesno(m.is_lav()),
            yesno(m.is_full()),
            yesno(cprop),
            features,
            qi_ok,
            inv_ok,
            claimed(entry.verdict.invertible),
            claimed(entry.verdict.quasi_invertible),
        );
    }
    println!("{}", "-".repeat(110));
    println!("QI ok?  = the QuasiInverse algorithm's output verifies as a quasi-inverse");
    println!("          on the exhaustive two-constant universe (Definition 3.8, bounded).");
    println!("inv ok? = the Inverse algorithm produced output that verifies as an inverse");
    println!("          on the same universe (Definition 3.3, bounded).");
    println!("paper   = the verdicts claimed in the paper (invertible / quasi-invertible).");
}
