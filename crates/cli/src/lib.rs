//! # qi-cli — the `qimap` command
//!
//! A thin, dependency-free command-line front end over the library:
//!
//! ```text
//! qimap check        <mapping-file>                classify + verify
//! qimap lint [--json] <mapping-file>               static analysis (QI001…)
//! qimap analyze [--cost] [--json] <mapping-file>   abstract chase + cost model
//! qimap quasi-inverse <mapping-file>               run Algorithm QuasiInverse
//! qimap inverse      <mapping-file>                run Algorithm Inverse
//! qimap chase        <mapping-file> <instance>     forward exchange
//! qimap rechase --diff <diff-file> <mapping-file> <instance>
//!                                                  incremental re-chase
//! qimap roundtrip    <mapping-file> <instance>     Figure-1 style round trip
//! qimap compose      <mapping-file> <mapping-file> composition operator
//! qimap recover      <mapping-file>                maximum recovery
//! qimap contains     <mapping-file> <mapping-file> mapping containment
//! ```
//!
//! ## Mapping file format
//!
//! ```text
//! # comment lines start with '#'
//! source: Emp/3
//! target: WorksIn/2 LocatedIn/2
//! tgd: Emp(n,d,c) -> WorksIn(n,d) & LocatedIn(d,c)
//! tgd: ...
//! # optional target dependencies (used by `chase`, reported by `check`):
//! target-tgd: WorksIn(n,d) & WorksIn(n,e) -> WorksIn(n,d)
//! egd: LocatedIn(d,c1) & LocatedIn(d,c2) -> c1 = c2
//! # optional reverse (target-to-source) dependencies, linted by `lint`:
//! reverse: WorksIn(n,d) & const(n) -> exists c . Emp(n,d,c)
//! ```
//!
//! File handling is built on [`qi_analyze::analyze_text`]: every command
//! rejects files with `Error`-severity diagnostics, and `qimap lint`
//! reports the full diagnostic list (stable `QI001`–`QI023` codes,
//! including the chase-based QI018 subsumption lint from `qi-core`) as
//! text or JSON. `qimap analyze` adds the abstract-chase summary and —
//! with `--cost` — the static cost model consumed by join planners.
//!
//! Instances are given inline using the literal syntax of
//! [`qi_schema::Instance::parse`], e.g. `"Emp(a,b,c) Emp(d,b,e)"`.
//!
//! All command logic lives in this library (returning strings) so the
//! binary stays a two-line dispatcher and the behaviour is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qi_analyze::{analyze_text, Analysis, Severity};
use qi_chase::{
    chase_delta, chase_incremental, chase_with_target_deps_stats, DeltaChaseOptions,
    ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use qi_core::enumerate::ground_instances;
use qi_core::{
    constant_propagation_property, inverse, is_inverse_bounded, is_quasi_inverse_bounded,
    mapping_contains_with_exec, maximum_recovery_with_stats, quasi_inverse,
    quasi_inverse_with_stats, round_trip, semantic_lints, subsumption_lints, ContainmentVerdict,
    QuasiInverseOptions, SchemaMapping,
};
use qi_exec::{Budget, ExecConfig, Parallelism, Planning};
use qi_lang::{Egd, Tgd};
use qi_schema::{core_of_with_stats, Diff, Instance};
use std::fmt::Write as _;
use std::time::Duration;

pub mod serve;

/// A CLI failure: message for stderr, nonzero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// A parsed mapping file: the s-t mapping plus optional target
/// dependencies (`target-tgd:` and `egd:` lines).
pub struct MappingFile {
    /// The source-to-target mapping.
    pub mapping: SchemaMapping,
    /// Target tgds (may be empty).
    pub target_tgds: Vec<Tgd>,
    /// Target egds (may be empty).
    pub egds: Vec<Egd>,
    /// The analyzer's termination certificate for the target
    /// dependencies, already refined over the abstract chase's live
    /// tgds when that pass converged. `chase` hands it to the engine so
    /// the step budget is the tight one.
    pub certificate: Option<qi_analyze::TerminationCertificate>,
}

impl MappingFile {
    /// Does the file declare target dependencies?
    pub fn has_target_deps(&self) -> bool {
        !self.target_tgds.is_empty() || !self.egds.is_empty()
    }

    /// The full exchange setting.
    pub fn setting(&self) -> ExchangeSetting {
        ExchangeSetting {
            st_tgds: self.mapping.tgds.clone(),
            target_tgds: self.target_tgds.clone(),
            egds: self.egds.clone(),
        }
    }
}

/// Render the `Error`-severity findings of an analysis as a `CliError`
/// (one `file:line:col: error[QIxxx]: …` line each).
fn errors_to_cli(analysis: &Analysis, path: &str) -> CliError {
    let lines: Vec<String> = analysis
        .diagnostics
        .items
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.render_text(path))
        .collect();
    err(lines.join("\n"))
}

/// Convert a static analysis into the executable `MappingFile`,
/// rejecting when any `Error`-severity diagnostic fired.
fn mapping_file_of(analysis: Analysis, path: &str) -> Result<MappingFile, CliError> {
    if analysis.diagnostics.has_errors() {
        return Err(errors_to_cli(&analysis, path));
    }
    let certificate = analysis.certificate;
    let parts = analysis.parts;
    let (source, target) = (
        parts.source.expect("no errors ⇒ source schema resolved"),
        parts.target.expect("no errors ⇒ target schema resolved"),
    );
    let mapping =
        SchemaMapping::new(source, target, parts.st_tgds).map_err(|e| err(e.to_string()))?;
    Ok(MappingFile {
        mapping,
        target_tgds: parts.target_tgds,
        egds: parts.egds,
        certificate,
    })
}

/// Parse the mapping file format described in the crate docs. Built on
/// [`qi_analyze::analyze_text`]; fails iff the analyzer reports an
/// `Error`-severity diagnostic, with one rendered finding per line.
pub fn parse_mapping_file(text: &str) -> Result<MappingFile, CliError> {
    mapping_file_of(analyze_text(text), "mapping")
}

/// `qimap lint`: run the static analyzer — plus the chase-based QI018
/// subsumption lint on well-formed files — and render every finding, as
/// human-readable text or as a JSON document (`--json`). Errors (exit 1)
/// iff any `Error`-severity diagnostic fired, with the same rendering as
/// the message.
pub fn cmd_lint(path: &str, text: &str, json: bool) -> Result<String, CliError> {
    let mut analysis = analyze_text(text);
    // QI018 needs the executable mapping (it chases singleton
    // sub-mappings), so it only runs once the static pass is clean.
    if !analysis.diagnostics.has_errors() {
        if let (Some(source), Some(target)) = (&analysis.parts.source, &analysis.parts.target) {
            let m = SchemaMapping::new(
                source.clone(),
                target.clone(),
                analysis.parts.st_tgds.clone(),
            )
            .map_err(|e| err(e.to_string()))?;
            let subsumed =
                subsumption_lints(&m, &Budget::unlimited()).map_err(|e| err(e.to_string()))?;
            analysis.diagnostics.extend(subsumed);
            analysis.diagnostics.sort_canonical();
        }
    }
    let rendered = if json {
        analysis.diagnostics.render_json(path)
    } else {
        analysis.diagnostics.render_text(path)
    };
    if analysis.diagnostics.has_errors() {
        Err(err(rendered))
    } else {
        Ok(rendered)
    }
}

/// `qimap analyze`: the semantic layer on top of `lint` — report what
/// the abstract chase of the critical instance proved about the mapping
/// (convergence, null depths, the refined termination budget) and, with
/// `--cost`, the static cost model (per-relation cardinality polynomials
/// and selectivities) that a cost-based join planner would consume. With
/// `--json` the diagnostics and the cost model come back as one JSON
/// document. Errors (exit 1) iff any `Error`-severity diagnostic fired.
pub fn cmd_analyze(path: &str, text: &str, cost: bool, json: bool) -> Result<String, CliError> {
    let analysis = analyze_text(text);
    if analysis.diagnostics.has_errors() {
        return Err(err(if json {
            analysis.diagnostics.render_json(path)
        } else {
            analysis.diagnostics.render_text(path)
        }));
    }
    if json {
        let mut out = analysis.diagnostics.render_json(path);
        if cost {
            if let Some(cm) = &analysis.cost {
                // Splice `"cost_model":{…}` into the diagnostics
                // document: both renderers emit a single top-level
                // object, so drop the outer braces of one.
                let body = out.trim_end().to_owned();
                let body = body.strip_suffix('}').expect("render_json emits an object");
                let cm_doc = cm.render_json();
                let cm_inner = cm_doc
                    .trim_end()
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                    .expect("render_json emits an object");
                out = format!("{body},{cm_inner}}}\n");
            }
        }
        return Ok(out);
    }
    let mut out = String::new();
    let parts = &analysis.parts;
    let _ = writeln!(
        out,
        "dependencies: {} s-t tgd(s), {} target tgd(s), {} egd(s)",
        parts.st_tgds.len(),
        parts.target_tgds.len(),
        parts.egds.len()
    );
    if let Some(cm) = &analysis.cost {
        let _ = writeln!(
            out,
            "abstract chase: {} after {} round(s), {} abstract fact(s)",
            if cm.converged {
                "converged"
            } else {
                "did NOT converge (budget hit)"
            },
            cm.rounds,
            cm.total_abstract_facts
        );
    } else {
        let _ = writeln!(out, "abstract chase: not run (no well-formed s-t tgds)");
    }
    match &analysis.certificate {
        Some(cert) => {
            let _ = writeln!(
                out,
                "termination: certified — max position rank {}; from 4 active-domain values: \
                 step budget {}, fact bound {}",
                cert.max_rank,
                cert.step_budget(4),
                cert.fact_bound(4)
            );
        }
        None if !parts.target_tgds.is_empty() => {
            let _ = writeln!(
                out,
                "termination: NOT certified (the live target tgds are not weakly acyclic)"
            );
        }
        None => {}
    }
    if cost {
        if let Some(cm) = &analysis.cost {
            let _ = writeln!(out, "cost model (bounds at n = 4 source values):");
            for (i, r) in cm.rels.iter().enumerate() {
                let (num, den) = cm.selectivity(i);
                let _ = writeln!(
                    out,
                    "  {}/{}: abstract card {}, selectivity {num}/{den}, cardinality bound {}",
                    r.name,
                    r.arity,
                    r.abstract_card,
                    cm.cardinality_bound(i, 4)
                );
            }
            if !cm.tgd_plans.is_empty() {
                let _ = writeln!(out, "join orders (greedy, static estimates):");
                for p in &cm.tgd_plans {
                    let order: Vec<String> = p.order.iter().map(ToString::to_string).collect();
                    let _ = writeln!(
                        out,
                        "  [{}] {}: atoms [{}], est cost {}",
                        p.stage,
                        p.tgd,
                        order.join(" "),
                        p.est_cost
                    );
                }
            }
        }
    }
    out.push_str(&analysis.diagnostics.render_text(path));
    Ok(out)
}

/// `qimap check`: static analysis, classification, constant propagation,
/// and — when the two-constant tuple universe is small — bounded
/// verification of the algorithms' outputs.
pub fn cmd_check(mapping_text: &str) -> Result<String, CliError> {
    let analysis = analyze_text(mapping_text);
    let findings = analysis.diagnostics.items.clone();
    let certificate = analysis.certificate.clone();
    let mf = mapping_file_of(analysis, "mapping")?;
    let m = &mf.mapping;
    let mut out = String::new();
    let _ = writeln!(out, "{m}");
    let _ = writeln!(out, "LAV:                  {}", m.is_lav());
    let _ = writeln!(out, "full:                 {}", m.is_full());
    let cprop = constant_propagation_property(m).map_err(|e| err(e.to_string()))?;
    let _ = writeln!(out, "constant propagation: {cprop}");
    if mf.has_target_deps() {
        let _ = writeln!(
            out,
            "target dependencies:  {} tgd(s), {} egd(s); weakly acyclic: {}",
            mf.target_tgds.len(),
            mf.egds.len(),
            mf.target_tgds.is_empty() || certificate.is_some()
        );
        if let Some(cert) = &certificate {
            let _ = writeln!(
                out,
                "termination certificate: max position rank {}; e.g. step budget {} from 4 \
                 active-domain values",
                cert.max_rank,
                cert.step_budget(4)
            );
        }
        let _ = writeln!(
            out,
            "note: the (quasi-)inverse algorithms below treat the mapping as plain s-t tgds"
        );
    }
    if m.is_lav() {
        let _ = writeln!(out, "quasi-invertible:     yes (LAV — Proposition 3.11)");
    }
    if !cprop {
        let _ = writeln!(out, "invertible:           no (Proposition 5.3)");
    }
    let qi = quasi_inverse(m, &QuasiInverseOptions::default()).map_err(|e| err(e.to_string()))?;
    let _ = writeln!(out, "quasi-inverse language: {}", qi.language_features());
    let tuples: usize = m
        .source
        .rel_ids()
        .map(|r| 2usize.pow(m.source.arity(r) as u32))
        .sum();
    if tuples <= 8 {
        let universe = ground_instances(&m.source, &["a", "b"], tuples);
        let q = is_quasi_inverse_bounded(m, &qi, &universe, &Budget::unlimited())
            .map_err(|e| err(e.to_string()))?;
        let _ = writeln!(
            out,
            "bounded quasi-inverse check ({} instances): {}",
            universe.len(),
            if q.holds { "holds" } else { "FAILS" }
        );
        if let Some(inv) = inverse(m).map_err(|e| err(e.to_string()))? {
            let r = is_inverse_bounded(m, &inv, &universe, &Budget::unlimited())
                .map_err(|e| err(e.to_string()))?;
            let _ = writeln!(
                out,
                "bounded inverse check ({} instances):       {}",
                universe.len(),
                if r.holds { "holds" } else { "FAILS" }
            );
        }
    } else {
        let _ = writeln!(
            out,
            "bounded verification skipped (tuple universe of size {tuples} > 8)"
        );
    }
    let mut lint_lines: Vec<String> = findings.iter().map(|d| d.render_text("mapping")).collect();
    if tuples <= 8 {
        // The chase-based lints (QI014/QI015/QI018) run on the same
        // small universes as the bounded verification above.
        for d in semantic_lints(m).map_err(|e| err(e.to_string()))? {
            lint_lines.push(d.render_text("mapping"));
        }
    } else {
        // Subsumption chases one frozen body per tgd pair — cheap even
        // when the tuple universe is too big for the bounded checks.
        for d in subsumption_lints(m, &Budget::unlimited()).map_err(|e| err(e.to_string()))? {
            lint_lines.push(d.render_text("mapping"));
        }
    }
    if !lint_lines.is_empty() {
        let _ = writeln!(out, "lints:");
        for l in lint_lines {
            let _ = writeln!(out, "  {l}");
        }
    }
    Ok(out)
}

/// `qimap quasi-inverse`: run Algorithm QuasiInverse and print the
/// result. With `--stats`, append the aggregated MinGen search counters
/// and — when a budget flag is set — the budget outcome counters.
pub fn cmd_quasi_inverse(
    mapping_text: &str,
    stats: bool,
    exec: &ExecConfig,
) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    Ok(quasi_inverse_loaded(&mf, stats, exec)?.0)
}

/// [`cmd_quasi_inverse`] over an already-parsed [`MappingFile`] — the
/// serve registry's fast path. Output is byte-identical to the one-shot
/// command; the returned [`qi_exec::ExecStats`] feed the `/metrics`
/// aggregates.
pub fn quasi_inverse_loaded(
    mf: &MappingFile,
    stats: bool,
    exec: &ExecConfig,
) -> Result<(String, qi_exec::ExecStats), CliError> {
    let budget = &exec.budget;
    let options = QuasiInverseOptions {
        exec: exec.clone(),
        ..Default::default()
    };
    let (rev, s) =
        quasi_inverse_with_stats(&mf.mapping, &options).map_err(|e| err(e.to_string()))?;
    if !stats {
        return Ok((rev.to_string(), s));
    }
    let mut out = rev.to_string();
    let _ = writeln!(out, "stats: {} chase task(s)", s.tasks);
    let _ = writeln!(
        out,
        "plan stats: {} plan(s) applied, {} prefilter hit(s), {} morsel(s) dispatched",
        s.plans_applied, s.prefilter_hits, s.morsels
    );
    if !budget.is_unlimited() {
        let _ = writeln!(
            out,
            "budget: within limits — {} executor task(s) and {} derived fact(s) charged",
            budget.tasks_charged(),
            budget.facts_charged()
        );
    }
    Ok((out, s))
}

/// `qimap inverse`: run Algorithm Inverse; reports the
/// constant-propagation failure when the algorithm halts without output.
pub fn cmd_inverse(mapping_text: &str) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    match inverse(&mf.mapping).map_err(|e| err(e.to_string()))? {
        Some(rev) => Ok(rev.to_string()),
        None => Ok(
            "no output: the mapping fails the constant-propagation property \
             (Definition 5.2), hence has no inverse (Proposition 5.3)\n"
                .to_owned(),
        ),
    }
}

/// `qimap chase`: forward data exchange of an inline instance literal.
/// When the mapping file declares target dependencies (`target-tgd:` /
/// `egd:` lines), the full-setting chase runs, including egd repairs and
/// failure detection. With `--stats`, the core of the solution is also
/// computed and the core-computation counters printed.
pub fn cmd_chase(
    mapping_text: &str,
    instance_literal: &str,
    stats: bool,
    exec: &ExecConfig,
) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    Ok(chase_loaded(&mf, instance_literal, stats, exec)?.0)
}

/// [`cmd_chase`] over an already-parsed [`MappingFile`] — the serve
/// registry's fast path. Output is byte-identical to the one-shot
/// command.
pub fn chase_loaded(
    mf: &MappingFile,
    instance_literal: &str,
    stats: bool,
    exec: &ExecConfig,
) -> Result<(String, qi_exec::ExecStats), CliError> {
    let m = &mf.mapping;
    let budget = &exec.budget;
    let i = Instance::parse(&m.source, instance_literal)
        .map_err(|e| err(format!("invalid instance: {e}")))?;
    let exec_stats;
    let u = if mf.has_target_deps() {
        // An explicit resource budget replaces the step-count safety
        // net: the user asked for wall-clock/task/fact guardrails, and
        // the non-certified fallback step cap could otherwise trip
        // first and mask the structured resource error.
        let options = TargetChaseOptions {
            max_steps: if budget.is_unlimited() {
                None
            } else {
                Some(usize::MAX)
            },
            exec: exec.clone(),
            // The analyzer's certificate is already refined over the
            // abstract chase's live tgds, so the engine starts from the
            // tightest sound step budget instead of re-deriving the
            // generic one.
            certificate: mf.certificate.clone(),
            ..Default::default()
        };
        let (result, ts) = chase_with_target_deps_stats(&mf.setting(), &i, &m.target, options)
            .map_err(|e| err(e.to_string()))?;
        exec_stats = ts.exec;
        match result {
            TargetChaseResult::Solution(u) => u,
            TargetChaseResult::Failed { left, right } => {
                return Ok((
                    format!(
                        "chase FAILED: an egd requires {left} = {right} (distinct constants) — \
                         the instance has no solution under the target dependencies\n"
                    ),
                    exec_stats,
                ))
            }
        }
    } else {
        let outcome = m
            .clone()
            .with_exec(exec.clone())
            .chase_outcome(&i)
            .map_err(|e| err(e.to_string()))?;
        exec_stats = outcome.stats;
        outcome.instance
    };
    let mut out = format!("{u}\n");
    if stats {
        let (core, cs) = core_of_with_stats(&u);
        let _ = writeln!(out, "core: {core}");
        let _ = writeln!(
            out,
            "core stats: {} endomorphism search(es), {} null(s) folded in {} round(s)",
            cs.endos_tried, cs.nulls_folded, cs.rounds
        );
        if !budget.is_unlimited() {
            let _ = writeln!(
                out,
                "budget: within limits — {} executor task(s) and {} derived fact(s) charged",
                budget.tasks_charged(),
                budget.facts_charged()
            );
        }
    }
    Ok((out, exec_stats))
}

/// `qimap rechase`: chase the instance, then maintain the result
/// incrementally under the `±` diff instead of re-chasing from scratch
/// (`qi_chase::chase_delta`; the rendered solution is byte-identical to
/// a from-scratch chase of the updated instance).
pub fn cmd_rechase(
    mapping_text: &str,
    instance_literal: &str,
    diff_text: &str,
    stats: bool,
    exec: &ExecConfig,
) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    Ok(rechase_loaded(&mf, instance_literal, diff_text, stats, exec)?.0)
}

/// [`cmd_rechase`] over an already-parsed [`MappingFile`] — the serve
/// registry's fast path. Output is byte-identical to the one-shot
/// command.
pub fn rechase_loaded(
    mf: &MappingFile,
    instance_literal: &str,
    diff_text: &str,
    stats: bool,
    exec: &ExecConfig,
) -> Result<(String, qi_exec::ExecStats), CliError> {
    let m = &mf.mapping;
    let i = Instance::parse(&m.source, instance_literal)
        .map_err(|e| err(format!("invalid instance: {e}")))?;
    let diff = Diff::parse(&m.source, diff_text).map_err(|e| err(format!("invalid diff: {e}")))?;
    let opts = DeltaChaseOptions {
        exec: exec.clone(),
        ..Default::default()
    };
    let setting = mf.setting();
    let prev = chase_incremental(&setting, &i, &m.target, &opts).map_err(|e| err(e.to_string()))?;
    let next = chase_delta(&prev, &diff, &opts).map_err(|e| err(e.to_string()))?;
    let mut out = match (&next.outcome, next.solution()) {
        (_, Some(u)) => format!("{u}\n"),
        (TargetChaseResult::Failed { left, right }, None) => format!(
            "rechase FAILED: an egd requires {left} = {right} (distinct constants) — \
             the updated instance has no solution under the target dependencies\n"
        ),
        _ => unreachable!("no solution implies Failed"),
    };
    if stats {
        let e = &next.stats.exec;
        let _ = writeln!(
            out,
            "incremental: {} delta fact(s) in, {} fact(s) deleted, {} fact(s) re-derived, \
             {} cache eviction(s)",
            e.delta_facts_in, e.facts_deleted, e.facts_rederived, e.cache_evictions
        );
        let _ = writeln!(
            out,
            "prefilter: {} hit(s), {} bloom hit(s), {} bloom false positive(s)",
            e.prefilter_hits, e.bloom_hits, e.bloom_false_positives
        );
    }
    Ok((out, next.stats.exec.clone()))
}

/// `qimap roundtrip`: the full §6 bidirectional exchange with soundness
/// and faithfulness verdicts.
pub fn cmd_roundtrip(mapping_text: &str, instance_literal: &str) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    let m = &mf.mapping;
    let i = Instance::parse(&m.source, instance_literal)
        .map_err(|e| err(format!("invalid instance: {e}")))?;
    if !i.is_ground() {
        return Err(err("the source instance must be ground (null-free)"));
    }
    let rev = quasi_inverse(m, &QuasiInverseOptions::default()).map_err(|e| err(e.to_string()))?;
    let rt = round_trip(m, &rev, &i, Default::default()).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "I  = {i}");
    let _ = writeln!(out, "U  = chase_Σ(I) = {}", rt.u);
    let _ = writeln!(
        out,
        "recovered {} candidate source instance(s)",
        rt.recovered.len()
    );
    for (k, v) in rt.recovered.iter().enumerate().take(8) {
        let _ = writeln!(out, "  V{k} = {v}");
    }
    if rt.recovered.len() > 8 {
        let _ = writeln!(out, "  … ({} more)", rt.recovered.len() - 8);
    }
    let _ = writeln!(out, "sound:    {}", rt.is_sound());
    let _ = writeln!(out, "faithful: {}", rt.is_faithful());
    if let Some(v) = rt.recovered_equivalent() {
        let _ = writeln!(out, "data-exchange-equivalent recovery: {v}");
    }
    Ok(out)
}

/// `qimap compose`: compose two mappings sharing a middle schema. Uses
/// the first-order construction when the first mapping is full, the
/// SO-tgd construction otherwise.
pub fn cmd_compose(m12_text: &str, m23_text: &str) -> Result<String, CliError> {
    let m12 = parse_mapping_file(m12_text)?.mapping;
    let m23_raw = parse_mapping_file(m23_text)?.mapping;
    // Re-read the second mapping over the first one's target schema so the
    // two share a Schema value.
    let deps: Vec<String> = m23_raw.tgds.iter().map(|t| t.to_string()).collect();
    let tgds: Result<Vec<_>, _> = deps
        .iter()
        .map(|d| qi_lang::parse_tgd(&m12.target, &m23_raw.target, d))
        .collect();
    let tgds = tgds.map_err(|e| {
        err(format!(
            "the second mapping's source must match the first mapping's target: {e}"
        ))
    })?;
    let m23 = SchemaMapping::new(m12.target.clone(), m23_raw.target.clone(), tgds)
        .map_err(|e| err(e.to_string()))?;
    if m12.is_full() {
        let composed =
            qi_core::compose(&m12, &m23, &Default::default()).map_err(|e| err(e.to_string()))?;
        Ok(format!("{composed}"))
    } else {
        let so = qi_core::so_compose(&m12, &m23).map_err(|e| err(e.to_string()))?;
        Ok(format!(
            "(first mapping is not full: composition needs second-order tgds)\n{so}\n"
        ))
    }
}

/// Minimal JSON string escaping for the hand-rolled `--json` renderers:
/// the dependency language is ASCII, so only quotes, backslashes and
/// control characters need care.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `qimap recover`: compute a maximum recovery of the mapping (total for
/// every s-t tgd mapping — no invertibility precondition) and print its
/// disjunctive tgds as text or JSON. With `--stats`, append the MinGen
/// counters and — under a budget flag — the charged totals.
pub fn cmd_recover(
    mapping_text: &str,
    json: bool,
    stats: bool,
    exec: &ExecConfig,
) -> Result<String, CliError> {
    let mf = parse_mapping_file(mapping_text)?;
    Ok(recover_loaded(&mf, json, stats, exec)?.0)
}

/// [`cmd_recover`] over an already-parsed [`MappingFile`] — the serve
/// registry's fast path. Output is byte-identical to the one-shot
/// command.
pub fn recover_loaded(
    mf: &MappingFile,
    json: bool,
    stats: bool,
    exec: &ExecConfig,
) -> Result<(String, qi_exec::ExecStats), CliError> {
    let budget = &exec.budget;
    let options = QuasiInverseOptions {
        exec: exec.clone(),
        ..Default::default()
    };
    let (rev, s) =
        maximum_recovery_with_stats(&mf.mapping, &options).map_err(|e| err(e.to_string()))?;
    if json {
        let deps: Vec<String> = rev.deps.iter().map(|d| json_str(&d.to_string())).collect();
        let mut out = format!("{{\"maximum-recovery\":{{\"deps\":[{}]}}", deps.join(","));
        if stats {
            let _ = write!(
                out,
                ",\"stats\":{{\"tasks\":{},\"plans_applied\":{},\"prefilter_hits\":{},\
                 \"morsels\":{}}}",
                s.tasks, s.plans_applied, s.prefilter_hits, s.morsels
            );
        }
        out.push_str("}\n");
        return Ok((out, s));
    }
    let mut out = rev.to_string();
    if stats {
        let _ = writeln!(out, "stats: {} chase task(s)", s.tasks);
        let _ = writeln!(
            out,
            "plan stats: {} plan(s) applied, {} prefilter hit(s), {} morsel(s) dispatched",
            s.plans_applied, s.prefilter_hits, s.morsels
        );
        if !budget.is_unlimited() {
            let _ = writeln!(
                out,
                "budget: within limits — {} executor task(s) and {} derived fact(s) charged",
                budget.tasks_charged(),
                budget.facts_charged()
            );
        }
    }
    Ok((out, s))
}

/// `qimap contains`: does the first mapping contain the second — is
/// `Inst(B) ⊆ Inst(A)`? Both files must declare the same source and
/// target schemas. On failure the structured counterexample witness (a
/// pair admitted by `B` and rejected by `A`, with the violated
/// dependency) is printed; a failed containment is a verdict, not an
/// error (exit 0 either way).
pub fn cmd_contains(
    outer_text: &str,
    inner_text: &str,
    json: bool,
    stats: bool,
    exec: &ExecConfig,
) -> Result<String, CliError> {
    Ok(contains_texts(outer_text, inner_text, json, stats, exec)?.0)
}

/// [`cmd_contains`] returning the executor counters alongside the
/// rendered verdict — the serve handler's entry point. (Containment
/// always re-parses the inner mapping over the outer one's schema
/// values, so there is no parsed-file fast path to share; the registry
/// hands over the stored texts.)
pub fn contains_texts(
    outer_text: &str,
    inner_text: &str,
    json: bool,
    stats: bool,
    exec: &ExecConfig,
) -> Result<(String, qi_exec::ExecStats), CliError> {
    let outer = parse_mapping_file(outer_text)?.mapping;
    let inner_raw = parse_mapping_file(inner_text)?.mapping;
    // Re-read the second mapping over the first one's schema values so
    // the containment checker sees one shared schema pair.
    let deps: Vec<String> = inner_raw.tgds.iter().map(|t| t.to_string()).collect();
    let tgds: Result<Vec<_>, _> = deps
        .iter()
        .map(|d| qi_lang::parse_tgd(&outer.source, &outer.target, d))
        .collect();
    let tgds = tgds.map_err(|e| {
        err(format!(
            "containment needs both mappings over the same source and target schemas: {e}"
        ))
    })?;
    let inner = SchemaMapping::new(outer.source.clone(), outer.target.clone(), tgds)
        .map_err(|e| err(e.to_string()))?;
    let budget = &exec.budget;
    let (verdict, s) =
        mapping_contains_with_exec(&outer, &inner, exec).map_err(|e| err(e.to_string()))?;
    if json {
        let mut out = match &verdict {
            ContainmentVerdict::Contained => "{\"contains\":true".to_owned(),
            ContainmentVerdict::NotContained(w) => format!(
                "{{\"contains\":false,\"witness\":{{\"violated\":{},\"premise\":{},\"solution\":{}}}",
                json_str(&w.violated),
                json_str(&w.premise.to_string()),
                json_str(&w.solution.to_string())
            ),
        };
        if stats {
            let _ = write!(out, ",\"stats\":{{\"tasks\":{}}}", s.tasks);
        }
        out.push_str("}\n");
        return Ok((out, s));
    }
    let mut out = String::new();
    match &verdict {
        ContainmentVerdict::Contained => {
            let _ = writeln!(
                out,
                "contained: every pair of the second mapping satisfies the first"
            );
        }
        ContainmentVerdict::NotContained(w) => {
            let _ = writeln!(out, "NOT contained");
            let _ = writeln!(out, "violated dependency: {}", w.violated);
            let _ = writeln!(out, "counterexample premise:  {}", w.premise);
            let _ = writeln!(out, "counterexample solution: {}", w.solution);
        }
    }
    if stats {
        let _ = writeln!(out, "stats: {} chase task(s)", s.tasks);
        if !budget.is_unlimited() {
            let _ = writeln!(
                out,
                "budget: within limits — {} executor task(s) and {} derived fact(s) charged",
                budget.tasks_charged(),
                budget.facts_charged()
            );
        }
    }
    Ok((out, s))
}

/// Strip the execution-control flags out of `args` and build the
/// per-invocation [`ExecConfig`] they describe:
///
/// * `--threads <n>`    — worker count for the deterministic executor
///   (every chase and search result is bit-identical at any setting);
/// * `--plan <on|off>`  — force the cost-based join planner on or off
///   (results are bit-identical either way; default: auto);
/// * `--timeout <ms>`   — wall-clock deadline for the whole command;
/// * `--max-steps <n>`  — cap on executor tasks (chase triggers, MinGen
///   candidate tests, …);
/// * `--max-facts <n>`  — cap on derived target facts.
///
/// With no flag set the returned config resolves every knob lazily
/// (env/auto) and the commands behave exactly as before. Budget
/// exhaustion is reported as a structured error, never a panic: the
/// search stops at the next cooperative checkpoint and the message names
/// the tripped limit and the counters.
///
/// The config is *per invocation* and there is no process-wide
/// execution state, so concurrent invocations in one process — the
/// `serve` sessions — never observe each other's settings. `--threads N`
/// runs at most the CPU count.
fn apply_exec_flags(args: &[String]) -> Result<(Vec<String>, ExecConfig), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut exec = ExecConfig::auto();
    let mut budget = Budget::unlimited();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<Option<String>, CliError> {
            if a == flag {
                Ok(Some(
                    it.next()
                        .ok_or_else(|| err(format!("{flag} needs a value")))?
                        .clone(),
                ))
            } else {
                Ok(a.strip_prefix(&format!("{flag}=")).map(str::to_owned))
            }
        };
        if let Some(v) = take("--threads")? {
            let n: usize = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| err(format!("invalid --threads value `{v}`")))?;
            exec = exec.with_parallelism(Parallelism::fixed(n));
        } else if let Some(v) = take("--plan")? {
            let planning = match v.as_str() {
                "on" => Planning::On,
                "off" => Planning::Off,
                "auto" => Planning::Auto,
                _ => return Err(err(format!("invalid --plan value `{v}` (on|off|auto)"))),
            };
            exec = exec.with_planning(planning);
        } else if let Some(v) = take("--timeout")? {
            let ms: u64 = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| err(format!("invalid --timeout value `{v}`")))?;
            budget = budget.with_deadline(Duration::from_millis(ms));
        } else if let Some(v) = take("--max-steps")? {
            let n: u64 = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| err(format!("invalid --max-steps value `{v}`")))?;
            budget = budget.with_max_tasks(n);
        } else if let Some(v) = take("--max-facts")? {
            let n: u64 = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| err(format!("invalid --max-facts value `{v}`")))?;
            budget = budget.with_max_facts(n);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, exec.with_budget(budget)))
}

/// Dispatch a full argument vector (excluding the binary name). Reads the
/// mapping file through the provided loader so tests can inject content.
pub fn run(
    args: &[String],
    read_file: impl Fn(&str) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let usage = "usage: qimap [--threads N] [--plan on|off] [--timeout MS] [--max-steps N] [--max-facts N] [--stats] <check|lint|analyze|quasi-inverse|inverse|chase|rechase|roundtrip|compose|recover|contains|serve> <mapping-file> [instance | second-mapping-file]\n       qimap lint [--json] <mapping-file>\n       qimap analyze [--cost] [--json] <mapping-file>\n       qimap rechase [--stats] --diff <diff-file> <mapping-file> <instance>\n       qimap recover [--json] <mapping-file>\n       qimap contains [--json] <mapping-file> <second-mapping-file>\n       qimap serve [--addr HOST:PORT]";
    let (mut args, exec) = apply_exec_flags(args)?;
    let json = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    // `analyze --cost`: append the static cost model to the report.
    let cost = match args.iter().position(|a| a == "--cost") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    // Global `--stats`: `chase` appends the solution's core and the
    // core-computation counters, `quasi-inverse` and `recover` the MinGen
    // counters; the other commands ignore it.
    let stats = match args.iter().position(|a| a == "--stats") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    // `rechase --diff <file>`: the update to maintain incrementally.
    let diff_file = match args.iter().position(|a| a == "--diff") {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => return Err(err("--diff needs a file argument")),
        None => None,
    };
    let cmd = args.first().ok_or_else(|| err(usage))?;
    if cmd == "serve" {
        return Err(err(
            "`qimap serve` runs a long-lived server; use the binary entry point \
             (it never returns a rendered string)",
        ));
    }
    let file = args.get(1).ok_or_else(|| err(usage))?;
    let text = read_file(file)?;
    match cmd.as_str() {
        "check" => cmd_check(&text),
        "lint" => cmd_lint(file, &text, json),
        "analyze" => cmd_analyze(file, &text, cost, json),
        "quasi-inverse" => cmd_quasi_inverse(&text, stats, &exec),
        "inverse" => cmd_inverse(&text),
        "chase" => {
            let inst = args
                .get(2)
                .ok_or_else(|| err("chase needs an instance literal"))?;
            cmd_chase(&text, inst, stats, &exec)
        }
        "rechase" => {
            let inst = args
                .get(2)
                .ok_or_else(|| err("rechase needs an instance literal"))?;
            let diff_path = diff_file.ok_or_else(|| err("rechase needs --diff <diff-file>"))?;
            let diff_text = read_file(&diff_path)?;
            cmd_rechase(&text, inst, &diff_text, stats, &exec)
        }
        "roundtrip" => {
            let inst = args
                .get(2)
                .ok_or_else(|| err("roundtrip needs an instance literal"))?;
            cmd_roundtrip(&text, inst)
        }
        "compose" => {
            let second = args
                .get(2)
                .ok_or_else(|| err("compose needs a second mapping file"))?;
            let text2 = read_file(second)?;
            cmd_compose(&text, &text2)
        }
        "recover" => cmd_recover(&text, json, stats, &exec),
        "contains" => {
            let second = args
                .get(2)
                .ok_or_else(|| err("contains needs a second mapping file"))?;
            let text2 = read_file(second)?;
            cmd_contains(&text, &text2, json, stats, &exec)
        }
        other => Err(err(format!("unknown command `{other}`\n{usage}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECOMP: &str = "\
# the paper's Decomposition mapping
source: P/3
target: Q/2 R/2
tgd: P(x,y,z) -> Q(x,y) & R(y,z)
";

    #[test]
    fn mapping_file_parses() {
        let mf = parse_mapping_file(DECOMP).unwrap();
        assert!(mf.mapping.is_lav());
        assert_eq!(mf.mapping.tgds.len(), 1);
        assert!(!mf.has_target_deps());
    }

    #[test]
    fn mapping_file_with_target_deps() {
        // Transitive closure plus antisymmetry (a strict order).
        let text = "source: E0/2\ntarget: E/2\ntgd: E0(x,y) -> E(x,y)\n\
                    target-tgd: E(x,y) & E(y,z) -> E(x,z)\negd: E(x,y) & E(y,x) -> x = y\n";
        let mf = parse_mapping_file(text).unwrap();
        assert!(mf.has_target_deps());
        assert_eq!(mf.target_tgds.len(), 1);
        assert_eq!(mf.egds.len(), 1);
        // Chase through the full setting: closure is computed and the
        // key merges nothing here.
        let out = cmd_chase(text, "E0(a,b) E0(b,c)", false, &ExecConfig::default()).unwrap();
        assert!(out.contains("E(a,c)"), "{out}");
        // An order violation (a cycle on distinct constants) is
        // reported, not panicked.
        let out = cmd_chase(text, "E0(a,b) E0(b,a)", false, &ExecConfig::default()).unwrap();
        assert!(out.contains("FAILED"), "{out}");
        // Check mentions weak acyclicity.
        let out = cmd_check(text).unwrap();
        assert!(out.contains("weakly acyclic: true"), "{out}");
    }

    #[test]
    fn mapping_file_errors() {
        assert!(parse_mapping_file("").is_err());
        assert!(parse_mapping_file("source: P/1\n").is_err());
        assert!(parse_mapping_file("source: P/1\ntarget: Q/1\n").is_err());
        assert!(parse_mapping_file("bogus: x\n").is_err());
        assert!(parse_mapping_file("source P/1\n").is_err());
    }

    #[test]
    fn check_reports_classification() {
        let out = cmd_check(DECOMP).unwrap();
        assert!(out.contains("LAV:                  true"));
        assert!(out.contains("quasi-invertible:     yes"));
        assert!(out.contains("bounded quasi-inverse check"));
        assert!(out.contains("holds"));
    }

    #[test]
    fn quasi_inverse_command_prints_dependencies() {
        let out = cmd_quasi_inverse(DECOMP, false, &ExecConfig::default()).unwrap();
        assert!(out.contains("->"));
        assert!(out.contains("const("));
        assert!(!out.contains("stats:"));
    }

    #[test]
    fn stats_flag_reports_counters_without_changing_results() {
        let plain = cmd_quasi_inverse(DECOMP, false, &ExecConfig::default()).unwrap();
        let with = cmd_quasi_inverse(DECOMP, true, &ExecConfig::default()).unwrap();
        assert!(with.starts_with(&plain), "stats must only append lines");
        assert!(with.contains("chase task(s)"), "{with}");
        // chase --stats: the chase result is ground, so the core equals
        // it and the counters record that nothing needed folding.
        let proj = "source: P/2\ntarget: Q/1\ntgd: P(x,y) -> Q(x)\n";
        let out = cmd_chase(proj, "P(a,b)", true, &ExecConfig::default()).unwrap();
        assert!(out.contains("core: Q(a)"), "{out}");
        assert!(out.contains("core stats:"), "{out}");
        // Dispatch strips the flag wherever it appears.
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let out = run(
            &["--stats".into(), "quasi-inverse".into(), "m.qim".into()],
            loader,
        )
        .unwrap();
        assert!(out.contains("chase task(s)"), "{out}");
    }

    #[test]
    fn inverse_command_reports_propagation_failure() {
        let projection = "source: P/2\ntarget: Q/1\ntgd: P(x,y) -> Q(x)\n";
        let out = cmd_inverse(projection).unwrap();
        assert!(out.contains("constant-propagation"));
        let copy = "source: P/2\ntarget: Q/2\ntgd: P(x,y) -> Q(x,y)\n";
        let out = cmd_inverse(copy).unwrap();
        assert!(out.contains("-> P(x1,x2)"));
    }

    #[test]
    fn chase_and_roundtrip_commands() {
        let out = cmd_chase(DECOMP, "P(a,b,c)", false, &ExecConfig::default()).unwrap();
        assert_eq!(out.trim(), "Q(a,b) R(b,c)");
        let out = cmd_roundtrip(DECOMP, "P(a,b,c) P(a2,b,c2)").unwrap();
        assert!(out.contains("sound:    true"));
        assert!(out.contains("faithful: true"));
    }

    #[test]
    fn roundtrip_rejects_null_instances() {
        assert!(cmd_roundtrip(DECOMP, "P(a,b,N1)").is_err());
    }

    #[test]
    fn compose_command_picks_the_right_construction() {
        let m12_full = "source: P/2\ntarget: Q/2\ntgd: P(x,y) -> Q(x,y)\n";
        let m23 = "source: Q/2\ntarget: S/1\ntgd: Q(x,y) -> S(x)\n";
        let out = cmd_compose(m12_full, m23).unwrap();
        assert!(out.contains("-> S("));
        assert!(!out.contains("second-order"));
        let m12_exist = "source: P/1\ntarget: Q/2\ntgd: P(x) -> exists y . Q(x,y)\n";
        let out = cmd_compose(m12_exist, m23).unwrap();
        assert!(out.contains("second-order"));
        // Mismatched middle schema is reported.
        let bad = "source: Z/1\ntarget: W/1\ntgd: Z(x) -> W(x)\n";
        assert!(cmd_compose(m12_full, bad).is_err());
    }

    #[test]
    fn recover_command_prints_the_maximum_recovery() {
        let proj = "source: P/2\ntarget: Q/1\ntgd: P(x,y) -> Q(x)\n";
        let out = cmd_recover(proj, false, false, &ExecConfig::default()).unwrap();
        assert!(
            out.contains("Q(x) & const(x) -> exists z0 . P(x,z0)"),
            "{out}"
        );
        let with = cmd_recover(proj, false, true, &ExecConfig::default()).unwrap();
        assert!(with.starts_with(&out), "stats must only append lines");
        assert!(with.contains("chase task(s)"), "{with}");
        let js = cmd_recover(proj, true, false, &ExecConfig::default()).unwrap();
        assert!(js.contains("\"maximum-recovery\""), "{js}");
        assert!(js.contains("\"deps\""), "{js}");
        let js = cmd_recover(proj, true, true, &ExecConfig::default()).unwrap();
        assert!(js.contains("\"stats\""), "{js}");
    }

    #[test]
    fn contains_command_reports_verdict_and_witness() {
        let weak = "source: P/1 Q/1\ntarget: S/1\ntgd: P(x) -> S(x)\n";
        let union = "source: P/1 Q/1\ntarget: S/1\ntgd: P(x) -> S(x)\ntgd: Q(x) -> S(x)\n";
        let out = cmd_contains(weak, union, false, false, &ExecConfig::default()).unwrap();
        assert!(out.contains("contained"), "{out}");
        assert!(!out.contains("NOT"), "{out}");
        let out = cmd_contains(union, weak, false, true, &ExecConfig::default()).unwrap();
        assert!(out.contains("NOT contained"), "{out}");
        assert!(out.contains("violated dependency: Q(x) -> S(x)"), "{out}");
        assert!(out.contains("stats:"), "{out}");
        let js = cmd_contains(union, weak, true, false, &ExecConfig::default()).unwrap();
        assert!(js.contains("\"contains\":false"), "{js}");
        assert!(js.contains("\"witness\""), "{js}");
        let js = cmd_contains(weak, union, true, false, &ExecConfig::default()).unwrap();
        assert!(js.contains("\"contains\":true"), "{js}");
        // Mismatched schemas are a CLI error, not a verdict.
        let other = "source: Z/1\ntarget: S/1\ntgd: Z(x) -> S(x)\n";
        assert!(cmd_contains(weak, other, false, false, &ExecConfig::default()).is_err());
    }

    #[test]
    fn dispatch_recover_and_contains() {
        let weak = "source: P/1 Q/1\ntarget: S/1\ntgd: P(x) -> S(x)\n";
        let loader = |_: &str| Ok(weak.to_owned());
        let out = run(&["recover".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("S(x) & const(x) -> P(x)"), "{out}");
        let out = run(&["contains".into(), "a.qim".into(), "b.qim".into()], loader).unwrap();
        assert!(out.contains("contained"), "{out}");
        assert!(run(&["contains".into(), "a.qim".into()], loader).is_err());
    }

    #[test]
    fn lint_command_renders_text_and_json() {
        // Clean file: only the summary line, exit 0.
        let out = cmd_lint("m.qim", DECOMP, false).unwrap();
        assert_eq!(out.trim(), "m.qim: 0 error(s), 0 warning(s), 0 info(s)");
        // A GAV + existential file: info findings, still exit 0.
        let gav = "source: P/2 R/2\ntarget: Q/2\ntgd: P(x,y) & R(y,z) -> exists w . Q(x,w)\n";
        let out = cmd_lint("m.qim", gav, false).unwrap();
        assert!(out.contains("info[QI012]"), "{out}");
        assert!(out.contains("info[QI013]"), "{out}");
        let out = cmd_lint("m.qim", gav, true).unwrap();
        assert!(out.contains("\"code\":\"QI012\""), "{out}");
        assert!(out.contains("\"summary\""), "{out}");
        // An unknown relation is an error: the rendering comes back as
        // the CliError (nonzero exit), in both formats.
        let bad = "source: P/2\ntarget: Q/1\ntgd: Z(x,y) -> Q(x)\n";
        let e = cmd_lint("m.qim", bad, false).unwrap_err();
        assert!(e.0.contains("m.qim:3:6: error[QI003]"), "{}", e.0);
        let e = cmd_lint("m.qim", bad, true).unwrap_err();
        assert!(e.0.contains("\"severity\":\"error\""), "{}", e.0);
    }

    #[test]
    fn lint_command_reports_subsumption() {
        let dup = "source: P/2\ntarget: Q/2\ntgd: P(x,y) -> Q(x,y)\n\
                   tgd: P(x,y) -> exists z . Q(x,z)\n";
        let out = cmd_lint("m.qim", dup, false).unwrap();
        assert!(out.contains("warning[QI018]"), "{out}");
        assert!(out.contains("subsumed"), "{out}");
        let js = cmd_lint("m.qim", dup, true).unwrap();
        assert!(js.contains("\"code\":\"QI018\""), "{js}");
        // check reaches the same lint through semantic_lints.
        let out = cmd_check(dup).unwrap();
        assert!(out.contains("warning[QI018]"), "{out}");
    }

    #[test]
    fn analyze_command_reports_chase_summary_and_cost_model() {
        let out = cmd_analyze("m.qim", DECOMP, false, false).unwrap();
        assert!(out.contains("dependencies: 1 s-t tgd(s)"), "{out}");
        assert!(out.contains("abstract chase: converged"), "{out}");
        assert!(!out.contains("cost model"), "{out}");
        let out = cmd_analyze("m.qim", DECOMP, true, false).unwrap();
        assert!(out.contains("cost model"), "{out}");
        assert!(out.contains("Q/2: abstract card"), "{out}");
        // JSON: one document, cost model spliced in under --cost.
        let js = cmd_analyze("m.qim", DECOMP, true, true).unwrap();
        assert!(js.contains("\"diagnostics\""), "{js}");
        assert!(js.contains("\"cost_model\""), "{js}");
        assert_eq!(js.matches("{\"diagnostics\"").count(), 1, "{js}");
        let js = cmd_analyze("m.qim", DECOMP, false, true).unwrap();
        assert!(!js.contains("\"cost_model\""), "{js}");
        // A dead target tgd: QI017 in the report, refined budget shown.
        let dead = "source: P/1\ntarget: Q/2 R/1\ntgd: P(x) -> exists y . Q(x,y)\n\
                    target-tgd: Q(x,x) -> R(x)\n";
        let out = cmd_analyze("m.qim", dead, true, false).unwrap();
        assert!(out.contains("warning[QI017]"), "{out}");
        assert!(out.contains("termination: certified"), "{out}");
        // Errors come back as the rendered diagnostics, nonzero exit.
        let bad = "source: P/2\ntarget: Q/1\ntgd: Z(x,y) -> Q(x)\n";
        assert!(cmd_analyze("m.qim", bad, false, false).is_err());
    }

    #[test]
    fn dispatch_analyze_with_cost_flag() {
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let out = run(&["analyze".into(), "--cost".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("cost model"), "{out}");
        let out = run(&["analyze".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("abstract chase"), "{out}");
    }

    #[test]
    fn chase_uses_the_refined_certificate() {
        // The dead tgd Q(x,x) -> exists z . R(z,x) would force rank 1 on
        // the generic certificate; the refined one drops it, and the
        // chase still answers correctly.
        let text = "source: P/1\ntarget: Q/2 R/2\ntgd: P(x) -> exists y . Q(x,y)\n\
                    target-tgd: Q(x,x) -> exists z . R(z,x)\n";
        let mf = parse_mapping_file(text).unwrap();
        let cert = mf.certificate.as_ref().expect("refined certificate");
        assert!(cert.rel_fact_caps.is_some(), "refined, not generic");
        let out = cmd_chase(text, "P(a) P(b)", false, &ExecConfig::default()).unwrap();
        assert!(out.contains("Q(a,"), "{out}");
        assert!(!out.contains("R("), "dead tgd must not fire: {out}");
    }

    #[test]
    fn rechase_matches_from_scratch_and_reports_counters() {
        // Copy + transitive closure: the Datalog-eligible fast path.
        let text = "source: E/2\ntarget: T/2\ntgd: E(x,y) -> T(x,y)\n\
                    target-tgd: T(x,y) & T(y,z) -> T(x,z)\n";
        let diff = "+ E(c,d)\n- E(a,b)\n";
        let out = cmd_rechase(text, "E(a,b) E(b,c)", diff, false, &ExecConfig::default()).unwrap();
        let scratch = cmd_chase(text, "E(b,c) E(c,d)", false, &ExecConfig::default()).unwrap();
        assert_eq!(out, scratch);
        let with_stats =
            cmd_rechase(text, "E(a,b) E(b,c)", diff, true, &ExecConfig::default()).unwrap();
        assert!(with_stats.contains("delta fact(s) in"), "{with_stats}");
        assert!(with_stats.contains("fact(s) deleted"), "{with_stats}");
    }

    #[test]
    fn dispatch_rechase_reads_the_diff_file() {
        let mapping = "source: E/2\ntarget: T/2\ntgd: E(x,y) -> T(x,y)\n\
                       target-tgd: T(x,y) & T(y,z) -> T(x,z)\n";
        let loader = move |path: &str| {
            Ok(match path {
                "m.qim" => mapping.to_owned(),
                "d.diff" => "+ E(b,c)".to_owned(),
                other => return Err(err(format!("unexpected read: {other}"))),
            })
        };
        let out = run(
            &[
                "rechase".into(),
                "--diff".into(),
                "d.diff".into(),
                "m.qim".into(),
                "E(a,b)".into(),
            ],
            loader,
        )
        .unwrap();
        assert!(out.contains("T(a,b)") && out.contains("T(a,c)"), "{out}");
        // Missing --diff is a usage error.
        assert!(run(&["rechase".into(), "m.qim".into(), "E(a,b)".into()], loader).is_err());
    }

    #[test]
    fn check_appends_analyzer_and_semantic_lints() {
        // Projection: drops a column, so the dropped variable is both a
        // QI006 singleton (syntactic) and a QI014 constant-propagation
        // failure (semantic, chase-based).
        let projection = "source: P/2\ntarget: Q/1\ntgd: P(x,y) -> Q(x)\n";
        let out = cmd_check(projection).unwrap();
        assert!(out.contains("lints:"), "{out}");
        assert!(out.contains("info[QI006]"), "{out}");
        assert!(out.contains("warning[QI014]"), "{out}");
    }

    #[test]
    fn check_prints_the_termination_certificate() {
        let text = "source: E0/2\ntarget: E/2\ntgd: E0(x,y) -> E(x,y)\n\
                    target-tgd: E(x,y) & E(y,z) -> E(x,z)\n";
        let out = cmd_check(text).unwrap();
        assert!(
            out.contains("termination certificate: max position rank 0"),
            "{out}"
        );
    }

    #[test]
    fn dispatch_lint_with_json_flag() {
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let out = run(&["lint".into(), "--json".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("\"diagnostics\""), "{out}");
        let out = run(&["--json".into(), "lint".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("\"summary\""), "{out}");
        let out = run(&["lint".into(), "m.qim".into()], loader).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn dispatch() {
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let ok = run(&["check".into(), "m.qim".into()], loader).unwrap();
        assert!(ok.contains("LAV"));
        assert!(run(&[], loader).is_err());
        assert!(run(&["bogus".into(), "m.qim".into()], loader).is_err());
        assert!(run(&["chase".into(), "m.qim".into()], loader).is_err());
    }

    #[test]
    fn threads_flag_is_per_invocation_and_output_invariant() {
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let baseline = run(&["chase".into(), "m.qim".into(), "P(a,b,c)".into()], loader).unwrap();
        // The flag builds a per-invocation ExecConfig, so no reset
        // between cases is needed.
        for argv in [
            vec![
                "--threads".to_owned(),
                "2".to_owned(),
                "chase".to_owned(),
                "m.qim".to_owned(),
                "P(a,b,c)".to_owned(),
            ],
            vec![
                "chase".to_owned(),
                "--threads=4".to_owned(),
                "m.qim".to_owned(),
                "P(a,b,c)".to_owned(),
            ],
        ] {
            assert_eq!(run(&argv, loader).unwrap(), baseline);
        }
        assert!(run(&["--threads".into(), "zero".into()], loader).is_err());
        assert!(run(&["--threads=0".into()], loader).is_err());
        assert!(run(&["--threads".into()], loader).is_err());
    }

    #[test]
    fn plan_flag_is_per_invocation_and_output_invariant() {
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let baseline = run(&["chase".into(), "m.qim".into(), "P(a,b,c)".into()], loader).unwrap();
        for mode in ["on", "off", "auto"] {
            let argv = vec![
                format!("--plan={mode}"),
                "chase".to_owned(),
                "m.qim".to_owned(),
                "P(a,b,c)".to_owned(),
            ];
            assert_eq!(run(&argv, loader).unwrap(), baseline, "--plan={mode}");
        }
        assert!(run(&["--plan".into(), "sideways".into()], loader).is_err());
        assert!(run(&["--plan".into()], loader).is_err());
    }

    #[test]
    fn exec_flags_build_one_config() {
        let (rest, exec) = apply_exec_flags(&[
            "--threads=3".to_owned(),
            "chase".to_owned(),
            "--plan=off".to_owned(),
            "--timeout".to_owned(),
            "60000".to_owned(),
            "--max-steps=10".to_owned(),
            "m.qim".to_owned(),
        ])
        .unwrap();
        assert_eq!(rest, vec!["chase".to_owned(), "m.qim".to_owned()]);
        assert_eq!(exec.parallelism, Parallelism::fixed(3));
        assert_eq!(exec.planning, Planning::Off);
        assert!(!exec.budget.is_unlimited());
    }

    /// Fuzz-ish sweep: every handler reachable from user input, fed
    /// malformed mapping files, instance literals, diffs and argument
    /// vectors. Each case must come back as a structured [`CliError`] —
    /// never a panic, which is what the serving layer's never-panic
    /// guarantee ultimately rests on.
    #[test]
    fn malformed_user_input_is_a_structured_error_never_a_panic() {
        let exec = ExecConfig::default();
        let bad_mappings = [
            "",
            "garbage",
            "source P/1",
            "source: P/0",
            "source: P/1\ntarget: Q/1\ntgd: Q(x) -> P(x)",
            "source: P/1\ntarget: Q/1\ntgd: P(x) ->",
            "source: P/1\ntarget: Q/1\ntgd: P(x,y) -> Q(x)",
            "source: P/1\ntarget: Q/1\negd: P(x) & P(y) -> x = y",
            "source: P/1\ntarget: Q/1\ntgd: P(x) -> Q(x)\ntarget-tgd: nope",
            "\u{0}\u{1}",
        ];
        for text in bad_mappings {
            assert!(cmd_check(text).is_err(), "check {text:?}");
            assert!(
                cmd_quasi_inverse(text, false, &exec).is_err(),
                "qi {text:?}"
            );
            assert!(cmd_inverse(text).is_err(), "inverse {text:?}");
            assert!(
                cmd_chase(text, "P(a)", false, &exec).is_err(),
                "chase {text:?}"
            );
            assert!(
                cmd_rechase(text, "P(a)", "+ P(b)\n", false, &exec).is_err(),
                "rechase {text:?}"
            );
            assert!(cmd_roundtrip(text, "P(a)").is_err(), "roundtrip {text:?}");
            assert!(
                cmd_recover(text, false, false, &exec).is_err(),
                "recover {text:?}"
            );
            assert!(cmd_compose(text, text).is_err(), "compose {text:?}");
            assert!(
                cmd_contains(text, text, false, false, &exec).is_err(),
                "contains {text:?}"
            );
            // `lint` renders diagnostics for arbitrary input; it must
            // return (Ok or Err), not panic.
            let _ = cmd_lint("bad.qim", text, false);
            let _ = cmd_lint("bad.qim", text, true);
            let _ = cmd_analyze("bad.qim", text, true, true);
        }
        // Well-formed mapping, malformed instance/diff payloads.
        for inst in [
            "P(",
            "P(a",
            "Nope(a)",
            "P(a,b,c) Q(",
            "P(a) -> Q(a)",
            "P(a,b,c,d)",
        ] {
            assert!(
                cmd_chase(DECOMP, inst, false, &exec).is_err(),
                "inst {inst:?}"
            );
            assert!(cmd_roundtrip(DECOMP, inst).is_err(), "inst {inst:?}");
        }
        for diff in ["* P(a,b,c)", "+ Nope(a)", "+ P(a)", "- P("] {
            assert!(
                cmd_rechase(DECOMP, "P(a,b,c)", diff, false, &exec).is_err(),
                "diff {diff:?}"
            );
        }
        // Malformed argument vectors through the real dispatcher.
        let loader = |_: &str| Ok(DECOMP.to_owned());
        let argvs: &[&[&str]] = &[
            &[],
            &["frobnicate", "m.qim"],
            &["chase"],
            &["chase", "m.qim"],
            &["rechase", "m.qim", "P(a,b,c)"],
            &["contains", "m.qim"],
            &["compose", "m.qim"],
            &["--threads", "zero", "chase", "m.qim", "P(a,b,c)"],
            &["--threads"],
            &["--timeout", "-5", "chase", "m.qim", "P(a,b,c)"],
            &["--max-facts", "many", "chase", "m.qim", "P(a,b,c)"],
            &["--diff"],
            &["serve"],
        ];
        for argv in argvs {
            let owned: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
            assert!(run(&owned, loader).is_err(), "argv {argv:?}");
        }
    }
}
