//! The `invert` workload: the mapping-level ops `qimap quasi-inverse`,
//! `recover` and `contains` run, called in-process through the public
//! `qi_cli::cmd_*` handlers with the default `ExecConfig`, by one caller
//! in a closed loop.
//!
//! Why: it stresses qi-core (Σ*, MinGen, the hom cache, containment) and
//! the qi-schema planner on small inputs, and bypasses big instances and
//! transport. Every op gets its own seeded mapping with relation names
//! suffixed by the op index, so no two ops share input text and a
//! cross-call cache cannot flatter the workload.
//!
//! Ops come in blocks of 22 with a fixed composition (so every run, at
//! any seed, measures the same mix): nine quasi-inverse or recover ops
//! over the mapping families below and thirteen containment checks. The
//! seed picks quasi-inverse vs recover, the direction of each
//! containment check, the random mappings and the order within a block.

use crate::common::{self, default_exec, reference_exec, Args, Gate, Outcome, Pass, SETUP_REPS};
use crate::trace::{Layers, Tracer};
use qi_cli::{cmd_contains, cmd_quasi_inverse, cmd_recover, parse_mapping_file, CliError};
use qi_core::{
    mapping_contains_with_exec, maximum_recovery_with_stats, min_gen_with_stats,
    quasi_inverse_with_stats, sigma_star, ContainmentVerdict, MinGenOptions, QuasiInverseOptions,
    SchemaMapping,
};
use qi_exec::ExecConfig;
use qi_workloads::families;
use qi_workloads::paper::mapping_file_text;
use qi_workloads::random::{random_mapping, random_mapping_between, MappingParams};
use qi_workloads::rng::Rng64;
use std::time::{Duration, Instant};

const COMMITTED: &str = include_str!("../digests/invert.txt");

/// Blocks the committed digest file covers at the default seed.
const DIGEST_BLOCKS: u64 = 48;

#[derive(Clone, Copy, Debug)]
enum Family {
    Decomposition(usize),
    Union(usize),
    ChainJoin(usize),
    Copy(usize),
    Random,
}

/// The mapping pool. `decomposition_k(3)` and `chain_join_j(3)` are the
/// expensive MinGen cases (0.3–0.5 s each); the rest are cheap.
const FAMILIES: [Family; 8] = [
    Family::Decomposition(2),
    Family::Decomposition(3),
    Family::Union(4),
    Family::Union(8),
    Family::ChainJoin(2),
    Family::ChainJoin(3),
    Family::Copy(4),
    Family::Random,
];

/// The quasi-inverse / recover ops of a block: every family once, and
/// `chain_join_j(3)` twice, so that the slowest family is a tenth of
/// all ops and p95 falls inside its latency band rather than on the
/// border between two families.
const ALGEBRA: [Family; 9] = [
    Family::Decomposition(2),
    Family::Decomposition(3),
    Family::Union(4),
    Family::Union(8),
    Family::ChainJoin(2),
    Family::ChainJoin(3),
    Family::ChainJoin(3),
    Family::Copy(4),
    Family::Random,
];

/// Containment checks per block: with the nine ops above, 22 ops of
/// which 59% are containment checks.
const CONTAINS_PER_BLOCK: usize = 13;

fn family_mapping(f: Family, rng: &mut Rng64) -> SchemaMapping {
    match f {
        Family::Decomposition(k) => families::decomposition_k(k),
        Family::Union(n) => families::union_n(n),
        Family::ChainJoin(j) => families::chain_join_j(j),
        Family::Copy(m) => families::copy_arity(m),
        // LAV keeps MinGen's search small: an unrestricted random
        // mapping can cost anywhere from microseconds to seconds, which
        // would make the workload's cost depend on the seed.
        Family::Random => random_mapping(
            rng,
            &MappingParams {
                lav: true,
                max_body_atoms: 1,
                ..MappingParams::default()
            },
        ),
    }
}

/// Append `suffix` to every relation name of a mapping file (a name is
/// an identifier followed by `(` or `/`; variables never are).
fn suffix_relations(text: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut ident = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
            continue;
        }
        out.push_str(&ident);
        if !ident.is_empty() && (c == '(' || c == '/') {
            out.push_str(suffix);
        }
        ident.clear();
        out.push(c);
    }
    out.push_str(&ident);
    out
}

/// One generated op.
#[derive(Clone, Debug)]
enum Op {
    QuasiInverse(String),
    Recover(String),
    Contains { outer: String, inner: String },
}

impl Op {
    fn kind(&self) -> &'static str {
        match self {
            Op::QuasiInverse(_) => "quasi-inverse",
            Op::Recover(_) => "recover",
            Op::Contains { .. } => "contains",
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// A containment pair over `m`'s schemas: the mapping against itself
/// (variant 0), against its `Σ*` (1, equivalent), against itself minus
/// its last tgd (2, strictly weaker), or against a random mapping
/// between the same schemas (3, and 2 on single-tgd mappings) — in a
/// seeded direction.
fn containment_pair(
    m: &SchemaMapping,
    variant: usize,
    rng: &mut Rng64,
) -> (SchemaMapping, SchemaMapping) {
    let other = match variant {
        0 => m.clone(),
        1 => SchemaMapping::new(
            m.source.clone(),
            m.target.clone(),
            sigma_star(&m.tgds).expect("Σ* of a valid mapping"),
        )
        .expect("Σ* keeps the schemas"),
        2 if m.tgds.len() >= 2 => SchemaMapping::new(
            m.source.clone(),
            m.target.clone(),
            m.tgds[..m.tgds.len() - 1].to_vec(),
        )
        .expect("a subset keeps the schemas"),
        _ => random_mapping_between(
            rng,
            &m.source,
            &m.target,
            &MappingParams {
                max_arity: 3,
                ..MappingParams::default()
            },
        ),
    };
    if rng.random_bool(0.5) {
        (m.clone(), other)
    } else {
        (other, m.clone())
    }
}

/// The ops of block `b` at `seed`, with their global op indices.
fn block(seed: u64, b: u64) -> Vec<(u64, Op)> {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_add(1));
    // Unsuffixed drafts first: the suffix depends on the op's position.
    enum Draft {
        Qi(SchemaMapping, bool),
        Contains(SchemaMapping, SchemaMapping),
    }
    let mut drafts = Vec::with_capacity(ALGEBRA.len() + CONTAINS_PER_BLOCK);
    for f in ALGEBRA {
        let m = family_mapping(f, &mut rng);
        drafts.push(Draft::Qi(m, rng.random_bool(0.5)));
    }
    // A fixed composition: family and variant cycle, the seed picks the
    // direction and the random mappings.
    for k in 0..CONTAINS_PER_BLOCK {
        let m = family_mapping(FAMILIES[k % FAMILIES.len()], &mut rng);
        let (outer, inner) = containment_pair(&m, k % 4, &mut rng);
        drafts.push(Draft::Contains(outer, inner));
    }
    shuffle(&mut drafts, &mut rng);
    let per_block = drafts.len() as u64;
    drafts
        .into_iter()
        .enumerate()
        .map(|(pos, d)| {
            let index = b * per_block + pos as u64;
            let sfx = format!("_o{index}");
            let text = |m: &SchemaMapping| suffix_relations(&mapping_file_text(m), &sfx);
            let op = match d {
                Draft::Qi(m, true) => Op::QuasiInverse(text(&m)),
                Draft::Qi(m, false) => Op::Recover(text(&m)),
                Draft::Contains(o, i) => Op::Contains {
                    outer: text(&o),
                    inner: text(&i),
                },
            };
            (index, op)
        })
        .collect()
}

/// The one-call op: exactly what `qimap` runs.
fn run_one(op: &Op, exec: &ExecConfig) -> Result<String, CliError> {
    match op {
        Op::QuasiInverse(t) => cmd_quasi_inverse(t, false, exec),
        Op::Recover(t) => cmd_recover(t, false, false, exec),
        Op::Contains { outer, inner } => cmd_contains(outer, inner, false, false, exec),
    }
}

fn core_err(e: qi_core::CoreError) -> CliError {
    CliError(e.to_string())
}

/// The same op split into the public calls its handler makes, each
/// timed as a span. The output must equal [`run_one`]'s.
fn run_split(
    op: &Op,
    exec: &ExecConfig,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<String, CliError> {
    match op {
        Op::QuasiInverse(t) | Op::Recover(t) => {
            let mf = tr.span("parse_mapping_file", || parse_mapping_file(t))?;
            let options = QuasiInverseOptions {
                exec: exec.clone(),
                ..Default::default()
            };
            let (rev, stats) = if matches!(op, Op::QuasiInverse(_)) {
                tr.span("quasi_inverse_with_stats", || {
                    quasi_inverse_with_stats(&mf.mapping, &options)
                })
            } else {
                tr.span("maximum_recovery_with_stats", || {
                    maximum_recovery_with_stats(&mf.mapping, &options)
                })
            }
            .map_err(core_err)?;
            layers.exec.absorb(&stats);
            let out = tr.span("render", || rev.to_string());
            tr.span("drop", || drop((mf, rev)));
            Ok(out)
        }
        Op::Contains { outer, inner } => {
            let outer = tr.span("parse_mapping_file", || parse_mapping_file(outer))?;
            let inner_raw = tr.span("parse_mapping_file", || parse_mapping_file(inner))?;
            // `qimap contains` re-reads the inner tgds over the outer
            // mapping's schema values.
            let inner = tr.span("parse_tgd", || {
                let tgds = inner_raw
                    .mapping
                    .tgds
                    .iter()
                    .map(|d| {
                        qi_lang::parse_tgd(
                            &outer.mapping.source,
                            &outer.mapping.target,
                            &d.to_string(),
                        )
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| CliError(e.to_string()))?;
                SchemaMapping::new(
                    outer.mapping.source.clone(),
                    outer.mapping.target.clone(),
                    tgds,
                )
                .map_err(core_err)
            })?;
            let (verdict, stats) = tr
                .span("mapping_contains_with_exec", || {
                    mapping_contains_with_exec(&outer.mapping, &inner, exec)
                })
                .map_err(core_err)?;
            layers.exec.absorb(&stats);
            layers.add("core.containment.tasks", stats.tasks as f64);
            let out = tr.span("render", || match &verdict {
                ContainmentVerdict::Contained => {
                    "contained: every pair of the second mapping satisfies the first\n".to_owned()
                }
                ContainmentVerdict::NotContained(w) => format!(
                    "NOT contained\nviolated dependency: {}\ncounterexample premise:  {}\n\
                     counterexample solution: {}\n",
                    w.violated, w.premise, w.solution
                ),
            });
            tr.span("drop", || drop((outer, inner_raw, inner, verdict)));
            Ok(out)
        }
    }
}

/// The Σ* and MinGen probes made beside a quasi-inverse / recover op:
/// `sigma_star` once, then `min_gen_with_stats` for each σ. Reported on
/// their own, outside the op's latency and span coverage.
fn probe(text: &str, exec: &ExecConfig, tr: &mut Tracer, layers: &mut Layers) {
    let mf = parse_mapping_file(text).expect("the op already parsed this mapping");
    let root = tr.open("probe");
    let star = tr
        .span("sigma_star", || sigma_star(&mf.mapping.tgds))
        .expect("Σ* of a valid mapping");
    layers.add("core.sigma_star.deps", star.len() as f64);
    let options = MinGenOptions {
        exec: exec.clone(),
        ..Default::default()
    };
    for sigma in &star {
        let out = tr
            .span("min_gen_with_stats", || {
                min_gen_with_stats(&mf.mapping, &sigma.head, &sigma.frontier(), &options)
            })
            .expect("MinGen on a valid mapping");
        layers.add("core.mingen.tasks", out.stats.tasks as f64);
        layers.mingen_hits += out.stats.hom_cache_hits;
        layers.mingen_misses += out.stats.hom_cache_misses;
    }
    tr.close(root);
}

/// Set-up: generate the first blocks' inputs and warm the process up on
/// the cheap families (under their own suffix, so no input is shared
/// with a measured op).
fn setup(seed: u64) -> Vec<Vec<(u64, Op)>> {
    let blocks: Vec<Vec<(u64, Op)>> = (0..4).map(|b| block(seed, b)).collect();
    let exec = default_exec();
    let mut rng = Rng64::new(seed ^ 0x5741_524d);
    for (k, f) in FAMILIES.into_iter().enumerate() {
        if matches!(f, Family::Decomposition(3) | Family::ChainJoin(3)) {
            continue;
        }
        let m = family_mapping(f, &mut rng);
        let (outer, inner) = containment_pair(&m, k % 4, &mut rng);
        let text = |m: &SchemaMapping| suffix_relations(&mapping_file_text(m), "_w");
        std::hint::black_box(cmd_quasi_inverse(&text(&m), false, &exec).ok());
        std::hint::black_box(cmd_contains(&text(&outer), &text(&inner), false, false, &exec).ok());
    }
    blocks
}

/// Hands out blocks in order, the ones set-up generated first.
struct Runner {
    seed: u64,
    next_block: u64,
    pending: Vec<Vec<(u64, Op)>>,
}

impl Runner {
    fn next(&mut self) -> Vec<(u64, Op)> {
        let b = self.next_block;
        self.next_block += 1;
        if self.pending.is_empty() {
            block(self.seed, b)
        } else {
            self.pending.remove(0)
        }
    }
}

fn pass(
    runner: &mut Runner,
    budget: Duration,
    gate: &mut Gate,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
) -> Pass {
    let exec = default_exec();
    let mut p = Pass::default();
    let mut timed = Duration::ZERO;
    while timed < budget {
        for (index, op) in runner.next() {
            let (result, latency) = match traced.as_mut() {
                None => {
                    let t = Instant::now();
                    let r = run_one(&op, &exec);
                    (r, t.elapsed())
                }
                Some((tr, layers)) => {
                    let root = tr.begin_op(index);
                    let r = run_split(&op, &exec, tr, layers);
                    tr.close(root);
                    let latency =
                        Duration::from_nanos(tr.spans[root].end_ns - tr.spans[root].start_ns);
                    (r, latency)
                }
            };
            timed += latency;
            p.record(op.kind(), latency);
            // Checks run outside the timed region.
            let ok = match &result {
                Ok(out) => {
                    let mut ok = gate.check(index, op.kind(), out, || {
                        run_one(&op, &reference_exec()).map_err(|e| e.0)
                    });
                    if let Some((tr, layers)) = traced.as_mut() {
                        if run_one(&op, &exec).ok().as_deref() != Some(out.as_str()) {
                            gate.miss(format!(
                                "op {index}: split output differs from the one-call output"
                            ));
                            ok = false;
                        }
                        if let Op::QuasiInverse(t) | Op::Recover(t) = &op {
                            probe(t, &exec, tr, layers);
                        }
                    }
                    ok
                }
                Err(e) => {
                    gate.miss(format!("op {index} ({}): error: {}", op.kind(), e.0));
                    false
                }
            };
            if !ok {
                p.failed += 1;
            }
        }
    }
    p.timed_s = timed.as_secs_f64();
    p
}

pub fn run(args: &Args) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut pending = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pending = setup(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut gate = Gate::new(args.seed, COMMITTED, false);
    let mut runner = Runner {
        seed: args.seed,
        next_block: 0,
        pending,
    };
    let untraced = pass(&mut runner, args.budget(), &mut gate, None);
    let traced = args.trace.then(|| {
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        let p = pass(
            &mut runner,
            args.budget(),
            &mut gate,
            Some((&mut tr, &mut layers)),
        );
        (p, layers, tr)
    });
    Outcome {
        setup_s,
        pass: untraced,
        traced,
        checks: format!(
            "{} output(s) checked by committed digest, {} against the reference configuration",
            gate.checked_by_digest, gate.checked_by_reference
        ),
        misses: gate.misses,
    }
}

/// Rewrite `digests/invert.txt` for the default seed.
pub fn bless() -> std::io::Result<()> {
    let mut gate = Gate::new(common::DEFAULT_SEED, "", true);
    let exec = default_exec();
    for b in 0..DIGEST_BLOCKS {
        for (index, op) in block(common::DEFAULT_SEED, b) {
            let out = run_one(&op, &reference_exec()).expect("reference op succeeds");
            assert_eq!(
                run_one(&op, &exec).expect("op succeeds"),
                out,
                "determinism contract"
            );
            gate.check(index, op.kind(), &out, || unreachable!());
        }
    }
    gate.write_blessed(
        &common::bench_dir().join("digests/invert.txt"),
        "invert outputs at the default seed, one FNV-1a digest per op (regenerate with --bless)",
    )
}
