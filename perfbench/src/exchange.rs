//! The `exchange` workload: data-level ops, bulk reads beside writes,
//! by one caller in a closed loop.
//!
//! * Reads are `qi_cli::cmd_chase` calls (half of them with `--stats`,
//!   so `core_of` runs too) on seeded instances: a decomposition with
//!   640 and 2560 facts, a 4-way union with 1024 facts, and
//!   `examples/mappings/transitive_closure.qim` on a DAG of 64 edges.
//! * Writes are batches of [`STEPS_PER_WRITE`] `qi_chase::chase_delta`
//!   steps: each step applies one diff of a mixed `update_stream` to a
//!   maintained transitive closure over 96 nodes (no egds, so DRed
//!   maintains it), and the batch renders the closure it ends with.
//!
//! Why: it stresses qi-chase rounds, FactStore postings, the planner,
//! prefilters and blooms on large posting lists, DRed and the core, and
//! bypasses MinGen and transport.
//!
//! Ops come in blocks of ten with a fixed composition: six writes and
//! four reads. Writes walk [`CHAINS`] seeded chains of [`CHAIN`] steps
//! each ([`WRITES_PER_CHAIN`] writes), one chain after the other, every
//! chain restarting from its own initial closure, so the maintained
//! state stays the same size however long a run lasts. Two reads cost
//! less than a write and two more, so the block's median op is its
//! middle write. Reads and writes repeat their inputs across a run
//! (block `b` reads variant `b % VARIANTS`), so each distinct input is
//! checked in full once and later outputs are compared with the checked
//! one.

use crate::common::{self, default_exec, reference_exec, Args, Gate, Outcome, Pass, SETUP_REPS};
use crate::trace::{Layers, Tracer};
use qi_chase::{
    chase_delta, chase_incremental, chase_with_target_deps_stats, satisfies_all_tgds, ChaseResult,
    DeltaChaseOptions, ExchangeSetting, TargetChaseOptions, TargetChaseResult,
};
use qi_cli::{cmd_chase, parse_mapping_file, CliError, MappingFile};
use qi_exec::{ExecConfig, ExecStats};
use qi_schema::{core_of_with_stats, Diff, Instance, Schema};
use qi_workloads::families;
use qi_workloads::paper::mapping_file_text;
use qi_workloads::rng::Rng64;
use qi_workloads::updates::{update_stream, UpdateMix, UpdateParams};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const COMMITTED: &str = include_str!("../digests/exchange.txt");
const TRANSITIVE_CLOSURE: &str = include_str!("../../examples/mappings/transitive_closure.qim");

/// Seeded variants of each read instance; block `b` reads variant
/// `b % VARIANTS`.
const VARIANTS: usize = 4;

/// Write chains, and steps per chain (one chain lasts two blocks).
const CHAINS: usize = 8;
const CHAIN: usize = 48;
const WRITES_PER_BLOCK: usize = 6;

/// `chase_delta` steps per write. A single step costs about the same
/// as the cheapest read and varies with its diff; a batch of four sits
/// between the cheap and the expensive reads, so the block's median op
/// is the middle write, and sums out much of the per-diff variation.
const STEPS_PER_WRITE: usize = 4;
const WRITES_PER_CHAIN: usize = CHAIN / STEPS_PER_WRITE;

/// Nodes of the maintained transitive closure, and its starting edges.
const TC_NODES: usize = 96;
const TC_EDGES: usize = 240;

/// Distinct op inputs: every (read variant, read, `--stats`) and every
/// (chain, write). Their outputs are what the digest file pins.
/// Per variant: read 0 always with `--stats`, read 1 never, reads 2
/// and 3 both ways.
const READ_KEYS: usize = VARIANTS * 6;
const KEYS: usize = READ_KEYS + CHAINS * WRITES_PER_CHAIN;

/// A read: which mapping and which instance literal.
struct Read {
    kind: &'static str,
    mapping: usize,
    instance: String,
}

/// A write chain: the initial closure and the diff texts it applies.
struct Chain {
    initial: ChaseResult,
    diffs: Vec<String>,
}

/// Everything set-up produces.
struct Inputs {
    /// Mapping file texts: decomposition, union, transitive closure.
    mappings: [String; 3],
    /// `reads[variant]` = the four reads of a block.
    reads: Vec<[Read; 4]>,
    /// The maintained setting (transitive closure without its egd).
    setting: ExchangeSetting,
    source_schema: Schema,
    chains: Vec<Chain>,
}

/// The mapping of `decomposition_k(3)` preceded by a weaker existential
/// copy of its tgd: the chase fires the existential tgd first and emits
/// one null per source fact, which the full tgd then makes redundant
/// and the core folds away.
fn decomposition_text() -> String {
    let full = mapping_file_text(&families::decomposition_k(3));
    let (schemas, tgd) = full.split_at(full.find("tgd:").expect("one tgd"));
    format!("{schemas}tgd: P(x1,x2,x3) -> exists y . Q1(x1,y) & Q2(y,x3)\n{tgd}")
}

fn decomposition_literal(rng: &mut Rng64, n: usize) -> String {
    let salt = rng.next_u64() % 1000;
    let mut out = String::new();
    for i in 0..n {
        let mid = rng.random_range(0..8usize);
        let _ = write!(out, "P(a{salt}_{i},b{mid},c{salt}_{i}) ");
    }
    out
}

fn union_literal(rng: &mut Rng64, n: usize) -> String {
    let salt = rng.next_u64() % 1000;
    let mut out = String::new();
    for i in 0..n {
        let r = rng.random_range(1..=4usize);
        let _ = write!(out, "P{r}(c{salt}_{i}) ");
    }
    out
}

/// `edges` distinct edges `(ci, cj)` with `i < j` over `nodes` nodes.
fn dag_edges(rng: &mut Rng64, nodes: usize, edges: usize) -> Vec<(usize, usize)> {
    let mut set = std::collections::BTreeSet::new();
    while set.len() < edges {
        let i = rng.random_range(0..nodes);
        let j = rng.random_range(0..nodes);
        if i < j {
            set.insert((i, j));
        }
    }
    set.into_iter().collect()
}

/// Drop the insertions of backward edges `E0(ci,cj)`, `i >= j`, from a
/// rendered diff: the closure stays acyclic, so a single inserted edge
/// cannot merge the graph into one strongly connected component and
/// swing the closure's size (and every later step's cost) by an order
/// of magnitude.
fn forward_only(diff: &str) -> String {
    diff.lines()
        .filter(|l| {
            let Some(fact) = l.strip_prefix("+ ") else {
                return true;
            };
            let nums: Vec<usize> = fact
                .trim_start_matches("E0(")
                .trim_end_matches(')')
                .split(',')
                .filter_map(|c| c.trim().strip_prefix('c')?.parse().ok())
                .collect();
            matches!(nums[..], [i, j] if i < j)
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng64::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xe1c4);
    let mappings = [
        decomposition_text(),
        mapping_file_text(&families::union_n(4)),
        TRANSITIVE_CLOSURE.to_owned(),
    ];
    let reads = (0..VARIANTS)
        .map(|_| {
            let tc: String = dag_edges(&mut rng, 32, 64)
                .into_iter()
                .map(|(i, j)| format!("E0(c{i},c{j}) "))
                .collect();
            [
                Read {
                    kind: "chase-decomposition-640",
                    mapping: 0,
                    instance: decomposition_literal(&mut rng, 640),
                },
                Read {
                    kind: "chase-decomposition-2560",
                    mapping: 0,
                    instance: decomposition_literal(&mut rng, 2560),
                },
                Read {
                    kind: "chase-union-1024",
                    mapping: 1,
                    instance: union_literal(&mut rng, 1024),
                },
                Read {
                    kind: "chase-closure-64",
                    mapping: 2,
                    instance: tc,
                },
            ]
        })
        .collect();
    // The maintained closure: the example's setting without its egd.
    let no_egd: String = TRANSITIVE_CLOSURE
        .lines()
        .filter(|l| !l.starts_with("egd:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let mf = parse_mapping_file(&no_egd).expect("the closure example parses");
    let setting = mf.setting();
    let source_schema = mf.mapping.source.clone();
    let chains = (0..CHAINS)
        .map(|_| {
            let mut start = Instance::new(source_schema.clone());
            for (i, j) in dag_edges(&mut rng, TC_NODES, TC_EDGES) {
                start
                    .insert_consts("E0", &[&format!("c{i}"), &format!("c{j}")])
                    .expect("E0 is binary");
            }
            let diffs = update_stream(
                &start,
                &mut rng,
                &UpdateParams {
                    steps: CHAIN,
                    step_size: 2,
                    n_consts: TC_NODES,
                    mix: UpdateMix::Mixed,
                },
            )
            .iter()
            .map(|d| forward_only(&d.display(&source_schema).to_string()))
            .collect();
            let initial = chase_incremental(
                &setting,
                &start,
                &mf.mapping.target,
                &DeltaChaseOptions::default(),
            )
            .expect("the initial closure chases");
            Chain { initial, diffs }
        })
        .collect();
    let inputs = Inputs {
        mappings,
        reads,
        setting,
        source_schema,
        chains,
    };
    // Warm-up: one read of each kind.
    let exec = default_exec();
    for r in &inputs.reads[0] {
        std::hint::black_box(cmd_chase(&inputs.mappings[r.mapping], &r.instance, true, &exec).ok());
    }
    inputs
}

/// One op of a block.
enum Op<'a> {
    /// Read `reads[variant][r]`, with or without `--stats`.
    Read {
        variant: usize,
        r: usize,
        read: &'a Read,
        stats: bool,
    },
    /// Write `write` of chain `chain`: its steps
    /// `write * STEPS_PER_WRITE ..` `(write + 1) * STEPS_PER_WRITE`.
    Write { chain: usize, write: usize },
}

impl Op<'_> {
    /// The op's distinct-input key (its line in the digest file).
    fn key(&self) -> usize {
        match *self {
            Op::Read {
                variant, r, stats, ..
            } => variant * 6 + [0, 1, 2, 4][r] + usize::from(stats && r >= 2),
            Op::Write { chain, write } => READ_KEYS + chain * WRITES_PER_CHAIN + write,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Op::Read { read, .. } => read.kind,
            Op::Write { .. } => "chase_delta-closure-96",
        }
    }
}

fn block_ops(inputs: &Inputs, b: u64) -> Vec<Op<'_>> {
    let b = b as usize;
    let variant = b % VARIANTS;
    let blocks_per_chain = WRITES_PER_CHAIN / WRITES_PER_BLOCK;
    let chain = (b / blocks_per_chain) % CHAINS;
    let mut next = (b % blocks_per_chain) * WRITES_PER_BLOCK;
    let mut write = || {
        next += 1;
        Op::Write {
            chain,
            write: next - 1,
        }
    };
    let read = |r: usize, stats: bool| Op::Read {
        variant,
        r,
        read: &inputs.reads[variant][r],
        stats,
    };
    // Half the reads run with `--stats`: the 640-fact decomposition
    // always, and the union or the closure, alternating every round of
    // variants (so each variant is read both ways).
    let even = (b / VARIANTS).is_multiple_of(2);
    vec![
        write(),
        read(0, true),
        write(),
        read(1, false),
        write(),
        write(),
        read(2, even),
        write(),
        read(3, !even),
        write(),
    ]
}

/// The split of `cmd_chase`: the public calls its handler makes.
fn chase_split(
    text: &str,
    literal: &str,
    stats: bool,
    exec: &ExecConfig,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<String, CliError> {
    let mf: MappingFile = tr.span("parse_mapping_file", || parse_mapping_file(text))?;
    let m = &mf.mapping;
    let i = tr
        .span("Instance::parse", || Instance::parse(&m.source, literal))
        .map_err(|e| CliError(format!("invalid instance: {e}")))?;
    let u = if mf.has_target_deps() {
        let options = TargetChaseOptions {
            max_steps: None,
            exec: exec.clone(),
            certificate: mf.certificate.clone(),
            ..Default::default()
        };
        let (result, ts) = tr
            .span("chase_with_target_deps_stats", || {
                chase_with_target_deps_stats(&mf.setting(), &i, &m.target, options)
            })
            .map_err(|e| CliError(e.to_string()))?;
        layers.chase.absorb(&ts.exec);
        layers.exec.absorb(&ts.exec);
        match result {
            TargetChaseResult::Solution(u) => u,
            TargetChaseResult::Failed { .. } => {
                return Err(CliError("unexpected egd failure".into()));
            }
        }
    } else {
        let outcome = tr
            .span("SchemaMapping::chase_outcome", || {
                m.clone().with_exec(exec.clone()).chase_outcome(&i)
            })
            .map_err(|e| CliError(e.to_string()))?;
        layers.chase.absorb(&outcome.stats);
        layers.exec.absorb(&outcome.stats);
        outcome.instance
    };
    let mut out = tr.span("render_instance", || format!("{u}\n"));
    let mut core = None;
    if stats {
        let (c, cs) = tr.span("core_of_with_stats", || core_of_with_stats(&u));
        layers.add("schema.core.endos_tried", cs.endos_tried as f64);
        layers.add("schema.core.nulls_folded", cs.nulls_folded as f64);
        tr.span("render_instance", || {
            let _ = writeln!(out, "core: {c}");
            let _ = writeln!(
                out,
                "core stats: {} endomorphism search(es), {} null(s) folded in {} round(s)",
                cs.endos_tried, cs.nulls_folded, cs.rounds
            );
        });
        core = Some(c);
    }
    // Freeing the instances is part of the op's cost.
    tr.span("drop", || drop((mf, i, u, core)));
    Ok(out)
}

/// A write: for each diff, parse it and maintain the closure; then
/// render the closure it ends with.
fn write_step(
    state: &ChaseResult,
    schema: &Schema,
    diff_texts: &[String],
    exec: &ExecConfig,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
) -> Result<(String, ChaseResult), CliError> {
    let opts = DeltaChaseOptions {
        exec: exec.clone(),
        ..Default::default()
    };
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match traced.as_mut() {
        Some((tr, _)) => tr.span(name, f),
        None => f(),
    };
    let mut current: Option<ChaseResult> = None;
    let mut stats = ExecStats::default();
    for diff_text in diff_texts {
        let mut diff = None;
        span("Diff::parse", &mut || {
            diff = Some(Diff::parse(schema, diff_text))
        });
        let mut diff = Some(
            diff.expect("ran")
                .map_err(|e| CliError(format!("invalid diff: {e}")))?,
        );
        let mut next = None;
        span("chase_delta", &mut || {
            let prev = current.as_ref().unwrap_or(state);
            next = Some(chase_delta(prev, diff.as_ref().expect("parsed"), &opts));
        });
        let next = next.expect("ran").map_err(|e| CliError(e.to_string()))?;
        stats.absorb(&next.stats.exec);
        // The replaced state is freed inside the op, like the diff.
        let mut replaced = current.replace(next);
        span("drop", &mut || drop((diff.take(), replaced.take())));
    }
    let next = current.expect("a write applies at least one diff");
    let mut out = String::new();
    span("render_instance", &mut || {
        out = format!("{}\n", next.solution().expect("no egds, so no failure"));
    });
    if let Some((_, layers)) = traced {
        layers.delta.absorb(&stats);
        layers.exec.absorb(&stats);
    }
    Ok((out, next))
}

/// Does the rendered chase output satisfy the mapping's dependencies
/// on its source instance?
fn satisfies(mf: &MappingFile, literal: &str, output: &str) -> bool {
    let Ok(i) = Instance::parse(&mf.mapping.source, literal) else {
        return false;
    };
    let Ok(u) = Instance::parse(&mf.mapping.target, output.lines().next().unwrap_or("")) else {
        return false;
    };
    satisfies_all_tgds(&i, &u, &mf.mapping.tgds) && satisfies_all_tgds(&u, &u, &mf.target_tgds)
}

struct Runner {
    next_block: u64,
    state: ChaseResult,
    /// Digest of the checked output of each distinct input.
    verified: Vec<Option<u64>>,
}

/// Run op `op` once: the one-call form, or split into spans when
/// traced. Returns the output and, for a write, the next state.
fn run_op(
    inputs: &Inputs,
    op: &Op<'_>,
    state: &ChaseResult,
    exec: &ExecConfig,
    traced: Option<(&mut Tracer, &mut Layers)>,
) -> Result<(String, Option<ChaseResult>), CliError> {
    match (op, traced) {
        (Op::Read { read, stats, .. }, None) => {
            cmd_chase(&inputs.mappings[read.mapping], &read.instance, *stats, exec)
                .map(|o| (o, None))
        }
        (Op::Read { read, stats, .. }, Some((tr, layers))) => chase_split(
            &inputs.mappings[read.mapping],
            &read.instance,
            *stats,
            exec,
            tr,
            layers,
        )
        .map(|o| (o, None)),
        (Op::Write { chain, write }, t) => write_step(
            state,
            &inputs.source_schema,
            &inputs.chains[*chain].diffs[write * STEPS_PER_WRITE..(write + 1) * STEPS_PER_WRITE],
            exec,
            t,
        )
        .map(|(o, next)| (o, Some(next))),
    }
}

/// The full check of an output seen for the first time: the committed
/// digest (default seed) or the reference configuration, and the
/// dependencies.
fn full_check(
    inputs: &Inputs,
    files: &[MappingFile],
    op: &Op<'_>,
    state: &ChaseResult,
    out: &str,
    next: Option<&ChaseResult>,
    gate: &mut Gate,
) -> bool {
    let key = op.key() as u64;
    let reference = || {
        run_op(inputs, op, state, &reference_exec(), None)
            .map(|(o, _)| o)
            .map_err(|e| e.0)
    };
    let ok = gate.check(key, op.kind(), out, reference);
    let satisfied = match (op, next) {
        (Op::Read { read, .. }, None) => satisfies(&files[read.mapping], &read.instance, out),
        (Op::Write { .. }, Some(next)) => {
            let sol = next.solution().expect("no egds");
            satisfies_all_tgds(&next.source, sol, &inputs.setting.st_tgds)
                && satisfies_all_tgds(sol, sol, &inputs.setting.target_tgds)
        }
        _ => unreachable!("reads return no state, writes do"),
    };
    if !satisfied {
        gate.miss(format!(
            "input {key} ({}): solution violates a dependency",
            op.kind()
        ));
    }
    ok && satisfied
}

fn pass(
    inputs: &Inputs,
    runner: &mut Runner,
    budget: Duration,
    gate: &mut Gate,
    mut traced: Option<(&mut Tracer, &mut Layers)>,
) -> Pass {
    let exec = default_exec();
    let files: Vec<MappingFile> = inputs
        .mappings
        .iter()
        .map(|t| parse_mapping_file(t).expect("workload mappings parse"))
        .collect();
    let mut p = Pass::default();
    let mut timed = Duration::ZERO;
    while timed < budget {
        let b = runner.next_block;
        runner.next_block += 1;
        for (pos, op) in block_ops(inputs, b).into_iter().enumerate() {
            let index = b * 10 + pos as u64;
            if let Op::Write { chain, write: 0 } = op {
                runner.state = inputs.chains[chain].initial.clone();
            }
            let t = Instant::now();
            let result = match traced.as_mut() {
                None => run_op(inputs, &op, &runner.state, &exec, None),
                Some((tr, layers)) => {
                    let root = tr.begin_op(index);
                    let r = run_op(
                        inputs,
                        &op,
                        &runner.state,
                        &exec,
                        Some((&mut **tr, &mut **layers)),
                    );
                    tr.close(root);
                    r
                }
            };
            let latency = match traced.as_ref() {
                Some((tr, _)) => {
                    let root = tr
                        .spans
                        .iter()
                        .rposition(|s| s.parent.is_none())
                        .expect("root");
                    Duration::from_nanos(tr.spans[root].end_ns - tr.spans[root].start_ns)
                }
                None => t.elapsed(),
            };
            timed += latency;
            p.record(op.kind(), latency);
            // Checks run outside the timed region; an input's first
            // output is checked in full, later ones against it.
            let ok = match result {
                Ok((out, next)) => {
                    let key = op.key();
                    let digest = common::fnv64(out.as_bytes());
                    let ok = match runner.verified[key] {
                        Some(d) => d == digest,
                        None => {
                            let ok = full_check(
                                inputs,
                                &files,
                                &op,
                                &runner.state,
                                &out,
                                next.as_ref(),
                                gate,
                            );
                            if ok {
                                runner.verified[key] = Some(digest);
                            }
                            ok
                        }
                    };
                    if !ok {
                        gate.miss(format!("op {index} ({}): wrong output", op.kind()));
                    }
                    if let Some(next) = next {
                        runner.state = next;
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
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut gate = Gate::new(args.seed, COMMITTED, false);
    let mut runner = Runner {
        next_block: 0,
        state: inputs.chains[0].initial.clone(),
        verified: vec![None; KEYS],
    };
    let untraced = pass(&inputs, &mut runner, args.budget(), &mut gate, None);
    // The traced pass compares every split output with the verified
    // one-call output of the same input.
    let traced = args.trace.then(|| {
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        runner.next_block = 0;
        let p = pass(
            &inputs,
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
            "{} distinct input(s) checked by committed digest, {} against the reference \
             configuration, all against their dependencies; repeats compared with the checked output",
            gate.checked_by_digest, gate.checked_by_reference
        ),
        misses: gate.misses,
    }
}

/// Rewrite `digests/exchange.txt` for the default seed: one digest per
/// distinct input, in key order, computed under the reference
/// configuration and cross-checked against the default one.
pub fn bless() -> std::io::Result<()> {
    let inputs = setup(common::DEFAULT_SEED);
    let mut outs: Vec<Option<String>> = vec![None; KEYS];
    let blocks = (CHAINS * WRITES_PER_CHAIN / WRITES_PER_BLOCK).max(VARIANTS * 2) as u64;
    let mut state = inputs.chains[0].initial.clone();
    for b in 0..blocks {
        for op in block_ops(&inputs, b) {
            if let Op::Write { chain, write: 0 } = op {
                state = inputs.chains[chain].initial.clone();
            }
            let (out, next) = run_op(&inputs, &op, &state, &reference_exec(), None)
                .expect("reference op succeeds");
            let (again, _) =
                run_op(&inputs, &op, &state, &default_exec(), None).expect("op succeeds");
            assert_eq!(out, again, "determinism contract");
            outs[op.key()] = Some(out);
            if let Some(next) = next {
                state = next;
            }
        }
    }
    let mut gate = Gate::new(common::DEFAULT_SEED, "", true);
    for (key, out) in outs.iter().enumerate() {
        let out = out.as_ref().expect("every input ran");
        gate.check(key as u64, "bless", out, || unreachable!());
    }
    gate.write_blessed(
        &common::bench_dir().join("digests/exchange.txt"),
        "exchange outputs at the default seed, one FNV-1a digest per distinct input \
         (regenerate with --bless)",
    )
}
