//! The benchmark's own trace: spans recorded around calls into each
//! crate's public functions (the program itself is not instrumented),
//! kept in memory and written out as JSON lines when the run ends.
//!
//! Every measured op is one root span named `op`; its children are the
//! public calls the op's handler makes. Probe calls made beside an op
//! (the `Σ*` / MinGen probes of the invert workload) hang off a root
//! named `probe` and are left out of span coverage.

use crate::common::json_str;
use qi_exec::ExecStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before the
    /// matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Open the root span of op `op`. Room for its children is reserved
    /// first, so that growing the span list never lands inside an op.
    pub fn begin_op(&mut self, op: u64) -> usize {
        self.spans.reserve(32);
        self.op = op;
        self.open("op")
    }

    /// Time `f` as a child span of the currently open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record an already-measured `op` root span.
    pub fn root(&mut self, op: u64, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name: "op",
            op,
            parent: None,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Record an already-measured span (for spans derived from another
    /// process's report, such as the server's handler time).
    pub fn record(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            op: self.spans[parent].op,
            parent: Some(parent),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Per-op coverage: the share of each `op` root's duration covered
    /// by its direct children. Returns `(ops, minimum, median)`.
    pub fn coverage(&self) -> (usize, f64, f64) {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut cov: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op" && s.parent.is_none())
            .map(|(i, s)| {
                let total = (s.end_ns - s.start_ns).max(1);
                child_ns.get(&i).copied().unwrap_or(0) as f64 / total as f64
            })
            .collect();
        cov.sort_by(f64::total_cmp);
        let min = cov.first().copied().unwrap_or(0.0);
        let med = crate::common::quantile(&cov, 0.5);
        (cov.len(), min, med)
    }

    /// Total milliseconds per span name.
    pub fn totals_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.ms();
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                json_str(s.name),
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Which per-layer time metric a span name feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("parse_mapping_file", "analyze.ms"),
    ("Instance::parse", "lang.instance_parse_ms"),
    ("Diff::parse", "lang.instance_parse_ms"),
    ("sigma_star", "core.sigma_star.ms"),
    ("min_gen_with_stats", "core.mingen.ms"),
    ("quasi_inverse_with_stats", "core.quasi_inverse.ms"),
    ("maximum_recovery_with_stats", "core.recovery.ms"),
    ("mapping_contains_with_exec", "core.containment.ms"),
    ("render", "core.render.ms"),
    ("chase_with_target_deps_stats", "chase.ms"),
    ("SchemaMapping::chase_outcome", "chase.ms"),
    ("chase_delta", "chase.delta.ms"),
    ("core_of_with_stats", "schema.core.ms"),
];

/// Every per-layer metric the traced run reports, with its unit. The
/// list is the same on every workload; a layer a workload bypasses
/// reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("analyze.ms", "ms"),
    ("lang.instance_parse_ms", "ms"),
    ("core.sigma_star.ms", "ms"),
    ("core.sigma_star.deps", "count"),
    ("core.mingen.ms", "ms"),
    ("core.mingen.tasks", "count"),
    ("core.mingen.hom_cache_hit_ratio", "ratio"),
    ("core.quasi_inverse.ms", "ms"),
    ("core.recovery.ms", "ms"),
    ("core.containment.ms", "ms"),
    ("core.containment.tasks", "count"),
    ("core.render.ms", "ms"),
    ("chase.ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.triggers_enumerated", "count"),
    ("chase.triggers_fired", "count"),
    ("chase.fire_ratio", "ratio"),
    ("chase.delta.ms", "ms"),
    ("chase.delta.facts_in", "count"),
    ("chase.delta.facts_deleted", "count"),
    ("chase.delta.facts_rederived", "count"),
    ("chase.delta.rederive_ratio", "ratio"),
    ("schema.core.ms", "ms"),
    ("schema.core.endos_tried", "count"),
    ("schema.core.nulls_folded", "count"),
    ("schema.plan.plans_applied", "count"),
    ("schema.plan.prefilter_hits", "count"),
    ("schema.plan.bloom_hits", "count"),
    ("schema.plan.bloom_fp_ratio", "ratio"),
    ("schema.postings_rebuilt_ratio", "ratio"),
    ("exec.workers", "count"),
    ("exec.tasks", "count"),
    ("exec.morsels", "count"),
    ("exec.tasks_per_morsel", "ratio"),
    ("serve.handler_ms.chase", "ms"),
    ("serve.handler_ms.rechase", "ms"),
    ("serve.handler_ms.quasi-inverse", "ms"),
    ("serve.handler_ms.recover", "ms"),
    ("serve.handler_ms.contains", "ms"),
    ("serve.handler_ms.lint", "ms"),
    ("serve.handler_ms.analyze", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.hom_cache_hit_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.span_coverage_min", "ratio"),
    ("trace.span_coverage_median", "ratio"),
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.overhead_mean_ratio", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer accumulators of one traced pass.
#[derive(Default)]
pub struct Layers {
    /// Directly accumulated metrics (counts, probe times, serve times).
    pub values: BTreeMap<&'static str, f64>,
    /// Every `ExecStats` the measured calls returned, merged.
    pub exec: ExecStats,
    /// `ExecStats` of the scratch chases only.
    pub chase: ExecStats,
    /// `ExecStats` of the `chase_delta` steps only.
    pub delta: ExecStats,
    /// MinGen probe hom-cache traffic.
    pub mingen_hits: u64,
    pub mingen_misses: u64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Resolve every metric of [`LAYER_METRICS`], folding in the span
    /// totals of `tracer`.
    pub fn finish(mut self, tracer: &Tracer) -> Vec<(&'static str, &'static str, f64)> {
        for (span, ms) in tracer.totals_ms() {
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(s, _)| *s == span) {
                self.add(metric, ms);
            }
        }
        let c = self.chase.clone();
        let d = self.delta.clone();
        let e = self.exec.clone();
        let derived: [(&'static str, f64); 18] = [
            (
                "core.mingen.hom_cache_hit_ratio",
                ratio(
                    self.mingen_hits as f64,
                    (self.mingen_hits + self.mingen_misses) as f64,
                ),
            ),
            ("chase.rounds", c.rounds as f64),
            ("chase.triggers_enumerated", c.triggers_enumerated as f64),
            ("chase.triggers_fired", c.triggers_fired as f64),
            (
                "chase.fire_ratio",
                ratio(c.triggers_fired as f64, c.triggers_enumerated as f64),
            ),
            ("chase.delta.facts_in", d.delta_facts_in as f64),
            ("chase.delta.facts_deleted", d.facts_deleted as f64),
            ("chase.delta.facts_rederived", d.facts_rederived as f64),
            (
                "chase.delta.rederive_ratio",
                ratio(d.facts_rederived as f64, d.facts_deleted as f64),
            ),
            ("schema.plan.plans_applied", e.plans_applied as f64),
            ("schema.plan.prefilter_hits", e.prefilter_hits as f64),
            ("schema.plan.bloom_hits", e.bloom_hits as f64),
            (
                "schema.plan.bloom_fp_ratio",
                ratio(
                    e.bloom_false_positives as f64,
                    (e.bloom_hits + e.bloom_false_positives) as f64,
                ),
            ),
            (
                "schema.postings_rebuilt_ratio",
                ratio(
                    e.postings_rebuilt as f64,
                    (e.postings_rebuilt + e.postings_reused) as f64,
                ),
            ),
            ("exec.workers", e.workers as f64),
            ("exec.tasks", e.tasks as f64),
            ("exec.morsels", e.morsels as f64),
            (
                "exec.tasks_per_morsel",
                ratio(e.tasks as f64, e.morsels as f64),
            ),
        ];
        for (k, v) in derived {
            self.add(k, v);
        }
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| (*name, *unit, self.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}
