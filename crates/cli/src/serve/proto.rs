//! Wire protocol: request decoding and response encoding.
//!
//! One request per NDJSON line; the same objects travel over the REST
//! front (`POST /rpc`). Every request may carry its own `exec` object —
//! thread count, planner mode, deadline, task/fact caps — which becomes
//! the per-request [`ExecConfig`]; nothing a request sets can leak into
//! another session.
//!
//! ```text
//! {"op":"load","name":"m1","text":"source: P/3\n…"}
//! {"op":"chase","id":"r7","mapping":"m1","instance":"P(a,b,c)",
//!  "exec":{"threads":2,"plan":"off","timeout_ms":60000,"max_steps":100000,"max_facts":50000}}
//! ```
//!
//! Responses mirror the request `id` and always carry either `output`
//! (`ok: true`) or a structured `error` (`ok: false`); exec counters ride
//! along under `stats`.

use super::json::{obj, Json};
use qi_exec::{Budget, ExecConfig, ExecStats, Parallelism, Planning};
use std::time::Duration;

/// The operation a request asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Parse + analyze a mapping and cache it under a session name.
    Load,
    /// Drop a loaded mapping.
    Unload,
    /// List loaded mapping names.
    List,
    /// Forward chase of an inline instance.
    Chase,
    /// Incremental re-chase under a `±` diff.
    Rechase,
    /// Algorithm QuasiInverse.
    QuasiInverse,
    /// Maximum recovery.
    Recover,
    /// Mapping containment between two loaded mappings.
    Contains,
    /// The cached lint report.
    Lint,
    /// The cached analyzer report.
    Analyze,
    /// Per-handler counters and latency percentiles.
    Metrics,
    /// Stop accepting connections and drain in-flight work.
    Shutdown,
}

impl Op {
    /// Stable handler label used by the metrics registry.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Load => "load",
            Op::Unload => "unload",
            Op::List => "list",
            Op::Chase => "chase",
            Op::Rechase => "rechase",
            Op::QuasiInverse => "quasi-inverse",
            Op::Recover => "recover",
            Op::Contains => "contains",
            Op::Lint => "lint",
            Op::Analyze => "analyze",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        }
    }
}

/// A decoded request: the op, the request id to echo, the raw document
/// for field access, and the per-request execution config.
#[derive(Clone, Debug)]
pub struct Request {
    /// What to do.
    pub op: Op,
    /// Echoed verbatim into the response (`Json::Null` when absent).
    pub id: Json,
    /// The full request document.
    pub doc: Json,
    /// The per-request execution configuration (parallelism, planner
    /// mode, resource budget) decoded from the `exec` object.
    pub exec: ExecConfig,
}

/// A structured request-decoding failure.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// Machine-readable kind: `bad-json`, `bad-request`.
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
    /// The request id, when one could be recovered.
    pub id: Json,
}

impl Request {
    /// Decode one NDJSON line.
    pub fn decode(line: &str) -> Result<Request, ProtoError> {
        let doc = super::json::parse(line).map_err(|e| ProtoError {
            kind: "bad-json",
            message: format!("malformed JSON: {e}"),
            id: Json::Null,
        })?;
        Self::from_json(doc)
    }

    /// Decode an already-parsed document.
    pub fn from_json(doc: Json) -> Result<Request, ProtoError> {
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        let bad = |message: String| ProtoError {
            kind: "bad-request",
            message,
            id: id.clone(),
        };
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field `op`".into()))?;
        let op = match op_name {
            "load" => Op::Load,
            "unload" => Op::Unload,
            "list" => Op::List,
            "chase" => Op::Chase,
            "rechase" => Op::Rechase,
            "quasi-inverse" => Op::QuasiInverse,
            "recover" => Op::Recover,
            "contains" => Op::Contains,
            "lint" => Op::Lint,
            "analyze" => Op::Analyze,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            other => return Err(bad(format!("unknown op `{other}`"))),
        };
        let exec = decode_exec(doc.get("exec")).map_err(bad)?;
        Ok(Request { op, id, doc, exec })
    }

    /// A required string field.
    pub fn str_field(&self, name: &str) -> Result<String, ProtoError> {
        self.doc
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ProtoError {
                kind: "bad-request",
                message: format!("op `{}` needs a string field `{name}`", self.op.label()),
                id: self.id.clone(),
            })
    }

    /// An optional boolean field, defaulting to `false`.
    pub fn flag(&self, name: &str) -> bool {
        self.doc.get(name).and_then(Json::as_bool).unwrap_or(false)
    }
}

/// Decode the `exec` object into an [`ExecConfig`]. Absent fields stay
/// at their `auto`/unlimited defaults; a malformed field is an error
/// (never silently ignored).
fn decode_exec(v: Option<&Json>) -> Result<ExecConfig, String> {
    let mut exec = ExecConfig::auto();
    let Some(v) = v else { return Ok(exec) };
    if !matches!(v, Json::Obj(_)) {
        return Err("`exec` must be an object".into());
    }
    if let Some(t) = v.get("threads") {
        let n = t
            .as_u64()
            .filter(|&n| n > 0 && n <= 4096)
            .ok_or("`exec.threads` must be an integer in 1..=4096")?;
        exec = exec.with_parallelism(Parallelism::fixed(n as usize));
    }
    if let Some(p) = v.get("plan") {
        let planning = match p.as_str() {
            Some("on") => Planning::On,
            Some("off") => Planning::Off,
            Some("auto") => Planning::Auto,
            _ => return Err("`exec.plan` must be \"on\", \"off\" or \"auto\"".into()),
        };
        exec = exec.with_planning(planning);
    }
    let mut budget = Budget::unlimited();
    if let Some(t) = v.get("timeout_ms") {
        let ms = t
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or("`exec.timeout_ms` must be a positive integer")?;
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(t) = v.get("max_steps") {
        let n = t
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or("`exec.max_steps` must be a positive integer")?;
        budget = budget.with_max_tasks(n);
    }
    if let Some(t) = v.get("max_facts") {
        let n = t
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or("`exec.max_facts` must be a positive integer")?;
        budget = budget.with_max_facts(n);
    }
    Ok(exec.with_budget(budget))
}

/// Render a success response line (no trailing newline).
pub fn ok_response(id: &Json, output: &str, stats: Option<&ResponseStats>) -> String {
    let mut fields = vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("output", Json::Str(output.to_owned())),
    ];
    if let Some(s) = stats {
        fields.push(("stats", s.to_json()));
    }
    obj(fields).render()
}

/// Render an error response line (no trailing newline).
pub fn err_response(id: &Json, kind: &str, message: &str) -> String {
    obj(vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj(vec![
                ("kind", Json::Str(kind.to_owned())),
                ("message", Json::Str(message.to_owned())),
            ]),
        ),
    ])
    .render()
}

/// The exec counters attached to a successful response.
#[derive(Clone, Debug, Default)]
pub struct ResponseStats {
    /// Wall-clock handler latency, microseconds.
    pub elapsed_us: u64,
    /// Executor tasks dispatched.
    pub tasks: u64,
}

impl ResponseStats {
    /// Build from a handler's [`ExecStats`] plus measured latency.
    pub fn from_exec(elapsed_us: u64, s: &ExecStats) -> Self {
        ResponseStats {
            elapsed_us,
            tasks: s.tasks,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("elapsed_us", Json::Num(self.elapsed_us as f64)),
            ("tasks", Json::Num(self.tasks as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_ops_and_exec() {
        let r = Request::decode(
            r#"{"op":"chase","id":"r1","mapping":"m","instance":"P(a)","exec":{"threads":3,"plan":"off","timeout_ms":5,"max_steps":10,"max_facts":20}}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Chase);
        assert_eq!(r.id, Json::Str("r1".into()));
        assert_eq!(r.exec.parallelism, Parallelism::fixed(3));
        assert_eq!(r.exec.planning, Planning::Off);
        assert!(!r.exec.budget.is_unlimited());
        assert_eq!(r.str_field("mapping").unwrap(), "m");
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"zap"}"#,
            r#"{"op":"chase","exec":{"threads":0}}"#,
            r#"{"op":"chase","exec":{"threads":"two"}}"#,
            r#"{"op":"chase","exec":{"plan":"sideways"}}"#,
            r#"{"op":"chase","exec":{"timeout_ms":-1}}"#,
            r#"{"op":"chase","exec":[1]}"#,
        ] {
            let e = Request::decode(bad).unwrap_err();
            assert!(matches!(e.kind, "bad-json" | "bad-request"), "{bad}");
        }
        // The id survives into the error when present.
        let e = Request::decode(r#"{"op":"zap","id":9}"#).unwrap_err();
        assert_eq!(e.id, Json::Num(9.0));
    }

    #[test]
    fn responses_render_stably() {
        let id = Json::Str("r1".into());
        let ok = ok_response(&id, "T(a,b)\n", None);
        assert_eq!(ok, r#"{"id":"r1","ok":true,"output":"T(a,b)\n"}"#);
        let e = err_response(&id, "bad-request", "missing `op`");
        assert!(e.contains(r#""ok":false"#), "{e}");
        assert!(e.contains(r#""kind":"bad-request""#), "{e}");
    }
}
