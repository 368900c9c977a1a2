//! Per-handler serving metrics: request counters, latency percentiles,
//! and aggregated executor task counts.
//!
//! Samples are kept in a bounded reservoir per handler (the first
//! `SAMPLE_CAP` latencies — ample for smoke tests and load benches);
//! counters are exact. Rendering computes percentiles on demand by
//! sorting a copy, so the hot path stays O(1) per request.

use super::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Cap on retained latency samples per handler.
const SAMPLE_CAP: usize = 16_384;

#[derive(Default)]
struct HandlerMetrics {
    requests: u64,
    errors: u64,
    total_us: u64,
    tasks: u64,
    latencies_us: Vec<u64>,
}

/// The shared metrics table; cheap to clone (an `Arc` handle).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<BTreeMap<&'static str, HandlerMetrics>>>,
}

impl Metrics {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request against `handler`.
    pub fn record(&self, handler: &'static str, ok: bool, elapsed_us: u64, tasks: u64) {
        let mut map = self.inner.lock().expect("metrics lock");
        let h = map.entry(handler).or_default();
        h.requests += 1;
        if !ok {
            h.errors += 1;
        }
        h.total_us += elapsed_us;
        h.tasks += tasks;
        if h.latencies_us.len() < SAMPLE_CAP {
            h.latencies_us.push(elapsed_us);
        }
    }

    /// Render the whole table as a JSON object keyed by handler label.
    pub fn render(&self) -> Json {
        let map = self.inner.lock().expect("metrics lock");
        let mut out = BTreeMap::new();
        for (name, h) in map.iter() {
            let mut sorted = h.latencies_us.clone();
            sorted.sort_unstable();
            let pct = |p: f64| -> u64 {
                if sorted.is_empty() {
                    return 0;
                }
                let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
                sorted[rank.min(sorted.len() - 1)]
            };
            out.insert(
                (*name).to_owned(),
                obj(vec![
                    ("requests", Json::Num(h.requests as f64)),
                    ("errors", Json::Num(h.errors as f64)),
                    ("total_us", Json::Num(h.total_us as f64)),
                    ("p50_us", Json::Num(pct(50.0) as f64)),
                    ("p95_us", Json::Num(pct(95.0) as f64)),
                    ("p99_us", Json::Num(pct(99.0) as f64)),
                    ("tasks", Json::Num(h.tasks as f64)),
                ]),
            );
        }
        Json::Obj(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_percentiles() {
        let m = Metrics::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            m.record("chase", true, us, 5);
        }
        m.record("chase", false, 1000, 0);
        let doc = m.render();
        let chase = doc.get("chase").expect("chase handler present");
        assert_eq!(chase.get("requests").and_then(Json::as_u64), Some(11));
        assert_eq!(chase.get("errors").and_then(Json::as_u64), Some(1));
        let p50 = chase.get("p50_us").and_then(Json::as_u64).unwrap();
        assert!((50..=60).contains(&p50), "p50 = {p50}");
        let p99 = chase.get("p99_us").and_then(Json::as_u64).unwrap();
        assert_eq!(p99, 1000);
        assert_eq!(chase.get("tasks").and_then(Json::as_u64), Some(50));
    }
}
