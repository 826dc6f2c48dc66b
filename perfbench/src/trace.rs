//! Spans recorded from the benchmark's own code around calls into each
//! layer, and the per-layer metric table the traced run prints.
//!
//! Spans stay in memory and are written once, at exit. With tracing off
//! every call is a no-op, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: `pass` is the workload pass it belongs to (0 is
/// set-up and the per-layer replays), `parent` the enclosing span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub pass: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

/// A span id handed out by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    pass: usize,
    open: Vec<usize>,
    records: Vec<SpanRecord>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            pass: 0,
            open: Vec::new(),
            records: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts attributing new spans to workload pass `pass`.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.records.len();
        self.records.push(SpanRecord {
            id,
            pass: self.pass,
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.records[top].end_s = now;
            if top == id {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.records
                .iter()
                .map(|r| {
                    serde_json::json!({
                        "id": r.id,
                        "pass": r.pass,
                        "name": r.name,
                        "start_s": r.start_s,
                        "end_s": r.end_s,
                        "parent": r.parent,
                    })
                })
                .collect(),
        )
    }
}

/// Every per-layer metric the traced run prints, with its unit, in
/// print order. A workload that does not exercise a layer reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exitcfg.search_s", "s"),
    ("exitcfg.evals", "count"),
    ("exitcfg.exhaustive_evals", "count"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.report_bytes", "bytes"),
    ("workload.draw_ns", "ns"),
    ("workload.tasks", "count"),
    ("offload.decide_batch_ns", "ns"),
    ("offload.decide_ns", "ns"),
    ("offload.queue_step_ns", "ns"),
    ("offload.kkt_s", "s"),
    ("offload.degrade_retries", "count"),
    ("offload.degrade_fallbacks", "count"),
    ("par.rounds", "count"),
    ("par.round_ns", "ns"),
    ("par.speedup_2w", "x"),
    ("telemetry.overhead_s", "s"),
    ("telemetry.flush_ns", "ns"),
    ("telemetry.snapshot_bytes", "bytes"),
    ("simnet.series_points", "count"),
    ("simnet.series_push_ns", "ns"),
    ("chaos.compile_s", "s"),
    ("chaos.lookup_ns", "ns"),
    ("chaos.fault_slots", "count"),
    ("fleet.new_s", "s"),
    ("fleet.interval_setup_s", "s"),
    ("fleet.boundary_s", "s"),
    ("fleet.migrations", "count"),
    ("fleet.intervals", "count"),
    ("serving.steer_s", "s"),
    ("serving.request_draw_ns", "ns"),
    ("serving.admit_ns", "ns"),
    ("serving.rate_factor_ns", "ns"),
    ("serving.offered", "count"),
    ("serving.admitted", "count"),
    ("serving.shed", "count"),
    ("trace.overhead_s", "s"),
];

/// Per-layer values a workload measured; names must come from
/// [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` for every metric of [`PER_LAYER`].
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer");
        spans.set_pass(3);
        let inner = spans.enter("inner");
        spans.exit(inner);
        spans.exit(outer);
        let r = spans.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[1].pass, 3);
        assert!(r.iter().all(|s| s.end_s >= s.start_s));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        let s = spans.enter("x");
        spans.exit(s);
        assert!(spans.records().is_empty());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
