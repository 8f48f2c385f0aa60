//! Metric names, units and the result line.
//!
//! These tables and `BENCHMARK.json` must list the same metrics; a
//! self-test holds them together.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: [Def; 5] = [
    def("throughput_rps", "req/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("rss_peak_mb", "MiB", "lower"),
];

/// Single layers, named `<crate>.<what>`; printed by traced runs.
pub const PER_LAYER: [Def; 41] = [
    // the self-time split (shares of the traced wall time)
    def("serve.share", "frac", "lower"),
    def("stream.entry_screen_share", "frac", "lower"),
    def("stream.entry_sweep_share", "frac", "lower"),
    def("index.share", "frac", "lower"),
    def("salient.extract_share", "frac", "lower"),
    def("align.band_plan_share", "frac", "lower"),
    def("dtw.lb_share", "frac", "lower"),
    def("dtw.dp_share", "frac", "lower"),
    def("unattributed_frac", "frac", "lower"),
    // set-up, per cold start
    def("tseries.parse_s", "s", "lower"),
    def("index.build_s", "s", "lower"),
    def("index.snapshot_encode_s", "s", "lower"),
    def("index.snapshot_decode_s", "s", "lower"),
    def("index.snapshot_bytes_per_sample", "B/sample", "lower"),
    // paper layers
    def("salient.extract_corpus_s", "s", "lower"),
    def("salient.extract_us_per_window", "us", "lower"),
    def("salient.features_per_window", "count", "lower"),
    def("scalespace.pyramid_share", "frac", "lower"),
    def("align.plan_band_us", "us", "lower"),
    def("core.band_area_frac", "frac", "lower"),
    // DP kernel and bounds
    def("dtw.dp_ns_per_cell", "ns", "lower"),
    def("dtw.cells_per_request", "count", "lower"),
    def("dtw.lb_ns_per_candidate", "ns", "lower"),
    // index query cascade
    def("index.coarse_screen_us", "us", "lower"),
    def("index.lb_prune_frac", "frac", "higher"),
    def("index.lb_inapplicable_frac", "frac", "lower"),
    def("index.abandon_frac", "frac", "higher"),
    def("index.dp_completed_per_query", "count", "lower"),
    // stream matcher
    def("stream.matcher_new_us", "us", "lower"),
    def("stream.windows_per_request", "count", "lower"),
    def("stream.kim_prune_frac", "frac", "higher"),
    def("stream.paa_prune_frac", "frac", "higher"),
    def("stream.keogh_prune_frac", "frac", "higher"),
    def("stream.lb_inapplicable_frac", "frac", "lower"),
    def("stream.abandon_frac", "frac", "higher"),
    def("stream.cache_hits_per_request", "count", "higher"),
    // serve wire
    def("serve.decode_us", "us", "lower"),
    def("serve.encode_us", "us", "lower"),
    def("serve.wire_ms", "ms", "lower"),
    def("serve.entries_swept_frac", "frac", "lower"),
    // tracing itself
    def("obs.trace_overhead_frac", "frac", "lower"),
];

/// Measured values with a note each (sample count or derivation).
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, (f64, String)>);

impl Values {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.insert(name, (value, note.into()));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Human-readable lines, one per metric in `defs` order.
    pub fn lines(&self, defs: &[Def]) -> Vec<String> {
        defs.iter()
            .map(|d| match self.0.get(d.name) {
                Some((v, note)) => format!("  {:<34} {:>14.6} {:<8} {note}", d.name, v, d.unit),
                None => format!("  {:<34} {:>14} {:<8} not measured", d.name, "-", d.unit),
            })
            .collect()
    }

    /// Names recorded that `defs` does not list, and names it lists that
    /// were not recorded.
    #[cfg(test)]
    pub fn mismatches(&self, defs: &[Def]) -> (Vec<&'static str>, Vec<&'static str>) {
        let extra = self
            .0
            .keys()
            .copied()
            .filter(|n| !defs.iter().any(|d| d.name == *n))
            .collect();
        let missing = defs
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect();
        (extra, missing)
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `defs` with its unit (a non-finite value is written as `null`).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    defs: &[Def],
) -> String {
    let metrics = Value::Object(
        defs.iter()
            .filter_map(|d| {
                let v = values.get(d.name)?;
                Some((d.name.to_string(), json!({"value": v, "unit": d.unit})))
            })
            .collect(),
    );
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("a value tree always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &serde_json::Value, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        let names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let mut v = Values::default();
        v.set("setup_s", 0.25, "");
        let line = result_line(true, 3, 0, &v, &END_TO_END);
        let json = serde_json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            json.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("unit"))
                .and_then(|u| u.as_str()),
            Some("s")
        );
    }
}
