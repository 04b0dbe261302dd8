//! Metric names, units and the result line.
//!
//! Every run prints one line per metric (`name value unit`, tails with
//! their percentile and sample count) and then, as its last line, one
//! JSON object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! An untraced run reports every [`END_TO_END`] metric; a traced run
//! every [`PER_LAYER`] metric.

use std::fmt::Write as _;

/// End-to-end metrics: what a user of the solver or the service sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("restore_s", "s"),
    ("lp_ms", "ms"),
    ("gc_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("solution_p50_ms", "ms"),
    ("solution_p99_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("cliques", "count"),
    ("peak_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run, grouped by workspace crate.
///
/// `update_p99_ms`, `lookup_p50_us` and `lookup_p99_us` are measured and
/// printed by every run but not gated. The update tail follows slow
/// spells of the shared host far more than the medians do: on the write
/// workload its quartile spread between runs of the same code was 0.17,
/// 0.28 and 0.37 in three sets of ten. A loopback lookup is mostly two
/// thread wake-ups, whose cost moved the whole lookup latency
/// distribution by a spread of up to 0.22. The machine-speed reference
/// follows neither. `calib.probe_ms` is that reference's median time,
/// and the `raw.*` metrics are the times and the rate reported at the
/// reference speed as the run measured them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_ms", "ms"),
    ("graph.order_ms", "ms"),
    ("graph.dag_ms", "ms"),
    ("graph.reorder_ms", "ms"),
    ("clique.scores_ms", "ms"),
    ("clique.list_ms", "ms"),
    ("clique.kcliques", "count"),
    ("clique.list_peak_mb", "MiB"),
    ("core.lp_drain_ms", "ms"),
    ("core.lp_heap_pops", "count"),
    ("core.lp_stale_pops", "count"),
    ("core.lp_reprobes", "count"),
    ("core.lp_reprobe_hits", "count"),
    ("core.lp_useful_ratio", "ratio"),
    ("core.gc_select_ms", "ms"),
    ("dynamic.create_ms", "ms"),
    ("dynamic.journal_p50_us", "us"),
    ("dynamic.journal_bytes", "bytes"),
    ("dynamic.fsync_p50_us", "us"),
    ("dynamic.fsync_p99_us", "us"),
    ("dynamic.apply_p50_us", "us"),
    ("dynamic.apply_p99_us", "us"),
    ("dynamic.publish_p50_us", "us"),
    ("dynamic.publish_p99_us", "us"),
    ("dynamic.swaps_attempted", "count"),
    ("dynamic.swaps_applied", "count"),
    ("dynamic.cliques_added", "count"),
    ("dynamic.cliques_removed", "count"),
    ("dynamic.restore_index_ms", "ms"),
    ("dynamic.replay_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.render_lookup_us", "us"),
    ("serve.render_solution_ms", "ms"),
    ("serve.solution_bytes", "bytes"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.epochs", "ratio"),
    ("serve.update_wait_us", "us"),
    ("serve.gen_late_p99_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("lookup_p50_us", "us"),
    ("lookup_p99_us", "us"),
    ("serve.write_lookup_p50_us", "us"),
    ("serve.write_lookup_p99_us", "us"),
    ("trace.lp_overhead_ms", "ms"),
    ("trace.update_p50_overhead_ms", "ms"),
    ("calib.probe_ms", "ms"),
    ("raw.setup_s", "s"),
    ("raw.restore_s", "s"),
    ("raw.lp_ms", "ms"),
    ("raw.gc_ms", "ms"),
    ("raw.update_p50_ms", "ms"),
    ("raw.update_p99_ms", "ms"),
    ("raw.solution_p50_ms", "ms"),
    ("raw.solution_p99_ms", "ms"),
    ("raw.ops_per_s", "ops/s"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed next to the name.
    pub unit: &'static str,
    /// How the value was read, e.g. `p99 of n=2410` (printed only).
    pub note: String,
}

/// The outcome of one run: metrics plus the correctness accounting.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were added.
    pub metrics: Vec<Metric>,
    /// Operations attempted (solves, requests, restarts).
    pub attempted: u64,
    /// Operations that failed or did not pass their check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
}

impl Report {
    /// Records a metric; the unit comes from the registry.
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric { name, value, unit: unit_of(name), note: note.into() });
    }

    /// Counts one operation and whether it passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a batch of operations, `failed` of which did not pass.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a check: counts it as an operation and keeps the message
    /// of a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.errors.push(what());
        }
    }

    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Names from `expected` that were not recorded.
    pub fn missing(&self, expected: &[(&str, &str)]) -> Vec<String> {
        expected.iter().filter(|(n, _)| self.get(n).is_none()).map(|(n, _)| n.to_string()).collect()
    }

    /// Human-readable lines, one per metric and failed check.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<30} {:>14.4} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        for e in &self.errors {
            let _ = writeln!(out, "CHECK FAILED: {e}");
        }
        out
    }

    /// The result line, restricted to `wanted` metric names (in that
    /// order).
    pub fn render_json(&self, wanted: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|(name, unit)| {
                self.get(name)
                    .map(|v| format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, num(v)))
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit Rust prints.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit} for {name}");
        }
        assert!(!valid_name(".lead"));
        assert!(!valid_name("lookup p99"));
        assert!(!valid_name("lookup_µs"));
    }

    /// The metric lists match `BENCHMARK.json`, name for name and unit
    /// for unit, in order.
    #[test]
    fn metric_lists_match_the_benchmark_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        let spec = dkc_core::json::Json::parse(&spec).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_wanted_metrics() {
        let mut r = Report::default();
        r.put("lp_ms", 812.25, "");
        r.put("clique.kcliques", 10.0, "");
        r.op(true);
        let line = r.render_json(&[("lp_ms", "ms")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"lp_ms":{"value":812.25,"unit":"ms"}}}"#
        );
        r.check(false, || "boom".into());
        assert!(!r.correct());
        assert!(r
            .render_json(END_TO_END)
            .starts_with(r#"{"correct":false,"attempted":2,"failed":1"#));
        assert_eq!(r.missing(&[("lp_ms", "ms"), ("gc_ms", "ms")]), vec!["gc_ms".to_string()]);
    }
}
