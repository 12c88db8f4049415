//! Metric names, units and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("series_per_s", "1/s"),
    ("cpu_ms_per_series", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("http.parse_us", "us"),
    ("json.parse_us", "us"),
    ("json.write_us", "us"),
    ("batcher.wait_ms", "ms"),
    ("batcher.batch_size_mean", "count"),
    ("batcher.batches", "count"),
    ("extract.series_us", "us"),
    ("extract.scale_us", "us"),
    ("extract.graph_build_us", "us"),
    ("extract.motif_count_us", "us"),
    ("extract.statistical_us", "us"),
    ("extract.unstaged_us", "us"),
    ("graph.vg_us", "us"),
    ("graph.hvg_us", "us"),
    ("graph.motifs_us", "us"),
    ("graph.edges_per_series", "count"),
    ("predict.rows_us", "us"),
    ("ml.scaler_fit_ms", "ms"),
    ("ml.oversample_ms", "ms"),
    ("ml.gbt_fit_ms", "ms"),
    ("ml.gbt_predict_us", "us"),
    ("core.extract_dataset_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.refit_ms", "ms"),
    ("registry.fit_s", "s"),
    ("serve.unattributed_ms", "ms"),
    ("parallel.map_spawn_us", "us"),
    ("loadgen.late_p90_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("test_error", "fraction"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line for the metric set `names`. Errors when a metric is
    /// missing or not finite: that is a harness bug, never a result.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut members = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is {value}"));
            }
            members.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_serve::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|m| m.as_array())
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or_default();
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_unique_and_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                declared(&doc, key),
                ours,
                "{key} differs from BENCHMARK.json"
            );
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "duplicate name"
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(|n| n.as_str()))
            .collect();
        let ours: Vec<&str> = crate::workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        assert!(report.json_line(&END_TO_END).is_err(), "missing metrics");
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        let line = report.json_line(&END_TO_END).unwrap();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_usize()), Some(3));
        let latency = parsed.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            latency
                .and_then(|l| l.get("value"))
                .and_then(|v| v.as_f64()),
            Some(2.5)
        );
        report.set("setup_s", f64::NAN);
        assert!(report.json_line(&END_TO_END).is_err(), "non-finite value");
    }
}
