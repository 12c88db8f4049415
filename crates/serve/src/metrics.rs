//! Server observability: request counters, a latency histogram and the
//! realized micro-batch-size distribution, rendered in the Prometheus text
//! exposition format at `/metrics`.
//!
//! Everything is lock-free (`AtomicU64`) so the hot classify path never
//! serialises on a metrics mutex. Histogram sums are accumulated in
//! nano-units (`value * 1e9` rounded) to stay in integer atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use tsg_trace::{FinishedTrace, Stage};

/// A fixed-bucket cumulative histogram.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One counter per bound plus the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let nanos = (value * 1e9).round().max(0.0) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Renders the histogram in Prometheus text format (cumulative buckets).
    fn render(&self, name: &str, out: &mut String) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        self.render_series(name, "", out);
    }

    /// Renders the bucket/sum/count lines of one series, with an optional
    /// extra label (e.g. `stage="parse"`) and no `# TYPE` header — so one
    /// metric family can hold several labeled histograms.
    ///
    /// Every bucket counter is loaded exactly once into a snapshot before
    /// anything is formatted, and `_count` is the snapshot's own `+Inf`
    /// cumulative value. Under concurrent `observe` calls the rendered
    /// series is therefore always internally consistent: `_count` equals
    /// the `+Inf` bucket by construction, never a torn read of counters
    /// that moved mid-render. (`_sum` is a separate atomic and may run a
    /// hair ahead of or behind the snapshot — Prometheus semantics allow
    /// that; bucket/count consistency is what scrapers rely on.)
    fn render_series(&self, name: &str, label: &str, out: &mut String) {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let sum_nanos = self.sum_nanos.load(Ordering::Relaxed);
        let sep = if label.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (bound, count) in self.bounds.iter().zip(&snapshot) {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{{label}{sep}le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        cumulative += snapshot.get(self.bounds.len()).copied().unwrap_or(0);
        out.push_str(&format!(
            "{name}_bucket{{{label}{sep}le=\"+Inf\"}} {cumulative}\n"
        ));
        let suffix = if label.is_empty() {
            String::new()
        } else {
            format!("{{{label}}}")
        };
        out.push_str(&format!("{name}_sum{suffix} {}\n", sum_nanos as f64 / 1e9));
        out.push_str(&format!("{name}_count{suffix} {cumulative}\n"));
    }
}

/// A gauge: a value that can go up and down (e.g. open connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one (saturating at zero).
    pub fn dec(&self) {
        // fetch_update never fails with a total function, but avoid the
        // wrap-around a plain fetch_sub would allow on a mismatched dec
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// All metrics exported by the server.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Total HTTP requests accepted (any route).
    pub requests_total: Counter,
    /// Responses by status class: `[2xx, 4xx, 5xx]`.
    pub responses_2xx: Counter,
    /// 4xx responses.
    pub responses_4xx: Counter,
    /// 5xx responses.
    pub responses_5xx: Counter,
    /// Classify requests that entered the batch queue.
    pub classify_requests_total: Counter,
    /// Individual series classified.
    pub classify_series_total: Counter,
    /// Dispatched micro-batches.
    pub classify_batches_total: Counter,
    /// Classify requests rejected with 429 (queue saturated).
    pub classify_rejected_total: Counter,
    /// Requests shed with a 429 response, whatever the route — the
    /// load-shedding signal the chaos harness and dashboards watch.
    pub requests_shed_total: Counter,
    /// Models fitted since startup.
    pub models_fitted_total: Counter,
    /// Connections accepted since startup.
    pub connections_accepted_total: Counter,
    /// Connections torn down because the socket errored (ECONNRESET, EPIPE,
    /// injected resets) rather than closing cleanly.
    pub connections_reset_total: Counter,
    /// Model snapshots that failed to load (missing, corrupt, stale config)
    /// and fell back to a refit.
    pub snapshot_load_failures_total: Counter,
    /// Currently open connections in the event loop.
    pub connections_open: Gauge,
    /// End-to-end request latency in seconds (all routes).
    pub request_latency_seconds: Histogram,
    /// Classify request latency in seconds (queue wait + batch compute).
    pub classify_latency_seconds: Histogram,
    /// Series per dispatched micro-batch.
    pub batch_size: Histogram,
    /// Per-stage latency attribution, one histogram per [`Stage`] in
    /// [`Stage::ALL`] order, rendered as
    /// `tsg_serve_stage_seconds{stage="..."}` — fed by finished traces.
    pub stage_seconds: [Histogram; Stage::COUNT],
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            requests_total: Counter::default(),
            responses_2xx: Counter::default(),
            responses_4xx: Counter::default(),
            responses_5xx: Counter::default(),
            classify_requests_total: Counter::default(),
            classify_series_total: Counter::default(),
            classify_batches_total: Counter::default(),
            classify_rejected_total: Counter::default(),
            requests_shed_total: Counter::default(),
            models_fitted_total: Counter::default(),
            connections_accepted_total: Counter::default(),
            connections_reset_total: Counter::default(),
            snapshot_load_failures_total: Counter::default(),
            connections_open: Gauge::default(),
            request_latency_seconds: Histogram::new(&[
                0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                10.0,
            ]),
            classify_latency_seconds: Histogram::new(&[
                0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                10.0,
            ]),
            batch_size: Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
            // stages run well under the end-to-end latency, so the stage
            // buckets start at 25 µs instead of 500 µs
            stage_seconds: std::array::from_fn(|_| {
                Histogram::new(&[
                    0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                    0.05, 0.1, 0.25, 1.0,
                ])
            }),
        }
    }
}

impl ServerMetrics {
    /// Feeds every stage the finished trace entered into the per-stage
    /// histograms, at nanosecond resolution, 0-ns spans included. Stages the
    /// request never entered — a `/healthz` has no `predict` — are skipped.
    pub fn observe_stages(&self, trace: &FinishedTrace) {
        let stages = Stage::ALL.iter().zip(&self.stage_seconds);
        for ((stage, histogram), entered) in stages.zip(trace.entered) {
            if entered {
                histogram.observe(trace.stage(*stage) as f64 / 1e9);
            }
        }
    }

    /// Records the status class of a finished response. Every 429, whatever
    /// the route, also counts as a shed request.
    pub fn record_status(&self, status: u16) {
        if status == 429 {
            self.requests_shed_total.inc();
        }
        match status {
            200..=299 => self.responses_2xx.inc(),
            400..=499 => self.responses_4xx.inc(),
            _ => self.responses_5xx.inc(),
        }
    }

    /// Renders every metric in Prometheus text format. `faults_injected` is
    /// supplied by the caller (from [`tsg_faults::injected_total`]) so this
    /// module stays free of cross-crate state.
    pub fn render(&self, n_models: usize, uptime_seconds: f64, faults_injected: u64) -> String {
        let mut out = String::new();
        let counters: [(&str, &Counter); 13] = [
            ("tsg_serve_requests_total", &self.requests_total),
            ("tsg_serve_responses_2xx_total", &self.responses_2xx),
            ("tsg_serve_responses_4xx_total", &self.responses_4xx),
            ("tsg_serve_responses_5xx_total", &self.responses_5xx),
            (
                "tsg_serve_classify_requests_total",
                &self.classify_requests_total,
            ),
            (
                "tsg_serve_classify_series_total",
                &self.classify_series_total,
            ),
            (
                "tsg_serve_classify_batches_total",
                &self.classify_batches_total,
            ),
            (
                "tsg_serve_classify_rejected_total",
                &self.classify_rejected_total,
            ),
            ("tsg_serve_requests_shed_total", &self.requests_shed_total),
            ("tsg_serve_models_fitted_total", &self.models_fitted_total),
            (
                "tsg_serve_connections_accepted_total",
                &self.connections_accepted_total,
            ),
            (
                "tsg_serve_connections_reset_total",
                &self.connections_reset_total,
            ),
            (
                "tsg_serve_snapshot_load_failures_total",
                &self.snapshot_load_failures_total,
            ),
        ];
        for (name, counter) in counters {
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                counter.get()
            ));
        }
        out.push_str(&format!(
            "# TYPE tsg_serve_faults_injected_total counter\ntsg_serve_faults_injected_total {faults_injected}\n"
        ));
        out.push_str(&format!(
            "# TYPE tsg_serve_models gauge\ntsg_serve_models {n_models}\n"
        ));
        out.push_str(&format!(
            "# TYPE tsg_serve_connections_open gauge\ntsg_serve_connections_open {}\n",
            self.connections_open.get()
        ));
        out.push_str(&format!(
            "# TYPE tsg_serve_uptime_seconds gauge\ntsg_serve_uptime_seconds {uptime_seconds}\n"
        ));
        self.request_latency_seconds
            .render("tsg_serve_request_latency_seconds", &mut out);
        self.classify_latency_seconds
            .render("tsg_serve_classify_latency_seconds", &mut out);
        self.batch_size.render("tsg_serve_batch_size", &mut out);
        out.push_str("# TYPE tsg_serve_stage_seconds histogram\n");
        for (stage, histogram) in Stage::ALL.iter().zip(&self.stage_seconds) {
            histogram.render_series(
                "tsg_serve_stage_seconds",
                &format!("stage=\"{}\"", stage.as_str()),
                &mut out,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-6);
        let mut out = String::new();
        h.render("x", &mut out);
        assert!(out.contains("x_bucket{le=\"1\"} 2\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"2\"} 3\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"4\"} 4\n"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 5\n"), "{out}");
        assert!(out.contains("x_count 5\n"), "{out}");
    }

    #[test]
    fn counters_and_status_classes() {
        let m = ServerMetrics::default();
        m.requests_total.add(3);
        m.record_status(200);
        m.record_status(404);
        m.record_status(429);
        m.record_status(503);
        assert_eq!(m.responses_2xx.get(), 1);
        assert_eq!(m.responses_4xx.get(), 2);
        assert_eq!(m.responses_5xx.get(), 1);
        assert_eq!(m.requests_shed_total.get(), 1, "the 429 must count as shed");
        let text = m.render(2, 1.5, 7);
        assert!(text.contains("tsg_serve_requests_total 3\n"));
        assert!(text.contains("tsg_serve_models 2\n"));
        assert!(text.contains("tsg_serve_batch_size_count 0\n"));
        assert!(text.contains("tsg_serve_connections_open 0\n"));
        assert!(text.contains("tsg_serve_requests_shed_total 1\n"));
        assert!(text.contains("tsg_serve_connections_reset_total 0\n"));
        assert!(text.contains("tsg_serve_snapshot_load_failures_total 0\n"));
        assert!(text.contains("tsg_serve_faults_injected_total 7\n"));
    }

    #[test]
    fn gauge_tracks_open_connections() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates instead of wrapping
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn rendered_count_always_equals_the_inf_bucket_under_concurrency() {
        // the torn-read regression: _count used to come from a separate
        // atomic loaded after the buckets, so a concurrent observe could
        // make _count != the +Inf cumulative bucket in one render
        let h = std::sync::Arc::new(Histogram::new(&[0.5, 2.0]));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop;
            for _ in 0..3 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        h.observe(0.1);
                        h.observe(1.0);
                        h.observe(9.0);
                    }
                });
            }
            for _ in 0..200 {
                let mut out = String::new();
                h.render("x", &mut out);
                let value = |marker: &str| -> u64 {
                    out.lines()
                        .find_map(|l| l.strip_prefix(marker))
                        .and_then(|rest| rest.trim().parse().ok())
                        .expect("rendered line present")
                };
                assert_eq!(
                    value("x_bucket{le=\"+Inf\"}"),
                    value("x_count"),
                    "torn render:\n{out}"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn stage_histograms_render_labeled_series() {
        let m = ServerMetrics::default();
        let trace = tsg_trace::ActiveTrace::begin("/x", 0);
        trace.add_nanos(Stage::Parse, 30_000); // 30 µs
        trace.add_nanos(Stage::Predict, 2_000_000); // 2 ms
        m.observe_stages(&trace.finish(0));
        let text = m.render(0, 0.0, 0);
        assert!(text.contains("# TYPE tsg_serve_stage_seconds histogram\n"));
        // one TYPE line for the whole family, not one per stage
        assert_eq!(text.matches("TYPE tsg_serve_stage_seconds").count(), 1);
        assert!(
            text.contains("tsg_serve_stage_seconds_bucket{stage=\"parse\",le=\"0.00005\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tsg_serve_stage_seconds_count{stage=\"parse\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tsg_serve_stage_seconds_count{stage=\"predict\"} 1\n"),
            "{text}"
        );
        // untouched stages render with zero observations
        assert!(
            text.contains("tsg_serve_stage_seconds_count{stage=\"write_out\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("tsg_serve_stage_seconds_sum{stage=\"predict\"} 0.002\n"),
            "{text}"
        );
    }

    #[test]
    fn zero_micro_entered_stages_are_observed_and_unentered_ones_are_not() {
        let m = ServerMetrics::default();
        let trace = tsg_trace::ActiveTrace::begin("/x", 0);
        trace.record(Stage::Parse, std::time::Duration::from_nanos(300));
        m.observe_stages(&trace.finish(0));
        let text = m.render(0, 0.0, 0);
        assert!(
            text.contains("tsg_serve_stage_seconds_count{stage=\"parse\"} 1\n"),
            "{text}"
        );
        // a sub-µs parse is observed as its own duration, not as 0
        let parse_sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("tsg_serve_stage_seconds_sum{stage=\"parse\"} "))
            .and_then(|v| v.parse().ok())
            .expect("parse sum line");
        assert_eq!(parse_sum, 3e-7, "{text}");
        assert!(
            text.contains("tsg_serve_stage_seconds_bucket{stage=\"parse\",le=\"0.000025\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("tsg_serve_stage_seconds_count{stage=\"predict\"} 0\n"),
            "{text}"
        );
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let h = std::sync::Arc::new(Histogram::new(&[0.5]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe(if i % 2 == 0 { 0.1 } else { 0.9 });
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
