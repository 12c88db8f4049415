//! The three workloads and the inputs they synthesize from the seed.
//!
//! Inputs are hermetic: every series comes from
//! [`DatasetSource::synthetic`] under the run's seed — never from a UCR
//! directory or the on-disk dataset cache — so a warm or cold cache cannot
//! move any number, and the program only ever sees generated inputs.

use crate::schedule::SplitMix64;
use std::time::Duration;
use tsg_core::MvgClassifier;
use tsg_datasets::archive::ArchiveOptions;
use tsg_datasets::DatasetSource;
use tsg_serve::config_named;
use tsg_ts::Dataset;

/// Every model the benchmark fits uses this preset.
pub const PRESET: &str = "wide";
/// One pool worker everywhere: the server's `--threads` and the
/// `n_threads` of every in-process configuration.
pub const THREADS: usize = 1;
/// Name the serving workloads register their model under.
pub const MODEL: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Online,
    Saturated,
    Fit,
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub dataset: &'static str,
    /// Training series of the fitted model.
    pub n_train: usize,
    /// Test series: the request pool of a serving workload, the split each
    /// fit op predicts.
    pub n_test: usize,
    /// Keep the K most important features of the wide fit and refit.
    pub prune: Option<usize>,
    /// Open loop: mean Poisson arrival rate on one connection.
    pub rate_per_s: Option<f64>,
    /// Closed loop: connections, each keeping `depth` requests in flight.
    pub connections: usize,
    pub depth: usize,
}

pub const ONLINE: Workload = Workload {
    kind: Kind::Online,
    name: "online",
    dataset: "ECG5000",
    n_train: 150,
    n_test: 2000,
    prune: Some(24),
    rate_per_s: Some(200.0),
    connections: 1,
    depth: 0,
};

pub const SATURATED: Workload = Workload {
    kind: Kind::Saturated,
    name: "saturated",
    dataset: "FordA",
    n_train: 100,
    n_test: 400,
    prune: None,
    rate_per_s: None,
    // 64 callers stay below the server's 256-series queue depth, so any
    // 429 is a failure
    connections: 2,
    depth: 32,
};

pub const FIT: Workload = Workload {
    kind: Kind::Fit,
    name: "fit",
    dataset: "ECG5000",
    n_train: 40,
    n_test: 100,
    prune: Some(24),
    rate_per_s: None,
    connections: 0,
    depth: 0,
};

pub const ALL: [Workload; 3] = [ONLINE, SATURATED, FIT];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's parameters, for the run's context record.
    pub fn describe(&self) -> String {
        let load = match self.kind {
            Kind::Online => format!(
                "open loop, Poisson {} req/s, 1 connection",
                self.rate_per_s.unwrap_or(0.0)
            ),
            Kind::Saturated => format!(
                "closed loop, {} connections x {} pipelined",
                self.connections, self.depth
            ),
            Kind::Fit => "in-process fit ops back to back".to_string(),
        };
        format!(
            "{}: {} train {} / test {}, preset {}{}, {} pool worker, {}",
            self.name,
            self.dataset,
            self.n_train,
            self.n_test,
            PRESET,
            self.prune
                .map(|k| format!(" pruned to {k}"))
                .unwrap_or_default(),
            THREADS,
            load
        )
    }

    /// The train and test splits of this workload under `seed`.
    pub fn datasets(&self, seed: u64) -> (Dataset, Dataset) {
        let options = ArchiveOptions {
            max_train: self.n_train,
            max_test: self.n_test,
            max_length: usize::MAX,
            seed,
        };
        let pair = DatasetSource::synthetic(options)
            .resolve(self.dataset)
            .expect("the workload's dataset is in the catalogue");
        (pair.train, pair.test)
    }

    /// What `POST /models/{name}/fit` runs for this workload, in-process:
    /// fit the preset on `train` with one worker, then, when the workload
    /// prunes, keep the most important features and refit. Predictions are
    /// thread-count invariant, so this is also the reference every served
    /// label is checked against.
    pub fn fit_model(&self, train: &Dataset, seed: u64) -> Result<MvgClassifier, String> {
        let config = config_named(PRESET, seed, THREADS).ok_or("unknown preset")?;
        let mut model = MvgClassifier::new(config);
        model.fit(train).map_err(|e| format!("fit: {e}"))?;
        let Some(k) = self.prune else {
            return Ok(model);
        };
        let pruned = model.pruned_config(k).map_err(|e| format!("prune: {e}"))?;
        let mut refit = MvgClassifier::new(pruned);
        refit.fit(train).map_err(|e| format!("refit: {e}"))?;
        Ok(refit)
    }

    /// Open-loop arrival offsets for a phase of `span`.
    pub fn schedule(&self, seed: u64, span: Duration) -> Vec<Duration> {
        crate::schedule::poisson_schedule(
            seed ^ 0x005e_ed0f_a771_7a15,
            self.rate_per_s.unwrap_or(1.0),
            span,
        )
    }

    /// The order in which a serving workload draws test series.
    pub fn order(&self, seed: u64) -> Vec<usize> {
        SplitMix64::new(seed ^ 0x0dde_7e57).permutation(self.n_test)
    }
}

/// Compact JSON number: Rust's shortest round-trip form, which the
/// server's parser reads back bit for bit.
fn push_number(out: &mut String, v: f64) {
    use std::fmt::Write;
    let _ = write!(out, "{v}");
}

fn push_values(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_number(out, v);
    }
    out.push(']');
}

/// `POST` request bytes with a JSON body, as any HTTP/1.1 client sends them.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The body of a single-series classify request.
pub fn classify_body(values: &[f64]) -> String {
    let mut body = String::with_capacity(values.len() * 20 + 16);
    body.push_str("{\"series\":[");
    push_values(&mut body, values);
    body.push_str("]}");
    body
}

/// The body of an inline fit request for `train`.
pub fn fit_body(train: &Dataset, seed: u64, prune: Option<usize>) -> String {
    let mut body = format!("{{\"config\":\"{PRESET}\",\"seed\":{seed},");
    if let Some(k) = prune {
        body.push_str(&format!("\"prune\":{k},"));
    }
    body.push_str("\"train\":{\"series\":[");
    for (i, series) in train.series().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"values\":");
        push_values(&mut body, series.values());
        body.push_str(&format!(
            ",\"label\":{}}}",
            series.label().expect("synthetic series are labelled")
        ));
    }
    body.push_str("]}}");
    body
}

/// The text after `"key":` in a flat JSON response.
fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\""))? + key.len() + 2;
    Some(
        body.get(start..)?
            .trim_start()
            .strip_prefix(':')?
            .trim_start(),
    )
}

/// The value of a numeric field `"key": N` in a flat JSON response.
pub fn json_number(body: &str, key: &str) -> Option<f64> {
    let rest = field(body, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest.get(..end)?.parse().ok()
}

/// The numbers of an array field `"key": [a, b]` in a flat JSON response.
pub fn json_numbers(body: &str, key: &str) -> Option<Vec<f64>> {
    let inner = field(body, key)?.strip_prefix('[')?;
    let inner = inner.get(..inner.find(']')?)?;
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|n| n.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed() {
        let (train, test) = FIT.datasets(3);
        let (train2, test2) = FIT.datasets(3);
        assert_eq!(train, train2);
        assert_eq!(test, test2);
        assert_eq!((train.len(), test.len()), (FIT.n_train, FIT.n_test));
        assert_ne!(FIT.datasets(4).0, train);
        assert_eq!(ONLINE.order(3), ONLINE.order(3));
    }

    #[test]
    fn response_fields_are_read_back() {
        let body = r#"{"model": "bench", "version": 3, "predictions": [4], "batch_size": 17}"#;
        assert_eq!(json_number(body, "batch_size"), Some(17.0));
        assert_eq!(json_number(body, "version"), Some(3.0));
        assert_eq!(json_numbers(body, "predictions"), Some(vec![4.0]));
        assert_eq!(json_number(body, "missing"), None);
    }

    #[test]
    fn request_bodies_round_trip_through_the_server_parser() {
        let values = [0.1, -2.5e-7, 3.0, f64::MIN_POSITIVE];
        let parsed = tsg_serve::json::Json::parse(&classify_body(&values)).unwrap();
        let series = parsed.get("series").and_then(|s| s.as_array()).unwrap();
        let back: Vec<f64> = series[0]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(back, values);
        let (train, _) = FIT.datasets(1);
        let fit = tsg_serve::json::Json::parse(&fit_body(&train, 1, Some(24))).unwrap();
        assert_eq!(fit.get("prune").and_then(|p| p.as_usize()), Some(24));
    }
}
