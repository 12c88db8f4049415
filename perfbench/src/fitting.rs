//! The `fit` workload: in-process fit ops back to back, no server.
//!
//! One op is what `POST /models/{name}/fit` with `"prune": 24` runs: fit
//! the wide preset, keep the 24 most important features, refit, then
//! predict the test split.

use crate::probe::{self, Cores, Load, Measured, WINDOW};
use crate::workload::Workload;
use std::time::{Duration, Instant};
use tsg_ts::Dataset;

/// A run holds at least this many ops, so its p90 has ten samples beyond
/// it.
pub const MIN_OPS: usize = 100;

/// What one op produced.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    pub predictions: Vec<usize>,
    pub feature_names: Vec<String>,
}

/// One fit op.
pub fn op(w: &Workload, train: &Dataset, test: &Dataset, seed: u64) -> Result<OpOutput, String> {
    let model = w.fit_model(train, seed)?;
    let predictions = model.predict(test).map_err(|e| format!("predict: {e}"))?;
    Ok(OpOutput {
        predictions,
        feature_names: model.feature_names().to_vec(),
    })
}

/// Set-up: synthesize the inputs and run one warm-up op, `repeats` times.
/// Returns the inputs, the warm-up op's output (the reference every
/// measured op must reproduce) and each set-up's time.
pub fn set_up(
    w: &Workload,
    seed: u64,
    repeats: usize,
) -> Result<(Dataset, Dataset, OpOutput, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let (train, test) = w.datasets(seed);
        let output = op(w, &train, &test, seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, _, previous)) = &last {
            if *previous != output {
                return Err("two warm-up fits of the same inputs disagree".into());
            }
        }
        last = Some((train, test, output));
    }
    let (train, test, reference) = last.ok_or("no set-up ran")?;
    if Some(reference.feature_names.len()) != w.prune {
        return Err(format!(
            "the refit carries {} features, not {:?}",
            reference.feature_names.len(),
            w.prune
        ));
    }
    Ok((train, test, reference, setup_s))
}

/// The checked outcome of the measured ops.
#[derive(Debug, Default)]
pub struct Ops {
    pub latencies_ms: Vec<f64>,
    /// When each of those ops completed, in seconds into the phase.
    pub done_s: Vec<f64>,
    /// Gap between one op's end and the next one's start within a window.
    pub late_ms: Vec<f64>,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// The windows (series done: train + test per successful op) and the
    /// probe blocks between them.
    pub measured: Measured,
}

/// Runs ops back to back in windows of [`WINDOW`] (each ends at the first
/// op boundary after it) until `span` of ops has run and at least
/// [`MIN_OPS`] ops, within three spans, checking each against the
/// reference.
pub fn run_ops(
    w: &Workload,
    train: &Dataset,
    test: &Dataset,
    reference: &OpOutput,
    seed: u64,
    span: Duration,
) -> Result<Ops, String> {
    let series_per_op = train.len() + test.len();
    let mut ops = Ops::default();
    let mut load_time = Duration::ZERO;
    let start = Instant::now();
    let measured = probe::run_windows(
        start,
        Cores::This,
        || crate::server::cpu_seconds("/proc/self/stat").map_err(|e| e.to_string()),
        |_| {
            let window_start = Instant::now();
            let mut previous_end = window_start;
            let mut ok = 0;
            while previous_end.duration_since(window_start) < WINDOW {
                let op_start = Instant::now();
                ops.late_ms
                    .push(op_start.duration_since(previous_end).as_secs_f64() * 1e3);
                let outcome = op(w, train, test, seed);
                previous_end = Instant::now();
                let latency_ms = previous_end.duration_since(op_start).as_secs_f64() * 1e3;
                match outcome {
                    Ok(output) if output == *reference => {
                        ok += 1;
                        ops.latencies_ms.push(latency_ms);
                        ops.done_s
                            .push(previous_end.duration_since(start).as_secs_f64());
                    }
                    Ok(_) => {
                        ops.failed += 1;
                        ops.first_failure.get_or_insert(
                            "an op's predictions or features differ from the reference".into(),
                        );
                    }
                    Err(e) => {
                        ops.failed += 1;
                        ops.first_failure.get_or_insert(e);
                    }
                }
            }
            load_time += previous_end.duration_since(window_start);
            let count = ops.latencies_ms.len() + ops.failed;
            Ok(Load {
                series: ok * series_per_op,
                more: (load_time < span || count < MIN_OPS) && load_time < 3 * span,
            })
        },
    )?;
    ops.measured = measured;
    Ok(ops)
}

/// Share of the reference predictions that differ from the ground truth.
pub fn test_error(test: &Dataset, predictions: &[usize]) -> f64 {
    let wrong = test
        .labels()
        .iter()
        .zip(predictions)
        .filter(|(truth, &p)| **truth != Some(p))
        .count();
    wrong as f64 / predictions.len().max(1) as f64
}
