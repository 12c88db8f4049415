//! The shared micro-batch scheduler.
//!
//! Concurrent `POST /models/{name}/classify` requests — for *any* registered
//! model — land in one bounded queue served by a single dispatcher thread.
//! The dispatcher coalesces them per model: it waits until either
//! [`BatchConfig::max_batch`] series have accumulated or
//! [`BatchConfig::max_wait`] has elapsed since the oldest queued request,
//! then takes the front request's model and collects every queued request
//! for that same model into one batch. Features are extracted for the whole
//! batch on the shared [`tsg_parallel::ThreadPool`] — each worker checking
//! one warmed-up [`MotifWorkspace`] out of a cross-batch pool and driving
//! [`MvgClassifier::extract_row_traced`] with it (a `StageTimer` sink for
//! traced requests, [`NoopTraceSink`] otherwise) — and the model runs once
//! over the batch. Every row is gathered by name into the model's training
//! layout, so a series of any length fills each column with the value its
//! name denotes, and a pruned model's row is a column gather of the wide
//! row, by construction.
//!
//! One dispatcher for the whole registry is the point: a fleet of 100
//! registered models costs one scheduler thread, not 100 idle ones, and the
//! warm workspace pool is shared across all of them. (The per-model
//! scheduler this replaced kept a dedicated dispatcher per registry entry.)
//!
//! Completion is a callback ([`SharedBatcher::submit`]): the event-loop
//! server passes a closure that enqueues the finished response and wakes the
//! loop via its eventfd, so no connection ever blocks a thread on a batch.
//!
//! Backpressure: when the queue already holds [`BatchConfig::queue_depth`]
//! series, submission returns [`ClassifyError::Saturated`] and the HTTP
//! layer answers `429 Too Many Requests`.
//!
//! Batching never changes results: feature extraction is per-series and
//! deterministic (workspace reuse is bit-neutral, pinned by the workspace
//! determinism tests), and the model predicts rows independently — so a
//! series classified in a batch of 64 gets the same label as one classified
//! alone. The end-to-end test in `tests/e2e.rs` asserts exactly this against
//! direct [`MvgClassifier::predict`] calls through the event-loop path.

use crate::metrics::ServerMetrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tsg_core::{ExtractStage, MvgClassifier, NoopTraceSink, TraceSink};
use tsg_graph::motifs::MotifWorkspace;
use tsg_parallel::ThreadPool;
use tsg_trace::{Stage, StageSet, TraceHandle};
use tsg_ts::TimeSeries;

/// Tuning knobs of the micro-batch scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum series per dispatched batch.
    pub max_batch: usize,
    /// How long the oldest queued request may wait for co-batching.
    pub max_wait: Duration,
    /// Maximum queued series before new requests are rejected with 429.
    pub queue_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_depth: 256,
        }
    }
}

/// Why a classify call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyError {
    /// The queue is full; the client should retry later (maps to 429).
    Saturated,
    /// The batcher is shutting down (maps to 503).
    ShuttingDown,
    /// One request's input cannot be classified, e.g. a series whose
    /// features overflow to a non-finite value (maps to 400).
    Input(String),
    /// The underlying model failed (maps to 500).
    Model(String),
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::Saturated => write!(f, "classify queue is full"),
            ClassifyError::ShuttingDown => write!(f, "server is shutting down"),
            ClassifyError::Input(e) => write!(f, "invalid classify input: {e}"),
            ClassifyError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

/// Result of one classify request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyOutput {
    /// Predicted class label per submitted series.
    pub predictions: Vec<usize>,
    /// Class probabilities per series (only when requested).
    pub probabilities: Option<Vec<Vec<f64>>>,
    /// Size (in series) of the micro-batch this request was dispatched in —
    /// observability for how well coalescing works.
    pub batch_size: usize,
}

/// Completion callback invoked exactly once with the request's result — from
/// the dispatcher thread, so it must be quick (enqueue + wake, or fill a
/// slot); never called when submission itself fails.
pub type OnDone = Box<dyn FnOnce(Result<ClassifyOutput, ClassifyError>) + Send + 'static>;

/// Locks a mutex, recovering the data if a panicking thread poisoned it.
/// Every structure guarded here is kept consistent under unwinding (the
/// compute path runs inside `catch_unwind` in [`run_batch`]), so a poisoned
/// lock only records that *some* thread died — refusing service forever
/// would escalate that into a total outage of the classify queue.
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One queued classify request.
struct Job {
    model: Arc<MvgClassifier>,
    series: Vec<TimeSeries>,
    want_proba: bool,
    /// The request's trace, when the caller is tracing; spans recorded here
    /// from the dispatcher cover queue wait, coalescing, extraction
    /// sub-stages and the model pass.
    trace: Option<TraceHandle>,
    /// When [`SharedBatcher::submit`] enqueued the job — the start of its
    /// queue-wait span.
    submitted: Instant,
    on_done: OnDone,
}

/// Maps an extraction sub-stage to its request-level span.
fn request_stage(stage: ExtractStage) -> Stage {
    match stage {
        ExtractStage::Scale => Stage::Scale,
        ExtractStage::GraphBuild => Stage::GraphBuild,
        ExtractStage::MotifCount => Stage::MotifCount,
        ExtractStage::Statistical => Stage::Statistical,
    }
}

/// The serve-side [`TraceSink`]: a stack-local timer accumulating extraction
/// sub-stage durations into a [`StageSet`], flushed to the request's trace
/// once per series. The hot path touches no shared state — one `Instant`
/// read per bracket, one atomic add per *stage* at flush time.
#[derive(Default)]
struct StageTimer {
    stages: StageSet,
    current: Option<(ExtractStage, Instant)>,
}

impl TraceSink for StageTimer {
    fn enter(&mut self, stage: ExtractStage) {
        self.current = Some((stage, Instant::now()));
    }

    fn exit(&mut self, stage: ExtractStage) {
        if let Some((entered, started)) = self.current.take() {
            if entered == stage {
                self.stages
                    .add(request_stage(stage), started.elapsed().as_micros() as u64);
            }
        }
    }
}

struct Queue {
    jobs: VecDeque<Job>,
    /// Total series across `jobs` (the backpressure unit).
    queued_series: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job arrives or shutdown is requested.
    wake: Condvar,
    config: BatchConfig,
    pool: ThreadPool,
    metrics: Arc<ServerMetrics>,
    workspaces: WorkspacePool,
}

/// A checkout pool of [`MotifWorkspace`]s. The `tsg_parallel` pool spawns
/// fresh scoped worker threads per `map` call, so a `thread_local` workspace
/// would die with each batch's workers; keeping the warmed-up workspaces
/// here instead makes the reuse survive across batches — and across *all*
/// models, since the batcher is shared (the pool grows to at most the number
/// of concurrent workers). The checkout lock is touched once per series,
/// which is noise next to a motif-kernel run.
#[derive(Default)]
struct WorkspacePool {
    stack: Mutex<Vec<MotifWorkspace>>,
}

impl WorkspacePool {
    fn with<R>(&self, f: impl FnOnce(&mut MotifWorkspace) -> R) -> R {
        let mut workspace = lock_recover(&self.stack).pop().unwrap_or_default();
        let result = f(&mut workspace);
        lock_recover(&self.stack).push(workspace);
        result
    }
}

/// The registry-wide micro-batch scheduler. Owns one dispatcher thread;
/// dropping the batcher drains the queue with `ShuttingDown` errors and
/// joins it.
pub struct SharedBatcher {
    shared: Arc<Shared>,
    /// Joined on shutdown; behind a mutex so `shutdown` works through an
    /// `Arc<SharedBatcher>` shared between the registry and the event loop.
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
    accepting: AtomicBool,
}

impl SharedBatcher {
    /// Spawns the dispatcher. Fails (instead of panicking) when the
    /// dispatcher thread cannot be spawned — under thread exhaustion the
    /// caller maps this to a wire error rather than taking the whole server
    /// down.
    pub fn new(
        config: BatchConfig,
        pool: ThreadPool,
        metrics: Arc<ServerMetrics>,
    ) -> std::io::Result<SharedBatcher> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                queued_series: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            config,
            pool,
            metrics,
            workspaces: WorkspacePool::default(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tsg-serve-batcher".into())
                .spawn(move || dispatch_loop(&shared))?
        };
        Ok(SharedBatcher {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
            accepting: AtomicBool::new(true),
        })
    }

    /// Submits one request; `on_done` fires from the dispatcher once the
    /// request's batch has run. When submission fails (saturated queue /
    /// shutdown) the error is returned synchronously and `on_done` is never
    /// invoked — the caller still owns its response. An empty series list
    /// completes inline without touching the queue.
    pub fn submit(
        &self,
        model: Arc<MvgClassifier>,
        series: Vec<TimeSeries>,
        want_proba: bool,
        on_done: OnDone,
    ) -> Result<(), ClassifyError> {
        self.submit_traced(model, series, want_proba, None, on_done)
    }

    /// [`SharedBatcher::submit`] with the request's trace attached: the
    /// dispatcher records queue-wait, batch-coalesce, extraction sub-stage
    /// and predict spans onto it as the job moves through the batch.
    pub fn submit_traced(
        &self,
        model: Arc<MvgClassifier>,
        series: Vec<TimeSeries>,
        want_proba: bool,
        trace: Option<TraceHandle>,
        on_done: OnDone,
    ) -> Result<(), ClassifyError> {
        if series.is_empty() {
            on_done(Ok(ClassifyOutput {
                predictions: Vec::new(),
                probabilities: want_proba.then(Vec::new),
                batch_size: 0,
            }));
            return Ok(());
        }
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ClassifyError::ShuttingDown);
        }
        {
            let mut queue = lock_recover(&self.shared.queue);
            if queue.shutdown {
                return Err(ClassifyError::ShuttingDown);
            }
            // a single oversized request is still accepted when the queue is
            // otherwise empty, so queue_depth bounds memory without imposing
            // a hard cap on request size
            if queue.queued_series + series.len() > self.shared.config.queue_depth
                && queue.queued_series > 0
            {
                self.shared.metrics.classify_rejected_total.inc();
                return Err(ClassifyError::Saturated);
            }
            queue.queued_series += series.len();
            queue.jobs.push_back(Job {
                model,
                series,
                want_proba,
                trace,
                submitted: Instant::now(),
                on_done,
            });
        }
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Stops accepting new work, fails queued jobs and joins the dispatcher.
    /// Idempotent; callable through a shared reference.
    pub fn shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
        {
            let mut queue = lock_recover(&self.shared.queue);
            queue.shutdown = true;
            for job in queue.jobs.drain(..) {
                (job.on_done)(Err(ClassifyError::ShuttingDown));
            }
            queue.queued_series = 0;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = lock_recover(&self.dispatcher).take() {
            let _ = handle.join();
        }
    }
}

/// Test helper: [`SharedBatcher::submit`] that parks the calling thread
/// until the batch has run. The event loop never blocks on a batch.
#[cfg(test)]
impl SharedBatcher {
    pub(crate) fn classify(
        &self,
        model: Arc<MvgClassifier>,
        series: Vec<TimeSeries>,
        want_proba: bool,
    ) -> Result<ClassifyOutput, ClassifyError> {
        let (done, result) = std::sync::mpsc::channel();
        self.submit(
            model,
            series,
            want_proba,
            Box::new(move |output| drop(done.send(output))),
        )?;
        result.recv().unwrap_or(Err(ClassifyError::ShuttingDown))
    }
}

impl Drop for SharedBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(shared: &Shared) {
    loop {
        let Some((batch, seen)) = collect_batch(shared) else {
            return; // shutdown with an empty queue
        };
        run_batch(shared, batch, seen);
    }
}

/// Blocks until at least one job is queued, then keeps collecting until the
/// queue holds a full batch worth of series or the oldest job has waited
/// `max_wait` — then takes the *front* job's model and pulls every queued
/// job for that model (up to `max_batch` series) into one batch, leaving
/// other models' jobs queued in arrival order for the next round. Returns
/// the batch plus the instant the dispatcher first *saw* work this round —
/// the boundary between a job's queue-wait and batch-coalesce spans.
/// Returns `None` on shutdown.
fn collect_batch(shared: &Shared) -> Option<(Vec<Job>, Instant)> {
    let mut queue = lock_recover(&shared.queue);
    loop {
        if queue.shutdown {
            return None;
        }
        if !queue.jobs.is_empty() {
            break;
        }
        queue = shared
            .wake
            .wait(queue)
            .unwrap_or_else(|poison| poison.into_inner());
    }
    let seen = Instant::now();
    let deadline = seen + shared.config.max_wait;
    loop {
        if queue.shutdown {
            return None;
        }
        if queue.queued_series >= shared.config.max_batch {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (next, timeout) = shared
            .wake
            .wait_timeout(queue, deadline - now)
            .unwrap_or_else(|poison| poison.into_inner());
        queue = next;
        if timeout.timed_out() {
            break;
        }
    }
    // group by the front job's model: whole jobs only, always at least one
    // (so an oversized request still dispatches), skipping other models
    let front_model = Arc::clone(&queue.jobs.front()?.model);
    let mut batch = Vec::new();
    let mut batch_series = 0usize;
    let mut rest = VecDeque::with_capacity(queue.jobs.len());
    while let Some(job) = queue.jobs.pop_front() {
        let same_model = Arc::ptr_eq(&job.model, &front_model);
        let fits = batch.is_empty() || batch_series + job.series.len() <= shared.config.max_batch;
        if same_model && fits {
            batch_series += job.series.len();
            batch.push(job);
        } else {
            rest.push_back(job);
        }
    }
    queue.jobs = rest;
    queue.queued_series = queue.queued_series.saturating_sub(batch_series);
    if !queue.jobs.is_empty() {
        // other models (or overflow of this one) remain: make sure the
        // dispatcher comes straight back instead of parking on the condvar
        shared.wake.notify_one();
    }
    Some((batch, seen))
}

/// Extracts features for every series of the batch on the pool and runs the
/// batch's model once, then distributes per-job results.
///
/// Panic-safe: a panic anywhere in the compute path (extraction, model,
/// slicing) is caught and every job's completion is invoked with an error,
/// so no submitter is ever left waiting forever and the dispatcher thread
/// survives to serve the next batch.
fn run_batch(shared: &Shared, batch: Vec<Job>, seen: Instant) {
    let batch_size: usize = batch.iter().map(|j| j.series.len()).sum();
    shared.metrics.classify_batches_total.inc();
    shared.metrics.classify_series_total.add(batch_size as u64);
    shared.metrics.batch_size.observe(batch_size as f64);

    // split each job's time-in-queue into two disjoint spans: queue-wait
    // (submit → dispatcher saw work, or 0 for jobs that arrived during the
    // coalescing window) and batch-coalesce (the rest, up to dispatch)
    let dispatched = Instant::now();
    for job in &batch {
        if let Some(trace) = &job.trace {
            let seen_for_job = seen.max(job.submitted);
            trace.record(
                Stage::QueueWait,
                seen_for_job.saturating_duration_since(job.submitted),
            );
            trace.record(
                Stage::BatchCoalesce,
                dispatched.saturating_duration_since(seen_for_job),
            );
        }
    }

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compute_batch(shared, &batch, batch_size)
    }));
    match outcome {
        Ok(Ok(outputs)) => {
            for (job, output) in batch.into_iter().zip(outputs) {
                (job.on_done)(output);
            }
        }
        Ok(Err(error)) => {
            for job in batch {
                (job.on_done)(Err(error.clone()));
            }
        }
        Err(_) => {
            let error = ClassifyError::Model("batch dispatch panicked".to_string());
            for job in batch {
                (job.on_done)(Err(error.clone()));
            }
        }
    }
}

/// The compute path of one batch: pooled feature extraction (reusing warmed
/// workspaces) plus one scaled model pass; probabilities are computed
/// on the same transformed matrix only when some job asked for them. All
/// jobs share one model (grouped by [`collect_batch`]).
///
/// When the batch pass fails, each job is predicted on its own, so only
/// the jobs that cause the failure get an error.
fn compute_batch(
    shared: &Shared,
    batch: &[Job],
    batch_size: usize,
) -> Result<Vec<Result<ClassifyOutput, ClassifyError>>, ClassifyError> {
    let Some(front) = batch.first() else {
        return Ok(Vec::new());
    };
    let model = &front.model;
    let items: Vec<(&TimeSeries, Option<&TraceHandle>)> = batch
        .iter()
        .flat_map(|j| j.series.iter().map(move |s| (s, j.trace.as_ref())))
        .collect();
    let rows: Vec<Vec<f64>> = shared.pool.map(&items, |&(series, trace)| {
        shared.workspaces.with(|ws| match trace {
            Some(trace) => {
                let mut sink = StageTimer::default();
                let row = model.extract_row_traced(series, ws, &mut sink);
                sink.stages.flush(trace);
                row
            }
            None => model.extract_row_traced(series, ws, &mut NoopTraceSink),
        })
    });

    let want_any_proba = batch.iter().any(|j| j.want_proba);
    let predict_started = Instant::now();
    let batch_pass = model.predict_feature_rows(&rows, want_any_proba).ok();
    if let Some((predictions, _)) = &batch_pass {
        if predictions.len() != batch_size {
            return Err(ClassifyError::Model(format!(
                "model returned {} predictions for {batch_size} series",
                predictions.len()
            )));
        }
    }
    let mut outputs = Vec::with_capacity(batch.len());
    let mut offset = 0usize;
    for job in batch {
        let range = offset..offset + job.series.len();
        offset = range.end;
        outputs.push(match &batch_pass {
            Some((predictions, probabilities)) => {
                let job_probabilities = probabilities.as_ref().map(|p| p.get(range.clone()));
                match (predictions.get(range.clone()), job_probabilities) {
                    (Some(p), None) => Ok(job_output(job, p, None, batch_size)),
                    (Some(p), Some(Some(proba))) => Ok(job_output(job, p, Some(proba), batch_size)),
                    _ => Err(slice_error(&range)),
                }
            }
            None => match rows.get(range.clone()) {
                Some(job_rows) => predict_job(model, job, job_rows, batch_size),
                None => Err(slice_error(&range)),
            },
        });
    }
    // one model pass serves the whole batch; every traced request in it
    // waited on that same pass (and on the per-job passes after a failed
    // one), so each gets the full predict duration
    let predict_elapsed = predict_started.elapsed();
    for job in batch {
        if let Some(trace) = &job.trace {
            trace.record(Stage::Predict, predict_elapsed);
        }
    }
    Ok(outputs)
}

/// One job predicted on its own rows, after its batch's pass failed. A
/// non-finite feature, which fails the scaler, is the request's fault: a
/// 400 that names the feature.
fn predict_job(
    model: &MvgClassifier,
    job: &Job,
    rows: &[Vec<f64>],
    batch_size: usize,
) -> Result<ClassifyOutput, ClassifyError> {
    match model.predict_feature_rows(rows, job.want_proba) {
        Ok((predictions, probabilities)) => Ok(job_output(
            job,
            &predictions,
            probabilities.as_deref(),
            batch_size,
        )),
        Err(e) => Err(non_finite_input(model, rows).unwrap_or(ClassifyError::Model(e.to_string()))),
    }
}

fn slice_error(range: &std::ops::Range<usize>) -> ClassifyError {
    ClassifyError::Model(format!(
        "result slice {}..{} out of range",
        range.start, range.end
    ))
}

/// One job's output from its slice of the predictions and, when they were
/// computed, of the probabilities.
fn job_output(
    job: &Job,
    predictions: &[usize],
    probabilities: Option<&[Vec<f64>]>,
    batch_size: usize,
) -> ClassifyOutput {
    ClassifyOutput {
        predictions: predictions.to_vec(),
        probabilities: probabilities.filter(|_| job.want_proba).map(<[_]>::to_vec),
        batch_size,
    }
}

/// The first non-finite feature (within the model's width) of a job's
/// rows, as an input error naming it.
fn non_finite_input(model: &MvgClassifier, rows: &[Vec<f64>]) -> Option<ClassifyError> {
    let names = model.feature_names();
    rows.iter().enumerate().find_map(|(series, row)| {
        let (value, name) = row.iter().zip(names).find(|(v, _)| !v.is_finite())?;
        Some(ClassifyError::Input(format!(
            "classify input: series {series} has non-finite value {value} in feature `{name}`"
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_core::{ClassifierChoice, FeatureConfig, MvgConfig};
    use tsg_ml::gbt::GradientBoostingParams;
    use tsg_ts::Dataset;

    fn tiny_model(seed: u64) -> Arc<MvgClassifier> {
        let mut train = Dataset::new("tiny");
        for i in 0..8 {
            let label = i % 2;
            let values: Vec<f64> = (0..64)
                .map(|t| {
                    if label == 0 {
                        ((t as f64) * 0.4).sin()
                    } else {
                        ((t * 31 + i * 17) % 23) as f64 / 23.0
                    }
                })
                .collect();
            train.push(TimeSeries::with_label(values, label));
        }
        let config = MvgConfig {
            features: FeatureConfig::uvg(),
            classifier: ClassifierChoice::GradientBoosting(GradientBoostingParams {
                n_estimators: 10,
                max_depth: 2,
                ..Default::default()
            }),
            oversample: false,
            n_threads: 1,
            seed,
        };
        let mut clf = MvgClassifier::new(config);
        clf.fit(&train).unwrap();
        Arc::new(clf)
    }

    fn test_series(n: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                TimeSeries::new(
                    (0..64)
                        .map(|t| ((t as f64) * 0.1 * (i + 1) as f64).sin())
                        .collect(),
                )
            })
            .collect()
    }

    fn batcher(config: BatchConfig) -> SharedBatcher {
        SharedBatcher::new(
            config,
            ThreadPool::new(2),
            Arc::new(ServerMetrics::default()),
        )
        .expect("spawn batcher")
    }

    #[test]
    fn batched_results_match_direct_predictions() {
        let model = tiny_model(1);
        let series = test_series(6);
        let direct = model
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let b = batcher(BatchConfig::default());
        let out = b.classify(Arc::clone(&model), series, true).unwrap();
        assert_eq!(out.predictions, direct);
        let proba = out.probabilities.unwrap();
        assert_eq!(proba.len(), 6);
        for p in proba {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn submit_completes_through_the_callback() {
        let model = tiny_model(1);
        let series = test_series(2);
        let direct = model
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let b = batcher(BatchConfig::default());
        let (tx, rx) = std::sync::mpsc::channel();
        b.submit(
            Arc::clone(&model),
            series,
            false,
            Box::new(move |result| tx.send(result).unwrap()),
        )
        .unwrap();
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("callback fired")
            .unwrap();
        assert_eq!(out.predictions, direct);

        // empty submission completes inline
        let (tx, rx) = std::sync::mpsc::channel();
        b.submit(
            Arc::clone(&model),
            Vec::new(),
            true,
            Box::new(move |result| tx.send(result).unwrap()),
        )
        .unwrap();
        let out = rx.try_recv().expect("inline completion").unwrap();
        assert!(out.predictions.is_empty());
        assert_eq!(out.probabilities, Some(Vec::new()));
    }

    #[test]
    fn two_models_share_one_dispatcher_without_mixing() {
        // the scale step: many models, one scheduler. Interleave submissions
        // for two differently seeded models and check every prediction
        // matches that model's own direct output — a mixed batch would run
        // the wrong model over someone's series.
        let model_a = tiny_model(1);
        let model_b = tiny_model(99);
        let series = test_series(10);
        let direct_a = model_a
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let direct_b = model_b
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let config = BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(20),
            queue_depth: 256,
        };
        let b = batcher(config);
        let results: Vec<(usize, bool, ClassifyOutput)> = std::thread::scope(|scope| {
            series
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    [(i, true, s.clone()), (i, false, s.clone())]
                        .into_iter()
                        .map(|(i, use_a, s)| {
                            let b = &b;
                            let model = if use_a { &model_a } else { &model_b };
                            let model = Arc::clone(model);
                            scope.spawn(move || {
                                (i, use_a, b.classify(model, vec![s], false).unwrap())
                            })
                        })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (i, used_a, out) in results {
            let expected = if used_a { direct_a[i] } else { direct_b[i] };
            assert_eq!(
                out.predictions,
                vec![expected],
                "series {i} model_a={used_a}"
            );
        }
    }

    #[test]
    fn concurrent_submissions_coalesce_and_match() {
        let model = tiny_model(1);
        let config = BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(30),
            queue_depth: 256,
        };
        let b = batcher(config);
        let series = test_series(12);
        let direct = model
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let results: Vec<(usize, ClassifyOutput)> = std::thread::scope(|scope| {
            series
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let b = &b;
                    let model = Arc::clone(&model);
                    let s = s.clone();
                    scope.spawn(move || (i, b.classify(model, vec![s], false).unwrap()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut coalesced = false;
        for (i, out) in results {
            assert_eq!(out.predictions, vec![direct[i]], "series {i}");
            if out.batch_size > 1 {
                coalesced = true;
            }
        }
        // 12 concurrent single-series requests with a 30 ms window on a
        // model whose batch takes ~ms: at least some must share a batch
        assert!(coalesced, "no request was ever co-batched");
    }

    #[test]
    fn saturation_returns_queue_full() {
        let model = tiny_model(1);
        let config = BatchConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_depth: 2,
        };
        let metrics = Arc::new(ServerMetrics::default());
        let b = SharedBatcher::new(config, ThreadPool::new(1), Arc::clone(&metrics))
            .expect("spawn batcher");
        // submit from many threads; with depth 2 some must be rejected,
        // while every accepted one completes correctly
        let series = test_series(1);
        let outcomes: Vec<Result<ClassifyOutput, ClassifyError>> = std::thread::scope(|scope| {
            (0..24)
                .map(|_| {
                    let b = &b;
                    let model = Arc::clone(&model);
                    let s = series[0].clone();
                    scope.spawn(move || b.classify(model, vec![s], false))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let ok = outcomes.iter().filter(|r| r.is_ok()).count();
        assert!(ok >= 1, "at least one request must be served");
        for outcome in outcomes {
            if let Err(e) = outcome {
                assert_eq!(e, ClassifyError::Saturated);
            }
        }
        assert_eq!(
            metrics.classify_rejected_total.get() as usize,
            24 - ok,
            "every non-ok outcome must be a counted rejection"
        );
    }

    #[test]
    fn oversized_request_still_dispatches() {
        let model = tiny_model(1);
        let config = BatchConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_depth: 4,
        };
        let b = batcher(config);
        let series = test_series(7); // bigger than both max_batch and depth
        let direct = model
            .predict(&Dataset::from_series("q", series.clone()))
            .unwrap();
        let out = b.classify(Arc::clone(&model), series, false).unwrap();
        assert_eq!(out.predictions, direct);
        assert_eq!(out.batch_size, 7);
    }

    #[test]
    fn traced_submission_populates_batch_stage_spans() {
        let model = tiny_model(1);
        let b = batcher(BatchConfig::default());
        let trace = tsg_trace::ActiveTrace::begin("/models/tiny/classify", 0);
        let (tx, rx) = std::sync::mpsc::channel();
        b.submit_traced(
            Arc::clone(&model),
            test_series(32),
            true,
            Some(Arc::clone(&trace)),
            Box::new(move |result| tx.send(result).unwrap()),
        )
        .unwrap();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("callback fired")
            .unwrap();
        let finished = trace.finish(0);
        let micros = |s: Stage| finished.stage(s);
        // the model pass and the graph-build/motif-count kernels over 32
        // series always take a measurable amount of time; scale stays zero
        // for the uniscale config
        assert!(micros(Stage::Predict) > 0, "{finished:?}");
        assert!(micros(Stage::GraphBuild) > 0, "{finished:?}");
        assert!(micros(Stage::MotifCount) > 0, "{finished:?}");
        assert_eq!(micros(Stage::Scale), 0, "uniscale never scales");
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let model = tiny_model(1);
        let b = batcher(BatchConfig::default());
        b.shutdown();
        let err = b
            .classify(Arc::clone(&model), test_series(1), false)
            .unwrap_err();
        assert_eq!(err, ClassifyError::ShuttingDown);
    }
}
