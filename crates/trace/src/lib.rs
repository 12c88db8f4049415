//! # tsg-trace — request-scoped tracing for the serving stack
//!
//! The paper's pitch is *efficiency*, and one end-to-end latency histogram
//! cannot say where a request's milliseconds actually go. This crate gives
//! every served request a trace: a process-unique ID minted at parse time,
//! a fixed taxonomy of typed stages ([`Stage`]), and an [`ActiveTrace`]
//! that accumulates per-stage wall time while the request travels through
//! the event loop, the batcher, feature extraction and the model.
//!
//! Design constraints, in the workspace's style:
//!
//! * **zero external deps** — `std` only, like everything else here;
//! * **the hot path never takes a mutex** — span timings are plain
//!   `Instant` reads accumulated into per-request atomics
//!   (`fetch_add`), and extraction workers batch their sub-stage timings
//!   in a stack-local [`StageSet`] (thread-owned by construction) that is
//!   flushed with one atomic add per stage;
//! * **tracing observes, never perturbs** — deterministic crates take a
//!   `TraceSink`-style seam whose no-op default inlines to nothing, so the
//!   only clock reads in the workspace live here and in `tsg_serve`
//!   (enforced by the `clock-discipline` analyzer rule).
//!
//! Completed traces land in the [`FlightRecorder`], a bounded ring buffer
//! the server exposes at `GET /debug/traces`. Recording a finished trace
//! touches one per-slot lock (uncontended by construction: slots are
//! addressed by a lock-free cursor), and happens once per request *after*
//! the response bytes hit the wire — off the latency-critical path.
//!
//! The [`log`] module is the companion structured logger (`TSG_LOG`
//! levels, JSON lines, trace-ID-stamped).

pub mod log;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// The typed stages of a served request, in lifecycle order.
///
/// The taxonomy is fixed and small on purpose: every stage is a disjoint
/// sub-interval of the request's lifetime, so per-trace stage sums are
/// always ≤ the end-to-end total (the e2e suite asserts exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Incremental HTTP parse of this request's bytes.
    Parse,
    /// Submit → the batch dispatcher takes the request into a batch.
    QueueWait,
    /// Multiscale representation build (PAA halvings), per series.
    Scale,
    /// Visibility-graph construction across all scales, per series.
    GraphBuild,
    /// Graph features (motif census and graph statistics) over the built
    /// graphs, per series.
    MotifCount,
    /// Per-series statistical feature layer of the tiered catalogue.
    Statistical,
    /// Model inference over the batch's feature rows.
    Predict,
    /// Response body construction + HTTP serialization.
    Serialize,
    /// Response bytes entering the write buffer → fully on the wire.
    WriteOut,
}

impl Stage {
    /// Number of stages (the length of every per-trace stage array).
    pub const COUNT: usize = 9;

    /// All stages in lifecycle order — the canonical iteration order for
    /// rendering (`/metrics` labels, `/debug/traces` JSON).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::Scale,
        Stage::GraphBuild,
        Stage::MotifCount,
        Stage::Statistical,
        Stage::Predict,
        Stage::Serialize,
        Stage::WriteOut,
    ];

    /// Stable snake_case name, used as the `stage` label on `/metrics`
    /// and the key in `/debug/traces` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::Scale => "scale",
            Stage::GraphBuild => "graph_build",
            Stage::MotifCount => "motif_count",
            Stage::Statistical => "statistical",
            Stage::Predict => "predict",
            Stage::Serialize => "serialize",
            Stage::WriteOut => "write_out",
        }
    }

    /// Index into per-trace stage arrays (the discriminant).
    pub fn index(self) -> usize {
        self as usize
    }

    /// This stage's bit in an "entered" mask (`COUNT` ≤ 32).
    fn bit(self) -> u32 {
        1 << self.index()
    }
}

/// A stack-local accumulator of per-stage nanoseconds.
///
/// Extraction workers time sub-stages into one of these (plain `u64`s,
/// owned by the worker's stack frame — no sharing, no atomics) and flush
/// the result to the request's [`ActiveTrace`] with one atomic add per
/// entered stage. This is the "lock-free per-thread recorder": the
/// per-thread part is ownership, the lock-free part is the flush.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageSet {
    nanos: [u64; Stage::COUNT],
    entered: u32,
}

impl StageSet {
    /// Adds `nanos` to a stage (saturating; a request cannot overflow
    /// u64 nanoseconds in practice, but the recorder must not panic).
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        if let Some(cell) = self.nanos.get_mut(stage.index()) {
            *cell = cell.saturating_add(nanos);
            self.entered |= stage.bit();
        }
    }

    /// Accumulated nanoseconds for one stage.
    pub fn get(&self, stage: Stage) -> u64 {
        self.nanos.get(stage.index()).copied().unwrap_or(0)
    }

    /// True when no stage has been entered.
    pub fn is_empty(&self) -> bool {
        self.entered == 0
    }

    /// Flushes every entered stage into `trace`, 0-ns ones included (one
    /// atomic add each).
    pub fn flush(&self, trace: &ActiveTrace) {
        for (stage, nanos) in Stage::ALL.iter().zip(self.nanos.iter()) {
            if self.entered & stage.bit() != 0 {
                trace.add_nanos(*stage, *nanos);
            }
        }
    }
}

/// Process-global trace ID allocator. IDs are unique by construction
/// (a single fetch-add counter), which is exactly what the pipelined
/// keep-alive uniqueness test pins down.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// A live request trace: identity plus per-stage accumulators.
///
/// Shared as a [`TraceHandle`] between the event loop, the batcher and
/// worker threads; all mutation is atomic, so concurrent stages (a worker
/// flushing extraction timings while the loop stamps serialization) never
/// contend on a lock.
#[derive(Debug)]
pub struct ActiveTrace {
    id: u64,
    path: String,
    started: Instant,
    stage_nanos: [AtomicU64; Stage::COUNT],
    entered: AtomicU32,
    status: AtomicU32,
    model: OnceLock<String>,
    faults_at_start: u64,
}

/// How traces travel: one `Arc` per request.
pub type TraceHandle = Arc<ActiveTrace>;

impl ActiveTrace {
    /// Begins a trace now. `faults_at_start` is the caller's snapshot of
    /// `tsg_faults::injected_total()` (this crate depends on nothing, so
    /// the counter is passed in) — [`ActiveTrace::finish`] turns the
    /// delta into the trace's fault attribution.
    pub fn begin(path: &str, faults_at_start: u64) -> TraceHandle {
        Self::begin_at(path, faults_at_start, Instant::now())
    }

    /// Begins a trace whose clock started at `started` — used by the
    /// event loop so the total includes the parse that *discovered* the
    /// request (the parse span must stay inside the total).
    pub fn begin_at(path: &str, faults_at_start: u64, started: Instant) -> TraceHandle {
        Arc::new(ActiveTrace {
            id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            path: path.to_string(),
            started,
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            entered: AtomicU32::new(0),
            status: AtomicU32::new(0),
            model: OnceLock::new(),
            faults_at_start,
        })
    }

    /// The process-unique trace ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request path this trace was opened for.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Adds nanoseconds to a stage and marks it entered, even when
    /// `nanos` is 0 (lock-free).
    pub fn add_nanos(&self, stage: Stage, nanos: u64) {
        if let Some(cell) = self.stage_nanos.get(stage.index()) {
            cell.fetch_add(nanos, Ordering::Relaxed);
            self.entered.fetch_or(stage.bit(), Ordering::Relaxed);
        }
    }

    /// Records an elapsed duration against a stage.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.add_nanos(stage, elapsed.as_nanos() as u64);
    }

    /// Starts an RAII span: the stage is recorded when the guard drops.
    pub fn span(&self, stage: Stage) -> SpanTimer<'_> {
        SpanTimer {
            trace: self,
            stage,
            started: Instant::now(),
        }
    }

    /// Stamps the model that served this request (first write wins; a
    /// request is served by exactly one model entry).
    pub fn set_model(&self, name: &str) {
        let _ = self.model.set(name.to_string());
    }

    /// Stamps the HTTP status of the response.
    pub fn set_status(&self, status: u16) {
        self.status.store(u32::from(status), Ordering::Relaxed);
    }

    /// Freezes the trace into a [`FinishedTrace`]. `faults_now` is the
    /// caller's current `injected_total()` snapshot; the recorded value
    /// is the delta since [`ActiveTrace::begin`].
    pub fn finish(&self, faults_now: u64) -> FinishedTrace {
        FinishedTrace {
            id: self.id,
            path: self.path.clone(),
            model: self.model.get().cloned(),
            status: self.status.load(Ordering::Relaxed) as u16,
            total_nanos: self.started.elapsed().as_nanos() as u64,
            stage_nanos: std::array::from_fn(|i| {
                self.stage_nanos
                    .get(i)
                    .map(|c| c.load(Ordering::Relaxed))
                    .unwrap_or(0)
            }),
            entered: {
                let mask = self.entered.load(Ordering::Relaxed);
                Stage::ALL.map(|stage| mask & stage.bit() != 0)
            },
            faults_injected: faults_now.saturating_sub(self.faults_at_start),
            seq: 0,
        }
    }
}

/// RAII span guard from [`ActiveTrace::span`]: records the elapsed time
/// against its stage on drop, so early returns are still measured.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    trace: &'a ActiveTrace,
    stage: Stage,
    started: Instant,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.trace.record(self.stage, self.started.elapsed());
    }
}

/// A completed, immutable trace as stored in the flight recorder and
/// rendered at `/debug/traces`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Process-unique trace ID.
    pub id: u64,
    /// Request path (query string excluded).
    pub path: String,
    /// Model that served the request, when one was involved.
    pub model: Option<String>,
    /// HTTP status of the response (0 when the connection died first).
    pub status: u16,
    /// End-to-end wall time, parse start → finish.
    pub total_nanos: u64,
    /// Per-stage nanoseconds, indexed by [`Stage::index`].
    pub stage_nanos: [u64; Stage::COUNT],
    /// Whether each stage was entered (recorded at all, 0 ns included),
    /// indexed by [`Stage::index`]; a `/healthz` never enters `predict`.
    pub entered: [bool; Stage::COUNT],
    /// `tsg_faults::injected_total()` delta over the request's lifetime.
    pub faults_injected: u64,
    /// Recorder insertion order (assigned by [`FlightRecorder::record`]);
    /// lower `seq` values are evicted first when the ring wraps.
    pub seq: u64,
}

impl FinishedTrace {
    /// Nanoseconds recorded for one stage.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_nanos.get(stage.index()).copied().unwrap_or(0)
    }
}

fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // a panicking holder poisons the lock but not the data: a trace slot
    // is a plain value, so recovery is always sound here
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bounded ring buffer of the most recent [`FinishedTrace`]s.
///
/// `record` claims a slot with a lock-free cursor (`fetch_add`) and takes
/// only that slot's lock — writers racing on *different* requests touch
/// different slots, and a reader (`/debug/traces`) contends for at most
/// one slot at a time. When full, the oldest trace (lowest `seq`) is
/// overwritten first.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Mutex<Option<FinishedTrace>>]>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let slots: Vec<Mutex<Option<FinishedTrace>>> =
            (0..capacity.max(1)).map(|_| Mutex::new(None)).collect();
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever recorded (monotonic; `recorded_total() -
    /// capacity()` traces have been evicted, when positive).
    pub fn recorded_total(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Stores a finished trace, stamping its `seq` with the insertion
    /// order and evicting the oldest entry once the ring is full.
    pub fn record(&self, mut trace: FinishedTrace) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        trace.seq = seq;
        let index = (seq % self.slots.len() as u64) as usize;
        if let Some(slot) = self.slots.get(index) {
            *lock_recover(slot) = Some(trace);
        }
    }

    /// All currently-held traces, oldest first (ascending `seq`).
    pub fn snapshot(&self) -> Vec<FinishedTrace> {
        let mut out: Vec<FinishedTrace> = self
            .slots
            .iter()
            .filter_map(|slot| lock_recover(slot).clone())
            .collect();
        out.sort_by_key(|t| t.seq);
        out
    }

    /// Looks up one trace by ID, if it is still in the ring.
    pub fn find(&self, id: u64) -> Option<FinishedTrace> {
        self.slots
            .iter()
            .filter_map(|slot| lock_recover(slot).clone())
            .find(|t| t.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(total: u64) -> FinishedTrace {
        FinishedTrace {
            id: 0,
            path: "/test".to_string(),
            model: None,
            status: 200,
            total_nanos: total,
            stage_nanos: [0; Stage::COUNT],
            entered: [false; Stage::COUNT],
            faults_injected: 0,
            seq: 0,
        }
    }

    #[test]
    fn stage_names_and_indices_are_stable() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue_wait",
                "scale",
                "graph_build",
                "motif_count",
                "statistical",
                "predict",
                "serialize",
                "write_out"
            ]
        );
    }

    #[test]
    fn trace_ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..250)
                        .map(|_| ActiveTrace::begin("/x", 0).id())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut ids: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("id thread"))
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "trace IDs collided");
    }

    #[test]
    fn stage_accounting_accumulates_and_freezes() {
        let trace = ActiveTrace::begin("/models/m/classify", 3);
        trace.add_nanos(Stage::Parse, 10);
        trace.add_nanos(Stage::MotifCount, 5);
        trace.add_nanos(Stage::MotifCount, 7);
        trace.set_model("m");
        trace.set_status(200);
        let done = trace.finish(5);
        assert_eq!(done.stage(Stage::Parse), 10);
        assert_eq!(done.stage(Stage::MotifCount), 12);
        assert_eq!(done.stage(Stage::Predict), 0);
        assert!(done.entered[Stage::MotifCount.index()]);
        assert!(!done.entered[Stage::Predict.index()]);
        assert_eq!(done.model.as_deref(), Some("m"));
        assert_eq!(done.status, 200);
        assert_eq!(done.faults_injected, 2);
        assert_eq!(done.stage_nanos.iter().sum::<u64>(), 22);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let trace = ActiveTrace::begin("/x", 0);
        {
            let _span = trace.span(Stage::Serialize);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(trace.finish(0).stage(Stage::Serialize) >= 1_000_000);
    }

    #[test]
    fn stage_set_flush_is_one_shot_per_stage() {
        let mut set = StageSet::default();
        assert!(set.is_empty());
        set.add(Stage::Scale, 4);
        set.add(Stage::Scale, 6);
        set.add(Stage::GraphBuild, 11);
        assert!(!set.is_empty());
        assert_eq!(set.get(Stage::Scale), 10);
        let trace = ActiveTrace::begin("/x", 0);
        set.flush(&trace);
        set.flush(&trace); // flushing twice doubles — callers flush once
        let done = trace.finish(0);
        assert_eq!(done.stage(Stage::Scale), 20);
        assert_eq!(done.stage(Stage::GraphBuild), 22);
    }

    #[test]
    fn zero_micro_stages_are_still_entered() {
        let mut set = StageSet::default();
        set.add(Stage::MotifCount, 0);
        assert!(!set.is_empty());
        let trace = ActiveTrace::begin("/x", 0);
        set.flush(&trace);
        trace.record(Stage::Parse, Duration::from_nanos(300));
        let done = trace.finish(0);
        // a sub-µs span keeps its nanoseconds
        assert_eq!(done.stage(Stage::Parse), 300);
        assert!(done.entered[Stage::Parse.index()]);
        assert!(done.entered[Stage::MotifCount.index()]);
        assert!(!done.entered[Stage::Scale.index()]);
    }

    #[test]
    fn ring_wraps_and_evicts_oldest_first() {
        let recorder = FlightRecorder::new(4);
        assert_eq!(recorder.capacity(), 4);
        for i in 0..10u64 {
            recorder.record(finished(i));
        }
        assert_eq!(recorder.recorded_total(), 10);
        let held = recorder.snapshot();
        // the ring holds exactly the last 4, oldest first: seqs 6..=9
        assert_eq!(held.len(), 4);
        let seqs: Vec<u64> = held.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        let totals: Vec<u64> = held.iter().map(|t| t.total_nanos).collect();
        assert_eq!(totals, [6, 7, 8, 9]);
    }

    #[test]
    fn find_locates_live_traces_and_misses_evicted_ones() {
        let recorder = FlightRecorder::new(2);
        let a = ActiveTrace::begin("/a", 0);
        let b = ActiveTrace::begin("/b", 0);
        let c = ActiveTrace::begin("/c", 0);
        recorder.record(a.finish(0));
        recorder.record(b.finish(0));
        recorder.record(c.finish(0)); // evicts a
        assert!(recorder.find(a.id()).is_none());
        assert_eq!(recorder.find(b.id()).map(|t| t.path), Some("/b".into()));
        assert_eq!(recorder.find(c.id()).map(|t| t.path), Some("/c".into()));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(finished(1));
        recorder.record(finished(2));
        assert_eq!(recorder.snapshot().len(), 1);
    }
}
