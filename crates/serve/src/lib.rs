//! # tsg-serve — the batching classification server
//!
//! The paper's pitch is *efficient* classification: fit once, then classify
//! cheaply at scale. This crate exposes the fitted pipeline as a service —
//! the repo's serving layer on the road to the production north star. It is
//! built entirely on `std` (the environment has no crates.io access): a
//! raw-syscall epoll shim ([`epoll`]), hand-rolled HTTP/1.1 ([`http`]), a
//! minimal JSON reader/writer ([`json`]), and plain threads + condvars for
//! the scheduler.
//!
//! Six layers:
//!
//! * [`epoll`] — the thin FFI shim over Linux `epoll`/`eventfd`: readiness
//!   notification and a cross-thread waker, with every `unsafe` site
//!   SAFETY-commented;
//! * `event_loop` — the single-threaded serving core: a slab of
//!   nonblocking per-connection state machines with incremental parsing,
//!   HTTP/1.1 pipelining (responses always in request order), and a
//!   completion queue that lets worker threads finish requests without the
//!   loop ever blocking;
//! * [`registry`] — named, fitted [`MvgClassifier`](tsg_core::MvgClassifier)
//!   instances behind `Arc`s with monotonically increasing versions (classify
//!   requests can pin one), fitted from the [`tsg_datasets`] catalogue
//!   (through its on-disk cache) or from series supplied in the request;
//! * [`batcher`] — ONE shared micro-batch scheduler for all models:
//!   concurrent classify requests coalesce into per-model batches (tunable
//!   max size / max wait), each batch extracts features on the shared
//!   [`tsg_parallel::ThreadPool`] with warm
//!   [`MotifWorkspace`](tsg_graph::motifs::MotifWorkspace) reuse, and a
//!   bounded queue applies backpressure (HTTP 429) when saturated;
//! * [`metrics`] — request/connection counters, latency histograms and the
//!   realized batch-size distribution at `/metrics`;
//! * [`server`] — routing and the public bind/preload/run API, used by the
//!   `tsg-serve` binary; the `serve_loadgen` binary drives N concurrent
//!   connections against it and reports throughput and latency percentiles;
//! * `snapshot` (internal) — crash-safe, hash-verified on-disk snapshots of
//!   fitted models, written after every successful fit when `--snapshot-dir`
//!   is set and reloaded on boot by
//!   [`ModelRegistry::warm_restart`](registry::ModelRegistry::warm_restart);
//!   a corrupt snapshot is detected and refitted, never served.
//!
//! The serving and storage I/O paths are threaded through the deterministic
//! fault-injection seams of [`tsg_faults`] (compiled to no-ops unless the
//! `fault-injection` feature — or any test build — enables them); see
//! `docs/fault-injection.md` and `tests/chaos.rs`.
//!
//! Batching is *bit-neutral*: a series classified in a batch of 64 gets
//! exactly the prediction a direct
//! [`MvgClassifier::predict`](tsg_core::MvgClassifier::predict) call
//! produces (`tests/e2e.rs` proves this over concurrent connections).

pub mod batcher;
pub mod epoll;
mod event_loop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod server;
mod snapshot;

pub use batcher::{BatchConfig, ClassifyError, ClassifyOutput, SharedBatcher};
pub use json::Json;
pub use metrics::ServerMetrics;
pub use registry::{config_named, ModelInfo, ModelRegistry, TrainingSource, CONFIG_PRESETS};
pub use server::{ServeConfig, Server, ShutdownHandle};
