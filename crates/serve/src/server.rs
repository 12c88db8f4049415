//! The HTTP server: bind/preload API, routing and graceful shutdown around
//! the event loop in the private `event_loop` module.
//!
//! ## Routes
//!
//! | method | path | purpose |
//! |--------|------|---------|
//! | `GET` | `/healthz` | liveness + model count |
//! | `GET` | `/metrics` | Prometheus text metrics |
//! | `GET` | `/models` | registered model metadata (including versions) |
//! | `POST` | `/models/{name}/fit` | fit/replace a model (catalogue or inline series) |
//! | `POST` | `/models/{name}/classify` | classify series (micro-batched; optional `version` pin) |
//! | `DELETE` | `/models/{name}` | unregister a model |
//! | `POST` | `/shutdown` | graceful shutdown |
//!
//! Connections are nonblocking keep-alive sockets multiplexed by one
//! readiness-driven thread (epoll); HTTP/1.1 pipelining is supported. Cheap
//! routes answer inline on the loop; classify requests complete through the
//! shared micro-batcher's callback and fits run on a dedicated ops worker
//! thread, so neither ever stalls other connections. `POST /shutdown` (or
//! [`ShutdownHandle::shutdown`]) stops accepting, drains in-flight work
//! under a grace deadline, then tears the registry down.
//!
//! Classify requests may pin a model version (`"version": N` in the body):
//! when a refit hot-swapped the model since the client last looked, the
//! server answers `409 Conflict` instead of silently classifying with a
//! different model.

use crate::batcher::{BatchConfig, ClassifyError, ClassifyOutput};
use crate::event_loop::{self, AsyncCtx, Completed, OpsJob};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::registry::{ModelRegistry, RegistryError, TrainingSource};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tsg_datasets::archive::ArchiveOptions;
use tsg_trace::{FinishedTrace, FlightRecorder, Stage};
use tsg_ts::{Dataset, TimeSeries};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads of the shared extraction pool (`0` = process default).
    pub n_threads: usize,
    /// Micro-batch scheduler tuning.
    pub batch: BatchConfig,
    /// Default dataset budget for catalogue fits that do not override it.
    pub archive: ArchiveOptions,
    /// Directory for model snapshots: every successful fit is snapshotted
    /// there and `warm_restart` reloads them on boot. `None` disables
    /// persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Wall-clock budget for receiving one request; a peer that started a
    /// request but stalled past this gets a 408 from the timeout sweep.
    pub request_budget: Duration,
    /// How many finished request traces the flight recorder retains
    /// (oldest evicted first); served by `GET /debug/traces`.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            n_threads: 0,
            batch: BatchConfig::default(),
            archive: ArchiveOptions::bounded(60, 512, 7),
            snapshot_dir: None,
            request_budget: crate::http::MID_REQUEST_BUDGET,
            trace_capacity: 256,
        }
    }
}

/// Shared server state.
pub(crate) struct ServerState {
    pub(crate) registry: ModelRegistry,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) archive: ArchiveOptions,
    pub(crate) request_budget: Duration,
    pub(crate) traces: FlightRecorder,
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Cloneable handle that can stop a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown (idempotent). The event loop observes
    /// the flag within its tick interval.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }
}

impl Server {
    /// Binds the listener and builds an empty registry.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(ServerMetrics::default());
        let mut registry =
            ModelRegistry::new(config.n_threads, config.batch, Arc::clone(&metrics))?;
        if let Some(dir) = &config.snapshot_dir {
            registry.set_snapshot_dir(dir.clone());
        }
        let state = Arc::new(ServerState {
            registry,
            metrics,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            archive: config.archive,
            request_budget: config.request_budget,
            traces: FlightRecorder::new(config.trace_capacity),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry, for pre-loading models before `run`.
    pub fn registry(&self) -> &ModelRegistry {
        &self.state.registry
    }

    /// A handle that can stop the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the event loop until shutdown, then joins the ops worker and
    /// tears the registry down.
    pub fn run(self) -> std::io::Result<()> {
        // blocking fits run here so they never stall the event loop; jobs
        // are panic-isolated at construction (see `fit_model`)
        let (ops_tx, ops_rx) = mpsc::channel::<OpsJob>();
        let worker = std::thread::Builder::new()
            .name("tsg-serve-ops".into())
            .spawn(move || {
                while let Ok(job) = ops_rx.recv() {
                    job();
                }
            })?;
        let result = event_loop::run(self.listener, &self.state, &ops_tx);
        drop(ops_tx);
        let _ = worker.join();
        self.state.registry.shutdown();
        result
    }
}

/// How a routed request will produce its response.
pub(crate) enum Routed {
    /// The response is ready now; the event loop serializes and sends it.
    Immediate(Response),
    /// The request was handed to a worker (batcher or ops thread); the
    /// response arrives through the completion queue.
    Async,
}

/// Routes one parsed request. Cheap routes answer immediately; classify and
/// fit go asynchronous via `ctx`. `POST /shutdown` flips the shutdown flag
/// *during* routing — the caller computes keep-alive afterwards, so the
/// shutdown response itself honestly advertises `Connection: close`.
pub(crate) fn route_request(
    state: &Arc<ServerState>,
    request: &Request,
    ctx: AsyncCtx,
    ops: &mpsc::Sender<OpsJob>,
) -> Routed {
    // bodies are framed by Content-Length only; a chunked body would desync
    // the keep-alive stream, so refuse it outright (the event loop closes
    // the connection after a 501 for exactly that reason)
    if matches!(request.header("transfer-encoding"), Some(v) if !v.eq_ignore_ascii_case("identity"))
    {
        return Routed::Immediate(Response::error(
            501,
            "Transfer-Encoding is not supported; send Content-Length",
        ));
    }
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Routed::Immediate(healthz(state)),
        ("GET", ["metrics"]) => Routed::Immediate(Response::text(
            200,
            state.metrics.render(
                state.registry.len(),
                state.started.elapsed().as_secs_f64(),
                tsg_faults::injected_total(),
            ),
        )),
        ("GET", ["models"]) => Routed::Immediate(list_models(state)),
        ("GET", ["debug", "traces"]) => Routed::Immediate(debug_traces(state, request)),
        ("POST", ["models", name, "fit"]) => fit_model(request, state, name, ctx, ops),
        ("POST", ["models", name, "classify"]) => classify(request, state, name, ctx),
        ("DELETE", ["models", name]) => Routed::Immediate(if state.registry.remove(name) {
            Response::json(
                200,
                &Json::obj(vec![("removed", Json::Str(name.to_string()))]),
            )
        } else {
            Response::error(404, &format!("unknown model `{name}`"))
        }),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::Release);
            Routed::Immediate(Response::json(
                200,
                &Json::obj(vec![("status", Json::Str("shutting down".into()))]),
            ))
        }
        ("GET", _) | ("POST", _) | ("DELETE", _) => {
            Routed::Immediate(Response::error(404, "no such route"))
        }
        _ => Routed::Immediate(Response::error(405, "method not allowed")),
    }
}

fn healthz(state: &Arc<ServerState>) -> Response {
    Response::json(
        200,
        &Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("models", Json::Num(state.registry.len() as f64)),
            (
                "uptime_seconds",
                Json::Num(state.started.elapsed().as_secs_f64()),
            ),
        ]),
    )
}

fn model_info_json(info: &crate::registry::ModelInfo) -> Json {
    Json::obj(vec![
        ("name", Json::Str(info.name.clone())),
        ("version", Json::Num(info.version as f64)),
        (
            "dataset",
            info.dataset
                .as_ref()
                .map(|d| Json::Str(d.clone()))
                .unwrap_or(Json::Null),
        ),
        ("config", Json::Str(info.config.clone())),
        ("n_train", Json::Num(info.n_train as f64)),
        ("n_classes", Json::Num(info.n_classes as f64)),
        ("n_features", Json::Num(info.n_features as f64)),
        ("fit_seconds", Json::Num(info.fit_seconds)),
        ("provenance", Json::Str(info.provenance.clone())),
        (
            "features",
            info.features
                .as_ref()
                .map(|names| Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()))
                .unwrap_or(Json::Null),
        ),
    ])
}

fn list_models(state: &Arc<ServerState>) -> Response {
    let models = state.registry.list().iter().map(model_info_json).collect();
    Response::json(200, &Json::obj(vec![("models", Json::Arr(models))]))
}

/// One finished trace as JSON, in whole microseconds. Every stage key is
/// always present (zeros included) so scrapers never need existence checks.
fn trace_json(trace: &FinishedTrace) -> Json {
    let micros = |nanos: u64| Json::Num((nanos / 1000) as f64);
    let stages = Stage::ALL
        .iter()
        .map(|&stage| (stage.as_str(), micros(trace.stage(stage))))
        .collect();
    Json::obj(vec![
        ("trace_id", Json::Str(format!("{:016x}", trace.id))),
        ("path", Json::Str(trace.path.clone())),
        (
            "model",
            trace
                .model
                .as_ref()
                .map(|m| Json::Str(m.clone()))
                .unwrap_or(Json::Null),
        ),
        ("status", Json::Num(f64::from(trace.status))),
        ("total_micros", micros(trace.total_nanos)),
        ("stages_micros", Json::obj(stages)),
        ("faults_injected", Json::Num(trace.faults_injected as f64)),
        ("seq", Json::Num(trace.seq as f64)),
    ])
}

/// `GET /debug/traces` — the flight recorder, oldest first. `?slow_ms=N`
/// keeps only traces at least that slow; `?trace_id=HEX` looks one up.
fn debug_traces(state: &Arc<ServerState>, request: &Request) -> Response {
    let slow_nanos = match request.query_param("slow_ms") {
        None => None,
        Some(raw) => match raw.parse::<f64>() {
            Ok(ms) if ms >= 0.0 && ms.is_finite() => Some((ms * 1e6) as u64),
            _ => return Response::error(400, "`slow_ms` must be a non-negative number"),
        },
    };
    let wanted_id = match request.query_param("trace_id") {
        None => None,
        Some(raw) => match u64::from_str_radix(raw, 16) {
            Ok(id) => Some(id),
            Err(_) => return Response::error(400, "`trace_id` must be a hex trace id"),
        },
    };
    let mut traces = state.traces.snapshot();
    if let Some(min_nanos) = slow_nanos {
        traces.retain(|t| t.total_nanos >= min_nanos);
    }
    if let Some(id) = wanted_id {
        traces.retain(|t| t.id == id);
    }
    Response::json(
        200,
        &Json::obj(vec![
            ("capacity", Json::Num(state.traces.capacity() as f64)),
            (
                "recorded_total",
                Json::Num(state.traces.recorded_total() as f64),
            ),
            ("count", Json::Num(traces.len() as f64)),
            ("traces", Json::Arr(traces.iter().map(trace_json).collect())),
        ]),
    )
}

/// Parses `{"values": [...], "label": n}` or a bare `[...]` array.
fn parse_series(value: &Json, require_label: bool) -> Result<TimeSeries, String> {
    let (values_json, label) = match value {
        Json::Arr(_) => (value, None),
        Json::Obj(_) => {
            let values = value
                .get("values")
                .ok_or_else(|| "series object needs a `values` array".to_string())?;
            let label = match value.get("label") {
                Some(l) => Some(
                    l.as_usize()
                        .ok_or_else(|| "`label` must be a non-negative integer".to_string())?,
                ),
                None => None,
            };
            (values, label)
        }
        _ => return Err("series must be an array of numbers or an object".to_string()),
    };
    let items = values_json
        .as_array()
        .ok_or_else(|| "series values must be an array".to_string())?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        let v = item
            .as_f64()
            .ok_or_else(|| "series values must be numbers".to_string())?;
        if !v.is_finite() {
            return Err("series values must be finite".to_string());
        }
        values.push(v);
    }
    if values.is_empty() {
        return Err("series must not be empty".to_string());
    }
    match (label, require_label) {
        (Some(label), _) => Ok(TimeSeries::with_label(values, label)),
        (None, false) => Ok(TimeSeries::new(values)),
        (None, true) => Err("training series need a `label`".to_string()),
    }
}

/// The inline training set of a fit body: at least one labelled series,
/// with labels dense `0..k` for `k` distinct labels. The model sizes its
/// class count by the largest label, so a sparse label is refused rather
/// than allowed to size it.
fn parse_training_set(train: &Json, name: &str) -> Result<Dataset, String> {
    let items = train
        .get("series")
        .and_then(|s| s.as_array())
        .ok_or_else(|| "`train` needs a `series` array".to_string())?;
    if items.is_empty() {
        return Err("`train.series` must not be empty".to_string());
    }
    let mut dataset = Dataset::new(format!("{name}_inline"));
    for item in items {
        dataset.push(parse_series(item, true)?);
    }
    let labels: BTreeSet<usize> = dataset.series().iter().filter_map(|s| s.label()).collect();
    let k = labels.len();
    match labels.into_iter().find(|&label| label >= k) {
        Some(label) => Err(format!(
            "`train.series` labels must be dense 0..{k} for {k} distinct labels, \
             but label {label} is outside that range"
        )),
        None => Ok(dataset),
    }
}

/// An optional body field of one JSON type: absent is `Ok(None)`, so the
/// caller's default applies; present with another type is a 400 naming the
/// field, never a silent default.
fn typed_field<'a, T>(
    body: &'a Json,
    key: &str,
    expected: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, Response> {
    match body.get(key) {
        None => Ok(None),
        Some(value) => read(value)
            .map(Some)
            .ok_or_else(|| Response::error(400, &format!("`{key}` must be {expected}"))),
    }
}

/// The validated fields of a fit body.
struct FitRequest {
    config_name: String,
    seed: u64,
    prune: Option<usize>,
    source: TrainingSource,
}

/// Reads a fit body. Invalid fields are rejected, never silently replaced
/// by defaults: a model fitted under the wrong preset, seed or budget looks
/// healthy.
fn parse_fit_request(body: &Json, state: &ServerState, name: &str) -> Result<FitRequest, Response> {
    const COUNT: &str = "a non-negative integer";
    let config_name = typed_field(body, "config", "a string naming a preset", Json::as_str)?
        .unwrap_or("fast")
        .to_string();
    let seed = typed_field(body, "seed", "a whole number below 2^53", Json::as_u64)?
        .unwrap_or(state.archive.seed);
    // optional importance-driven pruning: fit the preset wide, keep only
    // the top-k features, refit and serve the pruned model
    let prune = typed_field(body, "prune", COUNT, Json::as_usize)?;
    if prune == Some(0) {
        return Err(Response::error(400, "`prune` must be at least 1"));
    }
    let dataset = typed_field(body, "dataset", "a string naming a dataset", Json::as_str)?;
    let source = if let Some(dataset) = dataset {
        let mut options = state.archive;
        options.seed = seed;
        if let Some(n) = typed_field(body, "max_instances", COUNT, Json::as_usize)? {
            options.max_train = n;
            options.max_test = n;
        }
        if let Some(n) = typed_field(body, "max_length", COUNT, Json::as_usize)? {
            options.max_length = n;
        }
        TrainingSource::Catalogue {
            dataset: dataset.to_string(),
            options,
        }
    } else if let Some(train) = body.get("train") {
        TrainingSource::Inline(
            parse_training_set(train, name).map_err(|e| Response::error(400, &e))?,
        )
    } else {
        return Err(Response::error(
            400,
            "fit request needs `dataset` or `train`",
        ));
    };
    Ok(FitRequest {
        config_name,
        seed,
        prune,
        source,
    })
}

/// `POST /models/{name}/fit` — parsing and validation happen inline (cheap);
/// the fit itself is queued to the ops worker so a multi-second training run
/// never blocks the event loop.
fn fit_model(
    request: &Request,
    state: &Arc<ServerState>,
    name: &str,
    ctx: AsyncCtx,
    ops: &mpsc::Sender<OpsJob>,
) -> Routed {
    let body = match request.json_body() {
        Ok(b) => b,
        Err(e) => return Routed::Immediate(Response::error(400, &e)),
    };
    let FitRequest {
        config_name,
        seed,
        prune,
        source,
    } = match parse_fit_request(&body, state, name) {
        Ok(fit) => fit,
        Err(response) => return Routed::Immediate(response),
    };

    let state = Arc::clone(state);
    let name = name.to_string();
    let job: OpsJob = Box::new(move || {
        // panic-isolated: a panicking fit must neither kill the ops worker
        // nor leave the connection waiting on a response that never comes
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match prune {
            None => state.registry.fit(&name, source, &config_name, seed),
            Some(k) => state
                .registry
                .fit_pruned(&name, source, &config_name, seed, k),
        }));
        let response = match outcome {
            Ok(Ok(info)) => Response::json(200, &model_info_json(&info)),
            Ok(Err(
                e @ (RegistryError::UnknownConfig(_)
                | RegistryError::UnknownDataset(_)
                | RegistryError::Input(_)),
            )) => Response::error(400, &e.to_string()),
            Ok(Err(e @ RegistryError::UnknownModel(_))) => Response::error(404, &e.to_string()),
            Ok(Err(e @ RegistryError::Fit(_))) => Response::error(500, &e.to_string()),
            Err(_) => Response::error(500, "fit crashed; model unchanged"),
        };
        state.metrics.record_status(response.status);
        state
            .metrics
            .request_latency_seconds
            .observe(ctx.started.elapsed().as_secs_f64());
        ctx.trace.set_model(&name);
        ctx.trace.set_status(response.status);
        let bytes = {
            let _span = ctx.trace.span(Stage::Serialize);
            response.serialize(ctx.keep_alive)
        };
        ctx.completions.push(Completed {
            token: ctx.token,
            generation: ctx.generation,
            seq: ctx.seq,
            bytes,
            trace: Some(ctx.trace),
        });
    });
    match ops.send(job) {
        Ok(()) => Routed::Async,
        Err(_) => Routed::Immediate(Response::error(500, "fit worker unavailable")),
    }
}

/// Builds the wire response for a finished classify request.
fn classify_response(
    model: &str,
    version: u64,
    outcome: Result<ClassifyOutput, ClassifyError>,
) -> Response {
    match outcome {
        Ok(output) => {
            let mut members = vec![
                ("model", Json::Str(model.to_string())),
                ("version", Json::Num(version as f64)),
                (
                    "predictions",
                    Json::Arr(
                        output
                            .predictions
                            .iter()
                            .map(|&p| Json::Num(p as f64))
                            .collect(),
                    ),
                ),
                ("batch_size", Json::Num(output.batch_size as f64)),
            ];
            if let Some(probabilities) = output.probabilities {
                members.push((
                    "probabilities",
                    Json::Arr(probabilities.into_iter().map(Json::nums).collect()),
                ));
            }
            Response::json(200, &Json::obj(members))
        }
        Err(ClassifyError::Saturated) => Response::error(429, "classify queue is full"),
        Err(ClassifyError::ShuttingDown) => Response::error(503, "server is shutting down"),
        Err(ClassifyError::Input(e)) => Response::error(400, &e),
        Err(ClassifyError::Model(e)) => Response::error(500, &e),
    }
}

/// `POST /models/{name}/classify` — parses and validates inline, resolves
/// the model (checking an optional pinned `version`), then submits to the
/// shared batcher; the batch dispatcher completes the response through the
/// event loop's completion queue.
fn classify(request: &Request, state: &Arc<ServerState>, name: &str, ctx: AsyncCtx) -> Routed {
    let entry = match state.registry.get(name) {
        Ok(entry) => entry,
        Err(e) => return Routed::Immediate(Response::error(404, &e.to_string())),
    };
    let body = match request.json_body() {
        Ok(b) => b,
        Err(e) => return Routed::Immediate(Response::error(400, &e)),
    };
    // version pinning: a client that resolved model metadata before a refit
    // can demand exactly that model and learn about the swap via 409 instead
    // of silently getting different predictions
    let pin = typed_field(&body, "version", "a whole number below 2^53", Json::as_u64);
    let want_proba = typed_field(&body, "proba", "a boolean", Json::as_bool);
    let (pin, want_proba) = match (pin, want_proba) {
        (Ok(pin), Ok(want_proba)) => (pin, want_proba.unwrap_or(false)),
        (Err(response), _) | (_, Err(response)) => return Routed::Immediate(response),
    };
    if let Some(pin) = pin {
        if pin != entry.info.version {
            return Routed::Immediate(Response::error(
                409,
                &format!(
                    "model `{name}` is at version {}, request pinned version {pin}",
                    entry.info.version
                ),
            ));
        }
    }
    let items = match body.get("series").and_then(|s| s.as_array()) {
        Some(items) => items,
        None => {
            return Routed::Immediate(Response::error(
                400,
                "classify request needs a `series` array",
            ))
        }
    };
    let mut series = Vec::with_capacity(items.len());
    for item in items {
        match parse_series(item, false) {
            Ok(s) => series.push(s),
            Err(e) => return Routed::Immediate(Response::error(400, &e)),
        }
    }
    state.metrics.classify_requests_total.inc();

    let metrics = Arc::clone(&state.metrics);
    let model_name = name.to_string();
    let version = entry.info.version;
    ctx.trace.set_model(name);
    let batch_trace = Arc::clone(&ctx.trace);
    let on_done = Box::new(move |outcome: Result<ClassifyOutput, ClassifyError>| {
        metrics
            .classify_latency_seconds
            .observe(ctx.started.elapsed().as_secs_f64());
        let response = classify_response(&model_name, version, outcome);
        metrics.record_status(response.status);
        metrics
            .request_latency_seconds
            .observe(ctx.started.elapsed().as_secs_f64());
        ctx.trace.set_status(response.status);
        let bytes = {
            let _span = ctx.trace.span(Stage::Serialize);
            response.serialize(ctx.keep_alive)
        };
        ctx.completions.push(Completed {
            token: ctx.token,
            generation: ctx.generation,
            seq: ctx.seq,
            bytes,
            trace: Some(ctx.trace),
        });
    });
    match state.registry.batcher().submit_traced(
        Arc::clone(entry.classifier()),
        series,
        want_proba,
        Some(batch_trace),
        on_done,
    ) {
        Ok(()) => Routed::Async,
        Err(e @ ClassifyError::Saturated) => {
            Routed::Immediate(Response::error(429, &e.to_string()))
        }
        Err(e @ ClassifyError::ShuttingDown) => {
            Routed::Immediate(Response::error(503, &e.to_string()))
        }
        Err(ClassifyError::Input(e)) => Routed::Immediate(Response::error(400, &e)),
        Err(ClassifyError::Model(e)) => Routed::Immediate(Response::error(500, &e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_series_accepts_both_shapes() {
        let bare = Json::parse("[1, 2.5, -3]").unwrap();
        let s = parse_series(&bare, false).unwrap();
        assert_eq!(s.values(), &[1.0, 2.5, -3.0]);
        assert_eq!(s.label(), None);

        let labeled = Json::parse(r#"{"values": [1, 2], "label": 4}"#).unwrap();
        let s = parse_series(&labeled, true).unwrap();
        assert_eq!(s.label(), Some(4));
    }

    #[test]
    fn training_labels_must_be_dense() {
        let set = |labels: &str| {
            let series: Vec<String> = labels
                .split(',')
                .map(|l| format!(r#"{{"values": [1, 2, 3], "label": {l}}}"#))
                .collect();
            let train = format!(r#"{{"series": [{}]}}"#, series.join(", "));
            parse_training_set(&Json::parse(&train).unwrap(), "m")
        };
        assert_eq!(set("1,0,1,2").unwrap().len(), 4);
        let error = set("0,4000000000").unwrap_err();
        assert!(error.contains("label 4000000000"), "{error}");
        let error = set("1,2").unwrap_err();
        assert!(error.contains("label 2"), "{error}");
        let error =
            parse_training_set(&Json::parse(r#"{"series": []}"#).unwrap(), "m").unwrap_err();
        assert!(error.contains("train.series"), "{error}");
    }

    #[test]
    fn parse_series_rejects_bad_input() {
        for (text, require_label) in [
            ("[]", false),
            ("[1, \"x\"]", false),
            ("[1, null]", false),
            ("3", false),
            (r#"{"values": [1]}"#, true),
            (r#"{"label": 1}"#, false),
            (r#"{"values": [1], "label": -2}"#, true),
        ] {
            let value = Json::parse(text).unwrap();
            assert!(
                parse_series(&value, require_label).is_err(),
                "accepted {text}"
            );
        }
    }
}
