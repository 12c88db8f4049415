//! The traced run: per-layer metrics from the benchmark's own timers around
//! calls into each module's public functions. The program is driven, never
//! changed; extraction sub-stages arrive through a benchmark-owned
//! [`TraceSink`]. Spans are kept in memory and summarized when the run ends.
//!
//! A traced run first repeats a shorter untraced phase (the untraced
//! numbers the per-layer ones are set against), then replays the
//! workload's own request bytes and series through the layers in-process.

use crate::report::Report;
use crate::schedule::WallClock;
use crate::serving::{self, Inputs};
use crate::stats::{median, quantile};
use crate::workload::{Kind, Workload, MODEL, PRESET, THREADS};
use crate::{fitting, Args, Notes};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tsg_core::{
    extract_dataset_features, extract_series_features_traced, ClassifierChoice, ExtractStage,
    MvgClassifier, TraceSink,
};
use tsg_graph::{count_motifs_with, horizontal_visibility_graph, visibility_graph, MotifWorkspace};
use tsg_ml::data::random_oversample;
use tsg_ml::gbt::GradientBoosting;
use tsg_ml::scaling::MinMaxScaler;
use tsg_ml::traits::Classifier;
use tsg_parallel::ThreadPool;
use tsg_serve::http::RequestParser;
use tsg_serve::json::Json;
use tsg_serve::registry::{ModelRegistry, TrainingSource};
use tsg_serve::{BatchConfig, ClassifyError, ClassifyOutput, ServerMetrics, SharedBatcher};
use tsg_ts::{Dataset, TimeSeries};

/// Repetitions of the once-per-run layer timings (fit layers, pool spawn).
const LAYER_REPEATS: usize = 3;
/// The serving replay alternates untimed and timed chunks, so a slow
/// stretch of the machine lands on both sides of `trace.overhead_frac`.
const REPLAY_CHUNKS: u32 = 5;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

/// Samples per metric name, summarized by median when the run ends.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn p50(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn into_report(self, report: &mut Report) {
        for (name, values) in &self.0 {
            report.set(name, median(values));
        }
    }
}

/// The benchmark's [`TraceSink`]: the self time of each extraction stage
/// (stages never nest, so a stage's span is its self time).
#[derive(Default)]
struct StageSink {
    open: Option<(ExtractStage, Instant)>,
    totals: [Duration; 4],
}

impl StageSink {
    fn slot(stage: ExtractStage) -> usize {
        match stage {
            ExtractStage::Scale => 0,
            ExtractStage::GraphBuild => 1,
            ExtractStage::MotifCount => 2,
            ExtractStage::Statistical => 3,
        }
    }
}

impl TraceSink for StageSink {
    fn enter(&mut self, stage: ExtractStage) {
        self.open = Some((stage, Instant::now()));
    }

    fn exit(&mut self, stage: ExtractStage) {
        if let Some((entered, started)) = self.open.take() {
            if entered == stage {
                self.totals[Self::slot(stage)] += started.elapsed();
            }
        }
    }
}

const STAGE_METRICS: [&str; 4] = [
    "extract.scale_us",
    "extract.graph_build_us",
    "extract.motif_count_us",
    "extract.statistical_us",
];

/// Extracts `series` under the model's configuration with the stage sink,
/// recording `extract.*`. Returns the raw row and its total time.
fn extract_traced(
    model: &MvgClassifier,
    series: &TimeSeries,
    workspace: &mut MotifWorkspace,
    spans: &mut Spans,
) -> (Vec<f64>, Duration) {
    let mut sink = StageSink::default();
    let (row, took) = timed(|| {
        extract_series_features_traced(series, &model.config().features, workspace, &mut sink)
    });
    spans.push("extract.series_us", us(took));
    for (name, total) in STAGE_METRICS.iter().zip(sink.totals) {
        spans.push(name, us(total));
    }
    let staged: Duration = sink.totals.iter().sum();
    spans.push("extract.unstaged_us", us(took.saturating_sub(staged)));
    (row, took)
}

/// VG, HVG and their motif census on a series' raw (scale-0) values.
fn graph_kernels(series: &TimeSeries, workspace: &mut MotifWorkspace, spans: &mut Spans) {
    let values = series.values();
    let (vg, vg_took) = timed(|| visibility_graph(values));
    let (hvg, hvg_took) = timed(|| horizontal_visibility_graph(values));
    let (counts, motif_took) = timed(|| {
        (
            count_motifs_with(&vg, workspace),
            count_motifs_with(&hvg, workspace),
        )
    });
    black_box(counts);
    spans.push("graph.vg_us", us(vg_took));
    spans.push("graph.hvg_us", us(hvg_took));
    spans.push("graph.motifs_us", us(motif_took));
    spans.push(
        "graph.edges_per_series",
        (vg.n_edges() + hvg.n_edges()) as f64,
    );
}

/// The training layers, called one by one the way `MvgClassifier::fit`
/// composes them, then the real fit, prune and refit. Returns the pruned
/// model and the time of the real fit, prune and refit.
fn fit_layers(
    train: &Dataset,
    seed: u64,
    prune: usize,
    spans: &mut Spans,
) -> Result<(MvgClassifier, Duration), String> {
    let config = tsg_serve::config_named(PRESET, seed, THREADS).ok_or("unknown preset")?;
    let ((x, _names), took) =
        timed(|| extract_dataset_features(train, &config.features, config.n_threads));
    spans.push("core.extract_dataset_ms", ms(took));
    let (scaled, took) = timed(|| MinMaxScaler::fit_transform(&x));
    let (_, x) = scaled.map_err(|e| format!("scaler: {e}"))?;
    spans.push("ml.scaler_fit_ms", ms(took));
    let labels = train.labels_required().map_err(|e| e.to_string())?;
    let ((x_over, y_over), took) = timed(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let rows = random_oversample(&labels, &mut rng);
        let y: Vec<usize> = rows.iter().map(|&i| labels[i]).collect();
        (x.select_rows(&rows), y)
    });
    spans.push("ml.oversample_ms", ms(took));
    let ClassifierChoice::GradientBoosting(params) = config.classifier else {
        return Err("the preset is not a fixed booster".into());
    };
    let mut gbt = GradientBoosting::new(params);
    let (fitted, took) = timed(|| gbt.fit(&x_over, &y_over));
    fitted.map_err(|e| format!("booster: {e}"))?;
    spans.push("ml.gbt_fit_ms", ms(took));
    let (predicted, took) = timed(|| gbt.predict(&x));
    black_box(predicted.map_err(|e| format!("booster predict: {e}"))?);
    spans.push("ml.gbt_predict_us", us(took) / x.n_rows().max(1) as f64);

    let mut wide = MvgClassifier::new(config);
    let (fitted, fit_took) = timed(|| wide.fit(train));
    fitted.map_err(|e| format!("fit: {e}"))?;
    spans.push("core.fit_ms", ms(fit_took));
    let (pruned, prune_took) = timed(|| wide.pruned_config(prune));
    let pruned = pruned.map_err(|e| format!("prune: {e}"))?;
    spans.push("core.prune_ms", ms(prune_took));
    let mut model = MvgClassifier::new(pruned);
    let (fitted, refit_took) = timed(|| model.fit(train));
    fitted.map_err(|e| format!("refit: {e}"))?;
    spans.push("core.refit_ms", ms(refit_took));
    Ok((model, fit_took + prune_took + refit_took))
}

/// Cost of fanning two trivial items out over a 2-worker pool, beyond
/// mapping them inline. The benchmark itself pins the pool to 1 worker, so
/// this only records what a spawn costs on the machine.
fn map_spawn(spans: &mut Spans) {
    let pool = ThreadPool::new(2);
    let items = [1u64, 2];
    let mut spawned = Vec::new();
    let mut inline = Vec::new();
    for _ in 0..200 {
        let (out, took) = timed(|| pool.map(&items, |&x| x + 1));
        black_box(out);
        spawned.push(us(took));
        let (out, took) = timed(|| items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        black_box(out);
        inline.push(us(took));
    }
    spans.push("parallel.map_spawn_us", median(&spawned) - median(&inline));
}

/// The classify reply the server writes (a fresh registry's first model is
/// version 1).
fn response_json(output: &ClassifyOutput) -> Json {
    Json::obj(vec![
        ("model", Json::Str(MODEL.into())),
        ("version", Json::Num(1.0)),
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
    ])
}

/// Parses request bytes the way the server's event loop does: HTTP framing,
/// then the JSON body, then the series values.
fn parse_request(
    parser: &mut RequestParser,
    bytes: &[u8],
    spans: Option<&mut Spans>,
) -> Result<Json, String> {
    let (request, http_took) = timed(|| {
        parser.push(bytes);
        parser.next_request()
    });
    let request = request
        .map_err(|e| format!("request bytes do not parse: {e}"))?
        .ok_or("request bytes are incomplete")?;
    let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8")?;
    let (body, json_took) = timed(|| Json::parse(text));
    if let Some(spans) = spans {
        spans.push("http.parse_us", us(http_took));
        spans.push("json.parse_us", us(json_took));
    }
    body.map_err(|e| format!("body does not parse: {e}"))
}

fn series_of_body(body: &Json) -> Result<Vec<TimeSeries>, String> {
    let items = body
        .get("series")
        .and_then(|s| s.as_array())
        .ok_or("no `series` array")?;
    items
        .iter()
        .map(|item| {
            let values = item.get("values").unwrap_or(item);
            values
                .as_array()
                .ok_or("series is not an array")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric value"))
                .collect::<Result<Vec<f64>, _>>()
                .map(TimeSeries::new)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One job's trip through the in-process batcher.
struct Done {
    series: usize,
    submitted: Instant,
    finished: Instant,
    output: ClassifyOutput,
}

/// Outcome of replaying the workload's requests through the layers.
#[derive(Default)]
struct Replay {
    latencies_ms: Vec<f64>,
    done: Vec<Done>,
    failed: usize,
}

impl Replay {
    fn absorb(&mut self, chunk: Replay) {
        self.latencies_ms.extend(chunk.latencies_ms);
        // every chunk drains before the next starts, so batches never
        // straddle two chunks
        self.done.extend(chunk.done);
        self.failed += chunk.failed;
    }
}

/// Replays the workload's request bytes through request parsing, JSON, the
/// shared batcher (at the workload's own arrival pattern) and response
/// writing — the serving path without sockets and the event loop. With
/// `spans`, each layer is timed; without, only whole requests are. Chunk
/// `chunk` always replays the same requests.
fn replay(
    w: &Workload,
    inputs: &Inputs,
    model: &Arc<MvgClassifier>,
    seed: u64,
    span: Duration,
    chunk: u32,
    mut spans: Option<&mut Spans>,
) -> Result<Replay, String> {
    let batcher = SharedBatcher::new(
        BatchConfig::default(),
        ThreadPool::new(THREADS),
        Arc::new(ServerMetrics::default()),
    )
    .map_err(|e| format!("batcher: {e}"))?;
    type Completion = (usize, Instant, Result<ClassifyOutput, ClassifyError>);
    let (tx, rx) = mpsc::channel::<Completion>();
    let mut parser = RequestParser::new();
    let mut out = Replay::default();
    // chunks start at evenly spaced points of the request order
    let first_request = chunk as usize * inputs.order.len() / REPLAY_CHUNKS as usize;
    // per request: (series, due, submitted)
    let mut pending: BTreeMap<usize, (usize, Instant, Instant)> = BTreeMap::new();
    let start = Instant::now();
    let submit = |i: usize,
                  due: Instant,
                  parser: &mut RequestParser,
                  spans: Option<&mut Spans>,
                  pending: &mut BTreeMap<usize, (usize, Instant, Instant)>|
     -> Result<(), String> {
        let series_index = inputs.series_of(first_request + i);
        let body = parse_request(parser, &inputs.requests[series_index], spans)?;
        let series = series_of_body(&body)?;
        let tx = tx.clone();
        let submitted = Instant::now();
        batcher
            .submit(
                Arc::clone(model),
                series,
                false,
                Box::new(move |outcome| {
                    let _ = tx.send((i, Instant::now(), outcome));
                }),
            )
            .map_err(|e| format!("submit: {e}"))?;
        pending.insert(i, (series_index, due, submitted));
        Ok(())
    };
    fn complete(
        (i, finished, outcome): Completion,
        spans: Option<&mut Spans>,
        pending: &mut BTreeMap<usize, (usize, Instant, Instant)>,
        out: &mut Replay,
    ) {
        let Some((series, due, submitted)) = pending.remove(&i) else {
            return;
        };
        match outcome {
            Ok(output) => {
                let json = response_json(&output);
                let (text, took) = timed(|| json.write());
                black_box(text);
                out.latencies_ms.push(ms(due.elapsed()));
                if let Some(spans) = spans {
                    spans.push("json.write_us", us(took));
                }
                out.done.push(Done {
                    series,
                    submitted,
                    finished,
                    output,
                });
            }
            Err(_) => out.failed += 1,
        }
    }
    let recv_until =
        |deadline: Instant| rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
    match w.kind {
        Kind::Online => {
            let schedule = w.schedule(seed.wrapping_add(u64::from(chunk)), span);
            let mut clock = WallClock::starting_at(start);
            for (i, &at) in schedule.iter().enumerate() {
                let due = start + at;
                // complete whatever finishes before this request is due
                while let Ok(done) = recv_until(due) {
                    complete(done, spans.as_deref_mut(), &mut pending, &mut out);
                }
                crate::schedule::Clock::sleep_until(&mut clock, at);
                submit(i, due, &mut parser, spans.as_deref_mut(), &mut pending)?;
            }
        }
        _ => {
            let callers = w.connections * w.depth;
            let mut next = 0;
            while next < callers {
                submit(
                    next,
                    Instant::now(),
                    &mut parser,
                    spans.as_deref_mut(),
                    &mut pending,
                )?;
                next += 1;
            }
            while start.elapsed() < span {
                let done = rx.recv().map_err(|_| "batcher hung up")?;
                complete(done, spans.as_deref_mut(), &mut pending, &mut out);
                submit(
                    next,
                    Instant::now(),
                    &mut parser,
                    spans.as_deref_mut(),
                    &mut pending,
                )?;
                next += 1;
            }
        }
    }
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while !pending.is_empty() {
        let done = recv_until(drain_deadline).map_err(|_| "replay did not drain")?;
        complete(done, spans.as_deref_mut(), &mut pending, &mut out);
    }
    batcher.shutdown();
    Ok(out)
}

/// Splits completions (in dispatch order) into the batches they ran in.
fn batches(done: &[Done]) -> Vec<&[Done]> {
    let mut out = Vec::new();
    let mut rest = done;
    while let Some(first) = rest.first() {
        let take = first.output.batch_size.clamp(1, rest.len());
        let (batch, tail) = rest.split_at(take);
        out.push(batch);
        rest = tail;
    }
    out
}

/// The serving workloads' traced run.
pub fn serving(args: &Args) -> Result<(Report, Notes), String> {
    let w = &args.workload;
    let third = args.span / 3;
    let mut spans = Spans::default();

    // the untraced reference phase against the real server
    let ready = serving::set_up(w, args.seed, &args.server_bin, 1)?;
    spans.push("registry.fit_s", median(&ready.fit_s));
    let mut model = None;
    for _ in 0..LAYER_REPEATS {
        let prune = w.prune.unwrap_or(24);
        model = Some(fit_layers(&ready.inputs.train, args.seed, prune, &mut spans)?.0);
    }
    let model = model.ok_or("no fit ran")?;
    // `saturated` serves the unpruned model; its prune above only times
    // the layer
    let model = match w.kind {
        Kind::Saturated => w.fit_model(&ready.inputs.train, args.seed)?,
        _ => model,
    };
    let reference = model
        .predict(&ready.inputs.test)
        .map_err(|e| format!("reference predict: {e}"))?;
    let phase = serving::load_phase(w, &ready, &reference, args.seed, third)?;
    ready
        .server
        .shutdown()
        .map_err(|e| format!("stopping the server: {e}"))?;
    let inputs = ready.inputs;
    spans.push("loadgen.late_p90_ms", quantile(&phase.late_ms, 0.9));
    spans.push("test_error", phase.test_error());
    for _ in 0..LAYER_REPEATS {
        map_spawn(&mut spans);
    }

    // the in-process replay, untimed and timed in turn
    let model = Arc::new(model);
    let mut plain = Replay::default();
    let mut traced = Replay::default();
    for chunk in 0..REPLAY_CHUNKS {
        let span = third / REPLAY_CHUNKS;
        plain.absorb(replay(w, &inputs, &model, args.seed, span, chunk, None)?);
        let timed_chunk = replay(w, &inputs, &model, args.seed, span, chunk, Some(&mut spans))?;
        traced.absorb(timed_chunk);
    }
    spans.push(
        "trace.overhead_frac",
        median(&traced.latencies_ms) / median(&plain.latencies_ms) - 1.0,
    );

    // extraction and graph kernels of every distinct replayed series
    let mut distinct: Vec<usize> = traced.done.iter().map(|d| d.series).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut workspace = MotifWorkspace::default();
    let mut rows = BTreeMap::new();
    for &s in &distinct {
        let series = &inputs.test.series()[s];
        let (row, took) = extract_traced(&model, series, &mut workspace, &mut spans);
        graph_kernels(series, &mut workspace, &mut spans);
        rows.insert(s, (row, took));
    }

    // each replayed batch: its model pass, its compute, its wait
    let mut failed = plain.failed + traced.failed;
    let mut first_failure = None;
    let mut waits = Vec::new();
    let mut computes = Vec::new();
    let all_batches = batches(&traced.done);
    for batch in &all_batches {
        let batch_rows: Vec<&(Vec<f64>, Duration)> =
            batch.iter().map(|d| &rows[&d.series]).collect();
        let extract: Duration = batch_rows.iter().map(|(_, took)| *took).sum();
        let feature_rows = batch_rows.iter().map(|(row, _)| row.clone()).collect();
        let (labels, took) = timed(|| model.predict_from_feature_rows(feature_rows));
        let labels = labels.map_err(|e| format!("predict rows: {e}"))?;
        spans.push("predict.rows_us", us(took));
        let compute = extract + took;
        computes.push(ms(compute));
        for (d, &label) in batch.iter().zip(&labels) {
            let waited = d
                .finished
                .duration_since(d.submitted)
                .saturating_sub(compute);
            waits.push(ms(waited));
            if d.output.predictions != [label] || label != reference[d.series] {
                failed += 1;
                first_failure.get_or_insert(format!("replayed series {} disagrees", d.series));
            }
        }
    }
    spans.push("batcher.wait_ms", median(&waits));
    spans.push("batcher.batches", all_batches.len() as f64);
    spans.push(
        "batcher.batch_size_mean",
        traced.done.len() as f64 / all_batches.len().max(1) as f64,
    );
    let layers_ms = spans.p50("http.parse_us") / 1e3
        + spans.p50("json.parse_us") / 1e3
        + median(&waits)
        + median(&computes)
        + spans.p50("json.write_us") / 1e3;
    spans.push(
        "serve.unattributed_ms",
        median(&phase.latencies_ms) - layers_ms,
    );

    let mut report = Report {
        correct: phase.failed == 0 && failed == 0 && !phase.generator_late,
        attempted: phase.attempted
            + plain.done.len()
            + plain.failed
            + traced.done.len()
            + traced.failed,
        failed: phase.failed + failed,
        ..Report::default()
    };
    spans.into_report(&mut report);
    let notes = vec![
        (
            "server_latency_p50_ms",
            Json::Num(median(&phase.latencies_ms)),
        ),
        ("replay_requests", Json::Num(traced.done.len() as f64)),
        ("timed_series", Json::Num(rows.len() as f64)),
        (
            "first_failure",
            first_failure
                .or(phase.first_failure)
                .map(Json::Str)
                .unwrap_or(Json::Null),
        ),
    ];
    Ok((report, notes))
}

/// The `fit` workload's traced run: untraced and traced ops alternate, so
/// a slow stretch of the machine lands on both.
pub fn fit(args: &Args) -> Result<(Report, Notes), String> {
    let w = &args.workload;
    let k = w.prune.ok_or("the fit workload prunes")?;
    let mut spans = Spans::default();
    let (train, test, reference, _) = fitting::set_up(w, args.seed, 1)?;
    spans.push(
        "test_error",
        fitting::test_error(&test, &reference.predictions),
    );
    map_spawn(&mut spans);

    // the registry layer: the same fit through ModelRegistry::fit_pruned
    let registry = ModelRegistry::new(
        THREADS,
        BatchConfig::default(),
        Arc::new(ServerMetrics::default()),
    )
    .map_err(|e| format!("registry: {e}"))?;
    let (info, took) = timed(|| {
        registry.fit_pruned(
            MODEL,
            TrainingSource::Inline(train.clone()),
            PRESET,
            args.seed,
            k,
        )
    });
    let info = info.map_err(|e| format!("registry fit: {e}"))?;
    if info.features.as_deref() != Some(&reference.feature_names[..]) {
        return Err("the registry's pruned fit selected other features".into());
    }
    spans.push("registry.fit_s", took.as_secs_f64());
    registry.shutdown();

    // the fit request as it would arrive over the wire
    let fit_request = crate::workload::post_bytes(
        &format!("/models/{MODEL}/fit"),
        &crate::workload::fit_body(&train, args.seed, w.prune),
    );
    let batcher = SharedBatcher::new(
        BatchConfig::default(),
        ThreadPool::new(THREADS),
        Arc::new(ServerMetrics::default()),
    )
    .map_err(|e| format!("batcher: {e}"))?;

    let mut workspace = MotifWorkspace::default();
    let mut untraced_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut failed = 0;
    let mut first_failure = None;
    let mut batches = 0usize;
    let mut batch_series = 0usize;
    let started = Instant::now();
    let mut previous_end = started;
    while started.elapsed() < args.span || traced_ms.len() < 5 {
        // an untraced op, exactly as the untraced run times it
        let op_started = Instant::now();
        late_ms.push(ms(op_started.duration_since(previous_end)));
        match fitting::op(w, &train, &test, args.seed) {
            Ok(output) if output == reference => untraced_ms.push(ms(op_started.elapsed())),
            _ => {
                failed += 1;
                first_failure.get_or_insert("an untraced op disagrees with the reference".into());
            }
        }

        let mut parser = RequestParser::new();
        parse_request(&mut parser, &fit_request, Some(&mut spans))?;

        // the op itself, step by step: fit, prune, refit, predict (the
        // decomposed training layers run on top and are not counted)
        let (model, fits) = fit_layers(&train, args.seed, k, &mut spans)?;
        let mut test_rows = Vec::with_capacity(test.len());
        let mut extract = Duration::ZERO;
        for series in test.series() {
            let (row, took) = extract_traced(&model, series, &mut workspace, &mut spans);
            extract += took;
            test_rows.push(row);
        }
        let (labels, predict_took) = timed(|| model.predict_from_feature_rows(test_rows));
        let labels = labels.map_err(|e| format!("predict rows: {e}"))?;
        spans.push("predict.rows_us", us(predict_took));
        if labels != reference.predictions || model.feature_names() != reference.feature_names {
            failed += 1;
            first_failure.get_or_insert("a traced op disagrees with the reference".into());
        }
        traced_ms.push(ms(fits + extract + predict_took));

        // the test split through the shared batcher as one request
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        batcher
            .submit(
                Arc::new(model),
                test.series().to_vec(),
                false,
                Box::new(move |outcome| {
                    let _ = tx.send((Instant::now(), outcome));
                }),
            )
            .map_err(|e| format!("submit: {e}"))?;
        let (finished, outcome) = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "the batcher never answered")?;
        let output = outcome.map_err(|e| format!("batched predict: {e}"))?;
        let compute = extract + predict_took;
        spans.push(
            "batcher.wait_ms",
            ms(finished.duration_since(submitted).saturating_sub(compute)),
        );
        batches += 1;
        batch_series += output.batch_size;
        if output.predictions != reference.predictions {
            failed += 1;
            first_failure.get_or_insert("the batched test split disagrees".into());
        }
        let info_json = Json::obj(vec![
            ("name", Json::Str(MODEL.into())),
            ("config", Json::Str(PRESET.into())),
            ("n_train", Json::Num(train.len() as f64)),
            (
                "features",
                Json::strs(reference.feature_names.iter().map(String::as_str)),
            ),
        ]);
        let (text, took) = timed(|| info_json.write());
        black_box(text);
        spans.push("json.write_us", us(took));
        for series in test.series().iter().take(20) {
            graph_kernels(series, &mut workspace, &mut spans);
        }
        previous_end = Instant::now();
    }
    batcher.shutdown();
    spans.push("loadgen.late_p90_ms", quantile(&late_ms, 0.9));
    spans.push("batcher.batches", batches as f64);
    spans.push(
        "batcher.batch_size_mean",
        batch_series as f64 / batches.max(1) as f64,
    );
    let untraced_p50 = median(&untraced_ms);
    spans.push(
        "trace.overhead_frac",
        median(&traced_ms) / untraced_p50 - 1.0,
    );
    // what the untraced op spends outside the layers the trace names
    let layer_sum = spans.p50("core.fit_ms")
        + spans.p50("core.prune_ms")
        + spans.p50("core.refit_ms")
        + spans.p50("extract.series_us") * test.len() as f64 / 1e3
        + spans.p50("predict.rows_us") / 1e3;
    spans.push("serve.unattributed_ms", untraced_p50 - layer_sum);

    let mut report = Report {
        correct: failed == 0,
        attempted: 2 * traced_ms.len(),
        failed,
        ..Report::default()
    };
    let traced_ops = traced_ms.len();
    spans.into_report(&mut report);
    let notes = vec![
        ("untraced_op_p50_ms", Json::Num(untraced_p50)),
        ("traced_ops", Json::Num(traced_ops as f64)),
        (
            "first_failure",
            first_failure.map(Json::Str).unwrap_or(Json::Null),
        ),
    ];
    Ok((report, notes))
}
