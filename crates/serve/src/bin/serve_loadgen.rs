//! `serve_loadgen` — load-generator harness for `tsg-serve`.
//!
//! Drives N concurrent keep-alive connections against a running server,
//! sending deterministic synthetic series to `POST /models/{name}/classify`,
//! and reports sustained throughput plus latency percentiles.
//!
//! ```sh
//! serve_loadgen --addr 127.0.0.1:7878 [--model default] [--connections 8]
//!               [--requests 400] [--series-per-request 1] [--series-len 128]
//!               [--fit DATASET] [--config uvg-fast] [--seed 7]
//!               [--retries 3] [--chaos]
//! ```
//!
//! With `--fit DATASET` the model is fitted (or refitted) through the wire
//! API before the measurement starts. 429 responses are counted separately:
//! they are the server's backpressure working as designed, not a failure.
//! After the run the tool scrapes `/metrics` and prints the server-side
//! realized batch-size distribution, which shows how well micro-batching
//! coalesced the concurrent stream.
//!
//! Requests that hit backpressure, a reset connection or a timeout are
//! retried with capped exponential backoff and seeded jitter (`--retries`,
//! default 3); retried requests and give-ups are reported separately from
//! first-try successes. `--chaos` additionally makes the client itself
//! hostile on a seeded schedule — aborting connections mid-request and
//! stalling mid-body — to exercise the server's torn-input handling while
//! still asserting every *completed* request got a correct response.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tsg_faults::splitmix64;
use tsg_serve::http;
use tsg_serve::json::Json;
use tsg_trace::Stage;

struct Args {
    addr: String,
    model: String,
    connections: usize,
    requests: usize,
    series_per_request: usize,
    series_len: usize,
    fit_dataset: Option<String>,
    config_name: String,
    seed: u64,
    max_instances: usize,
    max_length: usize,
    retries: usize,
    chaos: bool,
    json_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        model: "default".to_string(),
        connections: 8,
        requests: 400,
        series_per_request: 1,
        series_len: 128,
        fit_dataset: None,
        config_name: "uvg-fast".to_string(),
        seed: 7,
        max_instances: 24,
        max_length: 128,
        retries: 3,
        chaos: false,
        json_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("flag `{}` needs a value", argv[*i - 1]))
    };
    let positive = |text: String, flag: &str| -> Result<usize, String> {
        text.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{flag} expects a positive number"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i)?,
            "--model" => args.model = value(&mut i)?,
            "--connections" => args.connections = positive(value(&mut i)?, "--connections")?,
            "--requests" => args.requests = positive(value(&mut i)?, "--requests")?,
            "--series-per-request" => {
                args.series_per_request = positive(value(&mut i)?, "--series-per-request")?
            }
            "--series-len" => args.series_len = positive(value(&mut i)?, "--series-len")?,
            "--fit" => args.fit_dataset = Some(value(&mut i)?),
            "--config" => args.config_name = value(&mut i)?,
            "--max-instances" => args.max_instances = positive(value(&mut i)?, "--max-instances")?,
            "--max-length" => args.max_length = positive(value(&mut i)?, "--max-length")?,
            "--seed" => {
                args.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "--seed expects a number".to_string())?
            }
            "--retries" => {
                args.retries = value(&mut i)?
                    .parse::<usize>()
                    .map_err(|_| "--retries expects a number (0 disables)".to_string())?
            }
            "--chaos" => args.chaos = true,
            "--json-out" => args.json_out = Some(std::path::PathBuf::from(value(&mut i)?)),
            "--help" | "-h" => {
                println!(
                    "serve_loadgen: load generator for tsg-serve\n\n\
                     flags:\n  \
                     --addr HOST:PORT        server address (required)\n  \
                     --model NAME            model to classify against (default `default`)\n  \
                     --connections N         concurrent keep-alive connections (default 8)\n  \
                     --requests N            total requests across all connections (default 400)\n  \
                     --series-per-request N  series per classify request (default 1)\n  \
                     --series-len N          length of each synthetic series (default 128)\n  \
                     --fit DATASET           fit the model from this catalogue dataset first\n  \
                     --config NAME           preset for --fit (default uvg-fast)\n  \
                     --max-instances N       training budget for --fit (default 24)\n  \
                     --max-length N          training series length budget for --fit (default 128)\n  \
                     --seed N                series + fit seed (default 7)\n  \
                     --retries N             retries per request on 429/reset/timeout (default 3)\n  \
                     --chaos                 seeded client-side chaos: mid-request aborts + stalls\n  \
                     --json-out PATH         write a machine-readable benchmark artifact"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    Ok(args)
}

/// A plausible series: a sine of seeded frequency/phase plus seeded noise.
fn synthetic_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    let unit = |state: &mut u64| (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let frequency = 4.0 + 28.0 * unit(&mut state);
    let phase = std::f64::consts::TAU * unit(&mut state);
    let noise = 0.05 + 0.3 * unit(&mut state);
    (0..len)
        .map(|t| {
            let angle = std::f64::consts::TAU * frequency * t as f64 / len as f64 + phase;
            angle.sin() + noise * (2.0 * unit(&mut state) - 1.0)
        })
        .collect()
}

#[derive(Default)]
struct WorkerStats {
    latencies_micros: Vec<u64>,
    ok: usize,
    backpressure: usize,
    errors: usize,
    /// Requests that succeeded only after at least one retry.
    retried: usize,
    /// Individual retry attempts (backoff sleeps taken).
    retry_attempts: usize,
    /// Requests abandoned after exhausting the retry budget.
    gave_up: usize,
    /// Client-side chaos: connections deliberately aborted mid-request.
    chaos_aborts: usize,
    /// Client-side chaos: requests dribbled with a mid-body stall.
    chaos_stalls: usize,
}

/// Capped exponential backoff with seeded jitter: 10 ms doubling to a
/// 250 ms ceiling, each sleep jittered ±50% off the worker's own stream so
/// concurrent workers never retry in lockstep.
fn backoff_sleep(attempt: usize, rng: &mut u64) {
    let base = 10u64.saturating_mul(1u64 << attempt.min(5)).min(250);
    let jitter = splitmix64(rng) % (base + 1);
    std::thread::sleep(std::time::Duration::from_millis(base / 2 + jitter / 2));
}

/// The request `http::send_request` would produce, as raw bytes — so chaos
/// mode can cut or stall the write at an arbitrary byte boundary.
fn raw_request_bytes(method: &str, path: &str, body: &Json) -> Vec<u8> {
    let payload = body.write();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: tsg-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )
    .into_bytes()
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank] as f64 / 1000.0
}

/// The value of the first metrics line starting with `line_prefix` (use a
/// trailing space or `{…}` label block to make the prefix exact).
fn scraped_value(text: &str, line_prefix: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(line_prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// The per-stage latency breakdown from the server's
/// `tsg_serve_stage_seconds` histograms: `{stage: {count, total_seconds,
/// mean_ms}}` for every stage the server observed.
fn stage_breakdown_json(metrics: &str) -> Json {
    let mut stages = Vec::new();
    for stage in Stage::ALL {
        let label = format!("{{stage=\"{}\"}} ", stage.as_str());
        let count =
            scraped_value(metrics, &format!("tsg_serve_stage_seconds_count{label}")).unwrap_or(0.0);
        let total =
            scraped_value(metrics, &format!("tsg_serve_stage_seconds_sum{label}")).unwrap_or(0.0);
        if count > 0.0 {
            stages.push((
                stage.as_str(),
                Json::obj(vec![
                    ("count", Json::Num(count)),
                    ("total_seconds", Json::Num(total)),
                    ("mean_ms", Json::Num(1000.0 * total / count)),
                ]),
            ));
        }
    }
    Json::obj(stages)
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // a hung server must surface as a timeout error, never a stuck worker
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(dataset) = &args.fit_dataset {
        let (mut stream, mut reader) = match connect(&args.addr) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: cannot connect to {}: {e}", args.addr);
                std::process::exit(1);
            }
        };
        let body = Json::obj(vec![
            ("dataset", Json::Str(dataset.clone())),
            ("config", Json::Str(args.config_name.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("max_instances", Json::Num(args.max_instances as f64)),
            ("max_length", Json::Num(args.max_length as f64)),
        ]);
        let path = format!("/models/{}/fit", args.model);
        match http::roundtrip_json(&mut stream, &mut reader, "POST", &path, Some(&body)) {
            Ok((200, info)) => println!(
                "fitted `{}` from {dataset}: {} features, {:.2} s",
                args.model,
                info.get("n_features")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0),
                info.get("fit_seconds")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0),
            ),
            Ok((status, body)) => {
                eprintln!("error: fit returned {status}: {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: fit request failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let remaining = AtomicUsize::new(args.requests);
    let started = Instant::now();
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        (0..args.connections)
            .map(|worker| {
                let args = &args;
                let remaining = &remaining;
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    let Ok((mut stream, mut reader)) = connect(&args.addr) else {
                        stats.errors += 1;
                        return stats;
                    };
                    let path = format!("/models/{}/classify", args.model);
                    let mut request_index = 0u64;
                    // per-worker streams: one for backoff jitter, one for the
                    // chaos schedule — both seeded, so a run is reproducible
                    let mut jitter_rng = args.seed ^ ((worker as u64).wrapping_mul(0x9e37_79b9));
                    let mut chaos_rng = args
                        .seed
                        .wrapping_mul(0xa076_1d64_78bd_642f)
                        .wrapping_add(worker as u64);
                    while remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        request_index += 1;
                        let series: Vec<Json> = (0..args.series_per_request)
                            .map(|s| {
                                let seed = args
                                    .seed
                                    .wrapping_add((worker as u64) << 40)
                                    .wrapping_add(request_index << 8)
                                    .wrapping_add(s as u64);
                                Json::nums(synthetic_series(seed, args.series_len))
                            })
                            .collect();
                        let body = Json::obj(vec![("series", Json::Arr(series))]);

                        // chaos: before the real request, maybe abort a torn
                        // request mid-write or dribble one with a stall — the
                        // server must survive both and still answer the real
                        // request on the (re)used connection afterwards
                        if args.chaos && splitmix64(&mut chaos_rng).is_multiple_of(4) {
                            let raw = raw_request_bytes("POST", &path, &body);
                            let cut = 1 + (splitmix64(&mut chaos_rng) as usize) % (raw.len() - 1);
                            if splitmix64(&mut chaos_rng).is_multiple_of(2) {
                                // torn request: write a prefix, slam the door
                                let _ = stream.write_all(&raw[..cut]);
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                                stats.chaos_aborts += 1;
                                match connect(&args.addr) {
                                    Ok(pair) => (stream, reader) = pair,
                                    Err(_) => return stats,
                                }
                            } else {
                                // slow dribble: stall mid-body, then finish —
                                // this IS the real request, sent hostilely
                                stats.chaos_stalls += 1;
                                let sent = Instant::now();
                                let outcome = stream
                                    .write_all(&raw[..cut])
                                    .and_then(|()| {
                                        stream.flush()?;
                                        std::thread::sleep(std::time::Duration::from_millis(20));
                                        stream.write_all(&raw[cut..])?;
                                        stream.flush()
                                    })
                                    .and_then(|()| http::read_response(&mut reader));
                                match outcome {
                                    Ok((200, _)) => {
                                        stats
                                            .latencies_micros
                                            .push(sent.elapsed().as_micros() as u64);
                                        stats.ok += 1;
                                    }
                                    Ok((429, _)) => stats.backpressure += 1,
                                    Ok((status, _)) => {
                                        eprintln!("stalled request failed with {status}");
                                        stats.errors += 1;
                                    }
                                    Err(_) => {
                                        // the server may 408 + close a stall
                                        // that outlives its budget; reconnect
                                        match connect(&args.addr) {
                                            Ok(pair) => (stream, reader) = pair,
                                            Err(_) => return stats,
                                        }
                                    }
                                }
                                continue;
                            }
                        }

                        let mut attempt = 0usize;
                        loop {
                            let sent = Instant::now();
                            match http::roundtrip_json(
                                &mut stream,
                                &mut reader,
                                "POST",
                                &path,
                                Some(&body),
                            ) {
                                Ok((200, _)) => {
                                    stats
                                        .latencies_micros
                                        .push(sent.elapsed().as_micros() as u64);
                                    stats.ok += 1;
                                    if attempt > 0 {
                                        stats.retried += 1;
                                    }
                                    break;
                                }
                                Ok((429, _)) => {
                                    // backpressure: retry after a jittered
                                    // backoff, report a give-up when the
                                    // budget runs out
                                    if attempt < args.retries {
                                        attempt += 1;
                                        stats.retry_attempts += 1;
                                        backoff_sleep(attempt, &mut jitter_rng);
                                    } else {
                                        stats.backpressure += 1;
                                        if args.retries > 0 {
                                            stats.gave_up += 1;
                                        }
                                        break;
                                    }
                                }
                                Ok((status, body)) => {
                                    eprintln!("request failed with {status}: {body}");
                                    stats.errors += 1;
                                    break;
                                }
                                Err(e) => {
                                    // reset/timeout: reconnect, then retry
                                    // the same request on the fresh socket
                                    let reconnected = match connect(&args.addr) {
                                        Ok(pair) => {
                                            (stream, reader) = pair;
                                            true
                                        }
                                        Err(_) => false,
                                    };
                                    if reconnected && attempt < args.retries {
                                        attempt += 1;
                                        stats.retry_attempts += 1;
                                        backoff_sleep(attempt, &mut jitter_rng);
                                    } else {
                                        eprintln!("transport error: {e}");
                                        stats.errors += 1;
                                        stats.gave_up += 1;
                                        if !reconnected {
                                            return stats;
                                        }
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    stats
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = stats
        .iter()
        .flat_map(|s| s.latencies_micros.iter().copied())
        .collect();
    latencies.sort_unstable();
    let ok: usize = stats.iter().map(|s| s.ok).sum();
    let backpressure: usize = stats.iter().map(|s| s.backpressure).sum();
    let errors: usize = stats.iter().map(|s| s.errors).sum();
    let retried: usize = stats.iter().map(|s| s.retried).sum();
    let retry_attempts: usize = stats.iter().map(|s| s.retry_attempts).sum();
    let gave_up: usize = stats.iter().map(|s| s.gave_up).sum();
    let chaos_aborts: usize = stats.iter().map(|s| s.chaos_aborts).sum();
    let chaos_stalls: usize = stats.iter().map(|s| s.chaos_stalls).sum();
    let series_done = ok * args.series_per_request;

    println!(
        "serve_loadgen: {ok} ok / {backpressure} backpressure (429) / {errors} errors over {} connections in {elapsed:.2} s",
        args.connections
    );
    println!(
        "retries: {retried} requests recovered via {retry_attempts} attempt(s), {gave_up} gave up"
    );
    if args.chaos {
        println!("chaos: {chaos_aborts} torn requests (aborted mid-write), {chaos_stalls} stalled requests");
    }
    if ok > 0 {
        println!(
            "throughput: {:.1} req/s, {:.1} series/s",
            ok as f64 / elapsed,
            series_done as f64 / elapsed
        );
        println!(
            "latency: p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.90),
            percentile(&latencies, 0.99),
            percentile(&latencies, 1.0),
        );
    }

    // scrape the realized batch-size distribution (and, for the JSON
    // artifact, the per-stage latency histograms) from the server
    let metrics_text: Option<String> =
        connect(&args.addr)
            .ok()
            .and_then(|(mut stream, mut reader)| {
                http::send_request(&mut stream, "GET", "/metrics", None).ok()?;
                match http::read_response(&mut reader) {
                    Ok((200, body)) => Some(String::from_utf8_lossy(&body).into_owned()),
                    _ => None,
                }
            });
    if let Some(text) = &metrics_text {
        println!("server batch-size distribution (from /metrics):");
        for line in text
            .lines()
            .filter(|l| l.starts_with("tsg_serve_batch_size"))
        {
            println!("  {line}");
        }
        println!("server robustness counters (from /metrics):");
        for line in text.lines().filter(|l| {
            l.starts_with("tsg_serve_requests_shed_total")
                || l.starts_with("tsg_serve_connections_reset_total")
                || l.starts_with("tsg_serve_faults_injected_total")
                || l.starts_with("tsg_serve_snapshot_load_failures_total")
        }) {
            println!("  {line}");
        }
    }

    if let Some(path) = &args.json_out {
        let counter = |name: &str| {
            metrics_text
                .as_deref()
                .and_then(|t| scraped_value(t, &format!("{name} ")))
                .map(Json::Num)
                .unwrap_or(Json::Null)
        };
        let artifact = Json::obj(vec![
            ("ok", Json::Num(ok as f64)),
            ("backpressure", Json::Num(backpressure as f64)),
            ("errors", Json::Num(errors as f64)),
            ("retried", Json::Num(retried as f64)),
            ("retry_attempts", Json::Num(retry_attempts as f64)),
            ("gave_up", Json::Num(gave_up as f64)),
            ("chaos_aborts", Json::Num(chaos_aborts as f64)),
            ("chaos_stalls", Json::Num(chaos_stalls as f64)),
            ("connections", Json::Num(args.connections as f64)),
            (
                "series_per_request",
                Json::Num(args.series_per_request as f64),
            ),
            ("elapsed_seconds", Json::Num(elapsed)),
            ("throughput_rps", Json::Num(ok as f64 / elapsed.max(1e-9))),
            (
                "throughput_series_per_s",
                Json::Num(series_done as f64 / elapsed.max(1e-9)),
            ),
            (
                "latency_ms",
                Json::obj(vec![
                    ("p50", Json::Num(percentile(&latencies, 0.50))),
                    ("p90", Json::Num(percentile(&latencies, 0.90))),
                    ("p99", Json::Num(percentile(&latencies, 0.99))),
                    ("max", Json::Num(percentile(&latencies, 1.0))),
                ]),
            ),
            (
                "stages",
                metrics_text
                    .as_deref()
                    .map(stage_breakdown_json)
                    .unwrap_or(Json::Null),
            ),
            (
                "server_counters",
                Json::obj(vec![
                    (
                        "faults_injected",
                        counter("tsg_serve_faults_injected_total"),
                    ),
                    (
                        "connections_reset",
                        counter("tsg_serve_connections_reset_total"),
                    ),
                    ("requests_shed", counter("tsg_serve_requests_shed_total")),
                    (
                        "snapshot_load_failures",
                        counter("tsg_serve_snapshot_load_failures_total"),
                    ),
                ]),
            ),
        ]);
        let mut payload = artifact.write();
        payload.push('\n');
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote json artifact to {}", path.display());
    }

    if ok == 0 || errors > 0 {
        std::process::exit(1);
    }
}
