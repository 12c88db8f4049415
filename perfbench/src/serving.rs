//! The serving workloads (`online`, `saturated`) against a `tsg-serve`
//! process: set-up over the wire, the measured load phase, and the checks
//! of every reply against an in-process reference model.

use crate::probe::{self, Cores, Load, Measured, WINDOW};
use crate::schedule::{drive_open_loop, generator_kept_up, lateness, WallClock};
use crate::server::{read_response, Connection, ServerProcess};
use crate::stats::{median, quantile};
use crate::workload::{self, Kind, Workload, MODEL};
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};
use tsg_ts::Dataset;

/// Sequential requests that warm the server up before timing starts.
const WARMUP_REQUESTS: usize = 16;

/// What one set-up synthesized.
pub struct Inputs {
    pub train: Dataset,
    pub test: Dataset,
    /// Request bytes of each test series, by test index.
    pub requests: Vec<Vec<u8>>,
    /// The order in which requests draw test series.
    pub order: Vec<usize>,
    pub fit_request: Vec<u8>,
}

impl Inputs {
    pub fn synthesize(w: &Workload, seed: u64) -> Inputs {
        let (train, test) = w.datasets(seed);
        let classify_path = format!("/models/{MODEL}/classify");
        let requests = test
            .series()
            .iter()
            .map(|s| workload::post_bytes(&classify_path, &workload::classify_body(s.values())))
            .collect();
        let fit_request = workload::post_bytes(
            &format!("/models/{MODEL}/fit"),
            &workload::fit_body(&train, seed, w.prune),
        );
        Inputs {
            order: w.order(seed),
            train,
            test,
            requests,
            fit_request,
        }
    }

    /// Test index of the `i`-th request.
    pub fn series_of(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }
}

/// A server that is ready for load.
pub struct Ready {
    pub server: ServerProcess,
    pub inputs: Inputs,
    /// Each set-up's start-to-ready time.
    pub setup_s: Vec<f64>,
    /// Each set-up's `POST /models/{name}/fit` round trip.
    pub fit_s: Vec<f64>,
}

fn set_up_once(
    w: &Workload,
    seed: u64,
    bin: &Path,
) -> Result<(ServerProcess, Inputs, f64, f64), String> {
    let started = Instant::now();
    let inputs = Inputs::synthesize(w, seed);
    let server = ServerProcess::start(bin).map_err(|e| format!("starting tsg-serve: {e}"))?;
    let mut conn = Connection::open(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let fit_started = Instant::now();
    let (status, body) = conn
        .roundtrip(&inputs.fit_request)
        .map_err(|e| format!("fit request: {e}"))?;
    let fit_s = fit_started.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("fit answered {status}: {body}"));
    }
    if let Some(k) = w.prune {
        if workload::json_number(&body, "n_features") != Some(k as f64) {
            return Err(format!("pruned fit does not carry {k} features: {body}"));
        }
    }
    for i in 0..WARMUP_REQUESTS {
        let (status, body) = conn
            .roundtrip(&inputs.requests[inputs.series_of(i)])
            .map_err(|e| format!("warm-up request: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up request answered {status}: {body}"));
        }
    }
    Ok((server, inputs, started.elapsed().as_secs_f64(), fit_s))
}

/// Sets up `repeats` times (keeping the last server) so the set-up time is
/// a median, not one sample.
pub fn set_up(w: &Workload, seed: u64, bin: &Path, repeats: usize) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    let mut fit_s = Vec::new();
    for k in 0..repeats {
        let (server, inputs, setup, fit) = set_up_once(w, seed, bin)?;
        setup_s.push(setup);
        fit_s.push(fit);
        if k + 1 == repeats {
            return Ok(Ready {
                server,
                inputs,
                setup_s,
                fit_s,
            });
        }
        server
            .shutdown()
            .map_err(|e| format!("stopping a set-up server: {e}"))?;
    }
    Err("no set-up ran".into())
}

/// One reply as the load generator saw it.
struct Reply {
    series: usize,
    /// When the request was due (scheduled, or when its slot freed up).
    due: Duration,
    sent: Duration,
    received: Duration,
    outcome: std::io::Result<(u16, String)>,
}

/// The checked outcome of a measured load phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: usize,
    pub failed: usize,
    /// Latency of each successful request, from when it was due.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests completed, in seconds into the phase.
    pub done_s: Vec<f64>,
    /// How late each request was sent.
    pub late_ms: Vec<f64>,
    pub batch_sizes: Vec<f64>,
    pub series_ok: usize,
    pub wrong_labels: usize,
    /// The windows (series done: replies received) and the probe blocks
    /// between them.
    pub measured: Measured,
    pub first_failure: Option<String>,
    /// `online` only: the generator fell behind its schedule, which makes
    /// the run invalid.
    pub generator_late: bool,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Share of served labels that differ from the ground truth.
    pub fn test_error(&self) -> f64 {
        self.wrong_labels as f64 / self.series_ok.max(1) as f64
    }
}

/// Runs the workload's load in windows of [`WINDOW`] for `span` and checks
/// every reply: a non-200 (429 included), a transport error, or a label
/// that differs from the reference is a failure.
pub fn load_phase(
    w: &Workload,
    ready: &Ready,
    reference: &[usize],
    seed: u64,
    span: Duration,
) -> Result<Phase, String> {
    let windows = span.as_secs_f64() / WINDOW.as_secs_f64();
    let windows = (windows.ceil() as usize).max(1);
    let start = Instant::now();
    let cpu_s = || ready.server.cpu_seconds().map_err(|e| e.to_string());
    let (replies, measured) = match w.kind {
        Kind::Online => open_loop(w, ready, seed, windows, start, cpu_s)?,
        _ => closed_loop(w, ready, windows, start, cpu_s)?,
    };
    let mut phase = Phase {
        attempted: replies.len(),
        measured,
        ..Phase::default()
    };
    let truth = ready.inputs.test.labels();
    for reply in replies {
        phase
            .late_ms
            .push(reply.sent.saturating_sub(reply.due).as_secs_f64() * 1e3);
        let (status, body) = match reply.outcome {
            Ok(ok) => ok,
            Err(e) => {
                phase.fail(format!("transport error: {e}"));
                continue;
            }
        };
        if status != 200 {
            phase.fail(format!("status {status}: {body}"));
            continue;
        }
        let predicted = workload::json_numbers(&body, "predictions");
        let expected = reference[reply.series] as f64;
        if predicted.as_deref() != Some(&[expected][..]) {
            phase.fail(format!(
                "series {} got {predicted:?}, reference label {expected}",
                reply.series
            ));
            continue;
        }
        let Some(batch_size) = workload::json_number(&body, "batch_size") else {
            phase.fail(format!("no batch_size in {body}"));
            continue;
        };
        phase.batch_sizes.push(batch_size);
        phase.series_ok += 1;
        if truth[reply.series] != Some(reference[reply.series]) {
            phase.wrong_labels += 1;
        }
        phase
            .latencies_ms
            .push(reply.received.saturating_sub(reply.due).as_secs_f64() * 1e3);
        phase.done_s.push(reply.received.as_secs_f64());
    }
    if w.kind == Kind::Online && !generator_kept_up(&phase.late_ms, &phase.latencies_ms) {
        phase.generator_late = true;
        phase.first_failure.get_or_insert(format!(
            "the load generator ran late: p90 {:.3} ms against a p50 latency of {:.3} ms",
            quantile(&phase.late_ms, 0.9),
            median(&phase.latencies_ms)
        ));
    }
    Ok(phase)
}

/// `online`: seeded Poisson arrivals on one keep-alive connection; a late
/// reply never holds back the next send, so requests pipeline behind it.
/// The schedule is cut into windows of [`WINDOW`]; each window's arrivals
/// are timed from when the window starts, and it ends when their last
/// reply is in.
fn open_loop(
    w: &Workload,
    ready: &Ready,
    seed: u64,
    windows: usize,
    start: Instant,
    cpu_s: impl FnMut() -> Result<f64, String>,
) -> Result<(Vec<Reply>, Measured), String> {
    let schedule = w.schedule(seed, WINDOW * windows as u32);
    let Connection {
        mut writer,
        mut reader,
    } = Connection::open(ready.server.addr).map_err(|e| e.to_string())?;
    let inputs = &ready.inputs;
    let mut replies = Vec::with_capacity(schedule.len());
    let mut first = 0;
    let measured = probe::run_windows(start, Cores::All, cpu_s, |k| {
        let until = WINDOW * (k as u32 + 1);
        let n = schedule[first..].iter().take_while(|&&t| t < until).count();
        let offset = WINDOW * k as u32;
        let due: Vec<Duration> = schedule[first..first + n]
            .iter()
            .map(|&t| t - offset)
            .collect();
        let window_start = Instant::now();
        let base = window_start.duration_since(start);
        let (sent, received) = std::thread::scope(|scope| {
            let reader = &mut reader;
            let receiver = scope.spawn(move || {
                let mut received = Vec::with_capacity(n);
                for _ in 0..n {
                    let outcome = read_response(reader);
                    let failed = outcome.is_err();
                    received.push((start.elapsed(), outcome));
                    if failed {
                        break;
                    }
                }
                received
            });
            let mut clock = WallClock::starting_at(window_start);
            let mut write_error = false;
            let sent = drive_open_loop(&mut clock, &due, |i| {
                if !write_error {
                    write_error = writer
                        .write_all(&inputs.requests[inputs.series_of(first + i)])
                        .is_err();
                }
            });
            if write_error {
                // unblock the reader: nothing more is coming
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
            (sent, receiver.join())
        });
        let mut received = received.map_err(|_| "reply reader panicked".to_string())?;
        let lost = received.len() < n || received.iter().any(|(_, r)| r.is_err());
        received.resize_with(n, || {
            (
                start.elapsed(),
                Err(std::io::Error::other("no reply (connection lost)")),
            )
        });
        let late = lateness(&due, &sent);
        let mut ok = 0;
        for (i, (at, outcome)) in received.into_iter().enumerate() {
            ok += usize::from(outcome.is_ok());
            replies.push(Reply {
                series: inputs.series_of(first + i),
                due: base + due[i],
                sent: base + due[i] + late[i],
                received: at,
                outcome,
            });
        }
        first += n;
        Ok(Load {
            series: ok,
            more: !lost && k + 1 < windows,
        })
    })?;
    Ok((replies, measured))
}

/// `saturated`: each connection keeps `depth` requests in flight and sends
/// the next one as soon as a reply frees a slot. A window sends for
/// [`WINDOW`], then drains: it ends when every request it sent is answered.
fn closed_loop(
    w: &Workload,
    ready: &Ready,
    windows: usize,
    start: Instant,
    cpu_s: impl FnMut() -> Result<f64, String>,
) -> Result<(Vec<Reply>, Measured), String> {
    let inputs = &ready.inputs;
    let mut connections = (0..w.connections)
        .map(|c| {
            Ok((
                c,
                Connection::open(ready.server.addr).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<Vec<(usize, Connection)>, String>>()?;
    let mut replies = Vec::new();
    let measured = probe::run_windows(start, Cores::All, cpu_s, |k| {
        let until = start.elapsed() + WINDOW;
        let per_connection = std::thread::scope(|scope| {
            let workers: Vec<_> = connections
                .iter_mut()
                .map(|(next, conn)| {
                    scope.spawn(move || -> Result<Vec<Reply>, String> {
                        let Connection { writer, reader } = conn;
                        let mut in_flight: VecDeque<(usize, Duration, Duration)> = VecDeque::new();
                        let mut replies = Vec::new();
                        let mut send = |due: Duration,
                                        in_flight: &mut VecDeque<(usize, Duration, Duration)>|
                         -> std::io::Result<()> {
                            let series = inputs.series_of(*next);
                            *next += w.connections;
                            let sent = start.elapsed();
                            writer.write_all(&inputs.requests[series])?;
                            in_flight.push_back((series, due, sent));
                            Ok(())
                        };
                        for _ in 0..w.depth {
                            send(start.elapsed(), &mut in_flight).map_err(|e| e.to_string())?;
                        }
                        while let Some((series, due, sent)) = in_flight.pop_front() {
                            let outcome = read_response(reader);
                            let received = start.elapsed();
                            let lost = outcome.is_err();
                            replies.push(Reply {
                                series,
                                due,
                                sent,
                                received,
                                outcome,
                            });
                            if lost {
                                // the stream is out of step: the rest are lost too
                                for (series, due, sent) in in_flight.drain(..) {
                                    replies.push(Reply {
                                        series,
                                        due,
                                        sent,
                                        received,
                                        outcome: Err(std::io::Error::other("connection lost")),
                                    });
                                }
                                break;
                            }
                            if received < until {
                                send(received, &mut in_flight).map_err(|e| e.to_string())?;
                            }
                        }
                        Ok(replies)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("load worker panicked".into()))
                })
                .collect::<Vec<_>>()
        });
        let mut ok = 0;
        let mut lost = false;
        for part in per_connection {
            for reply in part? {
                ok += usize::from(reply.outcome.is_ok());
                lost |= reply.outcome.is_err();
                replies.push(reply);
            }
        }
        Ok(Load {
            series: ok,
            more: !lost && k + 1 < windows,
        })
    })?;
    Ok((replies, measured))
}
