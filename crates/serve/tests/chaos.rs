//! Chaos harness: deterministic fault-injection schedules against the full
//! serving/storage stack, a kill-mid-traffic → warm-restart cycle through
//! the real `tsg-serve` binary, and raw-socket starvation attacks.
//!
//! Every schedule is a fixed `(seed, plan)` pair, so a failure here replays
//! exactly — set `TSG_FAULT_SEED`/`TSG_FAULT_PLAN` on a release-with-seams
//! build to reproduce outside the test harness. The invariants proven:
//!
//! * no schedule hangs the server or panics a server thread (every client
//!   socket carries a read timeout, and the serving thread is joined);
//! * every response that *does* complete with 200 carries bit-identical
//!   predictions (fault schedules may fail requests, never corrupt them);
//! * killing the server mid-traffic and warm-restarting from snapshots
//!   restores bit-identical predictions without refitting;
//! * a peer that stalls mid-request (or slowlorises the header) gets a 408
//!   within the configured budget and cannot starve other clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tsg_core::MvgClassifier;
use tsg_datasets::archive::ArchiveOptions;
use tsg_serve::batcher::BatchConfig;
use tsg_serve::http::{read_response, roundtrip_json, send_request};
use tsg_serve::json::Json;
use tsg_serve::registry::config_named;
use tsg_serve::server::{ServeConfig, Server};

const DATASET: &str = "BeetleFly";
const SEED: u64 = 7;
const CONFIG: &str = "uvg-fast";

/// The fault plan is process-global, so the tests in this binary must not
/// overlap: a schedule armed by one test would inject faults into another's
/// server.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn archive_options() -> ArchiveOptions {
    ArchiveOptions::bounded(16, 96, SEED)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsg-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // the anti-hang invariant: a stuck server surfaces as a timeout error
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One request on a fresh connection, retried across reconnects — fault
/// schedules are allowed to kill attempts, not to hang them. `None` after
/// the attempt budget.
fn resilient_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&Json>,
    attempts: usize,
) -> Option<(u16, Json)> {
    for _ in 0..attempts {
        let Ok((mut stream, mut reader)) = connect(addr) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        match roundtrip_json(&mut stream, &mut reader, method, path, body) {
            Ok(reply) => return Some(reply),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    None
}

fn series_json(series: &tsg_ts::TimeSeries) -> Json {
    Json::nums(series.values().iter().copied())
}

fn fit_body() -> Json {
    Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("seed", Json::Num(SEED as f64)),
        ("max_instances", Json::Num(16.0)),
        ("max_length", Json::Num(96.0)),
    ])
}

/// The reference: the identical model fitted directly, with injection off.
fn reference() -> (tsg_ts::Dataset, Vec<Vec<f64>>) {
    let (train, test) = tsg_datasets::archive::generate_by_name_scaled(DATASET, archive_options())
        .expect("reference dataset");
    let mut clf = MvgClassifier::new(config_named(CONFIG, SEED, 1).expect("config"));
    clf.fit(&train).expect("reference fit");
    let expected = clf.predict_proba(&test).expect("reference proba");
    (test, expected)
}

fn start_server(snapshot_dir: Option<PathBuf>) -> (String, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        n_threads: 2,
        batch: BatchConfig {
            max_batch: 16,
            queue_depth: 128,
        },
        archive: archive_options(),
        snapshot_dir,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

struct Schedule {
    name: &'static str,
    seed: u64,
    plan: &'static str,
}

const SCHEDULES: &[Schedule] = &[
    // network: transparent retry faults — every request must still succeed
    Schedule {
        name: "eintr-reads",
        seed: 0xA1,
        plan: "conn_read:eintr:0.3",
    },
    Schedule {
        name: "spurious-wakeups",
        seed: 0xA2,
        plan: "conn_read:eagain:0.3,conn_write:eagain:0.3,epoll_wait:eintr:0.2",
    },
    Schedule {
        name: "short-io",
        seed: 0xA3,
        plan: "conn_read:short:0.3,conn_write:short:0.5",
    },
    // network: destructive faults — requests may die, never hang or corrupt
    Schedule {
        name: "peer-resets",
        seed: 0xA4,
        plan: "conn_read:reset:0.15,conn_write:reset:0.1",
    },
    Schedule {
        name: "accept-failures",
        seed: 0xA5,
        plan: "accept:err:0.5,epoll_wait:err:0.1",
    },
    // file: snapshots are best-effort — a failed write never fails the fit
    Schedule {
        name: "snapshot-failures",
        seed: 0xB3,
        plan: "snap_write:torn:0.5,snap_rename:err:0.7,snap_sync:err:0.5",
    },
    // mixed: every layer at once
    Schedule {
        name: "kitchen-sink",
        seed: 0xC1,
        plan: "conn_read:eintr:0.2,conn_write:short:0.2,accept:err:0.2,\
               snap_write:err:0.4,snap_write:bitflip:0.5,snap_rename:err:0.3",
    },
];

#[test]
fn seeded_fault_schedules_never_hang_corrupt_or_panic() {
    let _guard = lock();
    // reference expected probabilities, computed with injection off
    tsg_faults::disable();
    let (test, expected) = reference();

    for schedule in SCHEDULES {
        // a fresh snapshot dir per schedule: a schedule that poisons its
        // snapshots must not leak corruption into the next one
        let snap_dir = temp_dir(&format!("snap-{}", schedule.name));
        let injected_before = tsg_faults::injected_total();
        tsg_faults::configure(schedule.seed, schedule.plan)
            .unwrap_or_else(|e| panic!("schedule {}: bad plan: {e}", schedule.name));
        assert!(tsg_faults::is_active());

        let (addr, handle) = start_server(Some(snap_dir.clone()));

        // the fit exercises the snapshot seams; destructive schedules
        // may kill attempts, so retry across reconnects
        let fit = resilient_call(&addr, "POST", "/models/m/fit", Some(&fit_body()), 12)
            .unwrap_or_else(|| panic!("schedule {}: fit never completed", schedule.name));
        let mut fit = fit;
        for _ in 0..10 {
            if fit.0 == 200 {
                break;
            }
            // a failed fit may be retried — what must never happen is a
            // hang or 500 loop that outlives the retry budget
            fit = resilient_call(&addr, "POST", "/models/m/fit", Some(&fit_body()), 12)
                .unwrap_or_else(|| panic!("schedule {}: refit never completed", schedule.name));
        }
        assert_eq!(
            fit.0, 200,
            "schedule {}: fit kept failing: {}",
            schedule.name, fit.1
        );

        // classify a slice of the test split through the faulty stack
        let mut completed = 0usize;
        for (i, series) in test.series().iter().enumerate().take(12) {
            let body = Json::obj(vec![
                ("series", Json::Arr(vec![series_json(series)])),
                ("proba", Json::Bool(true)),
            ]);
            let Some((status, reply)) =
                resilient_call(&addr, "POST", "/models/m/classify", Some(&body), 8)
            else {
                continue; // destructive schedules may eat a request entirely
            };
            if status != 200 {
                continue;
            }
            completed += 1;
            let proba: Vec<f64> = reply.get("probabilities").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert_eq!(proba.len(), expected[i].len(), "schedule {}", schedule.name);
            for (a, b) in proba.iter().zip(&expected[i]) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "schedule {}: series {i} diverged under faults",
                    schedule.name
                );
            }
        }
        assert!(
            completed >= 1,
            "schedule {}: no classify request ever completed",
            schedule.name
        );

        // the schedule must have actually fired
        let injected = tsg_faults::injected_total() - injected_before;
        assert!(
            injected > 0,
            "schedule {}: plan never injected a fault",
            schedule.name
        );

        // clean shutdown with injection off; a joined thread proves no panic
        tsg_faults::disable();
        let shutdown = resilient_call(&addr, "POST", "/shutdown", None, 8)
            .unwrap_or_else(|| panic!("schedule {}: shutdown never completed", schedule.name));
        assert_eq!(shutdown.0, 200, "schedule {}", schedule.name);
        handle
            .join()
            .unwrap_or_else(|_| panic!("schedule {}: server thread panicked", schedule.name));

        std::fs::remove_dir_all(&snap_dir).ok();
    }
}

#[test]
fn injected_faults_are_visible_on_request_traces() {
    let _guard = lock();
    tsg_faults::disable();

    // fit with injection off so the model comes up without interference
    let (addr, handle) = start_server(None);
    let fit = resilient_call(&addr, "POST", "/models/m/fit", Some(&fit_body()), 8)
        .expect("fit never completed");
    assert_eq!(fit.0, 200, "fit failed: {}", fit.1);

    // a transparent-retry schedule: every request still succeeds, but its
    // reads and writes take seeded EINTR/short-write hits — and each trace
    // must attribute the hits that landed inside its own lifetime
    tsg_faults::configure(0xD1, "conn_read:eintr:0.5,conn_write:short:0.5").expect("plan");
    assert!(tsg_faults::is_active());
    let probe = Json::obj(vec![(
        "series",
        Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2, 1, 2, 3, 2]]").unwrap(),
    )]);
    for i in 0..8 {
        let (status, reply) = resilient_call(&addr, "POST", "/models/m/classify", Some(&probe), 8)
            .unwrap_or_else(|| panic!("classify {i} never completed"));
        assert_eq!(status, 200, "classify {i} failed: {reply}");
    }
    tsg_faults::disable();

    let (status, recorder) =
        resilient_call(&addr, "GET", "/debug/traces", None, 4).expect("trace scrape");
    assert_eq!(status, 200, "{recorder}");
    let traces = recorder.get("traces").unwrap().as_array().unwrap();
    let attributed = traces
        .iter()
        .filter(|t| {
            t.get("path").unwrap().as_str() == Some("/models/m/classify")
                && t.get("status").unwrap().as_usize() == Some(200)
                && t.get("faults_injected").unwrap().as_u64().unwrap() >= 1
        })
        .count();
    assert!(
        attributed >= 1,
        "no classify trace attributed an injected fault: {recorder}"
    );

    let (status, _) = resilient_call(&addr, "POST", "/shutdown", None, 4).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread panicked");
}

/// Spawns the real `tsg-serve` binary and returns the child plus its stdout
/// reader, already advanced past the `listening on` line (whose address is
/// returned). Lines seen on the way are collected for assertions.
fn spawn_server(
    snap_dir: &PathBuf,
) -> (
    std::process::Child,
    BufReader<std::process::ChildStdout>,
    String,
    Vec<String>,
) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tsg-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--preload",
            DATASET,
            "--config",
            CONFIG,
            "--seed",
            "7",
            "--max-instances",
            "16",
            "--max-length",
            "96",
            "--snapshot-dir",
        ])
        .arg(snap_dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tsg-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut boot_lines = Vec::new();
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line).expect("read child stdout") == 0 {
            let _ = child.kill();
            panic!("tsg-serve exited before listening; boot log: {boot_lines:?}");
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after http://")
                .to_string();
        }
        boot_lines.push(line.trim_end().to_string());
    };
    (child, stdout, addr, boot_lines)
}

#[test]
fn kill_mid_traffic_then_warm_restart_is_bit_identical() {
    let _guard = lock();
    tsg_faults::disable();
    let snap_dir = temp_dir("kill-snap");
    let (test, expected) = reference();

    // boot 1: cold fit via --preload, snapshot written as part of the fit
    let (mut child, _stdout, addr, _boot) = spawn_server(&snap_dir);

    // traffic: classify in a loop; after a few successes, kill mid-stream
    let probe = Json::obj(vec![
        ("series", Json::Arr(vec![series_json(&test.series()[0])])),
        ("proba", Json::Bool(true)),
    ]);
    let mut ok_before_kill = 0usize;
    while ok_before_kill < 3 {
        let (status, _) =
            resilient_call(&addr, "POST", "/models/BeetleFly/classify", Some(&probe), 4)
                .expect("pre-kill classify");
        assert_eq!(status, 200);
        ok_before_kill += 1;
    }
    child.kill().expect("kill server");
    child.wait().expect("reap server");

    // the kill must surface to clients as an error, never a hang — the
    // read timeout inside `connect` bounds this call
    let after_kill = Instant::now();
    assert!(
        resilient_call(&addr, "POST", "/models/BeetleFly/classify", Some(&probe), 2).is_none(),
        "request against a killed server must fail"
    );
    assert!(
        after_kill.elapsed() < Duration::from_secs(25),
        "killed server turned into a client hang"
    );

    // boot 2: same snapshot dir — the model must come back from the
    // snapshot (no refit), with its predictions bit-identical
    let (mut child2, mut stdout2, addr2, boot2) = spawn_server(&snap_dir);
    assert!(
        boot2.iter().any(|l| l.contains("warm restart: restored 1")),
        "no warm-restart line in boot log: {boot2:?}"
    );
    assert!(
        boot2
            .iter()
            .any(|l| l.contains("already restored from snapshot")),
        "preload was refitted despite a valid snapshot: {boot2:?}"
    );

    for (i, series) in test.series().iter().enumerate() {
        let body = Json::obj(vec![
            ("series", Json::Arr(vec![series_json(series)])),
            ("proba", Json::Bool(true)),
        ]);
        let (status, reply) =
            resilient_call(&addr2, "POST", "/models/BeetleFly/classify", Some(&body), 4)
                .expect("post-restart classify");
        assert_eq!(status, 200, "post-restart classify failed: {reply}");
        let proba: Vec<f64> = reply.get("probabilities").unwrap().as_array().unwrap()[0]
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        for (a, b) in proba.iter().zip(&expected[i]) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "series {i} diverged after warm restart"
            );
        }
    }

    // the restart served from snapshots without a single load failure
    let (mut stream, mut reader) = connect(&addr2).expect("metrics connect");
    send_request(&mut stream, "GET", "/metrics", None).expect("metrics request");
    let (status, body) = read_response(&mut reader).expect("metrics response");
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&body).to_string();
    assert!(
        metrics.contains("tsg_serve_snapshot_load_failures_total 0\n"),
        "unexpected snapshot load failures:\n{metrics}"
    );

    let (status, _) = resilient_call(&addr2, "POST", "/shutdown", None, 4).expect("shutdown");
    assert_eq!(status, 200);
    assert!(child2.wait().expect("reap server").success());
    let mut tail = String::new();
    stdout2.read_to_string(&mut tail).expect("drain stdout");
    assert!(
        tail.contains("stopped cleanly"),
        "server did not stop cleanly: {tail}"
    );

    std::fs::remove_dir_all(&snap_dir).ok();
}

#[test]
fn a_transient_snapshot_write_fault_is_retried_not_lost() {
    let _guard = lock();
    tsg_faults::disable();
    let snap_dir = temp_dir("retry-snap");
    let (addr, handle) = start_server(Some(snap_dir.clone()));
    // this schedule tears the first snapshot write, which reports success;
    // the second install attempt draws no fault
    tsg_faults::configure(42, "snap_write:torn:0.3").expect("plan");
    let injected_before = tsg_faults::injected_total();
    let fit = resilient_call(&addr, "POST", "/models/m/fit", Some(&fit_body()), 4)
        .expect("fit never completed");
    let injected = tsg_faults::injected_total() - injected_before;
    tsg_faults::disable();
    assert_eq!(fit.0, 200, "fit failed: {}", fit.1);
    assert!(injected >= 1, "the first install must have been torn");
    let (status, _) = resilient_call(&addr, "POST", "/shutdown", None, 4).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread panicked");

    // a fresh server restores the model from the retried snapshot
    let restarted = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        snapshot_dir: Some(snap_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    assert_eq!(restarted.registry().warm_restart(), 1, "snapshot lost");
    std::fs::remove_dir_all(&snap_dir).ok();
}

#[test]
fn stalled_requests_get_408_and_cannot_starve_the_server() {
    let _guard = lock();
    tsg_faults::disable();
    // a tight budget so the sweep fires fast; no model is needed
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        n_threads: 1,
        request_budget: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // mid-request stall: headers promise a body that never arrives
    let (mut stalled, mut stalled_reader) = connect(&addr).expect("connect");
    stalled
        .write_all(b"POST /models/m/classify HTTP/1.1\r\nContent-Length: 64\r\n\r\nonly-a-prefix")
        .expect("partial write");
    let waited = Instant::now();
    let (status, _) = read_response(&mut stalled_reader).expect("408 response");
    assert_eq!(status, 408, "stalled body must time out as 408");
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "408 sweep took too long"
    );
    let mut byte = [0u8; 1];
    assert!(
        matches!(stalled_reader.read(&mut byte), Ok(0)),
        "connection must close after 408 (the unread body would desync it)"
    );

    // slowloris: dribble header bytes forever; the budget must cut it off
    let (mut slow, mut slow_reader) = connect(&addr).expect("connect");
    let header = b"GET /healthz HTTP/1.1\r\nX-Drip: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    let started = Instant::now();
    let mut got_408 = false;
    for chunk in header.chunks(2) {
        if slow.write_all(chunk).is_err() {
            break; // server already closed on us — also acceptable
        }
        std::thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(8) {
            panic!("slowloris was allowed to drip for 8 s without a 408");
        }
    }
    if let Ok((status, _)) = read_response(&mut slow_reader) {
        assert_eq!(status, 408, "slowloris must be cut off with 408");
        got_408 = true;
    }
    // either an explicit 408 or a hard close is fine; a still-open socket
    // accepting drips past the budget is not
    if !got_408 {
        assert!(
            matches!(slow_reader.read(&mut byte), Ok(0) | Err(_)),
            "slowloris connection survived past the budget"
        );
    }

    // throughout all of the above, well-behaved clients were never starved
    let (status, health) = resilient_call(&addr, "GET", "/healthz", None, 4).expect("healthz");
    assert_eq!(status, 200, "{health}");

    let (status, _) = resilient_call(&addr, "POST", "/shutdown", None, 4).expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread panicked");
}
