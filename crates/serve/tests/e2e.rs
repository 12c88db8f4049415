//! End-to-end serving test: fit a model through the wire API, fire
//! concurrent classify requests from multiple client threads, and assert the
//! predictions are bit-identical to direct [`MvgClassifier::predict`] calls
//! — the serving-path extension of the workspace determinism harness.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;
use tsg_core::MvgClassifier;
use tsg_datasets::archive::ArchiveOptions;
use tsg_serve::batcher::BatchConfig;
use tsg_serve::http::roundtrip_json;
use tsg_serve::json::Json;
use tsg_serve::registry::config_named;
use tsg_serve::server::{ServeConfig, Server};

const DATASET: &str = "BeetleFly";
const SEED: u64 = 7;
const CONFIG: &str = "uvg-fast";

fn archive_options() -> ArchiveOptions {
    ArchiveOptions::bounded(16, 96, SEED)
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn call(&mut self, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
        roundtrip_json(&mut self.stream, &mut self.reader, method, path, body).expect("roundtrip")
    }
}

/// Starts a server on an ephemeral port; returns its address and a closure
/// handle for shutdown via the wire.
fn start_server() -> (String, std::thread::JoinHandle<()>) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        n_threads: 2,
        batch: BatchConfig {
            max_batch: 16,
            queue_depth: 128,
        },
        archive: archive_options(),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The reference: the identical model fitted directly against the identical
/// training split.
fn direct_classifier() -> MvgClassifier {
    let (train, _test) =
        tsg_datasets::archive::generate_by_name_scaled(DATASET, archive_options()).unwrap();
    let mut clf = MvgClassifier::new(config_named(CONFIG, SEED, 1).unwrap());
    clf.fit(&train).unwrap();
    clf
}

fn series_json(series: &tsg_ts::TimeSeries) -> Json {
    Json::nums(series.values().iter().copied())
}

#[test]
fn concurrent_serving_is_bit_identical_to_direct_classification() {
    let (addr, server_handle) = start_server();
    let mut admin = Client::connect(&addr);

    // health before any model exists
    let (status, health) = admin.call("GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("models").unwrap().as_usize(), Some(0));

    // classify against a missing model → 404
    let probe = Json::obj(vec![("series", Json::parse("[[1, 2, 3]]").unwrap())]);
    let (status, _) = admin.call("POST", "/models/nope/classify", Some(&probe));
    assert_eq!(status, 404);

    // fit through the wire API
    let fit_body = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("seed", Json::Num(SEED as f64)),
        ("max_instances", Json::Num(16.0)),
        ("max_length", Json::Num(96.0)),
    ]);
    let (status, info) = admin.call("POST", "/models/demo/fit", Some(&fit_body));
    assert_eq!(status, 200, "fit failed: {info}");
    assert_eq!(info.get("n_classes").unwrap().as_usize(), Some(2));

    // the reference model, fitted directly from the identical training split
    let direct = direct_classifier();
    assert_eq!(
        direct.feature_names().len(),
        info.get("n_features").unwrap().as_usize().unwrap(),
        "served model extracted a different feature set"
    );
    let (_train, test) =
        tsg_datasets::archive::generate_by_name_scaled(DATASET, archive_options()).unwrap();
    let expected = direct.predict(&test).unwrap();
    let expected_proba = direct.predict_proba(&test).unwrap();

    // ≥4 client threads, each with its own connection, firing concurrent
    // requests that partition the test split
    const CLIENTS: usize = 5;
    let chunks: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| {
            (0..test.len())
                .filter(|i| i % CLIENTS == c)
                .collect::<Vec<_>>()
        })
        .collect();
    let results: Vec<Vec<(usize, usize, Vec<f64>)>> = std::thread::scope(|scope| {
        chunks
            .iter()
            .map(|indices| {
                let addr = addr.clone();
                let test = &test;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr);
                    let mut out = Vec::new();
                    for &i in indices {
                        let body = Json::obj(vec![
                            ("series", Json::Arr(vec![series_json(&test.series()[i])])),
                            ("proba", Json::Bool(true)),
                        ]);
                        let (status, reply) =
                            client.call("POST", "/models/demo/classify", Some(&body));
                        assert_eq!(status, 200, "classify failed: {reply}");
                        let prediction = reply.get("predictions").unwrap().as_array().unwrap()[0]
                            .as_usize()
                            .unwrap();
                        let proba: Vec<f64> =
                            reply.get("probabilities").unwrap().as_array().unwrap()[0]
                                .as_array()
                                .unwrap()
                                .iter()
                                .map(|v| v.as_f64().unwrap())
                                .collect();
                        assert!(reply.get("batch_size").unwrap().as_usize().unwrap() >= 1);
                        out.push((i, prediction, proba));
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let mut seen = 0usize;
    for chunk in results {
        for (i, prediction, proba) in chunk {
            assert_eq!(
                prediction, expected[i],
                "served prediction diverged for test series {i}"
            );
            // probabilities travelled through JSON (shortest round-trip f64
            // formatting), so bit-equality must hold end to end
            assert_eq!(
                proba.len(),
                expected_proba[i].len(),
                "probability width diverged for series {i}"
            );
            for (a, b) in proba.iter().zip(&expected_proba[i]) {
                assert_eq!(a.to_bits(), b.to_bits(), "probability bits diverged");
            }
            seen += 1;
        }
    }
    assert_eq!(seen, test.len());

    // one multi-series request must also match (batch path with n > 1)
    let body = Json::obj(vec![(
        "series",
        Json::Arr(test.series().iter().map(series_json).collect()),
    )]);
    let (status, reply) = admin.call("POST", "/models/demo/classify", Some(&body));
    assert_eq!(status, 200);
    let all: Vec<usize> = reply
        .get("predictions")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    assert_eq!(all, expected);

    // observability: metrics reflect the traffic that just happened
    let (status, models) = admin.call("GET", "/models", None);
    assert_eq!(status, 200);
    assert_eq!(models.get("models").unwrap().as_array().unwrap().len(), 1);
    let mut metrics_client = Client::connect(&addr);
    tsg_serve::http::send_request(&mut metrics_client.stream, "GET", "/metrics", None).unwrap();
    let (status, body) = tsg_serve::http::read_response(&mut metrics_client.reader).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let series_total = test.len() * 2; // partitioned pass + full-batch pass
                                       // match full lines (trailing newline) so e.g. a count of 320 cannot
                                       // satisfy an expected 32 by prefix
    assert!(
        text.contains(&format!("tsg_serve_classify_series_total {series_total}\n")),
        "unexpected series total in metrics:\n{text}"
    );
    assert!(text.contains("tsg_serve_batch_size_count"), "{text}");
    assert!(text.contains("tsg_serve_models 1\n"), "{text}");

    // graceful shutdown over the wire
    let (status, _) = admin.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn malformed_wire_requests_get_4xx_and_the_connection_survives() {
    use std::io::Write;
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);

    // a real model to aim the malformed payloads at
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, _) = client.call("POST", "/models/m/fit", Some(&fit));
    assert_eq!(status, 200);

    // syntactically broken JSON bodies, correctly framed: each must come
    // back as a 4xx wire error — never a panic, a hang, or a dropped
    // connection — and the SAME connection keeps serving afterwards
    for bad_body in [
        "{",                           // truncated object
        "[1, 2,",                      // truncated array
        "{\"series\": [[1, 2]]",       // missing close brace
        "\u{0}\u{1}garbage",           // not JSON at all
        "{\"s\": \"\\ud800\"}",        // unpaired surrogate escape
        "{\"s\": \"unterminated",      // unterminated string
        "{\"a\": nul}",                // broken literal
        "{\"deep\": [[[[[[[[[[[[[[[[", // truncated nesting
    ] {
        let request = format!(
            "POST /models/m/classify HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            bad_body.len(),
            bad_body
        );
        client.stream.write_all(request.as_bytes()).expect("write");
        let (status, _) = tsg_serve::http::read_response(&mut client.reader).expect("response");
        assert!(
            (400..500).contains(&status),
            "body {bad_body:?} got status {status}"
        );
        // same connection, next request still works
        let (status, health) = client.call("GET", "/healthz", None);
        assert_eq!(status, 200, "connection died after {bad_body:?}: {health}");
    }

    // a well-formed classify on the very same connection still succeeds
    let ok = Json::obj(vec![(
        "series",
        Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2]]").unwrap(),
    )]);
    let (status, reply) = client.call("POST", "/models/m/classify", Some(&ok));
    assert_eq!(status, 200, "{reply}");

    // a torn HTTP request line gets a 400 before the connection closes...
    let mut torn = Client::connect(&addr);
    torn.stream
        .write_all(b"NOT-EVEN-HTTP\r\n\r\n")
        .expect("write");
    let (status, _) = tsg_serve::http::read_response(&mut torn.reader).expect("response");
    assert_eq!(status, 400);

    // ...and the server as a whole keeps serving new connections
    let mut fresh = Client::connect(&addr);
    let (status, reply) = fresh.call("POST", "/models/m/classify", Some(&ok));
    assert_eq!(status, 200, "{reply}");

    let (status, _) = fresh.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

/// Reads one response off a raw client and returns the `Connection` header
/// alongside the status and body.
fn read_with_connection(client: &mut Client) -> (u16, String, Vec<u8>) {
    let (status, headers, body) =
        tsg_serve::http::read_response_with_headers(&mut client.reader).expect("response");
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    (status, connection, body)
}

/// Whether the server closed the connection (EOF on the next read).
fn connection_closed(client: &mut Client) -> bool {
    use std::io::Read;
    client
        .stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    matches!(client.reader.read(&mut byte), Ok(0))
}

#[test]
fn wire_protocol_regressions() {
    use std::io::Write;
    let (addr, server_handle) = start_server();

    // regression 1: an HTTP/1.0 request without a Connection header must be
    // answered with `Connection: close` and an actual close — the old server
    // discarded the version and held the connection open forever
    let mut http10 = Client::connect(&addr);
    http10
        .stream
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("write");
    let (status, connection, _) = read_with_connection(&mut http10);
    assert_eq!(status, 200);
    assert_eq!(connection, "close", "HTTP/1.0 must default to close");
    assert!(connection_closed(&mut http10), "socket must actually close");

    // an HTTP/1.0 client explicitly asking for keep-alive gets it
    let mut http10_ka = Client::connect(&addr);
    http10_ka
        .stream
        .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
        .expect("write");
    let (status, connection, _) = read_with_connection(&mut http10_ka);
    assert_eq!(status, 200);
    assert_eq!(connection, "keep-alive");
    let (status, _) = http10_ka.call("GET", "/healthz", None);
    assert_eq!(status, 200, "opted-in keep-alive connection must survive");

    // regression 2: a body over MAX_BODY_BYTES is 413 Payload Too Large,
    // not a generic 400 — and the connection closes (the body bytes that
    // may follow would desync the stream)
    let mut big = Client::connect(&addr);
    let declared = tsg_serve::http::MAX_BODY_BYTES + 1;
    big.stream
        .write_all(
            format!("POST /models/m/classify HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n")
                .as_bytes(),
        )
        .expect("write");
    let (status, connection, _) = read_with_connection(&mut big);
    assert_eq!(status, 413, "oversized body must map to 413");
    assert_eq!(connection, "close");
    assert!(connection_closed(&mut big));

    // regression 3: conflicting duplicate Content-Length headers are the
    // request-smuggling foothold — reject as 400 and close
    let mut dup = Client::connect(&addr);
    dup.stream
        .write_all(b"POST /healthz HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 16\r\n\r\nabcdabcdabcdabcd")
        .expect("write");
    let (status, connection, _) = read_with_connection(&mut dup);
    assert_eq!(status, 400, "conflicting Content-Length must be rejected");
    assert_eq!(connection, "close");
    assert!(connection_closed(&mut dup));

    // regression 4: the shutdown response must honestly say close — the old
    // server computed keep-alive before routing set the shutdown flag, then
    // silently dropped the connection it had just promised to keep open
    let mut admin = Client::connect(&addr);
    tsg_serve::http::send_request(&mut admin.stream, "POST", "/shutdown", None).expect("send");
    let (status, connection, _) = read_with_connection(&mut admin);
    assert_eq!(status, 200);
    assert_eq!(
        connection, "close",
        "shutdown response must not promise keep-alive"
    );
    assert!(connection_closed(&mut admin));
    server_handle.join().expect("server thread panicked");
}

#[test]
fn pipelined_requests_get_in_order_responses() {
    use std::io::Write;
    let (addr, server_handle) = start_server();
    let mut admin = Client::connect(&addr);

    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("seed", Json::Num(SEED as f64)),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, _) = admin.call("POST", "/models/pipe/fit", Some(&fit));
    assert_eq!(status, 200);

    // one write carrying five back-to-back requests. The mix matters: the
    // classify requests complete asynchronously on the batch dispatcher
    // while /healthz and the 404 answer inline, so in-order delivery proves
    // the reorder stage, not accidental timing.
    let classify_a = Json::obj(vec![(
        "series",
        Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2]]").unwrap(),
    )])
    .write();
    let classify_b = Json::obj(vec![(
        "series",
        Json::parse("[[5, 1, 5, 1, 5, 1, 5, 1]]").unwrap(),
    )])
    .write();
    let mut wire = Vec::new();
    for (method, path, body) in [
        ("POST", "/models/pipe/classify", Some(classify_a.as_str())),
        ("GET", "/healthz", None),
        ("GET", "/definitely-not-a-route", None),
        ("POST", "/models/pipe/classify", Some(classify_b.as_str())),
        ("GET", "/models", None),
    ] {
        let body = body.unwrap_or_default();
        wire.extend_from_slice(
            format!(
                "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    let mut client = Client::connect(&addr);
    client.stream.write_all(&wire).expect("pipelined write");

    let expectations: [(u16, &str); 5] = [
        (200, "predictions"),
        (200, "uptime_seconds"),
        (404, "no such route"),
        (200, "predictions"),
        (200, "models"),
    ];
    for (i, (want_status, want_fragment)) in expectations.iter().enumerate() {
        let (status, connection, body) = read_with_connection(&mut client);
        let text = String::from_utf8_lossy(&body).to_string();
        assert_eq!(status, *want_status, "response {i} out of order: {text}");
        assert!(
            text.contains(want_fragment),
            "response {i} body mismatch (expected `{want_fragment}`): {text}"
        );
        assert_eq!(connection, "keep-alive", "response {i}");
    }
    // the connection is still usable after the burst
    let (status, _) = client.call("GET", "/healthz", None);
    assert_eq!(status, 200);

    // every request in the burst was born with its own trace id, even though
    // all five were parsed back-to-back out of a single read — plus the fit
    // and the follow-up healthz, all distinct
    let (status, recorder) = client.call("GET", "/debug/traces", None);
    assert_eq!(status, 200, "{recorder}");
    let traces = recorder.get("traces").unwrap().as_array().unwrap();
    let ids: Vec<&str> = traces
        .iter()
        .map(|t| t.get("trace_id").unwrap().as_str().unwrap())
        .collect();
    let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "trace ids must be unique: {ids:?}");
    assert!(
        ids.len() >= 7,
        "burst requests missing from recorder: {ids:?}"
    );

    let (status, _) = admin.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn flight_recorder_attributes_stage_latency_to_classify_traces() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);

    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("seed", Json::Num(SEED as f64)),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, reply) = client.call("POST", "/models/obs/fit", Some(&fit));
    assert_eq!(status, 200, "{reply}");

    // a long-enough series that graph build and motif counting each cost a
    // measurable (≥ 1 µs) slice of the request
    let series: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
    let body = Json::obj(vec![("series", Json::Arr(vec![Json::nums(series)]))]);
    const REQUESTS: usize = 6;
    for _ in 0..REQUESTS {
        let (status, reply) = client.call("POST", "/models/obs/classify", Some(&body));
        assert_eq!(status, 200, "{reply}");
    }

    let (status, recorder) = client.call("GET", "/debug/traces", None);
    assert_eq!(status, 200, "{recorder}");
    let capacity = recorder.get("capacity").unwrap().as_usize().unwrap();
    let count = recorder.get("count").unwrap().as_usize().unwrap();
    let recorded = recorder.get("recorded_total").unwrap().as_usize().unwrap();
    let traces = recorder.get("traces").unwrap().as_array().unwrap();
    assert!(capacity >= 1);
    assert_eq!(count, traces.len(), "{recorder}");
    assert!(recorded >= count, "{recorder}");

    let classify: Vec<&Json> = traces
        .iter()
        .filter(|t| t.get("path").unwrap().as_str() == Some("/models/obs/classify"))
        .collect();
    assert!(
        classify.len() >= REQUESTS,
        "classify traces missing: {recorder}"
    );

    const STAGES: [&str; 8] = [
        "parse",
        "queue_wait",
        "scale",
        "graph_build",
        "motif_count",
        "predict",
        "serialize",
        "write_out",
    ];
    let mut ids = std::collections::BTreeSet::new();
    for trace in &classify {
        let id = trace.get("trace_id").unwrap().as_str().unwrap();
        assert_eq!(id.len(), 16, "trace ids are fixed-width hex: {id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        assert!(ids.insert(id.to_string()), "duplicate trace id {id}");
        assert_eq!(trace.get("status").unwrap().as_usize(), Some(200));
        assert_eq!(trace.get("model").unwrap().as_str(), Some("obs"));
        let total = trace.get("total_micros").unwrap().as_u64().unwrap();
        assert!(total > 0, "{trace}");
        let stages = trace.get("stages_micros").unwrap();
        // a single-series request's spans are disjoint sub-intervals of its
        // lifetime, so the truncated per-stage sum can never exceed the
        // truncated total
        let sum: u64 = STAGES
            .iter()
            .map(|s| stages.get(s).unwrap().as_u64().unwrap())
            .sum();
        assert!(
            sum <= total,
            "stage sum {sum} exceeds total {total}: {trace}"
        );
        // the extraction stages dominate a 512-point classify; they cannot
        // round down to zero
        assert!(
            stages.get("graph_build").unwrap().as_u64().unwrap() > 0,
            "{trace}"
        );
        assert!(
            stages.get("motif_count").unwrap().as_u64().unwrap() > 0,
            "{trace}"
        );
    }

    // ?trace_id= pins one trace exactly
    let one = ids.iter().next().unwrap().clone();
    let (status, pinned) = client.call("GET", &format!("/debug/traces?trace_id={one}"), None);
    assert_eq!(status, 200, "{pinned}");
    assert_eq!(pinned.get("count").unwrap().as_usize(), Some(1), "{pinned}");
    let hit = &pinned.get("traces").unwrap().as_array().unwrap()[0];
    assert_eq!(hit.get("trace_id").unwrap().as_str(), Some(one.as_str()));

    // ?slow_ms= keeps only slower-than traces; nothing here took an hour
    let (status, slow) = client.call("GET", "/debug/traces?slow_ms=3600000", None);
    assert_eq!(status, 200);
    assert_eq!(slow.get("count").unwrap().as_usize(), Some(0), "{slow}");

    // malformed filters are 400s, not panics or silent full dumps
    let (status, _) = client.call("GET", "/debug/traces?slow_ms=nope", None);
    assert_eq!(status, 400);
    let (status, _) = client.call("GET", "/debug/traces?trace_id=zzzz", None);
    assert_eq!(status, 400);

    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn version_pinning_detects_hot_swaps() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);

    let fit = |seed: f64| {
        Json::obj(vec![
            ("dataset", Json::Str(DATASET.into())),
            ("config", Json::Str(CONFIG.into())),
            ("seed", Json::Num(seed)),
            ("max_instances", Json::Num(8.0)),
            ("max_length", Json::Num(64.0)),
        ])
    };
    let (status, info) = client.call("POST", "/models/pin/fit", Some(&fit(1.0)));
    assert_eq!(status, 200, "{info}");
    let v1 = info.get("version").unwrap().as_u64().expect("version");

    // pinned to the live version: served, and the response echoes it
    let series = Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2]]").unwrap();
    let pinned = Json::obj(vec![
        ("series", series.clone()),
        ("version", Json::Num(v1 as f64)),
    ]);
    let (status, reply) = client.call("POST", "/models/pin/classify", Some(&pinned));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("version").unwrap().as_u64(), Some(v1));

    // hot-swap: refit under the same name bumps the version
    let (status, info) = client.call("POST", "/models/pin/fit", Some(&fit(2.0)));
    assert_eq!(status, 200);
    let v2 = info.get("version").unwrap().as_u64().expect("version");
    assert!(v2 > v1, "refit must advance the version ({v1} -> {v2})");

    // the stale pin now gets 409 Conflict instead of silently classifying
    // with a different model
    let (status, reply) = client.call("POST", "/models/pin/classify", Some(&pinned));
    assert_eq!(status, 409, "{reply}");
    assert!(reply
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("version"));

    // repinning to the new version works; unpinned requests always track the
    // live model
    let repinned = Json::obj(vec![
        ("series", series.clone()),
        ("version", Json::Num(v2 as f64)),
    ]);
    let (status, reply) = client.call("POST", "/models/pin/classify", Some(&repinned));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.get("version").unwrap().as_u64(), Some(v2));
    let unpinned = Json::obj(vec![("series", series)]);
    let (status, reply) = client.call("POST", "/models/pin/classify", Some(&unpinned));
    assert_eq!(status, 200);
    assert_eq!(reply.get("version").unwrap().as_u64(), Some(v2), "{reply}");

    // a malformed pin is a 400, not a lookup against nonsense
    let bad = Json::obj(vec![
        ("series", Json::parse("[[1, 2, 3]]").unwrap()),
        ("version", Json::Str("latest".into())),
    ]);
    let (status, _) = client.call("POST", "/models/pin/classify", Some(&bad));
    assert_eq!(status, 400);

    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn invalid_requests_are_rejected_not_fatal() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);

    // fit with a bad config name
    let bad_fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str("warp-speed".into())),
    ]);
    let (status, reply) = client.call("POST", "/models/m/fit", Some(&bad_fit));
    assert_eq!(status, 400, "{reply}");

    // fit with an unknown dataset
    let bad_dataset = Json::obj(vec![("dataset", Json::Str("NotADataset".into()))]);
    let (status, _) = client.call("POST", "/models/m/fit", Some(&bad_dataset));
    assert_eq!(status, 400);

    // unknown route and unsupported method
    let (status, _) = client.call("GET", "/nope", None);
    assert_eq!(status, 404);

    // a real fit, then malformed classify payloads
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, _) = client.call("POST", "/models/m/fit", Some(&fit));
    assert_eq!(status, 200);
    for bad in [
        Json::obj(vec![("series", Json::Str("nope".into()))]),
        Json::obj(vec![("series", Json::parse("[[]]").unwrap())]),
        Json::obj(vec![("series", Json::parse("[[1, null]]").unwrap())]),
        Json::obj(vec![("wrong_key", Json::Num(1.0))]),
    ] {
        let (status, _) = client.call("POST", "/models/m/classify", Some(&bad));
        assert_eq!(status, 400, "accepted {bad}");
    }
    // the connection and model survive all of the above
    let ok = Json::obj(vec![(
        "series",
        Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2]]").unwrap(),
    )]);
    let (status, reply) = client.call("POST", "/models/m/classify", Some(&ok));
    assert_eq!(status, 200, "{reply}");

    // delete the model, classify now 404s
    let (status, _) = client.call("DELETE", "/models/m", None);
    assert_eq!(status, 200);
    let (status, _) = client.call("POST", "/models/m/classify", Some(&ok));
    assert_eq!(status, 404);

    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

/// Posts `body` to `path` and returns its status and error message.
fn error_of(client: &mut Client, path: &str, body: &Json) -> (u16, String) {
    let (status, reply) = client.call("POST", path, Some(body));
    let message = reply
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap_or_default();
    (status, message.to_string())
}

#[test]
fn wrong_typed_proba_is_a_400_naming_the_field() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, reply) = client.call("POST", "/models/m/fit", Some(&fit));
    assert_eq!(status, 200, "{reply}");
    let series = Json::parse("[[1, 2, 3, 2, 1, 2, 3, 2]]").unwrap();
    for proba in [Json::Str("yes".into()), Json::Num(1.0), Json::Null] {
        let body = Json::obj(vec![("series", series.clone()), ("proba", proba.clone())]);
        let (status, message) = error_of(&mut client, "/models/m/classify", &body);
        assert_eq!(status, 400, "`proba`: {proba} got {status}");
        assert!(message.contains("`proba`"), "{message}");
    }
    // an absent field keeps its default, and a boolean is honoured
    let (status, reply) = client.call(
        "POST",
        "/models/m/classify",
        Some(&Json::obj(vec![("series", series.clone())])),
    );
    assert_eq!(status, 200, "{reply}");
    assert!(reply.get("probabilities").is_none());
    let body = Json::obj(vec![("series", series), ("proba", Json::Bool(true))]);
    let (status, reply) = client.call("POST", "/models/m/classify", Some(&body));
    assert_eq!(status, 200, "{reply}");
    assert!(reply.get("probabilities").is_some());
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn wrong_typed_config_is_a_400_naming_the_field() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    // a number is not a preset name: it must not fit the default preset
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Num(5.0)),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, message) = error_of(&mut client, "/models/m/fit", &fit);
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("`config`"), "{message}");
    let (status, models) = client.call("GET", "/models", None);
    assert_eq!(status, 200);
    assert_eq!(models.get("models").unwrap().as_array().unwrap().len(), 0);
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn wrong_typed_dataset_is_a_400_naming_the_field() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    let fit = Json::obj(vec![
        ("dataset", Json::Num(5.0)),
        ("config", Json::Str(CONFIG.into())),
    ]);
    let (status, message) = error_of(&mut client, "/models/m/fit", &fit);
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("`dataset` must be"), "{message}");
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

/// A labelled inline training series.
fn labelled(values: impl IntoIterator<Item = f64>, label: u64) -> Json {
    Json::obj(vec![
        ("values", Json::nums(values)),
        ("label", Json::Num(label as f64)),
    ])
}

/// Posts an inline fit and returns its status and error message.
fn inline_fit(client: &mut Client, config: &str, series: Vec<Json>) -> (u16, String) {
    let body = Json::obj(vec![
        ("config", Json::Str(config.into())),
        ("train", Json::obj(vec![("series", Json::Arr(series))])),
    ]);
    error_of(client, "/models/inline/fit", &body)
}

#[test]
fn empty_inline_training_set_is_a_400_naming_the_field() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    let (status, message) = inline_fit(&mut client, CONFIG, Vec::new());
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("train.series"), "{message}");
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn sparse_inline_labels_are_a_400_naming_the_label() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    // labels {0, 7}: the model would size itself for 8 classes, 6 empty
    let series = (0..6u64)
        .map(|i| {
            let label = if i % 2 == 0 { 0 } else { 7 };
            labelled((0..32u64).map(|t| ((t * (i + 3)) % 11) as f64), label)
        })
        .collect();
    let (status, message) = inline_fit(&mut client, CONFIG, series);
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("train.series"), "{message}");
    assert!(message.contains("label 7"), "{message}");
    let (status, models) = client.call("GET", "/models", None);
    assert_eq!(status, 200);
    assert_eq!(models.get("models").unwrap().as_array().unwrap().len(), 0);
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn overflowing_inline_fit_is_a_400_naming_the_feature() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    // six `wide` series at ±1e200: their energy overflows to infinity
    let series = (0..6u64)
        .map(|i| {
            let values = (0..64u64).map(move |t| {
                let sign = if (t + i) % 2 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + ((t * (i + 2)) % 7) as f64 / 10.0) * 1e200
            });
            labelled(values, i % 2)
        })
        .collect();
    let (status, message) = inline_fit(&mut client, "wide", series);
    assert_eq!(status, 400, "{message}");
    assert!(message.contains("feature `stat energy`"), "{message}");
    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn one_non_finite_series_fails_only_its_own_request() {
    use std::io::Write;
    let (addr, server_handle) = start_server();
    let mut admin = Client::connect(&addr);
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str("wide".into())),
        ("seed", Json::Num(SEED as f64)),
    ]);
    let (status, info) = admin.call("POST", "/models/w/fit", Some(&fit));
    assert_eq!(status, 200, "fit failed: {info}");

    let (train, test) =
        tsg_datasets::archive::generate_by_name_scaled(DATASET, archive_options()).unwrap();
    let mut direct = MvgClassifier::new(config_named("wide", SEED, 1).unwrap());
    direct.fit(&train).unwrap();
    let good: Vec<tsg_ts::TimeSeries> = test.series().iter().take(2).cloned().collect();
    let expected = direct
        .predict(&tsg_ts::Dataset::from_series("good", good.clone()))
        .unwrap();

    // its energy (96 · 9e400) overflows to infinity; every other feature
    // stays finite
    let huge: Vec<f64> = (0..96)
        .map(|t| if t % 2 == 0 { 3e200 } else { -3e200 })
        .collect();
    // a blocker fills a whole batch (`max_batch` 16) of long series and
    // goes first; the three requests pipelined behind it queue up while it
    // computes, and the dispatcher's next batch takes all three
    let blocker: Vec<Json> = (0..16u64)
        .map(|s| Json::nums((0..2000u64).map(|t| ((t * 7919 + s * 104_729) % 1000) as f64)))
        .collect();
    let bodies = [
        Json::obj(vec![("series", Json::Arr(blocker))]),
        Json::obj(vec![("series", Json::Arr(vec![series_json(&good[0])]))]),
        Json::obj(vec![("series", Json::Arr(vec![Json::nums(huge)]))]),
        Json::obj(vec![("series", Json::Arr(vec![series_json(&good[1])]))]),
    ];
    let mut wire = Vec::new();
    for body in &bodies {
        let body = body.write();
        wire.extend_from_slice(
            format!(
                "POST /models/w/classify HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    let mut client = Client::connect(&addr);
    client.stream.write_all(&wire).expect("pipelined write");
    let mut replies = Vec::new();
    for _ in &bodies {
        let (status, _, body) = read_with_connection(&mut client);
        replies.push((
            status,
            Json::parse(&String::from_utf8_lossy(&body)).unwrap(),
        ));
    }

    let (status, blocked) = &replies[0];
    assert_eq!(*status, 200, "{blocked}");
    assert_eq!(
        blocked.get("batch_size").unwrap().as_usize(),
        Some(16),
        "the blocker shared its batch: {blocked}"
    );
    let (status, bad) = &replies[2];
    assert_eq!(*status, 400, "{bad}");
    let message = bad
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap_or_default();
    assert!(message.contains("classify input"), "{message}");
    assert!(
        message.contains("feature `stat energy`"),
        "the error names another feature than energy: {message}"
    );
    for (i, reply) in [&replies[1], &replies[3]].into_iter().enumerate() {
        let (status, body) = reply;
        assert_eq!(*status, 200, "{body}");
        assert_eq!(
            body.get("batch_size").unwrap().as_usize(),
            Some(3),
            "the requests were not batched together: {body}"
        );
        let labels = body.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].as_usize(), Some(expected[i]), "{body}");
    }

    let (status, _) = admin.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

/// The sample names `/metrics` exposes, sorted and deduplicated: the name
/// of every non-comment line, without labels or value.
fn metric_names(text: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter_map(|line| line.split(['{', ' ']).next())
        .map(str::to_string)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Every sample name `/metrics` exposes, sorted.
const PINNED_METRIC_NAMES: [&str; 29] = [
    "tsg_serve_batch_size_bucket",
    "tsg_serve_batch_size_count",
    "tsg_serve_batch_size_sum",
    "tsg_serve_classify_batches_total",
    "tsg_serve_classify_latency_seconds_bucket",
    "tsg_serve_classify_latency_seconds_count",
    "tsg_serve_classify_latency_seconds_sum",
    "tsg_serve_classify_rejected_total",
    "tsg_serve_classify_requests_total",
    "tsg_serve_classify_series_total",
    "tsg_serve_connections_accepted_total",
    "tsg_serve_connections_open",
    "tsg_serve_connections_reset_total",
    "tsg_serve_faults_injected_total",
    "tsg_serve_models",
    "tsg_serve_models_fitted_total",
    "tsg_serve_request_latency_seconds_bucket",
    "tsg_serve_request_latency_seconds_count",
    "tsg_serve_request_latency_seconds_sum",
    "tsg_serve_requests_shed_total",
    "tsg_serve_requests_total",
    "tsg_serve_responses_2xx_total",
    "tsg_serve_responses_4xx_total",
    "tsg_serve_responses_5xx_total",
    "tsg_serve_snapshot_load_failures_total",
    "tsg_serve_stage_seconds_bucket",
    "tsg_serve_stage_seconds_count",
    "tsg_serve_stage_seconds_sum",
    "tsg_serve_uptime_seconds",
];

#[test]
fn metrics_name_set_is_pinned() {
    let (addr, server_handle) = start_server();
    let mut client = Client::connect(&addr);
    let fit = Json::obj(vec![
        ("dataset", Json::Str(DATASET.into())),
        ("config", Json::Str(CONFIG.into())),
        ("seed", Json::Num(SEED as f64)),
        ("max_instances", Json::Num(8.0)),
        ("max_length", Json::Num(64.0)),
    ]);
    let (status, info) = client.call("POST", "/models/m/fit", Some(&fit));
    assert_eq!(status, 200, "{info}");
    let probe = Json::obj(vec![(
        "series",
        Json::parse("[[1, 2, 3, 2, 1, 2]]").unwrap(),
    )]);
    let (status, reply) = client.call("POST", "/models/m/classify", Some(&probe));
    assert_eq!(status, 200, "{reply}");

    tsg_serve::http::send_request(&mut client.stream, "GET", "/metrics", None).unwrap();
    let (status, body) = tsg_serve::http::read_response(&mut client.reader).unwrap();
    assert_eq!(status, 200);
    let names = metric_names(&String::from_utf8(body).unwrap());
    let expected = PINNED_METRIC_NAMES;
    assert_eq!(
        names, expected,
        "a /metrics name disappeared or was renamed"
    );

    let (status, _) = client.call("POST", "/shutdown", None);
    assert_eq!(status, 200);
    server_handle.join().expect("server thread panicked");
}

#[test]
fn every_pinned_metric_family_is_documented() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/observability.md");
    let doc = std::fs::read_to_string(path).expect("read docs/observability.md");
    for name in PINNED_METRIC_NAMES {
        let family = ["_bucket", "_count", "_sum"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(name);
        assert!(
            doc.contains(&format!("| `{family}` |")),
            "/metrics family `{family}` has no row in docs/observability.md"
        );
    }
}
