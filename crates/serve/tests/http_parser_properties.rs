//! Property tests for the incremental HTTP request parser, the server's
//! trust boundary for every byte a client sends.
//!
//! * A stream of valid pipelined requests parses to the same requests
//!   whether it arrives whole, one byte at a time or in random chunks — the
//!   event loop pushes whatever a nonblocking read returned.
//! * Arbitrary bytes never panic the parser, and every error it reports maps
//!   to a 4xx status, never a 5xx.

use proptest::prelude::*;
use tsg_faults::splitmix64;
use tsg_serve::http::{Request, RequestParser};

/// The parts of a request the parser is responsible for.
type Parsed = (String, String, String, Vec<(String, String)>, Vec<u8>, u8);

fn parsed(request: Request) -> Parsed {
    (
        request.method,
        request.path,
        request.query,
        request.headers,
        request.body,
        request.version_minor,
    )
}

/// One valid request on the wire plus what it must parse to. The seed picks
/// the method, target, version, line endings and extra headers; `body`
/// is sent verbatim, so it may hold any byte (including what looks like the
/// start of the next request).
fn wire_request(method: usize, seed: u64, body: Vec<u8>) -> (Vec<u8>, Parsed) {
    let mut state = seed;
    let mut pick = |n: u64| (splitmix64(&mut state) % n) as usize;
    let method = ["GET", "POST", "PUT", "DELETE"][method];
    let segments = ["models", "m-1", "classify", "debug", "traces", "a_b"];
    let path: String = (0..1 + pick(3))
        .map(|_| format!("/{}", segments[pick(segments.len() as u64)]))
        .collect();
    let query = match pick(3) {
        0 => String::new(),
        1 => "slow_ms=5".to_string(),
        _ => format!("trace_id={:x}&bare", pick(1 << 20)),
    };
    let minor = pick(2) as u8;
    let eol = if pick(4) == 0 { "\n" } else { "\r\n" };
    let mut headers = Vec::new();
    for _ in 0..pick(4) {
        let (name, value) = match pick(4) {
            0 => ("Host", "tsg-serve".to_string()),
            1 => ("X-Trace", format!("t{}", pick(1000))),
            2 => ("Connection", ["close", "keep-alive"][pick(2)].to_string()),
            _ => ("Accept", "application/json".to_string()),
        };
        headers.push((name.to_string(), value));
    }
    headers.push(("Content-Length".to_string(), body.len().to_string()));

    let target = if query.is_empty() {
        path.clone()
    } else {
        format!("{path}?{query}")
    };
    let mut wire = format!("{method} {target} HTTP/1.{minor}{eol}");
    for (name, value) in &headers {
        // optional whitespace around the value is trimmed by the parser
        wire.push_str(&format!("{name}:{}{value}{eol}", [" ", "", "  "][pick(3)]));
    }
    wire.push_str(eol);
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(&body);

    let headers = headers
        .into_iter()
        .map(|(name, value)| (name.to_ascii_lowercase(), value))
        .collect();
    let expected = (method.to_string(), path, query, headers, body, minor);
    (wire, expected)
}

/// Pushes `stream` in the given chunk sizes (cycled; a zero becomes one),
/// draining complete requests after every push.
fn parse_in_chunks(stream: &[u8], sizes: &[usize]) -> (Vec<Parsed>, bool) {
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    let mut offset = 0;
    let mut sizes = sizes.iter().cycle();
    while offset < stream.len() {
        let size = sizes.next().copied().unwrap_or(1).max(1);
        let end = (offset + size).min(stream.len());
        parser.push(&stream[offset..end]);
        offset = end;
        while let Some(request) = parser.next_request().expect("valid stream rejected") {
            out.push(parsed(request));
        }
    }
    (out, parser.has_buffered_bytes())
}

/// Feeds arbitrary bytes and drains the parser until it wants more input or
/// reports an error; returns the error's status, if any.
fn drain_status(parser: &mut RequestParser) -> Option<u16> {
    loop {
        match parser.next_request() {
            Ok(Some(_)) => continue,
            Ok(None) => return None,
            Err(e) => return Some(e.status()),
        }
    }
}

/// Fragments that steer random input into the parser's interesting states.
const PREFIXES: [&[u8]; 8] = [
    b"",
    b"GET / HTTP/1.1\r\n",
    b"POST /models/m/classify HTTP/1.1\r\nContent-Length: ",
    b"POST /x HTTP/1.0\r\nContent-Length: 4\r\nContent-Length: ",
    b"GET /healthz SPDY/3\r\n\r\n",
    b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    b"\r\n\r\n",
    b"GET /a HTTP/1.1\r\n\r\nGET ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pipelined_requests_parse_identically_under_any_chunking(
        requests in prop::collection::vec(
            (0usize..4, 0u64..u64::MAX, prop::collection::vec(0u16..256, 0..48)),
            1..6,
        ),
        chunk_sizes in prop::collection::vec(1usize..40, 1..16),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for (method, seed, body) in requests {
            let body = body.into_iter().map(|b| b as u8).collect();
            let (wire, parsed) = wire_request(method, seed, body);
            stream.extend_from_slice(&wire);
            expected.push(parsed);
        }
        let whole = parse_in_chunks(&stream, &[stream.len()]);
        prop_assert_eq!(&whole, &(expected.clone(), false));
        let byte_by_byte = parse_in_chunks(&stream, &[1]);
        prop_assert_eq!(&byte_by_byte, &whole);
        let chunked = parse_in_chunks(&stream, &chunk_sizes);
        prop_assert_eq!(&chunked, &whole);
    }

    #[test]
    fn random_bytes_never_panic_and_errors_are_4xx(
        prefix in 0usize..PREFIXES.len(),
        tail in prop::collection::vec(0u16..256, 0..256),
        chunk in 1usize..64,
    ) {
        let mut bytes = PREFIXES[prefix].to_vec();
        bytes.extend(tail.into_iter().map(|b| b as u8));

        let mut whole = RequestParser::new();
        whole.push(&bytes);
        if let Some(status) = drain_status(&mut whole) {
            prop_assert!((400..500).contains(&status), "status {}", status);
        }

        let mut chunked = RequestParser::new();
        for piece in bytes.chunks(chunk) {
            chunked.push(piece);
            if let Some(status) = drain_status(&mut chunked) {
                prop_assert!((400..500).contains(&status), "status {}", status);
                break; // the event loop closes the connection after an error
            }
        }
    }
}
