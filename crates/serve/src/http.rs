//! A minimal HTTP/1.x implementation over `std::net`.
//!
//! The build environment has no crates.io access, so the server hand-rolls
//! the small slice of HTTP it needs. The core is [`RequestParser`], an
//! *incremental* parser: the event loop feeds it whatever bytes a
//! nonblocking read produced and asks for complete requests, so one buffer
//! per connection supports keep-alive and HTTP/1.1 pipelining without any
//! blocking reads. A matching client half ([`send_request`] /
//! [`read_response`]) is used by the load-generator binary and the
//! end-to-end tests, so both sides of the wire live next to each other.
//!
//! Wire-protocol decisions worth calling out (each carries a regression
//! test):
//!
//! * the request's HTTP version is *kept* on [`Request`]: HTTP/1.0 defaults
//!   to `Connection: close`, HTTP/1.1 to keep-alive;
//! * a body over [`MAX_BODY_BYTES`] surfaces as [`ParseError::TooLarge`] so
//!   the server can answer `413 Payload Too Large` instead of a generic 400;
//! * conflicting duplicate `Content-Length` headers are rejected outright —
//!   resolving them by first-match is a request-smuggling foothold once
//!   responses can be pipelined.

use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on an accepted request body (covers inline training sets for
/// generously sized datasets while bounding memory per connection).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Upper bound on the header section of a request.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query string stripped).
    pub path: String,
    /// Raw query string (the part after `?`, empty when absent). Routing
    /// matches on `path`; handlers that take parameters read them here via
    /// [`Request::query_param`].
    pub query: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Minor version of the `HTTP/1.x` request line (`0` or `1`). Decides
    /// the keep-alive default, so it must not be discarded at parse time.
    pub version_minor: u8,
}

impl Request {
    /// Looks up a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for the connection to stay open after this
    /// request. An explicit `Connection` header wins; without one the
    /// protocol default applies — keep-alive for HTTP/1.1, close for
    /// HTTP/1.0 (which predates persistent-by-default connections).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version_minor >= 1,
        }
    }

    /// Looks up a query-string parameter by name (`?a=1&b=2` style; no
    /// percent-decoding — the debug endpoints that use this take only
    /// numeric and hex values). A bare key (`?verbose`) yields `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value)
    }

    /// Parses the body as JSON.
    pub fn json_body(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text).map_err(|e| e.to_string())
    }
}

/// Why a byte stream failed to parse as a request. The variant decides the
/// wire status: the server must not collapse everything into 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes are not a well-formed request (maps to `400 Bad Request`).
    Malformed(String),
    /// The request is well-formed but its declared body exceeds
    /// [`MAX_BODY_BYTES`] (maps to `413 Payload Too Large`).
    TooLarge(String),
}

impl ParseError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::TooLarge(_) => 413,
        }
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        match self {
            ParseError::Malformed(m) | ParseError::TooLarge(m) => m,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

/// Incremental request parser: push bytes in as they arrive, pull complete
/// requests out. Feeding it a request split across arbitrarily small chunks
/// and feeding it several pipelined requests in one chunk both work — the
/// buffer is only consumed when a complete request (head + declared body)
/// is available.
///
/// After an `Err` the stream is no longer aligned to message boundaries and
/// the connection must be closed once the error response is flushed.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends freshly read bytes to the parse buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes are buffered (true between the first
    /// byte of a request and its completion — the "mid-request" state a
    /// timeout sweep cares about).
    pub fn has_buffered_bytes(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to parse one complete request off the front of the buffer.
    /// `Ok(None)` means more bytes are needed.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let Some(head_len) = find_head_end(&self.buf) else {
            // no blank line yet: bound how much head we are willing to buffer
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(ParseError::Malformed("header section too large".into()));
            }
            return Ok(None);
        };
        if head_len > MAX_HEADER_BYTES {
            return Err(ParseError::Malformed("header section too large".into()));
        }
        let head = self.buf.get(..head_len).unwrap_or_default();
        let (method, path, query, version_minor, headers) = parse_head(head)?;
        let content_length = content_length(&headers)?;
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::TooLarge(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )));
        }
        let total = head_len + content_length;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }
        let body = self.buf.get(head_len..total).unwrap_or_default().to_vec();
        self.buf.drain(..total);
        Ok(Some(Request {
            method,
            path,
            query,
            headers,
            body,
            version_minor,
        }))
    }
}

/// Index one past the blank line terminating the header section, if
/// complete. CRLF line endings are canonical but a bare `\n` is tolerated,
/// matching the historical byte-wise reader.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut line_start = 0usize;
    for (i, &byte) in buf.iter().enumerate() {
        if byte != b'\n' {
            continue;
        }
        let line_is_blank =
            i == line_start || (i == line_start + 1 && buf.get(line_start) == Some(&b'\r'));
        if line_is_blank && line_start > 0 {
            return Some(i + 1);
        }
        line_start = i + 1;
    }
    None
}

/// Parses the request line and headers out of a complete head.
#[allow(clippy::type_complexity)]
fn parse_head(
    head: &[u8],
) -> Result<(String, String, String, u8, Vec<(String, String)>), ParseError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| ParseError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version".into()));
    }
    let version_minor = if version == "HTTP/1.0" { 0 } else { 1 };
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((method, path, query, version_minor, headers))
}

/// Resolves `Content-Length` across *all* its occurrences. Disagreeing
/// duplicates are rejected: picking one by position lets a front proxy and
/// this server frame the stream differently, which is exactly the request-
/// smuggling setup pipelining makes exploitable. Identical duplicates are
/// tolerated per RFC 7230 §3.3.2.
fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut resolved: Option<usize> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let parsed = value
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed("invalid Content-Length".into()))?;
        match resolved {
            Some(previous) if previous != parsed => {
                return Err(ParseError::Malformed(
                    "conflicting duplicate Content-Length headers".into(),
                ));
            }
            _ => resolved = Some(parsed),
        }
    }
    Ok(resolved.unwrap_or(0))
}

/// Default wall-clock budget for receiving one request
/// (`ServeConfig::request_budget`). The clock starts at a request's first
/// byte, and the event loop's timeout sweep answers `408` once it runs out,
/// so a stalling WAN upload is not cut off by one short read but a
/// slowloris peer cannot hold a connection forever.
pub const MID_REQUEST_BUDGET: Duration = Duration::from_secs(30);

fn bad_request(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

/// An HTTP response ready to be written to a stream.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        let mut body = value.write().into_bytes();
        body.push(b'\n');
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A JSON error response with a standard `{"error": ...}` shape.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj(vec![("error", Json::Str(message.to_string()))]),
        )
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Serializes the response; `keep_alive` selects the `Connection`
    /// header. The event loop appends this to a connection's write buffer.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            connection,
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrases for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Client half: writes a request (JSON body optional) on an open stream.
pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> std::io::Result<()> {
    let body_bytes = body.map(|b| b.write().into_bytes()).unwrap_or_default();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: tsg-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body_bytes.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&body_bytes)?;
    stream.flush()
}

/// Client half: reads one response, returning `(status, body)`.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<u8>)> {
    let (status, _headers, body) = read_response_with_headers(reader)?;
    Ok((status, body))
}

/// A decoded response: status, lowercased `(name, value)` headers, body.
pub type FullResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Client half: reads one response including its headers — the regression
/// tests inspect the `Connection` header, which [`read_response`] discards.
pub fn read_response_with_headers(
    reader: &mut BufReader<TcpStream>,
) -> std::io::Result<FullResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad_request("malformed status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad_request("connection closed inside response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| bad_request("invalid Content-Length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

/// Client convenience: one request/response round-trip with a JSON reply.
pub fn roundtrip_json(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: Option<&Json>,
) -> std::io::Result<(u16, Json)> {
    send_request(stream, method, path, body)?;
    let (status, bytes) = read_response(reader)?;
    let text = String::from_utf8(bytes).map_err(|_| bad_request("response body is not UTF-8"))?;
    let json = Json::parse(text.trim())
        .map_err(|e| bad_request(&format!("response body is not JSON: {e}")))?;
    Ok((status, json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Parses a raw byte stream through the incremental parser in one shot.
    fn parse_bytes(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        let mut parser = RequestParser::new();
        parser.push(raw);
        parser.next_request()
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /models/m/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\r\n{\"series\": [[]]}";
        // note: Content-Length intentionally one short of the full body to
        // check exact-length reads; 15 bytes of the 16-byte body
        let mut parser = RequestParser::new();
        parser.push(raw);
        let r = parser.next_request().unwrap().unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/models/m/classify");
        assert_eq!(r.body.len(), 15);
        assert!(r.keep_alive());
        assert_eq!(
            parser.buf.len(),
            1,
            "the extra byte starts the next request"
        );
    }

    #[test]
    fn query_string_is_stripped_and_close_honoured() {
        let raw = b"GET /metrics?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let r = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(r.path, "/metrics");
        assert_eq!(r.query, "verbose=1");
        assert!(!r.keep_alive());
    }

    #[test]
    fn query_params_resolve_by_name() {
        let r = parse_bytes(b"GET /debug/traces?slow_ms=5&trace_id=a3&bare HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.path, "/debug/traces");
        assert_eq!(r.query_param("slow_ms"), Some("5"));
        assert_eq!(r.query_param("trace_id"), Some("a3"));
        assert_eq!(r.query_param("bare"), Some(""));
        assert_eq!(r.query_param("missing"), None);

        let none = parse_bytes(b"GET /debug/traces HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(none.query, "");
        assert_eq!(none.query_param("slow_ms"), None);
    }

    #[test]
    fn http10_defaults_to_close() {
        // regression: the version used to be parsed and discarded, so an
        // HTTP/1.0 client was promised keep-alive semantics it never asked
        // for and could wait forever on a connection the server held open
        let r = parse_bytes(b"GET /healthz HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.version_minor, 0);
        assert!(!r.keep_alive(), "HTTP/1.0 must default to close");

        // an explicit Connection: keep-alive still opts in
        let r = parse_bytes(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(r.keep_alive(), "explicit keep-alive must be honoured");

        // and HTTP/1.1 keeps its persistent default
        let r = parse_bytes(b"GET /healthz HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(r.version_minor, 1);
        assert!(r.keep_alive());
    }

    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        // regression: first-match resolution would frame the body as 4
        // bytes while a proxy picking the last header frames it as 16 —
        // the classic request-smuggling disagreement
        let raw =
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 16\r\n\r\nabcdabcdabcdabcd";
        match parse_bytes(raw) {
            Err(ParseError::Malformed(m)) => assert!(m.contains("Content-Length"), "{m}"),
            other => panic!("conflicting lengths accepted: {other:?}"),
        }
        // identical duplicates are tolerated (RFC 7230 §3.3.2)
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let r = parse_bytes(raw).unwrap().unwrap();
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn oversized_body_is_too_large_not_malformed() {
        // regression: the 413 reason phrase existed but no code path could
        // reach it — the parser folded "too big" into the generic 400
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse_bytes(raw.as_bytes()) {
            Err(e @ ParseError::TooLarge(_)) => assert_eq!(e.status(), 413),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // at the limit exactly the request head still parses fine (the body
        // just hasn't arrived yet)
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        assert!(matches!(parse_bytes(raw.as_bytes()), Ok(None)));
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut parser = RequestParser::new();
        parser.push(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        let a = parser.next_request().unwrap().unwrap();
        assert_eq!(
            (a.path.as_str(), a.body.as_slice()),
            ("/a", b"abc".as_slice())
        );
        let b = parser.next_request().unwrap().unwrap();
        assert_eq!(b.path, "/b");
        let c = parser.next_request().unwrap().unwrap();
        assert_eq!(c.path, "/c");
        assert!(parser.next_request().unwrap().is_none());
        assert!(!parser.has_buffered_bytes());
    }

    #[test]
    fn byte_at_a_time_feeding_parses_identically() {
        let raw = b"POST /models/m/classify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new();
        for (i, byte) in raw.iter().enumerate() {
            parser.push(std::slice::from_ref(byte));
            let parsed = parser.next_request().unwrap();
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "completed early at byte {i}");
            } else {
                let r = parsed.expect("complete at the last byte");
                assert_eq!(r.body, b"hello");
            }
        }
    }

    #[test]
    fn slow_sender_within_budget_is_not_cut_off() {
        // the body stalls across several event-loop ticks (and so several
        // timeout sweeps); the per-request budget must carry it through
        let server = crate::server::Server::bind(crate::server::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            n_threads: 1,
            request_budget: Duration::from_secs(5),
            ..Default::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle();
        let running = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nab")
            .unwrap();
        std::thread::sleep(Duration::from_millis(350));
        stream.write_all(b"cd").unwrap();
        let (status, _) = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(status, 200);
        shutdown.shutdown();
        running.join().unwrap().unwrap();
    }

    #[test]
    fn eof_before_request_is_closed() {
        // at EOF the event loop closes cleanly only when no request has
        // started; buffered bytes mean the peer hung up mid-request
        let mut parser = RequestParser::new();
        assert!(matches!(parser.next_request(), Ok(None)));
        assert!(!parser.has_buffered_bytes());
        parser.push(b"GET /healthz HTTP/1.1\r\n");
        assert!(matches!(parser.next_request(), Ok(None)));
        assert!(parser.has_buffered_bytes());
    }

    #[test]
    fn rejects_bad_version_and_bad_length() {
        for raw in [
            &b"GET / SPDY/3\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            match parse_bytes(raw) {
                Err(e @ ParseError::Malformed(_)) => assert_eq!(e.status(), 400),
                other => panic!("{:?} accepted: {other:?}", String::from_utf8_lossy(raw)),
            }
        }
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new();
            let mut chunk = [0u8; 256];
            let request = loop {
                if let Some(request) = parser.next_request().unwrap() {
                    break request;
                }
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up mid-request");
                parser.push(&chunk[..n]);
            };
            assert_eq!(
                request.json_body().unwrap().get("x").unwrap().as_f64(),
                Some(2.0)
            );
            let response = Response::json(200, &Json::obj(vec![("ok", Json::Bool(true))]));
            stream
                .write_all(&response.serialize(request.keep_alive()))
                .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, json) = roundtrip_json(
            &mut stream,
            &mut reader,
            "POST",
            "/echo",
            Some(&Json::obj(vec![("x", Json::Num(2.0))])),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        server.join().unwrap();
    }

    #[test]
    fn reason_phrases_cover_served_codes() {
        for code in [200, 400, 404, 405, 408, 409, 413, 429, 500, 501, 503] {
            assert_ne!(reason_phrase(code), "Unknown");
        }
        assert_eq!(reason_phrase(418), "Unknown");
    }
}
