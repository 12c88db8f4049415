//! Structured, leveled, JSON-lines logging for the serving stack.
//!
//! One log record is one JSON object on one stderr line:
//!
//! ```json
//! {"ts_micros":1754550000123456,"level":"warn","target":"registry",
//!  "msg":"skipping snapshot /tmp/x.snap: bad hash","trace_id":"00000000000000a3"}
//! ```
//!
//! The level filter comes from `TSG_LOG` (`off`, `error`, `warn`, `info`,
//! `debug`, `trace`; default `info`), read once by [`init_from_env`] at
//! process start — the one sanctioned env read, registered with the
//! analyzer's `env-discipline` entry points. Records carry the request's
//! trace ID when one is in scope, so a log line and its `/debug/traces`
//! entry join on the same key.
//!
//! Plain functions, not macros: the call sites are few and the workspace
//! style prefers visible control flow over macro indirection. Formatting
//! cost is only paid for records that pass the level filter.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    /// The lowercase name used on the wire and in `TSG_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Maximum level that gets emitted; `0` silences everything (`off`).
/// Defaults to `info` so operational warnings are visible out of the box.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

fn parse_spec(spec: &str) -> Option<u8> {
    match spec.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Some(0),
        "error" => Some(Level::Error as u8),
        "warn" | "warning" => Some(Level::Warn as u8),
        "info" => Some(Level::Info as u8),
        "debug" => Some(Level::Debug as u8),
        "trace" => Some(Level::Trace as u8),
        _ => None,
    }
}

/// Reads `TSG_LOG` and installs the level filter. Call once at process
/// start (the binaries do); an unknown value keeps the default and says
/// so at `warn` — a misspelled filter must not silently mute the logs.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("TSG_LOG") {
        match parse_spec(&spec) {
            Some(max) => MAX_LEVEL.store(max, Ordering::Relaxed),
            None => warn(
                "log",
                &format!("unknown TSG_LOG level `{spec}` (want off|error|warn|info|debug|trace)"),
                None,
                &[],
            ),
        }
    }
}

/// True when a record at `level` would be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders one record as a JSON line (without emitting it) — separated
/// from [`log`] so the format is unit-testable without capturing stderr.
fn render_line(
    ts_micros: u64,
    level: Level,
    target: &str,
    msg: &str,
    trace_id: Option<u64>,
    fields: &[(&str, &str)],
) -> String {
    let mut line = String::with_capacity(96 + msg.len());
    line.push_str("{\"ts_micros\":");
    line.push_str(&ts_micros.to_string());
    line.push_str(",\"level\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"target\":\"");
    escape_into(&mut line, target);
    line.push_str("\",\"msg\":\"");
    escape_into(&mut line, msg);
    line.push('"');
    if let Some(id) = trace_id {
        line.push_str(&format!(",\"trace_id\":\"{id:016x}\""));
    }
    for (key, value) in fields {
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":\"");
        escape_into(&mut line, value);
        line.push('"');
    }
    line.push_str("}\n");
    line
}

/// Emits one structured record to stderr if `level` passes the filter.
/// `fields` are extra string key/value pairs appended to the object.
pub fn log(level: Level, target: &str, msg: &str, trace_id: Option<u64>, fields: &[(&str, &str)]) {
    if !enabled(level) {
        return;
    }
    let ts_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let line = render_line(ts_micros, level, target, msg, trace_id, fields);
    // one write_all per record: lines from concurrent threads interleave
    // whole, never torn mid-object
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, trace_id: Option<u64>, fields: &[(&str, &str)]) {
    log(Level::Error, target, msg, trace_id, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, trace_id: Option<u64>, fields: &[(&str, &str)]) {
    log(Level::Warn, target, msg, trace_id, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, trace_id: Option<u64>, fields: &[(&str, &str)]) {
    log(Level::Info, target, msg, trace_id, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, trace_id: Option<u64>, fields: &[(&str, &str)]) {
    log(Level::Debug, target, msg, trace_id, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_specs_parse_case_insensitively() {
        assert_eq!(parse_spec("off"), Some(0));
        assert_eq!(parse_spec("ERROR"), Some(1));
        assert_eq!(parse_spec(" Warn "), Some(2));
        assert_eq!(parse_spec("info"), Some(3));
        assert_eq!(parse_spec("debug"), Some(4));
        assert_eq!(parse_spec("trace"), Some(5));
        assert_eq!(parse_spec("verbose"), None);
    }

    #[test]
    fn records_render_as_single_json_lines() {
        let line = render_line(
            123,
            Level::Warn,
            "registry",
            "skipping snapshot",
            Some(0xa3),
            &[("path", "/tmp/x.snap")],
        );
        assert_eq!(
            line,
            "{\"ts_micros\":123,\"level\":\"warn\",\"target\":\"registry\",\
             \"msg\":\"skipping snapshot\",\"trace_id\":\"00000000000000a3\",\
             \"path\":\"/tmp/x.snap\"}\n"
        );
    }

    #[test]
    fn messages_are_json_escaped() {
        let line = render_line(0, Level::Info, "t", "a \"quoted\"\npath\\x\u{1}", None, &[]);
        assert!(line.contains("a \\\"quoted\\\"\\npath\\\\x\\u0001"));
        // exactly one line, ending in a newline
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.ends_with("}\n"));
    }

    #[test]
    fn the_filter_gates_by_severity() {
        MAX_LEVEL.store(Level::Warn as u8, Ordering::Relaxed);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        MAX_LEVEL.store(0, Ordering::Relaxed);
        assert!(!enabled(Level::Error));
        MAX_LEVEL.store(Level::Info as u8, Ordering::Relaxed);
    }
}
