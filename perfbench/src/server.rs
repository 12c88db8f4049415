//! The `tsg-serve` process under test, a minimal HTTP/1.1 client, and the
//! `/proc` readers for CPU time and peak memory.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `tsg-serve`. Dropping it stops the process and waits for it.
pub struct ServerProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts the server with nothing but an ephemeral address and one pool
    /// worker, and waits for its `listening on` line.
    pub fn start(bin: &Path) -> io::Result<ServerProcess> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("server stdout is not piped"));
        };
        let mut server = ServerProcess {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad listen address `{addr}`")))?;
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds of the whole server process so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        cpu_seconds(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// `POST /shutdown`, then waits up to 10 s for a clean exit before
    /// killing the process.
    pub fn shutdown(mut self) -> io::Result<()> {
        let outcome = post(self.addr, "/shutdown", "{}").map(|_| ());
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                self.child.kill()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // drain what the server printed on its way out
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        outcome
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A keep-alive client connection: a write half and a buffered read half.
pub struct Connection {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads its response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader)
    }
}

/// `POST path` with a JSON body on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    Connection::open(addr)?.roundtrip(&crate::workload::post_bytes(path, body))
}

/// Reads one `Content-Length`-framed response: status and body.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line `{}`", line.trim())))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a response head",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad Content-Length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| io::Error::other("response body is not UTF-8"))
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User + system CPU seconds from a `/proc/<pid>/stat` file (all threads,
/// including exited ones).
pub fn cpu_seconds(stat_path: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(stat_path)?;
    // the command name may hold spaces; fields resume after its `)`
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // after `)`: state is field 3, utime field 14, stime field 15
    let field = |n: usize| -> io::Result<f64> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other(format!("no field {n} in {stat_path}")))
    };
    // SAFETY: sysconf only reads a process-wide constant; no pointers.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    let ticks = if ticks > 0 { ticks as f64 } else { 100.0 };
    Ok((field(14)? + field(15)?) / ticks)
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(status_path)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_counters_are_readable() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(cpu_seconds("/proc/self/stat").unwrap() >= 0.0);
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.0);
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(
            read_response(&mut reader).unwrap(),
            (200, "{\"a\":1}".into())
        );
        assert_eq!(read_response(&mut reader).unwrap(), (429, "{}".into()));
        assert!(read_response(&mut reader).is_err());
    }
}
