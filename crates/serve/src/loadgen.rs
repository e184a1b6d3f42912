//! A small in-process HTTP load generator for the daemon.
//!
//! Drives `conns` concurrent keep-alive client connections, each
//! issuing `requests` sequential `GET` requests over one socket (if the
//! server closes it — budget, `connection: close` — the client
//! transparently reconnects), and reports per-request latency quantiles
//! plus aggregate throughput. The barometer's `serve/*` rows
//! (`fgbs bench --filter serve/`) measure the event loop with it, and
//! [`read_response`] is the client-side frame reader the serve tests
//! share.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub conns: usize,
    /// Sequential requests per connection.
    pub requests: usize,
    /// Request target, e.g. `/health` or `/predict?suite=nr&k=4`.
    pub target: String,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            conns: 64,
            requests: 64,
            target: "/health".to_string(),
        }
    }
}

/// Aggregate results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that completed with a full HTTP response.
    pub ok: u64,
    /// Requests that failed (connect, write, read, or parse).
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request latencies in nanoseconds, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl LoadReport {
    /// Latency quantile in nanoseconds (`q` in `[0, 1]`).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies_ns[idx]
    }

    /// Median request latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile request latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean request latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        self.latencies_ns.iter().map(|&n| n as f64).sum::<f64>() / self.latencies_ns.len() as f64
    }

    /// Completed requests per second over the run's wall clock.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / secs
    }
}

/// Run a load profile against `addr`. Client threads start together
/// (barrier) so concurrency is real, not ramped.
pub fn run(addr: SocketAddr, opts: &LoadOptions) -> LoadReport {
    let conns = opts.conns.max(1);
    let requests = opts.requests.max(1);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(conns * requests));
    let errors: Mutex<u64> = Mutex::new(0);
    let barrier = std::sync::Barrier::new(conns);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut local = Vec::with_capacity(requests);
                let mut failed = 0u64;
                barrier.wait();
                run_keep_alive(addr, &opts.target, requests, &mut local, &mut failed);
                latencies.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
                *errors.lock().unwrap_or_else(|e| e.into_inner()) += failed;
            });
        }
    });
    let elapsed = t0.elapsed();
    let mut latencies_ns = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    latencies_ns.sort_unstable();
    LoadReport {
        ok: latencies_ns.len() as u64,
        errors: errors.into_inner().unwrap_or_else(|e| e.into_inner()),
        elapsed,
        latencies_ns,
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn run_keep_alive(
    addr: SocketAddr,
    target: &str,
    requests: usize,
    latencies: &mut Vec<u64>,
    errors: &mut u64,
) {
    let mut conn: Option<(TcpStream, Vec<u8>)> = None;
    for _ in 0..requests {
        if conn.is_none() {
            match connect(addr) {
                Ok(s) => conn = Some((s, Vec::new())),
                Err(_) => {
                    *errors += 1;
                    continue;
                }
            }
        }
        let (stream, residue) = conn.as_mut().expect("connected above");
        let t0 = Instant::now();
        let sent = write!(stream, "GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n")
            .and_then(|()| stream.flush());
        if sent.is_err() {
            *errors += 1;
            conn = None;
            continue;
        }
        match read_response(stream, residue) {
            Ok(reply) => {
                latencies.push(t0.elapsed().as_nanos() as u64);
                if reply.close {
                    conn = None; // budget / server-initiated close: reconnect
                }
            }
            Err(_) => {
                *errors += 1;
                conn = None;
            }
        }
    }
}

/// One parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The response body (content-length framed).
    pub body: Vec<u8>,
    /// The server announced `connection: close`.
    pub close: bool,
    /// The `x-fgbs-request-id` header, when stamped.
    pub request_id: Option<u64>,
}

/// Read exactly one content-length-framed response from `stream`.
/// `residue` carries bytes past the previous frame (keep-alive reuse)
/// and is left holding anything past this one.
pub fn read_response(stream: &mut impl Read, residue: &mut Vec<u8>) -> io::Result<ClientResponse> {
    let mut buf = std::mem::take(residue);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut close = false;
    let mut request_id = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case("x-fgbs-request-id") {
                request_id = value.parse().ok();
            }
        }
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    *residue = buf.split_off(body_start + content_length);
    Ok(ClientResponse {
        status,
        body,
        close,
        request_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, Service};
    use fgbs_core::PipelineConfig;
    use fgbs_store::Store;
    use std::sync::Arc;

    #[test]
    fn loadgen_round_trips_over_keep_alive() {
        let dir = std::env::temp_dir().join(format!("fgbs-loadgen-{}", std::process::id()));
        let store = Arc::new(Store::open(&dir).unwrap());
        let service = Arc::new(Service::new(
            PipelineConfig::default().with_threads(1),
            store,
        ));
        let server = Server::start("127.0.0.1:0", 2, service).unwrap();
        let report = run(
            server.addr(),
            &LoadOptions {
                conns: 2,
                requests: 4,
                target: "/health".to_string(),
            },
        );
        assert_eq!(report.ok, 8, "{report:?}");
        assert_eq!(report.errors, 0);
        assert!(report.p50_ns() > 0 && report.p99_ns() >= report.p50_ns());
        assert!(report.throughput_rps() > 0.0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
