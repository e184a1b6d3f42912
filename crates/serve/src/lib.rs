//! fgbs-serve — a concurrent system-selection service over the fgbs
//! pipeline.
//!
//! The daemon speaks minimal HTTP/1.1 + JSON over
//! [`std::net::TcpListener`], driven by a readiness-driven event loop
//! (`fgbs-reactor` over epoll, so the server runs on Linux only) with
//! per-connection state machines: HTTP/1.1 keep-alive and pipelining,
//! per-connection request budgets and admission-controlled load
//! shedding. The loop itself answers what needs no computation (a
//! stored response, `/health`; [`Service::answer_stored`]); every other
//! admitted request is one job on a [`fgbs_pool::Executor`]. Endpoints:
//!
//! | endpoint         | purpose                                        |
//! |------------------|------------------------------------------------|
//! | `GET /predict`   | cross-architecture prediction for a suite/target (`suite`, `class`, `target`, `k`) |
//! | `GET /sweep`     | benchmark-reduction quality across `k` (`kmin`, `kmax`) |
//! | `POST /reduce`   | subset a suite into representatives (`suite`, `class`, `k`) |
//! | `POST /snippets` | ingest a portable snippet pack                 |
//! | `GET /snippets`  | list published snippet packs                   |
//! | `GET /artifacts` | list persisted store artifacts                  |
//! | `GET /metrics`   | counts, store hit/miss, latency quantiles (JSON; `?format=prom` for Prometheus text) |
//! | `GET /trace`     | Chrome-trace export of recent spans            |
//! | `GET /health`    | liveness probe                                 |
//!
//! Every cacheable handler consults the [`fgbs_store::Store`] first and
//! replays byte-identical bodies on a hit; concurrent identical misses
//! collapse into one computation via single-flight. See
//! [`Service`] for the full request lifecycle.
//!
//! Every request gets a monotonically increasing **request id**,
//! installed by [`Service::answer_stored`] or [`Service::handle`] as
//! the thread's ambient trace context (the only way it travels:
//! pipeline stages read it there and the work pool re-enters it on its
//! workers) and echoed as an `x-fgbs-request-id` response header; a
//! request the loop looked up and the executor answered is stamped with
//! the executor's id. Spans, counters and flight-recorder events carry
//! it, so one failing request can be picked out of `/trace` or a
//! diagnostic dump ([`install_diagnostic_sink`], `fgbs flightrec show`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

mod conn;
#[cfg(target_os = "linux")]
mod event;
mod http;
pub mod loadgen;
mod metrics;
mod service;

pub use fgbs_trace::Json;
pub use http::{parse_query, try_parse, Parsed, Request, RequestError, Response, DEFAULT_MAX_BODY};
pub use metrics::{Metrics, N_BUCKETS, SERIES};
pub use service::{install_diagnostic_sink, Service};

/// Tunable per-connection behaviour: deadlines, request-size limits and
/// keep-alive budget. [`Server::start`] uses [`ServeOptions::default`];
/// tests and hardened deployments pass their own via
/// [`Server::start_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// How long a connection may take to deliver a request before the
    /// server answers `408` (an idle keep-alive connection is closed
    /// silently instead).
    pub read_timeout: Duration,
    /// How long a response write may stall before the server poisons
    /// and drops the connection (a client that stops reading cannot
    /// pin server state forever).
    pub write_timeout: Duration,
    /// Largest accepted request body; larger declared bodies get `413`.
    pub max_body: usize,
    /// How many requests one keep-alive connection may carry before the
    /// server closes it (`connection: close` on the last response); a
    /// rebalancing guard against permanently-pinned connections.
    pub max_requests_per_conn: u32,
    /// Shrink accepted sockets' kernel send buffer (`SO_SNDBUF`) to
    /// this many bytes. An ops/test knob: the stalled-reader suite uses
    /// it to hit [`ServeOptions::write_timeout`] deterministically.
    pub sndbuf: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: DEFAULT_MAX_BODY,
            max_requests_per_conn: 256,
            sndbuf: None,
        }
    }
}

/// A running server: a bound listener, a reactor thread, and a worker
/// pool draining requests. Dropping the server shuts it down and joins
/// every thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The event loop's wake fd: the explicit shutdown signal.
    wake: fgbs_reactor::Waker,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:8422`; port 0 picks a free port) and
    /// serve `service` on `threads` request workers (0 = one per core)
    /// with default timeouts and limits.
    pub fn start(addr: &str, threads: usize, service: Arc<Service>) -> io::Result<Server> {
        Server::start_with(addr, threads, service, ServeOptions::default())
    }

    /// [`Server::start`] with explicit timeouts, limits and budget.
    #[cfg(target_os = "linux")]
    pub fn start_with(
        addr: &str,
        threads: usize,
        service: Arc<Service>,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        let listener = std::net::TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = event::spawn(listener, threads, service, opts, Arc::clone(&shutdown))?;
        Ok(Server {
            addr,
            shutdown,
            wake: handle.waker,
            reactor: Some(handle.thread),
        })
    }

    /// The reactor only polls on Linux; elsewhere serving fails with
    /// its `ErrorKind::Unsupported` error.
    #[cfg(not(target_os = "linux"))]
    pub fn start_with(
        _addr: &str,
        _threads: usize,
        _service: Arc<Service>,
        _opts: ServeOptions,
    ) -> io::Result<Server> {
        fgbs_reactor::Poller::new().map(|_| unreachable!("the reactor polls only on Linux"))
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(handle) = self.reactor.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // The event loop blocks in `wait()` until its wake fd fires.
        let _ = self.wake.wake();
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_core::PipelineConfig;
    use fgbs_store::Store;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn test_service(dir: &std::path::Path) -> Arc<Service> {
        let store = Arc::new(Store::open(dir).unwrap());
        // Single-threaded pipeline: request-level concurrency comes from
        // the connection workers.
        Arc::new(Service::new(
            PipelineConfig::default().with_threads(1),
            store,
        ))
    }

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        // `read_to_string` needs the server to close the connection, so
        // opt out of keep-alive explicitly.
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_health_and_404_over_tcp() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-{}", std::process::id()));
        let service = test_service(&dir);
        let server = Server::start("127.0.0.1:0", 2, service).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, r#"{"ok":true}"#);

        let (head, body) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(body.contains("no such endpoint"));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_clients_time_out_without_wedging_the_worker() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-stall-{}", std::process::id()));
        let service = test_service(&dir);
        let opts = ServeOptions {
            read_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        };
        // One worker: a wedged connection would starve every later
        // request, so the health check below doubles as the liveness
        // assertion.
        let server = Server::start_with("127.0.0.1:0", 1, service, opts).unwrap();
        let addr = server.addr();

        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /health HT").unwrap();

        let t0 = std::time::Instant::now();
        let (head, _) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker stayed wedged for {:?}",
            t0.elapsed()
        );

        // The stalled client is told why before the connection closes.
        let mut raw = String::new();
        let _ = stalled.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_bodies_get_413_over_tcp() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-413-{}", std::process::id()));
        let service = test_service(&dir);
        let opts = ServeOptions {
            max_body: 64,
            ..ServeOptions::default()
        };
        let server = Server::start_with("127.0.0.1:0", 1, service, opts).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // The declared length alone trips the limit — no body bytes sent.
        stream
            .write_all(b"POST /reduce HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        assert!(raw.contains("4096 bytes exceeds the 64-byte limit"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_only_doomed_deadline_requests() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-adm-{}", std::process::id()));
        let service = test_service(&dir);
        let req = |target: &str| {
            let (path, qs) = target.split_once('?').unwrap_or((target, ""));
            Request {
                method: "GET".to_string(),
                path: path.to_string(),
                query: parse_query(qs),
                body: Vec::new(),
            }
        };

        // No deadline, or no queue, or no latency history: never shed.
        assert!(service.admission_check(&req("/predict?suite=nr"), 9).is_none());
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 0)
            .is_none());
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 9)
            .is_none());

        // With history: 10 queued × ~5ms each cannot meet a 1ms budget…
        service.metrics().record("predict", 5_000);
        let shed = service
            .admission_check(&req("/predict?suite=nr&deadline_ms=1"), 10)
            .expect("predicted delay exceeds the deadline");
        assert_eq!(shed.status, 503);
        let body = String::from_utf8(shed.body.clone()).unwrap();
        assert!(body.contains(r#""stage":"admission""#), "{body}");
        assert_eq!(service.shed(), 1);

        // …but a roomy deadline sails through, as do endpoints outside
        // the admission contract even when doomed.
        assert!(service
            .admission_check(&req("/predict?suite=nr&deadline_ms=60000"), 10)
            .is_none());
        assert!(service
            .admission_check(&req("/health?deadline_ms=1"), 10)
            .is_none());
        assert_eq!(service.shed(), 1, "only the doomed /predict shed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_requests_get_400() {
        let dir = std::env::temp_dir().join(format!("fgbs-serve-bad-{}", std::process::id()));
        let service = test_service(&dir);
        let server = Server::start("127.0.0.1:0", 1, service).unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
