//! Keep-alive conformance for the event-driven serve loop, over real
//! TCP: pipelined requests answer in order with monotonically
//! increasing `x-fgbs-request-id` headers, `Connection: close` and the
//! per-connection request budget are honored, `/predict` bodies are
//! byte-identical whether the connection is reused or not, a client
//! that stops reading poisons (and loses) its connection without
//! wedging the server, and — extending the malformed-frame corpus — any
//! pair of *conflicting* `Content-Length` headers is rejected with a
//! 400 before the body is waited for.
//!
//! The server runs on the epoll reactor, so the suite is Linux-only.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fgbs_core::PipelineConfig;
use fgbs_serve::loadgen::{read_response, ClientResponse};
use fgbs_serve::{ServeOptions, Server, Service};
use fgbs_store::Store;
use proptest::prelude::*;

/// A started server plus its (temp) store directory, cleaned on drop.
struct Harness {
    server: Option<Server>,
    dir: PathBuf,
}

impl Harness {
    fn start(opts: ServeOptions, tag: &str) -> Harness {
        let dir = std::env::temp_dir().join(format!("fgbs-keepalive-{tag}-{}", std::process::id()));
        let store = Arc::new(Store::open(&dir).expect("open store"));
        // `fast()` keeps the one test that actually runs the pipeline
        // (`/predict` byte-identity) under a second.
        let service = Arc::new(Service::new(PipelineConfig::fast().with_threads(1), store));
        let server = Server::start_with("127.0.0.1:0", 2, service, opts).expect("start server");
        Harness {
            server: Some(server),
            dir,
        }
    }

    fn connect(&self) -> TcpStream {
        let stream =
            TcpStream::connect(self.server.as_ref().expect("running").addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .expect("write timeout");
        stream.set_nodelay(true).expect("nodelay");
        stream
    }

    /// Liveness probe on a fresh connection — the suite's "the server
    /// survived whatever that test did" assertion.
    fn assert_healthy(&self) {
        let mut stream = self.connect();
        write!(stream, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n").expect("send probe");
        let mut residue = Vec::new();
        let reply = read_response(&mut stream, &mut residue).expect("health reply");
        assert_eq!(reply.status, 200, "server wedged after the test");
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn pipeline(stream: &mut TcpStream, targets: &[&str]) {
    let mut burst = Vec::new();
    for target in targets {
        burst.extend_from_slice(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    }
    stream.write_all(&burst).expect("send pipelined burst");
    stream.flush().expect("flush burst");
}

#[test]
fn pipelined_requests_answer_in_order_with_increasing_ids() {
    let harness = Harness::start(ServeOptions::default(), "order");
    let mut stream = harness.connect();

    // A fixed status pattern: the only way the assertion below holds is
    // if responses come back in request order.
    let targets = [
        "/health", "/nope", "/health", "/health", "/nope", "/health", "/nope", "/health",
    ];
    let expected: Vec<u16> = targets
        .iter()
        .map(|t| if *t == "/health" { 200 } else { 404 })
        .collect();
    pipeline(&mut stream, &targets);

    let mut residue = Vec::new();
    let mut statuses = Vec::new();
    let mut ids = Vec::new();
    for i in 0..targets.len() {
        let reply = read_response(&mut stream, &mut residue)
            .unwrap_or_else(|e| panic!("response {i} of {}: {e}", targets.len()));
        statuses.push(reply.status);
        ids.push(reply.request_id.expect("service responses carry an id"));
        assert!(!reply.close, "keep-alive should survive response {i}");
    }
    assert_eq!(statuses, expected, "responses out of order");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "request ids must increase in request order: {ids:?}"
    );
    harness.assert_healthy();
}

#[test]
fn connection_close_header_is_honored() {
    let harness = Harness::start(ServeOptions::default(), "close");
    let mut stream = harness.connect();
    write!(
        stream,
        "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");

    let mut residue = Vec::new();
    let reply = read_response(&mut stream, &mut residue).expect("response");
    assert_eq!(reply.status, 200);
    assert!(reply.close, "server must announce connection: close");
    assert!(residue.is_empty(), "nothing may follow the final response");

    // …and actually hang up: the next read is a clean EOF.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "bytes after connection: close: {rest:?}");
    harness.assert_healthy();
}

#[test]
fn request_budget_closes_the_connection_after_the_last_response() {
    let opts = ServeOptions {
        max_requests_per_conn: 2,
        ..ServeOptions::default()
    };
    let harness = Harness::start(opts, "budget");
    let mut stream = harness.connect();
    pipeline(&mut stream, &["/health", "/health", "/health"]);

    let mut residue = Vec::new();
    let first = read_response(&mut stream, &mut residue).expect("first response");
    assert_eq!(first.status, 200);
    assert!(!first.close, "budget of 2 leaves room for one more");
    let second = read_response(&mut stream, &mut residue).expect("second response");
    assert_eq!(second.status, 200);
    assert!(second.close, "budget exhausted: close with the response");

    // The third pipelined request is never answered.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "no response past the budget: {rest:?}");
    harness.assert_healthy();
}

#[test]
fn predict_bodies_are_byte_identical_across_connection_reuse() {
    let harness = Harness::start(ServeOptions::default(), "predict");
    let target = "/predict?suite=nr&class=test&k=3&target=atom";

    // Reference: the one-request-per-connection gait.
    let one_shot = || -> ClientResponse {
        let mut stream = harness.connect();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send one-shot");
        let mut residue = Vec::new();
        read_response(&mut stream, &mut residue).expect("one-shot response")
    };
    let reference = one_shot();
    assert_eq!(reference.status, 200, "{}", String::from_utf8_lossy(&reference.body));

    // Same target twice, pipelined on one keep-alive connection.
    let mut stream = harness.connect();
    pipeline(&mut stream, &[target, target]);
    let mut residue = Vec::new();
    for i in 0..2 {
        let reply = read_response(&mut stream, &mut residue)
            .unwrap_or_else(|e| panic!("pipelined response {i}: {e}"));
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.body, reference.body,
            "keep-alive response {i} diverged from the one-shot body"
        );
    }

    // And the reference path is stable with itself.
    assert_eq!(one_shot().body, reference.body);
    harness.assert_healthy();
}

/// The event loop answers stored responses and `/health` itself while
/// the executor computes the rest; on one connection the replies still
/// come back in request order.
#[test]
fn loop_and_executor_answers_stay_in_order_on_one_connection() {
    let harness = Harness::start(ServeOptions::default(), "mixed");
    let stored = "/predict?suite=nr&class=test&k=3&target=atom";
    let mut stream = harness.connect();
    pipeline(&mut stream, &[stored]);
    let mut residue = Vec::new();
    let first = read_response(&mut stream, &mut residue).expect("first computation");
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );

    let targets = [
        stored,
        "/predict?suite=nr&class=test&k=4&target=atom",
        "/health",
        "/nope",
        stored,
    ];
    pipeline(&mut stream, &targets);
    let mut replies = Vec::new();
    for i in 0..targets.len() {
        let reply = read_response(&mut stream, &mut residue)
            .unwrap_or_else(|e| panic!("response {i} of {}: {e}", targets.len()));
        assert!(!reply.close, "keep-alive should survive response {i}");
        replies.push(reply);
    }
    let statuses: Vec<u16> = replies.iter().map(|r| r.status).collect();
    assert_eq!(
        statuses,
        [200, 200, 200, 404, 200],
        "responses out of order"
    );
    let ids: Vec<u64> = replies
        .iter()
        .map(|r| r.request_id.expect("service responses carry an id"))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "request ids must increase in request order: {ids:?}"
    );
    for i in [0, 4] {
        assert_eq!(
            replies[i].body, first.body,
            "stored reply {i} diverged from the first computation"
        );
    }
    assert_ne!(replies[1].body, first.body, "k=4 is its own computation");
    harness.assert_healthy();
}

#[test]
fn client_that_stops_reading_is_poisoned_not_waited_on() {
    // Tiny server-side send buffer + short write deadline: the response
    // stream backs up within a handful of frames and the write deadline
    // fires deterministically instead of after megabytes of kernel
    // buffering.
    let opts = ServeOptions {
        write_timeout: Duration::from_millis(250),
        sndbuf: Some(4096),
        max_requests_per_conn: 1_000_000,
        ..ServeOptions::default()
    };
    let harness = Harness::start(opts, "stall");
    let mut stream = harness.connect();
    // Shrink the client's receive window too, so in-flight capacity is
    // bounded by kilobytes on both sides.
    fgbs_reactor::set_recv_buffer(stream.as_raw_fd(), 4096).expect("shrink client rcvbuf");

    // Far more pipelined requests than the two buffers can hold
    // responses for — then stop reading.
    const REQUESTS: usize = 4000;
    let mut burst = Vec::with_capacity(REQUESTS * 40);
    for _ in 0..REQUESTS {
        burst.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .expect("client write timeout");
    // A short write is fine: more than enough requests are in flight.
    let _ = stream.write_all(&burst);
    let _ = stream.shutdown(Shutdown::Write);

    // Stall well past the server's write deadline.
    std::thread::sleep(Duration::from_millis(1000));

    // Drain whatever made it out. The server must have given up: we
    // see far fewer responses than requests, then an EOF or reset —
    // never a 4000-response backlog trickling through a poisoned pipe.
    let t0 = Instant::now();
    let mut residue = Vec::new();
    let mut served = 0usize;
    let ended_with_error = loop {
        match read_response(&mut stream, &mut residue) {
            Ok(reply) => {
                assert_eq!(reply.status, 200);
                served += 1;
                if served == REQUESTS {
                    break false;
                }
            }
            Err(_) => break true,
        }
    };
    assert!(ended_with_error, "poisoned connection must terminate early");
    assert!(
        served < REQUESTS,
        "server should abandon the stalled reader, yet served all {served}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "draining a dead connection took {:?}",
        t0.elapsed()
    );
    harness.assert_healthy();
}

// The malformed-frame corpus, extended for request smuggling: any two
// *different* `Content-Length` values in one head must die as a 400
// before the server waits for a body (RFC 9112 §6.3); identical
// repeats stay legal.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conflicting_content_lengths_get_400_on_the_wire(a in 0usize..512, b in 0usize..512) {
        let harness = Harness::start(ServeOptions::default(), "dup-cl");
        let mut stream = harness.connect();
        // No body bytes follow: a conflicting head must fail eagerly,
        // an agreeing one waits for (and here: gets) its payload.
        let head =
            format!("POST /nope HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\n");
        stream.write_all(head.as_bytes()).expect("send head");
        if a == b {
            stream.write_all(&vec![b'x'; a]).expect("send body");
        }
        let mut residue = Vec::new();
        let reply = read_response(&mut stream, &mut residue).expect("response");
        if a == b {
            // Identical repeats parse; the request then 404s normally.
            prop_assert_eq!(reply.status, 404);
        } else {
            prop_assert_eq!(reply.status, 400);
            let body = String::from_utf8_lossy(&reply.body).into_owned();
            prop_assert!(body.contains("conflicting content-length"), "{}", body);
            prop_assert!(reply.close, "a smuggling attempt must not be kept alive");
        }
        harness.assert_healthy();
    }
}
