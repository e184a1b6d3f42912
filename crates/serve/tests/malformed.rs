//! Fuzzing the daemon's front door: arbitrary bytes, hostile headers
//! and garbage query strings must never take a worker down or wedge the
//! event loop. Every case talks to one shared server over real TCP and
//! finishes by proving `/health` still answers — the liveness assertion
//! the whole suite exists for.
//!
//! The companion property at the bottom fuzzes the store's byte codec
//! (`ByteReader`) directly: decoding attacker-controlled frames returns
//! typed errors, never panics.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fgbs_core::PipelineConfig;
use fgbs_serve::{ServeOptions, Server, Service};
use fgbs_store::{ByteReader, Store};
use proptest::prelude::*;

struct Shared {
    // Kept alive (never dropped) for the whole test binary.
    _server: Server,
    addr: SocketAddr,
}

/// One server for every proptest case: short read timeout so cases that
/// send an incomplete head resolve in milliseconds (as a 408), not after
/// the production 10s default.
fn server_addr() -> SocketAddr {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let dir = std::env::temp_dir().join(format!("fgbs-malformed-{}", std::process::id()));
            let store = Arc::new(Store::open(&dir).expect("open store"));
            let service = Arc::new(Service::new(
                PipelineConfig::default().with_threads(1),
                store,
            ));
            let opts = ServeOptions {
                read_timeout: Duration::from_millis(50),
                write_timeout: Duration::from_millis(500),
                max_body: 4096,
                ..ServeOptions::default()
            };
            let server = Server::start_with("127.0.0.1:0", 2, service, opts).expect("start server");
            let addr = server.addr();
            Shared {
                _server: server,
                addr,
            }
        })
        .addr
}

/// Send raw bytes, half-close, and collect whatever the server answers
/// before it closes the connection.
fn poke(bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    raw
}

/// Printable-ASCII strings (the vendored proptest has no regex
/// strategies, so strings are built from byte vectors).
fn ascii(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127u8, 0..max_len)
        .prop_map(|b| b.into_iter().map(|c| c as char).collect())
}

/// Non-empty alphabetic strings (HTTP-method-shaped garbage).
fn alpha(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..52u8, 1..max_len).prop_map(|b| {
        b.into_iter()
            .map(|i| (if i < 26 { b'a' + i } else { b'A' + i - 26 }) as char)
            .collect()
    })
}

/// Any reply must be HTTP, and the daemon must still be serving.
fn assert_alive_and_sane(resp: &str) {
    if !resp.is_empty() {
        assert!(resp.starts_with("HTTP/1.1 "), "non-HTTP reply: {resp:?}");
    }
    let health = poke(b"GET /health HTTP/1.1\r\nHost: f\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "daemon wedged: {health:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_bytes_never_kill_the_daemon(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let resp = poke(&bytes);
        assert_alive_and_sane(&resp);
    }

    #[test]
    fn hostile_headers_get_an_error_not_a_hang(
        method in alpha(8),
        path in ascii(40),
        clen in prop_oneof![
            Just("abc".to_string()),
            Just("-1".to_string()),
            Just("999999999999999999999999".to_string()),
            (0u64..10_000).prop_map(|n| n.to_string()),
        ],
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut req =
            format!("{method} /{path} HTTP/1.1\r\ncontent-length: {clen}\r\n\r\n").into_bytes();
        req.extend_from_slice(&body);
        let resp = poke(&req);
        assert_alive_and_sane(&resp);
    }

    #[test]
    fn hostile_query_strings_are_parsed_not_trusted(q in ascii(60)) {
        // `suite=zz` fails parameter validation, so the endpoint answers
        // 400 after decoding the hostile tail — no pipeline work, but the
        // full query-decode path runs on attacker bytes.
        let req = format!("GET /predict?suite=zz&{q} HTTP/1.1\r\nHost: f\r\n\r\n");
        let resp = poke(req.as_bytes());
        prop_assert!(resp.starts_with("HTTP/1.1 4"), "unexpected reply: {resp:?}");

        let req = format!("GET /artifacts?{q} HTTP/1.1\r\nHost: f\r\n\r\n");
        let resp = poke(req.as_bytes());
        prop_assert!(resp.starts_with("HTTP/1.1 200"), "unexpected reply: {resp:?}");
    }

    #[test]
    fn byte_reader_survives_arbitrary_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Walk every decoder over the same hostile buffer; all outcomes
        // must be `Ok`/`Err`, never a panic or an out-of-bounds read.
        let mut r = ByteReader::new(&bytes);
        let _ = r.get_u8();
        let _ = r.get_bool();
        let _ = r.get_u32();
        let _ = r.get_u64();
        let _ = r.get_f64();
        let _ = r.get_str();
        let _ = r.get_opt_f64();
        let _ = r.get_opt_usize();
        let _ = r.get_f64_vec();
        let _ = r.get_usize_vec();
        let _ = r.finish();
    }
}
