//! Integration tests for the observability layer: request-id
//! propagation, the flight recorder's failure dumps, and the
//! quantile-metrics endpoints.
//!
//! The flight recorder's sink and arming flag are process-global, so
//! the tests that touch them serialize on one lock (each integration
//! test file is its own process — the chaos byte-identity suite is
//! unaffected).

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use fgbs::core::PipelineConfig;
use fgbs::serve::{install_diagnostic_sink, Request, Service};
use fgbs::store::{ArtifactKind, Store};
use fgbs::trace::Json;

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Exclusive access to the recorder's global sink/arming state, reset
/// to a known posture.
fn recorder_exclusive() -> MutexGuard<'static, ()> {
    let g = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    fgbs::trace::flightrec::clear_sink();
    fgbs::trace::flightrec::arm(true);
    g
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbs-obs-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn predict_request(extra: &[(&str, &str)]) -> Request {
    let mut query = vec![
        ("suite".to_string(), "nr".to_string()),
        ("class".to_string(), "test".to_string()),
        ("target".to_string(), "atom".to_string()),
        ("k".to_string(), "3".to_string()),
    ];
    for (k, v) in extra {
        query.push((k.to_string(), v.to_string()));
    }
    Request {
        method: "GET".to_string(),
        path: "/predict".to_string(),
        query,
        body: Vec::new(),
    }
}

/// Every response is stamped with a fresh monotonic request id, and the
/// id rides the wire as an `x-fgbs-request-id` header.
#[test]
fn responses_carry_monotonic_request_ids() {
    let dir = scratch("reqid");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(PipelineConfig::default().with_threads(1), store);

    let health = Request {
        method: "GET".to_string(),
        path: "/health".to_string(),
        query: Vec::new(),
        body: Vec::new(),
    };
    let first = service.handle(&health);
    let second = service.handle(&health);
    assert!(first.request_id > 0, "every request gets an id");
    assert!(
        second.request_id > first.request_id,
        "ids are monotonic: {} then {}",
        first.request_id,
        second.request_id
    );

    let wire = first.render(false);
    let head = String::from_utf8_lossy(&wire);
    assert!(
        head.contains(&format!("x-fgbs-request-id: {}\r\n", first.request_id)),
        "header carries the id: {head}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A deadline-forced 503 triggers the flight recorder: the daemon sink
/// persists a `diagnostic` artifact whose dump is correlated to the
/// failing request id, retrievable from the store after the fact.
#[test]
fn forced_503_dumps_a_diagnostic_correlated_by_request_id() {
    let _g = recorder_exclusive();
    let dir = scratch("dump");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(
        PipelineConfig::default().with_threads(1),
        Arc::clone(&store),
    );
    install_diagnostic_sink(Arc::clone(&store));

    let resp = service.handle(&predict_request(&[("deadline_ms", "0")]));
    fgbs::trace::flightrec::clear_sink();
    assert_eq!(resp.status, 503, "an already-expired deadline must 503");
    assert!(resp.request_id > 0);

    // The error body names the failing request.
    let body = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("503 body is JSON");
    assert_eq!(
        body.get("request").and_then(Json::as_u64),
        Some(resp.request_id),
        "error body carries the request id"
    );

    // Exactly one diagnostic artifact, keyed by the request id.
    let dumps: Vec<_> = store
        .list()
        .into_iter()
        .filter(|m| m.kind == ArtifactKind::Diagnostic)
        .collect();
    assert_eq!(dumps.len(), 1, "one failure, one dump");
    assert!(
        dumps[0].key.starts_with(&format!("req{}-deadline-", resp.request_id)),
        "dump key `{}` names request {}",
        dumps[0].key,
        resp.request_id
    );

    // The dump parses, is attributed to the request, and its window
    // holds events recorded under that request.
    let raw = store
        .get(ArtifactKind::Diagnostic, &dumps[0].key)
        .unwrap()
        .expect("dump readable");
    let dump = Json::parse(&String::from_utf8_lossy(&raw)).expect("dump is JSON");
    assert_eq!(dump.get("reason").and_then(Json::as_str), Some("deadline"));
    assert_eq!(
        dump.get("request").and_then(Json::as_u64),
        Some(resp.request_id)
    );
    let events = dump.get("events").and_then(Json::as_arr).expect("events");
    assert!(
        events
            .iter()
            .any(|e| e.get("req").and_then(Json::as_u64) == Some(resp.request_id)),
        "window holds the failing request's events"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Without a sink installed (the embedded default), the same failure
/// leaves no diagnostic artifacts behind.
#[test]
fn without_a_sink_failures_write_no_diagnostics() {
    let _g = recorder_exclusive();
    let dir = scratch("nosink");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(
        PipelineConfig::default().with_threads(1),
        Arc::clone(&store),
    );

    let resp = service.handle(&predict_request(&[("deadline_ms", "0")]));
    assert_eq!(resp.status, 503);
    assert!(
        store
            .list()
            .iter()
            .all(|m| m.kind != ArtifactKind::Diagnostic),
        "no sink, no dump side effects"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `/metrics` answers JSON by default and Prometheus text exposition
/// with `?format=prom`, both carrying the same quantile series.
#[test]
fn metrics_serves_json_and_prometheus_expositions() {
    let dir = scratch("prom");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(PipelineConfig::default().with_threads(1), store);

    // Prime one series so quantiles are non-trivial.
    let health = Request {
        method: "GET".to_string(),
        path: "/health".to_string(),
        query: Vec::new(),
        body: Vec::new(),
    };
    for _ in 0..5 {
        service.handle(&health);
    }

    let json_resp = service.handle(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        query: Vec::new(),
        body: Vec::new(),
    });
    assert_eq!(json_resp.status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&json_resp.body)).expect("metrics JSON");
    let health_series = doc
        .get("requests")
        .and_then(|e| e.get("health"))
        .expect("health series present");
    for key in ["count", "total_micros", "last_micros", "p50", "p95", "p99"] {
        assert!(
            health_series.get(key).is_some(),
            "JSON series carries `{key}`"
        );
    }

    let prom = service.handle(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        query: vec![("format".to_string(), "prom".to_string())],
        body: Vec::new(),
    });
    assert_eq!(prom.status, 200);
    let text = String::from_utf8_lossy(&prom.body);
    assert!(
        text.contains("# TYPE fgbs_request_duration_microseconds summary"),
        "summary family declared: {text}"
    );
    assert!(
        text.contains("fgbs_request_duration_microseconds{series=\"health\",quantile=\"0.5\"}"),
        "health quantiles exported"
    );
    assert!(text.contains("fgbs_in_flight_requests"), "gauge exported");
    // Every sample line is `name{labels} value`.
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(name.starts_with("fgbs_"), "{line}");
        assert!(value.parse::<f64>().is_ok(), "{line}");
    }

    let wire = prom.render(false);
    let head = String::from_utf8_lossy(&wire);
    assert!(
        head.contains("content-type: text/plain"),
        "exposition is text/plain: {head}"
    );
    let _ = fs::remove_dir_all(&dir);
}
