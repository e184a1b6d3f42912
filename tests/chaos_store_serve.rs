//! Chaos suite: the pipeline + store + service under deterministic
//! fault injection.
//!
//! The resilience contract these tests pin down:
//!
//! 1. **Byte-identical results under faults.** Transient I/O errors,
//!    short writes and flipped bytes may cost retries and
//!    recomputation, but the artifacts and response bodies a faulted
//!    run ends with are bitwise equal to a fault-free run's.
//! 2. **Self-healing.** Corrupt objects are quarantined (never
//!    decoded) out of `objects/`, and the next request recomputes and
//!    republishes clean bytes. The object files are the only index, so
//!    a stale or corrupt `MANIFEST` left by an older build is ignored.
//! 3. **Deadlines.** `deadline_ms` turns a slow stage into a prompt
//!    `503` with the losing stage named — never a cached error.
//! 4. **Observability.** Retry / quarantine / deadline counters show up
//!    in `/metrics` so operators can see the layer working.
//! 5. **Isolation.** A slow request never holds up a fast one that the
//!    event loop read in the same turn, and a stored response or
//!    `/health` never waits for a computation: the event loop answers
//!    them itself, even while every executor worker is busy.
//!
//! The failpoint registry is process-global, so every test takes
//! `fault_guard()` and clears the registry before and after its run.

use std::fs;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fgbs::core::PipelineConfig;
use fgbs::fault::{self, FaultPlan};
use fgbs::serve::{Request, Server, Service};
use fgbs::store::Store;

/// Serialize tests that install fault plans (the registry is global).
fn fault_guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    g
}

/// A unique scratch directory per test (removed on success).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbs-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service_over(dir: &Path) -> (Arc<Store>, Arc<Service>) {
    let store = Arc::new(Store::open(dir).expect("open store"));
    let service = Arc::new(Service::new(
        PipelineConfig::default().with_threads(1),
        Arc::clone(&store),
    ));
    (store, service)
}

fn get(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    }
}

fn predict_request() -> Request {
    get(
        "/predict",
        &[
            ("suite", "nr"),
            ("class", "test"),
            ("target", "atom"),
            ("k", "3"),
        ],
    )
}

/// Every artifact in a store, as `(kind, key) -> bytes`, read with
/// faults disarmed.
fn artifact_bytes(store: &Store) -> Vec<(String, String, Vec<u8>)> {
    let mut out: Vec<_> = store
        .list()
        .iter()
        .map(|m| {
            let bytes = store
                .get(m.kind, &m.key)
                .expect("artifact readable")
                .expect("artifact present");
            (m.kind.as_str().to_string(), m.key.clone(), bytes)
        })
        .collect();
    out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    out
}

/// Transient read/write errors, one short write and one flipped byte:
/// the warm run retries, quarantines and recomputes its way back to the
/// exact bytes a fault-free run produces.
#[test]
fn faulted_run_is_byte_identical_to_fault_free_run() {
    let _g = fault_guard();

    // Reference: a fault-free cold run.
    let clean_dir = scratch("clean");
    let (clean_store, clean_service) = service_over(&clean_dir);
    let clean_resp = clean_service.handle(&predict_request());
    assert_eq!(clean_resp.status, 200);
    let clean_artifacts = artifact_bytes(&clean_store);
    assert!(!clean_artifacts.is_empty());

    // Chaos target: same cold run (fault-free) to populate the store…
    let dir = scratch("chaos");
    {
        let (_, service) = service_over(&dir);
        assert_eq!(service.handle(&predict_request()).status, 200);
    }

    // …then a warm run through an armed minefield. Probability 1 plus
    // fire caps makes the schedule deterministic: the caps are consumed
    // by the first qualifying operations, retries absorb the rest.
    let plan = FaultPlan::parse(
        "store.read=err#2,store.read.bytes=corrupt#1,\
         store.write=err#1,store.write.short=short:1.0:8#1",
        0xC0FFEE,
    )
    .expect("valid spec");
    fault::install(plan);
    let (store, service) = service_over(&dir);
    let resp = service.handle(&predict_request());
    fault::clear();

    assert_eq!(resp.status, 200, "faulted run still answers");
    assert_eq!(
        resp.body, clean_resp.body,
        "response bytes identical to the fault-free run"
    );
    let counters = store.counters();
    assert!(counters.retries > 0, "transient faults were retried");
    assert!(
        counters.quarantines > 0,
        "the flipped byte was caught and quarantined"
    );
    let quarantine = dir.join("quarantine");
    assert!(
        quarantine.is_dir() && fs::read_dir(&quarantine).unwrap().count() > 0,
        "quarantined object parked on disk"
    );

    // The store healed completely: clean integrity sweep and artifacts
    // bitwise equal to the reference store's.
    assert!(store.verify().is_empty(), "store verifies clean after chaos");
    assert_eq!(
        artifact_bytes(&store),
        clean_artifacts,
        "every artifact byte-identical to the fault-free run"
    );

    // Observability: the injection/retry/quarantine counters surface in
    // /metrics for operators.
    let metrics = service.handle(&get("/metrics", &[]));
    let body = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(body.contains("\"fault.injected\""), "{body}");
    assert!(body.contains("\"fault.retries\""), "{body}");
    assert!(body.contains("\"quarantines\""), "{body}");

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// An injected stage delay plus a tiny `deadline_ms` forces a `503`
/// naming the losing stage; the error is never cached, so the same
/// request succeeds once the budget is realistic.
#[test]
fn expired_deadline_is_a_503_that_is_never_cached() {
    let _g = fault_guard();
    let dir = scratch("deadline");
    let (_, service) = service_over(&dir);

    fault::install(
        FaultPlan::parse("stage.reduce=delay:1.0:60", 7).expect("valid spec"),
    );
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "1".to_string()));
    let resp = service.handle(&req);
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(body.contains("deadline exceeded"), "{body}");
    assert!(body.contains("\"stage\""), "{body}");

    // Same query, generous budget, delay still armed: computes fine —
    // the 503 was not persisted.
    let mut req = predict_request();
    req.query.push(("deadline_ms".to_string(), "60000".to_string()));
    let resp = service.handle(&req);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    fault::clear();

    // The expiry is visible to operators.
    let metrics = service.handle(&get("/metrics", &[]));
    let body = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(body.contains("\"serve.deadline_expired\""), "{body}");

    let _ = fs::remove_dir_all(&dir);
}

/// Older builds kept a `MANIFEST` index at the store root. A corrupt one
/// left behind is ignored: opening, listing and verifying the store never
/// read it, nothing rewrites or deletes it, and a service over the store
/// replays the previous computation from the object files.
#[test]
fn old_build_manifest_is_ignored_and_serves() {
    let _g = fault_guard();
    let dir = scratch("old-manifest");
    {
        let (_, service) = service_over(&dir);
        assert_eq!(service.handle(&predict_request()).status, 200);
    }
    let manifest = dir.join("MANIFEST");
    let planted = b"fgbs-store-manifest v1\nresponse\tnot-a-key\t1\tzz\t0\nchecksum 0\n";
    fs::write(&manifest, planted).expect("plant an old build's MANIFEST");

    let store = Store::open(&dir).expect("open ignores the MANIFEST");
    assert!(!store.list().is_empty(), "objects listed from objects/");
    assert!(store.verify().is_empty());

    let service = Service::new(PipelineConfig::default().with_threads(1), Arc::new(store));
    let resp = service.handle(&predict_request());
    assert_eq!(resp.status, 200);
    assert_eq!(resp.source, Some("store"), "replayed from the object files");
    assert_eq!(fs::read(&manifest).expect("left in place"), planted);

    let _ = fs::remove_dir_all(&dir);
}

/// Disarmed failpoints are inert: nothing is injected, nothing is
/// counted, results match an armed-but-empty plan.
#[test]
fn disarmed_failpoints_are_inert() {
    let _g = fault_guard();
    assert!(!fault::armed());
    let injected_before = fault::injected();

    let dir = scratch("inert");
    let (store, service) = service_over(&dir);
    assert_eq!(service.handle(&predict_request()).status, 200);

    assert_eq!(
        fault::injected(),
        injected_before,
        "no injections without a plan"
    );
    assert_eq!(store.counters().retries, 0);
    assert_eq!(store.counters().quarantines, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Each request is its own executor job: a `/metrics` read in the same
/// reactor turn as a cold `/predict` runs on the second worker and is
/// answered at once, not after the miss finishes.
#[test]
fn a_request_never_waits_for_another_read_in_the_same_turn() {
    let _g = fault_guard();
    let dir = scratch("turn");
    let (_, service) = service_over(&dir);
    // Stalling each accept lets both connections deliver their request
    // before either is registered, so one turn reads both; the reduce
    // delay keeps the miss busy long after.
    fault::install(
        FaultPlan::parse("serve.accept=delay:1.0:50,stage.reduce=delay:1.0:400", 11)
            .expect("valid spec"),
    );
    let server = Server::start("127.0.0.1:0", 2, service).expect("start server");
    let send = |target: &str| {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        stream
    };
    let reply = |mut stream: TcpStream| {
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read reply");
        raw
    };

    let t0 = Instant::now();
    let miss = send("/predict?suite=nr&class=test&target=atom&k=3");
    // The event loop never answers `/metrics` itself: it is a job.
    let metrics = send("/metrics");
    let metrics = reply(metrics);
    let metrics_after = t0.elapsed();
    let miss = reply(miss);
    let miss_after = t0.elapsed();
    server.shutdown();
    fault::clear();

    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(miss.starts_with("HTTP/1.1 200"), "{miss}");
    assert!(
        miss_after >= Duration::from_millis(400),
        "the reduce delay fired: the miss took {miss_after:?}"
    );
    assert!(
        metrics_after < Duration::from_millis(400),
        "/metrics took {metrics_after:?}: it waited for the cold /predict"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The event loop answers a stored response and `/health` itself: with
/// the only executor worker held by a cold `/predict`, both still answer
/// long before that computation ends.
#[test]
fn a_stored_response_never_waits_for_a_computation() {
    let _g = fault_guard();
    let dir = scratch("stored");
    let (_, service) = service_over(&dir);
    let server = Server::start("127.0.0.1:0", 1, service).expect("start server");
    let send = |target: &str| {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        stream
    };
    let reply = |mut stream: TcpStream| {
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read reply");
        raw
    };
    let stored = "/predict?suite=nr&class=test&target=atom&k=3";
    let first = reply(send(stored));
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");

    fault::install(FaultPlan::parse("stage.reduce=delay:1.0:400", 13).expect("valid spec"));
    let injected = fault::injected();
    let t0 = Instant::now();
    let cold = send("/predict?suite=nr&class=test&target=atom&k=4");
    // The delay fires when the cold request's reduce stage starts: from
    // then on it holds the only worker for 400 ms.
    while fault::injected() == injected {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the reduce delay never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (hit, health) = (send(stored), send("/health"));
    let hit = reply(hit);
    let hit_after = t0.elapsed();
    let health = reply(health);
    let health_after = t0.elapsed();
    let cold = reply(cold);
    let cold_after = t0.elapsed();
    server.shutdown();
    fault::clear();

    assert!(hit.starts_with("HTTP/1.1 200"), "{hit}");
    assert!(hit.contains("x-fgbs-source: store\r\n"), "{hit}");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
    assert!(
        cold_after >= Duration::from_millis(400),
        "the reduce delay fired: the cold request took {cold_after:?}"
    );
    assert!(
        hit_after < Duration::from_millis(400),
        "the stored /predict took {hit_after:?}: it waited for the computation"
    );
    assert!(
        health_after < Duration::from_millis(400),
        "/health took {health_after:?}: it waited for the computation"
    );
    let _ = fs::remove_dir_all(&dir);
}
