//! Integration tests for the artifact store and the system-selection
//! service: cross-process persistence, integrity, crash-safety, and
//! single-flight request deduplication.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use fgbs::core::{
    encode_profiled_suite, predict, profile_reference, reduce, KChoice, PipelineConfig,
};
use fgbs::machine::{Arch, PARK_SCALE};
use fgbs::serve::{Request, Service};
use fgbs::store::{ArtifactKind, Store};
use fgbs::suites::{nr_suite, Class};
use fgbs::trace::Json;

/// A unique scratch directory per test (removed on success).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbs-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_cfg(dir: &PathBuf) -> (Arc<Store>, PipelineConfig) {
    let store = Arc::new(Store::open(dir).unwrap());
    let cfg = PipelineConfig::default()
        .with_threads(1)
        .with_k(KChoice::Fixed(4))
        .with_store(Arc::clone(&store));
    (store, cfg)
}

fn predict_request(k: &str) -> Request {
    Request {
        method: "GET".to_string(),
        path: "/predict".to_string(),
        query: vec![
            ("suite".to_string(), "nr".to_string()),
            ("class".to_string(), "test".to_string()),
            ("target".to_string(), "atom".to_string()),
            ("k".to_string(), k.to_string()),
        ],
        body: Vec::new(),
    }
}

/// Artifacts written by one process read back bitwise-identical by a
/// fresh store over the same directory, and the warm pipeline performs
/// pure store reads.
#[test]
fn pipeline_artifacts_round_trip_bitwise_across_processes() {
    let dir = scratch("roundtrip");
    let apps = nr_suite(Class::Test);
    let atom = Arch::atom().scaled(PARK_SCALE);

    // Cold run: everything computed and persisted.
    let (store, cfg) = store_cfg(&dir);
    let suite = profile_reference(&apps, &cfg);
    let reduced = reduce(&suite, &cfg);
    let cold = predict(&suite, &reduced, &atom, &cfg);
    let counters = store.counters();
    assert_eq!(counters.hits, 0, "cold store cannot hit");
    assert_eq!(counters.puts, 3, "profile + reduce + predict persisted");
    let cold_artifacts: Vec<_> = store.list();
    drop((store, cfg));

    // Warm run: a *fresh* Store over the same directory (simulating a
    // new process) answers every stage from disk.
    let (store2, cfg2) = store_cfg(&dir);
    let suite2 = profile_reference(&apps, &cfg2);
    let reduced2 = reduce(&suite2, &cfg2);
    let warm = predict(&suite2, &reduced2, &atom, &cfg2);
    let counters2 = store2.counters();
    assert_eq!(counters2.hits, 3, "profile + reduce + predict all hit");
    assert_eq!(counters2.misses, 0);
    assert_eq!(counters2.puts, 0, "nothing recomputed, nothing rewritten");

    // Decoded artifacts are bitwise-equal to the originals: re-encoding
    // the warm suite reproduces the stored bytes exactly.
    let stored_profile = cold_artifacts
        .iter()
        .find(|m| m.kind == ArtifactKind::Profile)
        .expect("profile artifact present");
    let raw = store2
        .get(ArtifactKind::Profile, &stored_profile.key)
        .unwrap()
        .expect("profile readable");
    assert_eq!(
        raw,
        encode_profiled_suite(&suite2),
        "decode→encode is bitwise stable"
    );
    assert_eq!(format!("{:?}", cold.predictions), format!("{:?}", warm.predictions));

    let _ = fs::remove_dir_all(&dir);
}

/// Concurrent puts of one key (two cold requests that share a `reduce`
/// artifact, say) each write a temp file of their own: every put
/// succeeds, every read returns the whole payload, and no torn frame is
/// ever published and quarantined.
#[test]
fn concurrent_puts_of_one_key_never_publish_a_torn_frame() {
    let dir = scratch("same-key");
    let store = Store::open(&dir).unwrap();
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
    let (threads, rounds) = (4, 100);
    let failed_puts = AtomicUsize::new(0);
    let bad_gets = AtomicUsize::new(0);
    let gate = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                gate.wait();
                for _ in 0..rounds {
                    if store.put(ArtifactKind::Reduce, "shared", &payload).is_err() {
                        failed_puts.fetch_add(1, Ordering::Relaxed);
                    }
                    match store.get(ArtifactKind::Reduce, "shared") {
                        Ok(Some(got)) if got == payload => {}
                        _ => {
                            bad_gets.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let total = threads * rounds;
    assert_eq!(failed_puts.into_inner(), 0, "puts failed out of {total}");
    assert_eq!(bad_gets.into_inner(), 0, "gets missed the payload out of {total}");
    assert_eq!(store.counters().quarantines, 0, "a torn frame was published");
    assert!(store.verify().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// A crash mid-write (a stray `.tmp` the rename never happened for)
/// leaves the published artifact untouched.
#[test]
fn interrupted_writes_never_corrupt_published_artifacts() {
    let dir = scratch("crash");
    let store = Store::open(&dir).unwrap();
    store.put(ArtifactKind::Reduce, "bbbb", b"good bytes").unwrap();

    // Simulate dying mid-write: partial temp file next to the object.
    let obj_dir = dir.join("objects").join("reduce");
    fs::write(obj_dir.join("bbbb.tmp"), b"torn half-wri").unwrap();
    drop(store);

    let store = Store::open(&dir).unwrap();
    assert_eq!(
        store.get(ArtifactKind::Reduce, "bbbb").unwrap().as_deref(),
        Some(&b"good bytes"[..]),
        "published artifact survives a torn temp file"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Two simultaneous identical `/predict` requests perform exactly one
/// pipeline computation: one leads, the other coalesces onto the same
/// flight (or replays the store), and both receive the same bytes.
#[test]
fn simultaneous_identical_predicts_compute_once() {
    let dir = scratch("flight");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Arc::new(Service::new(
        PipelineConfig::default().with_threads(1),
        store,
    ));

    let n = 4;
    let barrier = Arc::new(Barrier::new(n));
    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let svc = Arc::clone(&service);
                let gate = Arc::clone(&barrier);
                s.spawn(move || {
                    let req = predict_request("3");
                    gate.wait();
                    svc.handle(&req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        service.computations(),
        1,
        "{} concurrent identical requests, one pipeline run",
        n
    );
    let first = &responses[0];
    assert_eq!(first.status, 200);
    for r in &responses {
        assert_eq!(r.body, first.body, "every caller gets the same bytes");
    }
    assert!(
        responses.iter().any(|r| r.source == Some("computed")),
        "exactly one leader computed"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Two simultaneous cold `/predict`s for one suite but different targets
/// share one profile and one reduction: the second waits on the first's
/// instead of computing them again.
#[test]
fn concurrent_first_predicts_for_two_targets_profile_once() {
    let dir = scratch("profile-once");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(PipelineConfig::default().with_threads(1), store);

    let barrier = Barrier::new(2);
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = ["atom", "core2"]
            .into_iter()
            .map(|target| {
                let (service, barrier) = (&service, &barrier);
                s.spawn(move || {
                    let mut req = predict_request("5");
                    req.query[2].1 = target.to_string();
                    barrier.wait();
                    service.handle(&req).status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(statuses, vec![200, 200]);
    assert_eq!(service.computations(), 2, "one response per target");

    let metrics = service.handle(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        query: Vec::new(),
        body: Vec::new(),
    });
    let doc = Json::parse(&String::from_utf8_lossy(&metrics.body)).expect("metrics JSON");
    let profiles = doc
        .get("requests")
        .and_then(|r| r.get("stage.profile"))
        .and_then(|p| p.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(profiles, Some(1), "the suite was profiled once");
    // The profile, the (suite, K) reduction, and per target a prediction
    // and a response: each written once.
    assert_eq!(service.store().counters().puts, 6, "one put per artifact");
    let _ = fs::remove_dir_all(&dir);
}

/// A repeat of an identical request is served from the store: the body
/// is byte-identical, the store-hit counter moves, no pipeline stage
/// re-runs, and the endpoint latency collapses.
#[test]
fn second_identical_predict_is_a_store_hit_with_no_recompute() {
    let dir = scratch("rehit");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Arc::new(Service::new(
        PipelineConfig::default().with_threads(1),
        Arc::clone(&store),
    ));
    let req = predict_request("3");

    let first = service.handle(&req);
    assert_eq!(first.status, 200);
    assert_eq!(first.source, Some("computed"));
    let cold_latency = service.metrics().last_micros("predict");
    let stage_reduce = service.metrics().count("stage.reduce");
    let stage_predict = service.metrics().count("stage.predict");
    let hits_before = store.counters().hits;

    let second = service.handle(&req);
    assert_eq!(second.source, Some("store"), "replayed from the store");
    assert_eq!(second.body, first.body, "byte-identical response body");
    assert_eq!(service.computations(), 1, "no pipeline recomputation");
    assert_eq!(
        service.metrics().count("stage.reduce"),
        stage_reduce,
        "step C/D did not re-run"
    );
    assert_eq!(
        service.metrics().count("stage.predict"),
        stage_predict,
        "step E did not re-run"
    );
    assert!(
        store.counters().hits > hits_before,
        "store hit counter incremented"
    );
    let warm_latency = service.metrics().last_micros("predict");
    assert!(
        warm_latency < cold_latency / 10 || warm_latency < 1_000,
        "store replay is near-instant: cold {cold_latency} µs, warm {warm_latency} µs"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A service that reuses its subjects' target runs and microbenchmarks
/// across requests answers each request with the bytes a fresh service
/// over a fresh store gives for that request alone: the cache's key (the
/// arch name, within one configuration) never hands one target's or one
/// stage's simulations to another.
#[test]
fn warm_simulation_cache_answers_byte_identically_to_fresh_services() {
    let request = |method: &str, path: &str, query: &[(&str, &str)]| Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: Vec::new(),
    };
    let predict = |suite, target, k| {
        request(
            "GET",
            "/predict",
            &[
                ("suite", suite),
                ("class", "test"),
                ("target", target),
                ("k", k),
            ],
        )
    };
    let requests = [
        predict("nr", "atom", "elbow"),
        predict("nr", "atom", "5"),
        predict("nr", "sb", "5"),
        request(
            "GET",
            "/sweep",
            &[
                ("suite", "nr"),
                ("class", "test"),
                ("target", "atom"),
                ("kmin", "1"),
                ("kmax", "4"),
            ],
        ),
        request(
            "POST",
            "/reduce",
            &[("suite", "nr"), ("class", "test"), ("k", "4")],
        ),
        predict("bigdata", "core2", "2"),
    ];
    let service = |tag: String| {
        let dir = scratch(&tag);
        let store = Arc::new(Store::open(&dir).unwrap());
        (
            dir,
            Service::new(PipelineConfig::default().with_threads(1), store),
        )
    };

    let (shared_dir, shared) = service("warm-shared".to_string());
    for (i, req) in requests.iter().enumerate() {
        let warm = shared.handle(req);
        assert_eq!(warm.status, 200, "{} {:?}", req.path, req.query);
        assert_eq!(warm.source, Some("computed"));
        let (dir, fresh) = service(format!("warm-fresh-{i}"));
        let alone = fresh.handle(req);
        assert_eq!(alone.status, 200);
        assert!(
            warm.body == alone.body,
            "{} {:?}: the shared service's body differs from a fresh one's",
            req.path,
            req.query
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&shared_dir);
}

/// The service rejects nonsense with 400s and structured errors.
#[test]
fn service_reports_errors_as_json() {
    let dir = scratch("errors");
    let store = Arc::new(Store::open(&dir).unwrap());
    let service = Service::new(PipelineConfig::default().with_threads(1), store);

    let mut req = predict_request("3");
    req.query[2].1 = "vax".to_string();
    let resp = service.handle(&req);
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("unknown target"));

    let mut req = predict_request("0");
    req.path = "/predict".to_string();
    let resp = service.handle(&req);
    assert_eq!(resp.status, 400, "k=0 is rejected");

    let mut req = predict_request("3");
    req.method = "POST".to_string();
    let resp = service.handle(&req);
    assert_eq!(resp.status, 405);
    let _ = fs::remove_dir_all(&dir);
}
