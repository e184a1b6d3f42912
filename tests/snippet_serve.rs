//! End-to-end snippet-pack flow through the service: ingest, list,
//! predict-over-snippet, and the quarantine path for corrupt uploads.

use std::fs;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use fgbs::core::{KChoice, PipelineConfig};
use fgbs::pool::WorkPool;
use fgbs::serve::{Request, Service};
use fgbs::snippet::{build_pack, encode_pack, list_packs, pack_id, verify_pack, Pack, Provenance};
use fgbs::store::Store;
use fgbs::suites::{bigdata_suite, Class};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgbs-snip-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn service(dir: &PathBuf) -> (Arc<Store>, Service) {
    let store = Arc::new(Store::open(dir).unwrap());
    let cfg = PipelineConfig::default()
        .with_threads(1)
        .with_k(KChoice::Fixed(3));
    (Arc::clone(&store), Service::new(cfg, store))
}

fn bigdata_pack_bytes() -> Vec<u8> {
    let apps = bigdata_suite(Class::Test);
    let pack = build_pack("bigdata-test", "bigdata", "class=test", &apps, &WorkPool::serial())
        .unwrap();
    encode_pack(&pack)
}

fn post_snippets(body: Vec<u8>) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/snippets".to_string(),
        query: vec![],
        body,
    }
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

/// Clean pack: ingested with its content-addressed id, listed, and then
/// predictable — twice, with the second response replayed byte-identical
/// from the store.
#[test]
fn clean_pack_ingests_lists_and_predicts_deterministically() {
    let dir = scratch("clean");
    let (_store, service) = service(&dir);
    let bytes = bigdata_pack_bytes();
    let expected_id = verify_pack(&bytes).unwrap().id;

    let resp = service.handle(&post_snippets(bytes));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let body = String::from_utf8_lossy(&resp.body).to_string();
    assert!(body.contains(&expected_id), "{body}");
    assert!(body.contains("bigdata-test"), "{body}");

    let listed = service.handle(&get("/snippets", &[]));
    assert_eq!(listed.status, 200);
    assert!(String::from_utf8_lossy(&listed.body).contains(&expected_id));

    let q = [("snippet", expected_id.as_str()), ("target", "atom"), ("k", "3")];
    let cold = service.handle(&get("/predict", &q));
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    assert_eq!(cold.source, Some("computed"));
    let cold_body = String::from_utf8_lossy(&cold.body).to_string();
    assert!(cold_body.contains("\"snippet\""), "{cold_body}");
    assert!(cold_body.contains("median_error_pct"), "{cold_body}");

    let warm = service.handle(&get("/predict", &q));
    assert_eq!(warm.source, Some("store"), "second call replays the store");
    assert_eq!(warm.body, cold.body, "byte-identical replayed response");
    assert_eq!(service.computations(), 1);

    let _ = fs::remove_dir_all(&dir);
}

/// Nothing range-checks a pack's array base addresses, so a pack may
/// place its arrays at the top of the address space. It still ingests
/// and predicts: the simulated addresses wrap instead of overflowing or
/// walking ~2^58 cache lines.
#[test]
fn pack_based_at_the_top_of_the_address_space_predicts() {
    let dir = scratch("wrap");
    let (_store, service) = service(&dir);
    let apps = bigdata_suite(Class::Test);
    let mut pack = build_pack(
        "bigdata-wrap",
        "bigdata",
        "class=test",
        &apps,
        &WorkPool::serial(),
    )
    .unwrap();
    for ctx in pack.snippets.iter_mut().flat_map(|s| &mut s.contexts) {
        for a in &mut ctx.arrays {
            a.base = u64::MAX - 3;
        }
    }
    let bytes = encode_pack(&pack);
    let id = verify_pack(&bytes).unwrap().id;

    let resp = service.handle(&post_snippets(bytes));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let q = [("snippet", id.as_str()), ("target", "atom"), ("k", "3")];
    let resp = service.handle(&get("/predict", &q));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert!(String::from_utf8_lossy(&resp.body).contains("median_error_pct"));

    let _ = fs::remove_dir_all(&dir);
}

/// A one-byte-corrupted pack is rejected with a structured 400, the
/// bytes land in quarantine (never in the published object tree), and
/// the pack can never be predicted over.
#[test]
fn corrupt_pack_is_quarantined_never_published_never_executed() {
    let dir = scratch("corrupt");
    let (store, service) = service(&dir);
    let mut bytes = bigdata_pack_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let id = pack_id(&bytes);

    let resp = service.handle(&post_snippets(bytes));
    assert_eq!(resp.status, 400);
    let body = String::from_utf8_lossy(&resp.body).to_string();
    assert!(body.contains("invalid pack"), "{body}");
    assert!(body.contains("\"quarantined\":true"), "{body}");

    assert!(list_packs(&store).is_empty(), "corrupt pack must not publish");
    assert_eq!(store.counters().quarantines, 1);
    assert!(dir.join("quarantine").exists());
    assert!(store.verify().is_empty(), "object tree untouched");

    let resp = service.handle(&get("/predict", &[("snippet", id.as_str())]));
    assert_eq!(resp.status, 404, "quarantined pack is not addressable");
    assert_eq!(service.computations(), 0, "nothing was ever executed");

    let _ = fs::remove_dir_all(&dir);
}

/// A pack that profiles to no codelets (here one with no snippets, which
/// the parser accepts) answers `/predict` with a structured 400 naming
/// the pack. Twice: the first request must leave nothing behind that
/// the second could wait on.
#[test]
fn empty_pack_predicts_answer_400_and_never_wedge() {
    let dir = scratch("empty");
    let (_store, service) = service(&dir);
    let service = Arc::new(service);
    let bytes = encode_pack(&Pack {
        name: "no-snippets".to_string(),
        provenance: Provenance {
            suite: "bigdata".to_string(),
            extraction: "class=test".to_string(),
        },
        snippets: Vec::new(),
    });
    let id = verify_pack(&bytes).unwrap().id;
    let resp = service.handle(&post_snippets(bytes));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

    for attempt in 0..2 {
        // Each request runs on a detached thread, so a panic or a wedged
        // flight fails the test instead of hanging it.
        let svc = Arc::clone(&service);
        let req = get(
            "/predict",
            &[("snippet", id.as_str()), ("target", "atom"), ("k", "3")],
        );
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| svc.handle(&req)));
            let _ = tx.send(out.ok());
        });
        let resp = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("request {attempt} did not answer: {e}"))
            .unwrap_or_else(|| panic!("request {attempt} panicked"));
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert_eq!(resp.status, 400, "request {attempt}: {body}");
        assert!(body.contains(&id) && body.contains("no-snippets"), "{body}");
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Unknown ids 404; empty uploads and wrong methods are rejected.
#[test]
fn snippet_endpoint_edge_cases() {
    let dir = scratch("edges");
    let (_store, service) = service(&dir);

    let resp = service.handle(&get("/predict", &[("snippet", "feedfeed")]));
    assert_eq!(resp.status, 404);

    let resp = service.handle(&post_snippets(Vec::new()));
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("empty body"));

    let mut req = post_snippets(b"x".to_vec());
    req.method = "PUT".to_string();
    assert_eq!(service.handle(&req).status, 405);

    // The bigdata suite is addressable like nr/nas.
    let resp = service.handle(&get("/predict", &[("suite", "bigdata"), ("k", "3")]));
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let resp = service.handle(&get("/predict", &[("suite", "zz")]));
    assert_eq!(resp.status, 400);
    assert!(String::from_utf8_lossy(&resp.body).contains("nr|nas|bigdata"));

    let _ = fs::remove_dir_all(&dir);
}
