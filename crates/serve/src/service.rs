//! The request handlers: routing, parameter resolution, store-first
//! computation with single-flight deduplication.
//!
//! # Request lifecycle
//!
//! 1. The event loop parses the request and an executor worker calls
//!    [`Service::handle`], which assigns its request id.
//! 2. The router resolves the endpoint and canonicalises its parameters
//!    (so `?target=ATOM` and `?target=atom` share one cache entry).
//! 3. Cacheable endpoints derive a response key and consult the store:
//!    a hit replays the exact bytes rendered by the first computation —
//!    zero pipeline work, `x-fgbs-source: store`.
//! 4. On a miss, concurrent identical requests collapse into a single
//!    flight: one leader runs the pipeline (whose stages themselves
//!    consult the store for profile/reduce/predict artifacts) and
//!    persists the rendered body; followers block and share it
//!    (`computed` vs `coalesced`).
//! 5. Every request records its latency; pipeline stages record theirs
//!    under `stage.*` — all visible at `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fgbs_core::{
    profile_reference, try_predict, try_reduce_cached, try_sweep_k, KChoice, MicroCache,
    PipelineConfig, PipelineError, ProfiledSuite,
};
use fgbs_extract::{Application, ApplicationBuilder};
use fgbs_fault::Deadline;
use fgbs_machine::{Arch, PARK_SCALE};
use fgbs_snippet::{ingest_pack, load_pack, Pack, RegistryError};
use fgbs_store::{ArtifactKind, SingleFlight, StableHasher, Store};
use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};
use parking_lot::Mutex;

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use fgbs_trace::Json;

/// Resolved suite parameters (canonical names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SuiteSpec {
    kind: &'static str,
    class_name: &'static str,
    class: Class,
}

/// What a pipeline request profiles: a first-party suite, or an
/// ingested snippet pack (`/predict?snippet=ID`).
enum Subject {
    Suite(SuiteSpec),
    Pack { id: String, pack: Pack },
}

impl Subject {
    /// The key of the in-memory profile memo. A pack is keyed by its
    /// content-addressed id, so a re-uploaded edit profiles afresh.
    fn memo_key(&self) -> String {
        match self {
            Subject::Suite(spec) => format!("{}/{}", spec.kind, spec.class_name),
            Subject::Pack { id, .. } => format!("snippet/{id}"),
        }
    }

    fn applications(&self) -> Vec<Application> {
        match self {
            Subject::Suite(spec) => match spec.kind {
                "nr" => nr_suite(spec.class),
                "bigdata" => bigdata_suite(spec.class),
                _ => nas_suite(spec.class),
            },
            Subject::Pack { pack, .. } => pack_applications(pack),
        }
    }
}

fn resolve_suite(req: &Request) -> Result<SuiteSpec, Response> {
    let kind = match req.param_or("suite", "nr").to_ascii_lowercase().as_str() {
        "nr" => "nr",
        "nas" => "nas",
        "bigdata" => "bigdata",
        other => {
            return Err(Response::error(
                400,
                &format!("unknown suite `{other}` (nr|nas|bigdata)"),
            ));
        }
    };
    let (class_name, class) = match req.param_or("class", "test").to_ascii_lowercase().as_str() {
        "test" => ("test", Class::Test),
        "a" => ("a", Class::A),
        "b" => ("b", Class::B),
        other => {
            return Err(Response::error(
                400,
                &format!("unknown class `{other}` (test|a|b)"),
            ));
        }
    };
    Ok(SuiteSpec {
        kind,
        class_name,
        class,
    })
}

fn resolve_target(req: &Request) -> Result<Arch, Response> {
    let name = req.param_or("target", "atom");
    let arch = match name.to_ascii_lowercase().as_str() {
        "atom" => Arch::atom(),
        "core2" | "core-2" | "core 2" => Arch::core2(),
        "sb" | "sandybridge" | "sandy-bridge" => Arch::sandy_bridge(),
        "nehalem" | "ref" => Arch::nehalem(),
        other => {
            return Err(Response::error(
                400,
                &format!("unknown target `{other}` (atom|core2|sb|nehalem)"),
            ));
        }
    };
    Ok(arch.scaled(PARK_SCALE))
}

/// Resolve `k` to a canonical `(KChoice, label)` pair.
fn resolve_k(req: &Request) -> Result<(KChoice, String), Response> {
    match req.param_or("k", "elbow") {
        "elbow" => Ok((KChoice::Elbow { max_k: 24 }, "elbow".to_string())),
        n => match n.parse::<usize>() {
            Ok(k) if k >= 1 => Ok((KChoice::Fixed(k), k.to_string())),
            _ => Err(Response::error(
                400,
                &format!("k must be `elbow` or a positive integer, got `{n}`"),
            )),
        },
    }
}

/// Resolve the optional `deadline_ms` parameter into a wall-clock
/// deadline starting *now*. The deadline does not participate in the
/// response key — it bounds latency, never the payload — so store hits
/// still replay instantly for deadline-carrying requests.
fn resolve_deadline(req: &Request) -> Result<Option<Deadline>, Response> {
    match req.param("deadline_ms") {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(|ms| Some(Deadline::after_ms(ms)))
            .map_err(|_| {
                Response::error(400, &format!("deadline_ms must be an integer, got `{raw}`"))
            }),
    }
}

/// Render a pipeline failure as an HTTP response: an expired deadline is
/// the service saying "not in time" ([`deadline_exceeded`]), while
/// non-finite inputs are a data bug (`500`).
fn pipeline_error(err: PipelineError) -> Response {
    match &err {
        PipelineError::DeadlineExceeded { stage } => {
            fgbs_trace::stat("serve.deadline_expired", 1);
            deadline_exceeded(stage, fgbs_trace::current_request_id())
        }
        PipelineError::NonFinite { .. } => Response::error(500, &err.to_string()),
    }
}

/// The structured `503` of a request that cannot finish in time, naming
/// the losing stage and the request id. It also fires the flight
/// recorder, so the events leading up to the `503` are captured as a
/// diagnostic artifact when a sink is installed
/// ([`install_diagnostic_sink`]).
fn deadline_exceeded(stage: &str, request: u64) -> Response {
    fgbs_trace::flightrec::trigger("deadline", request);
    Response {
        status: 503,
        request_id: request,
        ..Response::json(&Json::obj(vec![
            ("error", Json::str("deadline exceeded")),
            ("stage", Json::str(stage)),
            ("request", Json::U64(request)),
        ]))
    }
}

/// Persist every flight-recorder dump into `store` as a
/// [`ArtifactKind::Diagnostic`] artifact keyed by request id, trigger
/// reason and capture time — the post-mortem `fgbs flightrec` reads
/// them back. Installed by the daemon and by tests that inspect dumps;
/// deliberately *not* by [`Service::new`], so embedding a service (the
/// chaos suite's byte-identity runs, unit tests) never writes
/// diagnostics as a side effect.
pub fn install_diagnostic_sink(store: Arc<Store>) {
    fgbs_trace::flightrec::set_sink(move |dump| {
        let key = format!("req{}-{}-{}", dump.request, dump.reason, dump.ts_ns);
        let _ = store.put(
            ArtifactKind::Diagnostic,
            &key,
            dump.to_json().render().as_bytes(),
        );
    });
}

fn parse_usize_param(req: &Request, name: &str, default: usize) -> Result<usize, Response> {
    match req.param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            Response::error(400, &format!("{name} must be an integer, got `{raw}`"))
        }),
    }
}

/// Rebuild runnable applications from a snippet pack: snippets are
/// regrouped by their originating application (preserving pack order),
/// and each invocation context is scheduled once — replaying the
/// extraction-time invocation profile the pack recorded.
fn pack_applications(pack: &Pack) -> Vec<Application> {
    let mut order: Vec<&str> = Vec::new();
    for s in &pack.snippets {
        if !order.contains(&s.codelet.app.as_str()) {
            order.push(&s.codelet.app);
        }
    }
    order
        .into_iter()
        .map(|app_name| {
            let mut b = ApplicationBuilder::new(app_name);
            for s in pack.snippets.iter().filter(|s| s.codelet.app == app_name) {
                let i = b.codelet(s.codelet.clone(), s.contexts.clone());
                for c in 0..s.contexts.len() {
                    b.invoke(i, c, 1);
                }
            }
            b.rounds(1);
            b.build()
        })
        .collect()
}

/// The system-selection service: store-first, single-flighted handlers
/// over the Steps A–E pipeline. Request-agnostic and socket-free — the
/// server loop in [`crate`] feeds it, and tests call
/// [`Service::handle`] directly.
pub struct Service {
    cfg: PipelineConfig,
    store: Arc<Store>,
    flight: SingleFlight<Arc<Response>>,
    metrics: Metrics,
    profiles: Mutex<HashMap<String, Arc<OnceLock<Arc<ProfiledSuite>>>>>,
    computations: AtomicU64,
    in_flight: AtomicU64,
    shed: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("store", &self.store.root())
            .field("computations", &self.computations())
            .finish()
    }
}

impl Service {
    /// A service computing with `cfg` and persisting into `store`. The
    /// store is attached to the pipeline configuration, so every stage
    /// consults it.
    pub fn new(cfg: PipelineConfig, store: Arc<Store>) -> Service {
        // Leave the tracer on for the daemon's lifetime with bounded
        // per-thread logs: `/trace` serves a rolling window of recent
        // pipeline activity without unbounded memory growth.
        fgbs_trace::set_capacity(4096);
        fgbs_trace::set_enabled(true);
        Service {
            cfg: cfg.with_store(Arc::clone(&store)),
            store,
            flight: SingleFlight::new(),
            metrics: Metrics::new(),
            profiles: Mutex::new(HashMap::new()),
            computations: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The artifact store behind the service.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Full pipeline computations performed (one per cache-missing,
    /// single-flighted request — coalesced and store-hit requests do not
    /// count).
    pub fn computations(&self) -> u64 {
        self.computations.load(Ordering::Relaxed)
    }

    /// Computations coalesced into another request's flight.
    pub fn coalesced(&self) -> u64 {
        self.flight.coalesced()
    }

    /// Requests currently being handled (the `/metrics` in-flight
    /// gauge).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control (503 before dispatch).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Always 0: the event loop hands every request to the executor as
    /// its own job, so no requests are batched. Kept only because the
    /// end-to-end benchmark reads it; remove it together with that
    /// reader.
    pub fn batches(&self) -> u64 {
        0
    }

    /// Admission control for deadline-carrying requests: with `depth`
    /// requests already queued ahead and the endpoint's EWMA latency
    /// ([`crate::Metrics::ewma_micros`]) per request, a request whose
    /// predicted queueing delay alone exceeds its `deadline_ms` budget
    /// cannot be answered in time — shed it *now* with the same
    /// structured `503` the pipeline's deadline machinery produces
    /// (stage `admission`), instead of letting it rot in the queue and
    /// time out after consuming compute.
    ///
    /// Requests without a deadline never shed, and an idle queue
    /// (`depth == 0`) or an endpoint with no latency history predicts
    /// zero delay — so `deadline_ms=0` still reaches the pipeline and
    /// exercises the in-flight deadline path.
    pub fn admission_check(&self, req: &Request, depth: u64) -> Option<Response> {
        let deadline_ms: u64 = req.param("deadline_ms")?.parse().ok()?;
        let series = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/predict") => "predict",
            ("GET", "/sweep") => "sweep",
            ("POST", "/reduce") => "reduce",
            _ => return None,
        };
        let ewma = self.metrics.ewma_micros(series);
        let predicted_us = depth as f64 * ewma;
        if predicted_us <= deadline_ms as f64 * 1000.0 {
            return None;
        }
        self.shed.fetch_add(1, Ordering::Relaxed);
        fgbs_trace::stat("serve.shed", 1);
        Some(deadline_exceeded(
            "admission",
            fgbs_trace::next_request_id(),
        ))
    }

    /// Handle one parsed request: assign the next request id, install it
    /// as the thread's ambient trace context for the handler's whole
    /// scope (the id's only carrier: pipeline stages record under it and
    /// pool workers re-enter it), record endpoint latency, and stamp the
    /// id onto the response (`x-fgbs-request-id`).
    pub fn handle(&self, req: &Request) -> Response {
        // Decrement-on-drop so a panicking handler (unwound by the
        // connection worker's firewall) cannot leak the gauge.
        struct InFlight<'a>(&'a AtomicU64);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let rid = fgbs_trace::next_request_id();
        let _request_ctx = fgbs_trace::enter_request(rid);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let _gauge = InFlight(&self.in_flight);
        let t0 = Instant::now();
        let (name, resp) = self.route(req);
        self.metrics.record(name, t0.elapsed().as_micros() as u64);
        resp.with_request_id(rid)
    }

    fn route(&self, req: &Request) -> (&'static str, Response) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/predict") => ("predict", self.ep_predict(req).unwrap_or_else(|r| r)),
            ("GET", "/sweep") => ("sweep", self.ep_sweep(req).unwrap_or_else(|r| r)),
            ("POST", "/reduce") => ("reduce", self.ep_reduce(req).unwrap_or_else(|r| r)),
            ("POST", "/snippets") => ("snippets", self.ep_snippets(req)),
            ("GET", "/snippets") => ("snippets", self.ep_snippets_list()),
            ("GET", "/artifacts") => ("artifacts", self.ep_artifacts()),
            ("GET", "/metrics") => ("metrics", self.ep_metrics(req)),
            ("GET", "/trace") => ("trace", self.ep_trace()),
            ("GET", "/health") => ("health", Response::json(&Json::obj(vec![("ok", Json::Bool(true))]))),
            (
                _,
                "/predict" | "/sweep" | "/reduce" | "/snippets" | "/artifacts" | "/metrics"
                | "/trace",
            ) => (
                "other",
                Response::error(405, "method not allowed for this endpoint"),
            ),
            _ => ("other", Response::error(404, "no such endpoint")),
        }
    }

    /// Response key: endpoint + canonical parameters + every pipeline
    /// input that shapes the body. Configuration changes (seed, feature
    /// mask, reference machine…) move to fresh keys automatically.
    fn response_key(&self, endpoint: &str, params: &[&str]) -> String {
        let mut h = StableHasher::new();
        h.field(b"response")
            .field_u64(fgbs_core::CODEC_VERSION as u64)
            .field(endpoint.as_bytes());
        for p in params {
            h.field(p.as_bytes());
        }
        h.field_debug(&self.cfg.reference)
            .field_debug(&self.cfg.finder)
            .field_debug(&self.cfg.features)
            .field_debug(&self.cfg.linkage)
            .field_f64(self.cfg.micro_min_seconds)
            .field_u64(self.cfg.micro_min_invocations)
            .field_u64(self.cfg.noise_seed);
        h.finish_hex()
    }

    /// Store-first, single-flighted response production (step 3–4 of the
    /// request lifecycle in the module docs).
    ///
    /// Deadline-carrying requests take a private computation instead of
    /// joining a flight: coalescing would hand one caller's `503` (or a
    /// slow leader's late success) to followers with different time
    /// budgets. They still replay store hits and persist successes, so
    /// only the unlucky first caller per key pays.
    fn respond_cached(
        &self,
        key: &str,
        deadline: Option<Deadline>,
        compute: impl FnOnce() -> Response,
    ) -> Response {
        if let Ok(Some(bytes)) = self.store.get(ArtifactKind::Response, key) {
            return Response::json_bytes(bytes).with_source("store");
        }
        if deadline.is_some() {
            let r = compute();
            if r.status == 200 {
                let _ = self.store.put(ArtifactKind::Response, key, &r.body);
            }
            return r.with_source("computed");
        }
        let (resp, led) = self.flight.run(key, || {
            let r = compute();
            if r.status == 200 {
                let _ = self.store.put(ArtifactKind::Response, key, &r.body);
            }
            Arc::new(r)
        });
        let r = (*resp).clone();
        r.with_source(if led { "computed" } else { "coalesced" })
    }

    /// The profiled suite of a subject, memoised in memory for the
    /// process's lifetime and store-backed across processes. Concurrent
    /// first requests for one subject share one profile: the first
    /// computes it and the rest wait on its cell.
    fn profiled(&self, subject: &Subject) -> Arc<ProfiledSuite> {
        let cell = Arc::clone(self.profiles.lock().entry(subject.memo_key()).or_default());
        let suite = cell.get_or_init(|| {
            let t0 = Instant::now();
            let suite = profile_reference(&subject.applications(), &self.cfg);
            self.metrics
                .record("stage.profile", t0.elapsed().as_micros() as u64);
            Arc::new(suite)
        });
        Arc::clone(suite)
    }

    /// The service's pipeline configuration for one request, bounded by
    /// the request's deadline when it carries one.
    fn request_cfg(&self, deadline: Option<Deadline>) -> PipelineConfig {
        let mut cfg = self.cfg.clone();
        cfg.deadline = deadline.or(cfg.deadline);
        cfg
    }

    /// Run one fallible stage, recording its latency under `series` when
    /// it succeeds.
    fn stage<T>(
        &self,
        series: &'static str,
        run: impl FnOnce() -> Result<T, PipelineError>,
    ) -> Result<T, PipelineError> {
        let t0 = Instant::now();
        let out = run()?;
        self.metrics.record(series, t0.elapsed().as_micros() as u64);
        Ok(out)
    }

    /// `POST /snippets`: validate-then-publish a submitted pack frame.
    /// A corrupt frame is quarantined (bytes preserved, never executed)
    /// and reported as a structured `400`.
    fn ep_snippets(&self, req: &Request) -> Response {
        if req.body.is_empty() {
            return Response::error(400, "empty body: POST the binary pack frame");
        }
        match ingest_pack(&self.store, &req.body) {
            Ok(s) => Response::json(&Json::obj(vec![
                ("id", Json::str(&s.id)),
                ("name", Json::str(&s.name)),
                ("suite", Json::str(&s.suite)),
                ("schema", Json::U64(s.schema as u64)),
                ("snippets", Json::U64(s.snippets as u64)),
                ("bytes", Json::U64(s.bytes as u64)),
            ])),
            Err(RegistryError::Invalid(e)) => {
                fgbs_trace::stat("serve.snippet_rejected", 1);
                Response {
                    status: 400,
                    source: None,
                    request_id: 0,
                    content_type: None,
                    body: Json::obj(vec![
                        ("error", Json::str(format!("invalid pack: {e}"))),
                        ("quarantined", Json::Bool(true)),
                    ])
                    .render()
                    .into_bytes(),
                }
            }
            Err(RegistryError::Io(e)) => Response::error(503, &format!("store error: {e}")),
        }
    }

    /// `GET /snippets`: every published pack, in stable key order.
    fn ep_snippets_list(&self) -> Response {
        let packs: Vec<Json> = fgbs_snippet::list_packs(&self.store)
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("id", Json::str(&m.key)),
                    ("bytes", Json::U64(m.bytes)),
                    ("stored_at", Json::U64(m.stored_at)),
                ])
            })
            .collect();
        Response::json(&Json::obj(vec![
            ("count", Json::U64(packs.len() as u64)),
            ("packs", Json::Arr(packs)),
        ]))
    }

    /// `GET /predict`: Step E for a first-party suite or, with
    /// `?snippet=ID`, for an ingested snippet pack. A suite is resolved
    /// before the shared parameters and a pack is loaded after them, the
    /// order each kind of request reports its errors in.
    fn ep_predict(&self, req: &Request) -> Result<Response, Response> {
        match req.param("snippet") {
            None => {
                let spec = resolve_suite(req)?;
                self.predict(req, || Ok(Subject::Suite(spec)))
            }
            Some(id) => self.predict(req, || {
                let pack = load_pack(&self.store, id)
                    .map_err(|e| Response::error(503, &e.to_string()))?
                    .ok_or_else(|| Response::error(404, &format!("no snippet pack `{id}`")))?;
                Ok(Subject::Pack {
                    id: id.to_string(),
                    pack,
                })
            }),
        }
    }

    /// The one `/predict` path for every subject: resolve target, K and
    /// deadline, then answer from the store or run reduce → predict.
    fn predict(
        &self,
        req: &Request,
        subject: impl FnOnce() -> Result<Subject, Response>,
    ) -> Result<Response, Response> {
        let target = resolve_target(req)?;
        let (k, k_label) = resolve_k(req)?;
        let deadline = resolve_deadline(req)?;
        let subject = subject()?;
        let key = match &subject {
            Subject::Suite(spec) => self.response_key(
                "predict",
                &[spec.kind, spec.class_name, &target.name, &k_label],
            ),
            Subject::Pack { id, .. } => {
                self.response_key("predict-snippet", &[id, &target.name, &k_label])
            }
        };
        Ok(self.respond_cached(&key, deadline, || {
            self.computations.fetch_add(1, Ordering::Relaxed);
            self.predict_body(&subject, &target, k, &k_label, deadline)
                .unwrap_or_else(pipeline_error)
        }))
    }

    /// Steps C–E for one `/predict` miss, rendered as its body. A pack's
    /// body names the pack and omits the cluster ids and representative
    /// timings a first-party suite's body carries.
    fn predict_body(
        &self,
        subject: &Subject,
        target: &Arch,
        k: KChoice,
        k_label: &str,
        deadline: Option<Deadline>,
    ) -> Result<Response, PipelineError> {
        let suite = self.profiled(subject);
        if let Subject::Pack { id, pack } = subject {
            // A pack with no snippets, or none the finder can measure.
            if suite.is_empty() {
                return Ok(Response::error(
                    400,
                    &format!(
                        "snippet pack `{id}` ({}) profiles to no codelets: nothing to reduce",
                        pack.name
                    ),
                ));
            }
        }
        let cfg = self.request_cfg(deadline).with_k(k);
        let reduced = self.stage("stage.reduce", || {
            try_reduce_cached(&suite, &cfg, &MicroCache::new())
        })?;
        let out = self.stage("stage.predict", || {
            try_predict(&suite, &reduced, target, &cfg)
        })?;

        let first_party = matches!(subject, Subject::Suite(_));
        let predictions: Vec<Json> = out
            .predictions
            .iter()
            .map(|p| {
                let mut fields = vec![("codelet", Json::str(&suite.codelets[p.codelet].name))];
                if first_party {
                    fields.push((
                        "cluster",
                        p.cluster.map(|c| Json::U64(c as u64)).unwrap_or(Json::Null),
                    ));
                }
                fields.extend([
                    ("representative", Json::Bool(p.is_representative)),
                    (
                        "predicted_seconds",
                        p.predicted_seconds.map(Json::Num).unwrap_or(Json::Null),
                    ),
                    ("real_seconds", Json::Num(p.real_seconds)),
                    (
                        "error_pct",
                        p.error_pct.map(Json::Num).unwrap_or(Json::Null),
                    ),
                ]);
                Json::obj(fields)
            })
            .collect();
        let mut fields = match subject {
            Subject::Suite(spec) => vec![
                ("suite", Json::str(spec.kind)),
                ("class", Json::str(spec.class_name)),
            ],
            Subject::Pack { id, pack } => vec![
                ("snippet", Json::str(id)),
                ("suite", Json::str(&pack.provenance.suite)),
                ("pack", Json::str(&pack.name)),
            ],
        };
        fields.extend([
            ("target", Json::str(&out.target)),
            ("k", Json::str(k_label)),
            ("k_requested", Json::U64(reduced.k_requested as u64)),
            (
                "representatives",
                Json::U64(reduced.n_representatives() as u64),
            ),
            ("codelets", Json::U64(suite.len() as u64)),
            ("coverage", Json::Num(suite.coverage)),
            ("median_error_pct", Json::Num(out.median_error_pct())),
            ("average_error_pct", Json::Num(out.average_error_pct())),
        ]);
        if first_party {
            fields.push((
                "rep_seconds",
                Json::Arr(out.rep_seconds.iter().map(|&s| Json::Num(s)).collect()),
            ));
        }
        fields.push(("predictions", Json::Arr(predictions)));
        Ok(Response::json(&Json::obj(fields)))
    }

    fn ep_sweep(&self, req: &Request) -> Result<Response, Response> {
        let spec = resolve_suite(req)?;
        let target = resolve_target(req)?;
        let kmin = parse_usize_param(req, "kmin", 1)?.max(1);
        let kmax = parse_usize_param(req, "kmax", 8)?;
        if kmax < kmin {
            return Err(Response::error(
                400,
                &format!("kmax ({kmax}) must be >= kmin ({kmin})"),
            ));
        }
        let deadline = resolve_deadline(req)?;
        let key = self.response_key(
            "sweep",
            &[
                spec.kind,
                spec.class_name,
                &target.name,
                &kmin.to_string(),
                &kmax.to_string(),
            ],
        );
        Ok(self.respond_cached(&key, deadline, || {
            self.computations.fetch_add(1, Ordering::Relaxed);
            let suite = self.profiled(&Subject::Suite(spec));
            let cache = MicroCache::new();
            let cfg = self.request_cfg(deadline);
            let points = match try_sweep_k(&suite, &target, kmax, &cache, &cfg) {
                Ok(p) => p,
                Err(e) => return pipeline_error(e),
            };
            let points: Vec<Json> = points
                .iter()
                .filter(|p| p.k >= kmin)
                .map(|p| {
                    Json::obj(vec![
                        ("k", Json::U64(p.k as u64)),
                        ("representatives", Json::U64(p.representatives as u64)),
                        ("median_error_pct", Json::Num(p.median_error_pct)),
                        ("reduction_total", Json::Num(p.reduction_total)),
                    ])
                })
                .collect();
            Response::json(&Json::obj(vec![
                ("suite", Json::str(spec.kind)),
                ("class", Json::str(spec.class_name)),
                ("target", Json::str(&target.name)),
                ("kmin", Json::U64(kmin as u64)),
                ("kmax", Json::U64(kmax as u64)),
                ("points", Json::Arr(points)),
            ]))
        }))
    }

    fn ep_reduce(&self, req: &Request) -> Result<Response, Response> {
        let spec = resolve_suite(req)?;
        let (k, k_label) = resolve_k(req)?;
        let deadline = resolve_deadline(req)?;
        let key = self.response_key("reduce", &[spec.kind, spec.class_name, &k_label]);
        Ok(self.respond_cached(&key, deadline, || {
            self.computations.fetch_add(1, Ordering::Relaxed);
            let suite = self.profiled(&Subject::Suite(spec));
            let cfg = self.request_cfg(deadline).with_k(k);
            let reduced = match self.stage("stage.reduce", || {
                try_reduce_cached(&suite, &cfg, &MicroCache::new())
            }) {
                Ok(r) => r,
                Err(e) => return pipeline_error(e),
            };
            let clusters: Vec<Json> = reduced
                .clusters
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        (
                            "representative",
                            Json::str(&suite.codelets[c.representative].name),
                        ),
                        (
                            "members",
                            Json::Arr(
                                c.members
                                    .iter()
                                    .map(|&m| Json::str(&suite.codelets[m].name))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Response::json(&Json::obj(vec![
                ("suite", Json::str(spec.kind)),
                ("class", Json::str(spec.class_name)),
                ("k", Json::str(&k_label)),
                ("k_requested", Json::U64(reduced.k_requested as u64)),
                ("codelets", Json::U64(suite.len() as u64)),
                ("coverage", Json::Num(suite.coverage)),
                (
                    "ill_behaved",
                    Json::Arr(
                        reduced
                            .ill_behaved
                            .iter()
                            .map(|&i| Json::str(&suite.codelets[i].name))
                            .collect(),
                    ),
                ),
                ("clusters", Json::Arr(clusters)),
            ]))
        }))
    }

    fn ep_artifacts(&self) -> Response {
        let artifacts: Vec<Json> = self
            .store
            .list()
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("kind", Json::str(m.kind.as_str())),
                    ("key", Json::str(&m.key)),
                    ("bytes", Json::U64(m.bytes)),
                    ("stored_at", Json::U64(m.stored_at)),
                ])
            })
            .collect();
        Response::json(&Json::obj(vec![
            ("count", Json::U64(artifacts.len() as u64)),
            ("artifacts", Json::Arr(artifacts)),
        ]))
    }

    /// Live Chrome-trace export of the tracer's rolling span window —
    /// load the body in `chrome://tracing` or summarise it with
    /// `fgbs trace summary`.
    fn ep_trace(&self) -> Response {
        Response::json(&fgbs_trace::chrome::to_chrome(&fgbs_trace::snapshot()))
    }

    /// `GET /metrics`: the default JSON document, or Prometheus text
    /// exposition with `?format=prom` (`text/plain`, scrape-ready).
    fn ep_metrics(&self, req: &Request) -> Response {
        match req.param_or("format", "json") {
            "prom" | "prometheus" => self.metrics_prometheus(),
            _ => self.metrics_json(),
        }
    }

    /// Render every metric family as Prometheus text exposition:
    /// request/stage latency quantiles, trace counters and stats, store
    /// counters, single-flight and liveness gauges.
    fn metrics_prometheus(&self) -> Response {
        use std::fmt::Write as _;
        let mut out = String::new();
        self.metrics.render_prometheus(&mut out);
        let trace = fgbs_trace::snapshot();
        let family = |out: &mut String, name: &str, help: &str, kind: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        family(
            &mut out,
            "fgbs_trace_counter_total",
            "Deterministic trace counters.",
            "counter",
        );
        for (name, v) in &trace.counters {
            let _ = writeln!(out, "fgbs_trace_counter_total{{name=\"{name}\"}} {v}");
        }
        family(
            &mut out,
            "fgbs_trace_stat_total",
            "Non-deterministic trace stats (timings, fault injections).",
            "counter",
        );
        for (name, v) in &trace.stats {
            let _ = writeln!(out, "fgbs_trace_stat_total{{name=\"{name}\"}} {v}");
        }
        let sc = self.store.counters();
        family(
            &mut out,
            "fgbs_store_operations_total",
            "Artifact store operations by outcome.",
            "counter",
        );
        for (op, v) in [
            ("hits", sc.hits),
            ("misses", sc.misses),
            ("puts", sc.puts),
            ("evictions", sc.evictions),
            ("retries", sc.retries),
            ("quarantines", sc.quarantines),
        ] {
            let _ = writeln!(out, "fgbs_store_operations_total{{op=\"{op}\"}} {v}");
        }
        family(
            &mut out,
            "fgbs_flights_total",
            "Single-flight computations led and coalesced.",
            "counter",
        );
        let _ = writeln!(
            out,
            "fgbs_flights_total{{outcome=\"led\"}} {}",
            self.flight.flights()
        );
        let _ = writeln!(
            out,
            "fgbs_flights_total{{outcome=\"coalesced\"}} {}",
            self.flight.coalesced()
        );
        family(
            &mut out,
            "fgbs_computations_total",
            "Full pipeline computations performed.",
            "counter",
        );
        let _ = writeln!(out, "fgbs_computations_total {}", self.computations());
        family(
            &mut out,
            "fgbs_shed_requests_total",
            "Requests shed by admission control before dispatch.",
            "counter",
        );
        let _ = writeln!(out, "fgbs_shed_requests_total {}", self.shed());
        family(
            &mut out,
            "fgbs_in_flight_requests",
            "Requests currently being handled.",
            "gauge",
        );
        let _ = writeln!(out, "fgbs_in_flight_requests {}", self.in_flight());
        Response::text(out)
    }

    fn metrics_json(&self) -> Response {
        let sc = self.store.counters();
        let trace = fgbs_trace::snapshot();
        let span_totals: Vec<Json> = trace
            .span_totals
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("name", Json::str(&t.name)),
                    ("count", Json::U64(t.count)),
                    ("total_ns", Json::U64(t.total_ns)),
                ])
            })
            .collect();
        let kv = |pairs: &[(String, u64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::U64(*v)))
                    .collect(),
            )
        };
        Response::json(&Json::obj(vec![
            ("requests", self.metrics.to_json()),
            (
                "trace",
                Json::obj(vec![
                    ("counters", kv(&trace.counters)),
                    ("stats", kv(&trace.stats)),
                    ("span_totals", Json::Arr(span_totals)),
                    ("dropped", Json::U64(trace.dropped)),
                ]),
            ),
            (
                "store",
                Json::obj(vec![
                    ("hits", Json::U64(sc.hits)),
                    ("misses", Json::U64(sc.misses)),
                    ("puts", Json::U64(sc.puts)),
                    ("evictions", Json::U64(sc.evictions)),
                    ("retries", Json::U64(sc.retries)),
                    ("quarantines", Json::U64(sc.quarantines)),
                    ("artifacts", Json::U64(self.store.count() as u64)),
                ]),
            ),
            (
                "flight",
                Json::obj(vec![
                    ("flights", Json::U64(self.flight.flights())),
                    ("coalesced", Json::U64(self.flight.coalesced())),
                ]),
            ),
            ("shed", Json::U64(self.shed())),
            ("computations", Json::U64(self.computations())),
            ("in_flight", Json::U64(self.in_flight())),
        ]))
    }
}
