//! The measured workloads behind the registry's stages.
//!
//! [`WORKLOADS`] maps each `stage` name a registry entry may use to the
//! function that measures it; `Registry::parse` rejects any other name.
//! A new benchmark is one `registry.json` line, plus one function and
//! one table entry here when it needs a new stage.
//!
//! Every stage builds its inputs *outside* the timed region and returns
//! a [`Sampler`]. Its first call runs one untimed warm-up operation, and
//! each call records one wall-clock sample of `batch` operations on the
//! calibrated trace clock (`fgbs_trace::now_ns` — the same time source
//! the spans use). Sample values are per-op nanoseconds. The runner
//! takes a row's samples one call at a time, so it can interleave the
//! rows of a ratio gate.
//!
//! Stages that need the trace collector enabled (`trace_span`,
//! `pipeline_reduce_traced`) enable it around each sample and restore
//! the previous state — when a `--trace` run already has the collector
//! on, they leave it on and keep their (deterministic) spans in the
//! trace, so the bench runner honours the thread-invariant digest
//! contract.

use std::hint::black_box;

use fgbs_clustering::{
    linkage, medoid, normalize, within_variance_curve, DistanceMatrix, Linkage, MaskedDistanceCache,
};
use fgbs_clustering::naive_linkage;
use fgbs_core::{
    profile_reference, reduce_cached, select_features_ga, wellness, KChoice, MicroCache,
    PipelineConfig,
};
use fgbs_extract::{run_application, Application};
use fgbs_genetic::GaConfig;
use fgbs_isa::{compile, Binding, BindingBuilder, Codelet, CodeletBuilder, CompileMode, Precision};
use fgbs_machine::{Arch, CacheSim, Machine, PARK_SCALE};
use fgbs_matrix::Matrix;
use fgbs_pool::WorkPool;
use fgbs_serve::{loadgen, Server, Service};
use fgbs_snippet::{build_pack, encode_pack, parse_pack, replay_pack, snippet_digest, verify_pack};
use fgbs_store::{ArtifactKind, Store};
use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};

use super::registry::BenchDef;

/// One splitmix64 step — the calibration spin and the synthetic data
/// generator share it.
#[inline]
fn splitmix(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Deterministic synthetic observation matrix: `n` codelets in 7 loose
/// blobs over `cols` features, rows in generic position (no exactly
/// tied distances). The same shape `bench_json` used, so the recorded
/// trajectory stays comparable with the old `BENCH_clustering.json`.
fn observations(n: usize, cols: usize) -> Matrix {
    let unit = |seed: u64| (splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..cols)
                .map(|j| (i % 7) as f64 * 10.0 + unit((i * cols + j) as u64))
                .collect()
        })
        .collect();
    normalize(&Matrix::from_rows(&rows))
}

/// Time one batch of `op` calls; returns per-op nanoseconds.
fn time_batch(batch: u64, op: &mut impl FnMut(u64)) -> f64 {
    let t0 = fgbs_trace::now_ns();
    for i in 0..batch {
        op(i);
    }
    let dt = fgbs_trace::now_ns().saturating_sub(t0);
    dt as f64 / batch as f64
}

/// One sample per call: a timed batch of `op`s, after one untimed
/// warm-up op on the first call.
fn sampler(batch: u64, mut op: impl FnMut(u64) + 'static) -> Sampler {
    let mut warm = false;
    Box::new(move || {
        if !warm {
            op(0);
            warm = true;
        }
        Ok(time_batch(batch, &mut op))
    })
}

/// `inner`, with the trace collector enabled around each sample.
fn traced(mut inner: Sampler) -> Sampler {
    Box::new(move || with_trace_enabled(&mut inner))
}

/// `inner`, with the flight recorder armed (`on`) or disarmed around
/// each sample.
fn flightrec(on: bool, mut inner: Sampler) -> Sampler {
    Box::new(move || with_flightrec_armed(on, &mut inner))
}

/// A per-process scratch directory for store benchmarks, removed with
/// everything in it when dropped.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        ScratchDir(std::env::temp_dir().join(format!("fgbs-bench-{}-{tag}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Enable the trace collector for a closure, restoring the previous
/// state afterwards. When the collector was off, the spans recorded
/// inside are drained away so a plain `fgbs bench` leaves no residue.
fn with_trace_enabled<T>(f: impl FnOnce() -> T) -> T {
    let was_on = fgbs_trace::enabled();
    if !was_on {
        fgbs_trace::set_enabled(true);
    }
    let out = f();
    if !was_on {
        fgbs_trace::set_enabled(false);
        let _ = fgbs_trace::drain();
    }
    out
}

/// Arm or disarm the flight recorder for a closure, restoring the
/// previous state afterwards. The traced-pipeline entries use it to
/// separate the span cost (recorder off) from the full production
/// posture (recorder on); `set_enabled(true)` arms it as a side
/// effect, so the disarm direction matters.
fn with_flightrec_armed<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let was = fgbs_trace::flightrec::armed();
    fgbs_trace::flightrec::arm(on);
    let out = f();
    fgbs_trace::flightrec::arm(was);
    out
}

/// Per-op nanosecond samples, or why the workload could not run.
pub type Samples = Result<Vec<f64>, String>;

/// One row's measurement in progress: each call takes one sample, in
/// per-op nanoseconds, or says why it could not.
pub(crate) type Sampler = Box<dyn FnMut() -> Result<f64, String>>;

/// A stage's setup: the inputs of `def`'s workload on `threads` workers
/// (`threads: 0` entries already resolved to the runner's `--threads`),
/// built into the sampler that times it, or why it could not be built.
pub(crate) type Workload = fn(def: &BenchDef, threads: usize) -> Result<Sampler, String>;

/// Every stage a registry entry may name, with the workload behind it.
pub(crate) const WORKLOADS: &[(&str, Workload)] = &[
    ("calibrate", calibrate),
    ("distance", distance),
    ("linkage_nnchain", linkage_nnchain),
    ("linkage_naive", linkage_naive),
    ("medoid", medoids),
    ("elbow", elbow),
    ("ga_masked_cold", ga_masked_cold),
    ("ga_masked_patch", ga_masked_patch),
    ("ga_select", ga_select),
    ("store_publish", store_publish),
    ("store_replay", store_replay),
    ("trace_span", trace_span),
    ("fault_probe", fault_probe),
    ("pipeline_reduce", pipeline_reduce),
    ("pipeline_reduce_traced", pipeline_reduce_traced),
    ("pipeline_reduce_traced_armed", pipeline_reduce_traced_armed),
    ("obs_flightrec_record", obs_flightrec_record),
    ("obs_hist_record", obs_hist_record),
    ("snippet_pack", snippet_pack),
    ("snippet_unpack_verify", snippet_unpack_verify),
    ("snippet_replay", snippet_replay),
    ("snippet_inproc", snippet_inproc),
    ("serve_load_event", serve_load_mean),
    ("serve_load_event_p99", serve_load_p99),
    ("serve_load_event_wall", serve_load_wall),
    ("machine_run_triad", machine_run_triad),
    ("machine_run_stencil", machine_run_stencil),
    ("machine_run_gather", machine_run_gather),
    ("machine_cache_access", machine_cache_access),
    ("extract_run_application", extract_run_application),
    ("extract_wellness", extract_wellness),
];

/// The workload registered for `stage`.
pub(crate) fn workload(stage: &str) -> Option<Workload> {
    WORKLOADS
        .iter()
        .find(|(name, _)| *name == stage)
        .map(|&(_, run)| run)
}

/// Build `def`'s workload into its sampler. `effective_threads`
/// substitutes for `threads: 0` entries.
pub(crate) fn prepare(def: &BenchDef, effective_threads: usize) -> Result<Sampler, String> {
    let setup = workload(&def.stage)
        .ok_or_else(|| format!("`{}`: unknown stage `{}`", def.id, def.stage))?;
    let threads = if def.threads == 0 {
        effective_threads
    } else {
        def.threads
    };
    setup(def, threads)
}

/// Execute `def`'s workload and return `samples` per-op nanosecond
/// samples. `effective_threads` substitutes for `threads: 0` entries.
pub fn measure(def: &BenchDef, samples: usize, effective_threads: usize) -> Samples {
    let mut sample = prepare(def, effective_threads)?;
    (0..samples).map(|_| sample()).collect()
}

/// Fixed splitmix spin: the machine-speed calibration anchor.
fn calibrate(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let n = def.size as u64;
    Ok(sampler(def.batch, move |i| {
        let mut acc = 0x243F_6A88_85A3_08D3u64 ^ i;
        for k in 0..n {
            acc = acc.wrapping_add(splitmix(acc ^ k));
        }
        black_box(acc);
    }))
}

/// Pairwise Euclidean distance construction over `size` codelets.
fn distance(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let data = observations(def.size, 14);
    Ok(sampler(def.batch, move |_| {
        black_box(DistanceMatrix::euclidean(&data));
    }))
}

/// O(n²) NN-chain Ward linkage over a prebuilt distance matrix.
fn linkage_nnchain(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let d = DistanceMatrix::euclidean(&observations(def.size, 14));
    Ok(sampler(def.batch, move |_| {
        black_box(linkage(&d, Linkage::Ward));
    }))
}

/// O(n³) naive closest-pair scan (the oracle the chain replaced).
fn linkage_naive(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let d = DistanceMatrix::euclidean(&observations(def.size, 14));
    Ok(sampler(def.batch, move |_| {
        black_box(naive_linkage(&d, Linkage::Ward));
    }))
}

/// Medoid selection over an 8-way cut of the dendrogram.
fn medoids(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let data = observations(def.size, 14);
    let dend = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
    let k = 8.min(def.size);
    let part = dend.cut(k);
    Ok(sampler(def.batch, move |_| {
        for c in 0..k {
            black_box(medoid(&data, &part, c, &[]));
        }
    }))
}

/// The GA's elbow curve: `W(k)` for every cut `k <= 24` of a Ward
/// dendrogram over `size` observations of 38 columns (NR's 28 codelets
/// under a typical mask).
fn elbow(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let data = observations(def.size, 38);
    let dend = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
    Ok(sampler(def.batch, move |_| {
        black_box(within_variance_curve(&data, &dend, 24));
    }))
}

/// GA fitness, cold: masked distances from scratch (64 of 76 bits).
fn ga_masked_cold(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let z = observations(def.size, 76);
    let all: Vec<usize> = (0..64).collect();
    Ok(sampler(def.batch, move |_| {
        black_box(MaskedDistanceCache::new(z.clone()).distances(&all));
    }))
}

/// GA fitness, incremental: patch 2 flipped feature bits.
fn ga_masked_patch(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let z = observations(def.size, 76);
    let all: Vec<usize> = (0..64).collect();
    let mut flipped = all.clone();
    flipped.remove(3);
    flipped.push(70);
    let mut cache = MaskedDistanceCache::new(z);
    let _ = cache.distances(&all);
    let mut turn = false;
    Ok(sampler(def.batch, move |_| {
        // Alternate two masks two bits apart: every op patches.
        turn = !turn;
        black_box(cache.distances(if turn { &flipped } else { &all }));
    }))
}

/// Full GA feature selection on `size` Test-class NR codes.
fn ga_select(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
    let cfg = PipelineConfig::fast().with_threads(threads);
    let suite = profile_reference(&apps, &cfg);
    let targets = vec![Arch::atom().scaled(PARK_SCALE)];
    let ga = GaConfig {
        population: 12,
        generations: 4,
        ..GaConfig::default()
    };
    Ok(sampler(def.batch, move |_| {
        black_box(select_features_ga(&suite, &targets, &ga, &cfg));
    }))
}

/// Artifact store publish: one fsynced put of a `size`-byte payload.
fn store_publish(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let dir = ScratchDir::new("publish");
    let store = Store::open(&dir.0).map_err(|e| format!("bench store: {e}"))?;
    let payload = vec![0xA5u8; def.size];
    let mut next_key = 0u64;
    Ok(sampler(def.batch, move |_| {
        let _ = &dir; // the directory lives as long as the sampler
        // A fresh key every op: each publish frames, checksums and
        // fsyncs a new object — no dedup short-circuit.
        next_key += 1;
        store
            .put(ArtifactKind::Response, &format!("bench-{next_key}"), &payload)
            .expect("bench store put");
    }))
}

/// Artifact store replay: one get of a stored `size`-byte payload.
fn store_replay(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let dir = ScratchDir::new("replay");
    let store = Store::open(&dir.0).map_err(|e| format!("bench store: {e}"))?;
    let payload = vec![0x5Au8; def.size];
    let keys: Vec<String> = (0..16).map(|i| format!("bench-{i}")).collect();
    for k in &keys {
        store
            .put(ArtifactKind::Response, k, &payload)
            .map_err(|e| format!("bench store seed: {e}"))?;
    }
    Ok(sampler(def.batch, move |i| {
        let _ = &dir; // the directory lives as long as the sampler
        let got = store
            .get(ArtifactKind::Response, &keys[(i % 16) as usize])
            .expect("bench store get");
        black_box(got);
    }))
}

/// One enabled trace span with a u64 argument.
fn trace_span(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let mut inner = traced(sampler(def.batch, |i| {
        let mut s = fgbs_trace::span("bench.span");
        s.arg_u64("i", i);
    }));
    Ok(Box::new(move || {
        // A bounded buffer keeps the span loops from accumulating
        // memory; eviction cost is part of the honest price. Under
        // `--trace` the collector is already on — leave its capacity
        // (and the user's spans) alone.
        let was_on = fgbs_trace::enabled();
        if !was_on {
            fgbs_trace::set_capacity(8192);
        }
        let ns = inner();
        if !was_on {
            fgbs_trace::set_capacity(0);
        }
        ns
    }))
}

/// One disarmed failpoint probe (a single relaxed atomic load).
fn fault_probe(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    Ok(sampler(def.batch, |_| {
        black_box(fgbs_fault::maybe_io("bench.probe")).ok();
    }))
}

/// The full profile+reduce pipeline on `size` Test-class NR codes, its
/// inputs built up front: one op per pass.
fn nr_reduce(def: &BenchDef, threads: usize) -> Sampler {
    let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(def.size).collect();
    let cfg = PipelineConfig::fast()
        .with_k(KChoice::Fixed(4))
        .with_threads(threads);
    sampler(def.batch, move |_| {
        let suite = profile_reference(&apps, &cfg);
        black_box(reduce_cached(&suite, &cfg, &MicroCache::new()));
    })
}

/// The profile+reduce pipeline, untraced.
fn pipeline_reduce(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    Ok(nr_reduce(def, threads))
}

/// The same pipeline with the trace collector enabled (flight recorder
/// explicitly disarmed: this isolates the span cost).
fn pipeline_reduce_traced(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    Ok(traced(flightrec(false, nr_reduce(def, threads))))
}

/// The traced pipeline with the flight recorder armed — the full
/// production observability posture.
fn pipeline_reduce_traced_armed(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    Ok(traced(flightrec(true, nr_reduce(def, threads))))
}

/// One armed flight-recorder event (`record_at` into the thread's log).
fn obs_flightrec_record(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    // The log is bounded: a long batch evicts the oldest record, which
    // is the honest steady-state cost. The explicit timestamp keeps the
    // clock read out of the measured path.
    Ok(flightrec(
        true,
        sampler(def.batch, |i| {
            fgbs_trace::flightrec::record_at(
                i,
                fgbs_trace::flightrec::EventKind::Note,
                "bench.obs",
                i,
            );
        }),
    ))
}

/// One value recorded into a log-linear quantile histogram.
fn obs_hist_record(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let h = fgbs_trace::hist::Histogram::new();
    Ok(sampler(def.batch, move |i| {
        h.record(i);
    }))
}

/// The first `n` Test-class bigdata apps.
fn bigdata_apps(n: usize) -> Vec<Application> {
    bigdata_suite(Class::Test).into_iter().take(n).collect()
}

/// `apps` built and encoded as a snippet pack.
fn bigdata_pack(apps: &[Application], pool: &WorkPool) -> Result<Vec<u8>, String> {
    let pack = build_pack("bench", "bigdata", "class=test", apps, pool)
        .map_err(|e| format!("bench pack: {e}"))?;
    Ok(encode_pack(&pack))
}

/// Build + encode a snippet pack from `size` bigdata apps.
fn snippet_pack(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let apps = bigdata_apps(def.size);
    let pool = WorkPool::new(threads);
    Ok(sampler(def.batch, move |_| {
        black_box(bigdata_pack(&apps, &pool).expect("bench pack builds"));
    }))
}

/// Parse + checksum + semantically validate an encoded pack.
fn snippet_unpack_verify(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let bytes = bigdata_pack(&bigdata_apps(def.size), &WorkPool::new(threads))?;
    Ok(sampler(def.batch, move |_| {
        black_box(verify_pack(&bytes).expect("bench pack verifies"));
    }))
}

/// Replay a parsed pack against its bitwise contract.
fn snippet_replay(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let pool = WorkPool::new(threads);
    let bytes = bigdata_pack(&bigdata_apps(def.size), &pool)?;
    let pack = parse_pack(&bytes).map_err(|e| format!("bench pack parse: {e}"))?;
    Ok(sampler(def.batch, move |_| {
        let report = replay_pack(&pack, &pool).expect("bench replay runs");
        assert!(report.all_ok(), "bench replay met its contract");
        black_box(report);
    }))
}

/// The replay gate's baseline: the same codelets and contexts executed
/// straight from the in-process suite, no pack in between.
/// `snippet/replay` must land within 5% of it.
fn snippet_inproc(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let apps = bigdata_apps(def.size);
    let pool = WorkPool::new(threads);
    Ok(sampler(def.batch, move |_| {
        for app in &apps {
            for ci in app.extractable() {
                black_box(
                    snippet_digest(&app.codelets[ci], &app.contexts[ci], &pool)
                        .expect("bench inproc digest"),
                );
            }
        }
    }))
}

/// Mean per-request latency of a keep-alive load run (`size`
/// concurrent connections).
fn serve_load_mean(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    serve_load(ServeStat::Mean, def.size, threads)
}

/// p99 per-request latency of the same load run.
fn serve_load_p99(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    serve_load(ServeStat::P99, def.size, threads)
}

/// Wall-clock nanoseconds per completed request (inverse throughput)
/// of the same load run.
fn serve_load_wall(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    serve_load(ServeStat::Wall, def.size, threads)
}

/// One simulated invocation of `codelet` under `binding` on the scaled
/// Nehalem: the simulator's own cost.
fn machine_run(def: &BenchDef, codelet: &Codelet, binding: Binding) -> Result<Sampler, String> {
    let arch = Arch::nehalem().scaled(PARK_SCALE);
    let kernel = compile(codelet, &arch.target(), CompileMode::InApp);
    let mut machine = Machine::new(arch);
    Ok(sampler(def.batch, move |_| {
        black_box(machine.run(&kernel, &binding));
    }))
}

/// A STREAM-style triad over `size` doubles per array: every iteration
/// but the first on each line is a same-line replay.
fn machine_run_triad(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let codelet = CodeletBuilder::new("triad", "bench")
        .array("a", Precision::F64)
        .array("b", Precision::F64)
        .array("c", Precision::F64)
        .param_loop("n")
        .store("c", &[1], |bd| bd.load("a", &[1]) * 2.0 + bd.load("b", &[1]))
        .build();
    let n = def.size as u64;
    let binding = BindingBuilder::new(0)
        .vector(n, 8)
        .vector(n, 8)
        .vector(n, 8)
        .param(n)
        .build_for(&codelet);
    machine_run(def, &codelet, binding)
}

/// A 3-point stencil `y[i] = x[i] + x[i+1] + x[i+2]` over `size`
/// doubles: its three loads cross lines at different iterations, so
/// replays are shorter than the triad's.
fn machine_run_stencil(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let codelet = CodeletBuilder::new("stencil3", "bench")
        .array("x", Precision::F64)
        .array("y", Precision::F64)
        .param_loop("n")
        .store("y", &[1], |bd| {
            bd.load("x", &[1]) + bd.load_off("x", &[1], 1) + bd.load_off("x", &[1], 2)
        })
        .build();
    let n = def.size as u64;
    let binding = BindingBuilder::new(0)
        .vector(n + 2, 8)
        .vector(n, 8)
        .param(n)
        .build_for(&codelet);
    machine_run(def, &codelet, binding)
}

/// A gather `y[i] = x[random]` over `size` doubles: its random load
/// turns the same-line replay off, so every iteration is walked.
fn machine_run_gather(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let n = def.size as u64;
    let codelet = CodeletBuilder::new("gather", "bench")
        .array("x", Precision::F64)
        .array("y", Precision::F64)
        .param_loop("n")
        .store("y", &[1], |bd| bd.load_random("x", n))
        .build();
    let binding = BindingBuilder::new(0)
        .vector(n, 8)
        .vector(n, 8)
        .param(n)
        .build_for(&codelet);
    machine_run(def, &codelet, binding)
}

/// One simulated cache access, per access and arch: a fixed seeded
/// stream of `size` 8-byte accesses (unit-stride, large-stride and
/// random, over a 1 MiB footprint, beyond every scaled L2) replayed
/// through a fresh [`CacheSim`] of each scaled Table 1 machine. Samples
/// are nanoseconds per simulated access.
fn machine_cache_access(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    const FOOTPRINT: u64 = 1 << 20;
    let archs: Vec<Arch> = Arch::table1()
        .into_iter()
        .map(|a| a.scaled(PARK_SCALE))
        .collect();
    let (mut unit, mut large) = (0u64, 0u64);
    let stream: Vec<u64> = (0..def.size as u64)
        .map(|i| {
            let r = splitmix(i);
            let addr = match r % 3 {
                0 => {
                    unit += 8;
                    unit
                }
                1 => {
                    large += 4096 + 64;
                    large
                }
                _ => r >> 8,
            };
            (addr % FOOTPRINT) & !7
        })
        .collect();
    let accesses = (stream.len() * archs.len()).max(1) as f64;
    let mut per_replay = sampler(def.batch, move |_| {
        for arch in &archs {
            let mut cache = CacheSim::new(arch);
            let mut deepest = 0;
            for &addr in &stream {
                deepest += cache.access(addr, 8).level;
            }
            black_box(deepest);
        }
    });
    Ok(Box::new(move || Ok(per_replay()? / accesses)))
}

/// NAS class A's applications run in full on the scaled Nehalem, as
/// Step B's profile runs them: the layer the simulator's settled
/// replay speeds up. One op runs every application once.
fn extract_run_application(def: &BenchDef, _threads: usize) -> Result<Sampler, String> {
    let apps: Vec<Application> = nas_suite(Class::A).into_iter().take(def.size).collect();
    let arch = Arch::reference_scaled();
    Ok(sampler(def.batch, move |_| {
        for app in &apps {
            black_box(run_application(app, &arch, 0));
        }
    }))
}

/// Step D's wellness check of NAS class A's codelets on the scaled
/// Nehalem, as `reduce` runs it: the layer the settled replay of
/// microbenchmark invocations speeds up. The suite is profiled once, up
/// front; one op measures every codelet's microbenchmark into a fresh
/// `MicroCache`.
fn extract_wellness(def: &BenchDef, threads: usize) -> Result<Sampler, String> {
    let cfg = PipelineConfig::default().with_threads(threads);
    let suite = profile_reference(&nas_suite(Class::A), &cfg);
    if suite.codelets.len() != def.size {
        return Err(format!(
            "`{}`: NAS class A has {} codelets",
            def.id,
            suite.codelets.len()
        ));
    }
    Ok(sampler(def.batch, move |_| {
        black_box(wellness(&suite, &cfg, &MicroCache::new()));
    }))
}

/// Which statistic of a load run a serve stage samples.
#[derive(Debug, Clone, Copy)]
enum ServeStat {
    /// Mean per-request latency.
    Mean,
    /// 99th-percentile per-request latency.
    P99,
    /// Wall-clock nanoseconds per completed request — the reciprocal
    /// of throughput, kept in ns/op so gates and `cmp` read naturally
    /// (lower is better, like every other row).
    Wall,
}

/// Requests each loadgen connection issues per run. Fixed so the
/// `serve/*` row ids (keyed by connection count) stay comparable.
const SERVE_REQUESTS_PER_CONN: usize = 8;

/// An in-process server and its store directory, dropped in that
/// order: the server stops before its store is removed.
struct ServeRig {
    server: Server,
    _dir: ScratchDir,
}

/// Serve-load samples: spin up an in-process server, then per sample
/// drive `conns` concurrent keep-alive clients through
/// `fgbs_serve::loadgen` and report the chosen statistic. The first
/// call runs one warm-up load first.
fn serve_load(stat: ServeStat, conns: usize, threads: usize) -> Result<Sampler, String> {
    let dir = ScratchDir::new("serve");
    let store =
        std::sync::Arc::new(Store::open(&dir.0).map_err(|e| format!("bench serve store: {e}"))?);
    let service = std::sync::Arc::new(Service::new(
        PipelineConfig::fast().with_threads(1),
        store,
    ));
    let server = Server::start("127.0.0.1:0", threads, service)
        .map_err(|e| format!("bench serve bind: {e}"))?;
    let rig = ServeRig { server, _dir: dir };
    let opts = loadgen::LoadOptions {
        conns,
        requests: SERVE_REQUESTS_PER_CONN,
        target: "/health".to_string(),
    };
    let mut warm = false;
    Ok(Box::new(move || {
        if !warm {
            let _ = loadgen::run(rig.server.addr(), &opts);
            warm = true;
        }
        let report = loadgen::run(rig.server.addr(), &opts);
        if report.ok == 0 {
            return Err("bench serve load: no request completed".to_string());
        }
        Ok(match stat {
            ServeStat::Mean => report.mean_ns(),
            ServeStat::P99 => report.p99_ns() as f64,
            ServeStat::Wall => report.elapsed.as_nanos() as f64 / report.ok as f64,
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barometer::registry::Registry;

    /// Every stage in the built-in registry must actually run. One
    /// sample each keeps this a smoke test, not a benchmark.
    #[test]
    fn every_builtin_stage_produces_finite_samples() {
        for def in &Registry::builtin().benchmarks {
            // The O(n³) scan at n=1024 is too slow for a unit test.
            if def.id.contains("n1024") || def.stage == "ga_select" {
                continue;
            }
            let mut small = def.clone();
            small.batch = small.batch.min(64);
            // Serve rows spin real TCP servers: shrink the client fleet
            // so the smoke test stays a smoke test.
            if small.suite == "serve" {
                small.size = 4;
            }
            let samples = measure(&small, 1, 1).expect("workload runs");
            assert_eq!(samples.len(), 1);
            assert!(samples[0].is_finite() && samples[0] >= 0.0, "{}", def.id);
        }
    }

    /// One table, no dead entries: every workload backs at least one
    /// built-in row, and every name is registered once.
    #[test]
    fn every_workload_backs_a_builtin_row() {
        let reg = Registry::builtin();
        for (i, (name, _)) in WORKLOADS.iter().enumerate() {
            assert!(
                reg.benchmarks.iter().any(|b| b.stage == *name),
                "workload `{name}` has no built-in row"
            );
            assert!(
                WORKLOADS[..i].iter().all(|(other, _)| other != name),
                "workload `{name}` is registered twice"
            );
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn observations_are_deterministic() {
        assert_eq!(
            observations(16, 14).row(3),
            observations(16, 14).row(3),
            "synthetic data must not depend on run order"
        );
    }
}
