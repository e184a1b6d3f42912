//! Artifact keys and binary codecs: the glue between the pipeline and
//! the [`fgbs_store::Store`].
//!
//! # Key scheme
//!
//! Every key is a 128-bit stable hash over the *inputs* that determine a
//! stage's output, plus [`CODEC_VERSION`]:
//!
//! * **profile** — suite content (`Debug` rendering of every
//!   [`Application`]), reference architecture, codelet finder, noise seed.
//! * **reduce** — the profiled-suite fingerprint plus every clustering
//!   input: feature mask, linkage, K policy, micro-run floors, noise
//!   seed, reference architecture.
//! * **predict** — the suite fingerprint, the *content* of the reduced
//!   suite actually used (representatives + assignment), the target
//!   architecture and the measurement options.
//! * **fitness** — the suite fingerprint, training targets and GA
//!   configuration.
//!
//! Because the pipeline is bitwise-deterministic given its seeds, equal
//! keys imply bitwise-equal artifacts; any input change (including a
//! structural change to a hashed type, via its `Debug` rendering) moves
//! to a fresh key and silently invalidates old entries. Bumping
//! [`CODEC_VERSION`] invalidates everything at once after a layout
//! change.
//!
//! # What is (not) serialised
//!
//! [`ProfiledSuite`] holds the full [`Application`] graph and each
//! codelet's extracted [`fgbs_extract::Microbenchmark`] — deep expression
//! trees that would dwarf the measurements. The codec stores only the
//! measured data and a fingerprint of the applications; the decoder takes
//! the same `apps` slice the profiler would have received, verifies the
//! fingerprint, and rebuilds each microbenchmark with the deterministic
//! [`Microbenchmark::extract`]. A mismatched suite fails decode loudly.

use fgbs_analysis::{FeatureMatrix, FeatureVector, N_FEATURES, N_STATIC};
use fgbs_clustering::{Dendrogram, Merge};
use fgbs_extract::{AppRun, Application, CodeletProfile, Microbenchmark};
use fgbs_genetic::{BitGenome, GaConfig};
use fgbs_machine::{Arch, HwCounters};
use fgbs_store::{ArtifactKind, ByteReader, ByteWriter, CodecError, StableHasher};

use crate::config::PipelineConfig;
use crate::predict::{CodeletPrediction, PredictionOutcome};
use crate::profile::{CodeletInfo, ProfiledSuite};
use crate::reduce::{Cluster, ReducedSuite};

/// Version of the payload layouts below. Bump on any layout change: every
/// key embeds it, so old artifacts are orphaned rather than misdecoded.
pub const CODEC_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

fn base_hasher(stage: &str) -> StableHasher {
    let mut h = StableHasher::new();
    h.field(stage.as_bytes()).field_u64(CODEC_VERSION as u64);
    h
}

/// Content fingerprint of a set of applications.
pub fn apps_fingerprint(apps: &[Application]) -> String {
    let mut h = base_hasher("apps");
    h.field_u64(apps.len() as u64);
    for app in apps {
        h.field_debug(app);
    }
    h.finish_hex()
}

/// Key of the profile artifact for `(apps, cfg)` — Steps A+B inputs.
pub fn profile_key(apps: &[Application], cfg: &PipelineConfig) -> String {
    let mut h = base_hasher("profile");
    h.field(apps_fingerprint(apps).as_bytes())
        .field_debug(&cfg.reference)
        .field_debug(&cfg.finder)
        .field_u64(cfg.noise_seed);
    h.finish_hex()
}

/// Content fingerprint of a profiled suite (what Steps C–E consume).
pub fn suite_fingerprint(suite: &ProfiledSuite) -> String {
    let mut h = base_hasher("suite");
    h.field(apps_fingerprint(&suite.apps).as_bytes());
    h.field_u64(suite.len() as u64);
    for c in &suite.codelets {
        h.field(c.name.as_bytes())
            .field_u64(c.app as u64)
            .field_u64(c.local as u64)
            .field_f64(c.tref_cycles)
            .field_u64(c.invocations);
    }
    for i in 0..suite.features.len() {
        for &v in suite.features.row(i).values() {
            h.field_f64(v);
        }
    }
    h.field_f64(suite.coverage);
    h.finish_hex()
}

/// Key of the reduce artifact: suite fingerprint plus every clustering
/// input (Steps C+D).
pub fn reduce_key(suite: &ProfiledSuite, cfg: &PipelineConfig) -> String {
    let mut h = base_hasher("reduce");
    h.field(suite_fingerprint(suite).as_bytes())
        .field_debug(&cfg.features)
        .field_debug(&cfg.linkage)
        .field_debug(&cfg.k_choice)
        .field_debug(&cfg.reference)
        .field_f64(cfg.micro_min_seconds)
        .field_u64(cfg.micro_min_invocations)
        .field_u64(cfg.noise_seed);
    h.finish_hex()
}

/// Key of the predict artifact: suite fingerprint, the reduced suite's
/// *content* (so any reduction — not just one this config would produce —
/// keys correctly), the target and the measurement options (Step E).
pub fn predict_key(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    cfg: &PipelineConfig,
) -> String {
    let mut h = base_hasher("predict");
    h.field(suite_fingerprint(suite).as_bytes());
    h.field_u64(reduced.k_requested as u64);
    h.field_u64(reduced.clusters.len() as u64);
    for cl in &reduced.clusters {
        h.field_u64(cl.representative as u64);
        for &m in &cl.members {
            h.field_u64(m as u64);
        }
    }
    for a in &reduced.assignment {
        match a {
            Some(c) => h.field_u64(*c as u64 + 1),
            None => h.field_u64(0),
        };
    }
    h.field_debug(target)
        .field_debug(&cfg.reference)
        .field_f64(cfg.micro_min_seconds)
        .field_u64(cfg.micro_min_invocations)
        .field_u64(cfg.noise_seed);
    h.finish_hex()
}

/// Key of a GA fitness-cache snapshot: suite fingerprint, training
/// targets and the GA's own configuration.
pub fn fitness_key(
    suite: &ProfiledSuite,
    targets: &[Arch],
    ga: &GaConfig,
    cfg: &PipelineConfig,
) -> String {
    let mut h = base_hasher("fitness");
    h.field(suite_fingerprint(suite).as_bytes());
    h.field_u64(targets.len() as u64);
    for t in targets {
        h.field_debug(t);
    }
    h.field_debug(ga)
        .field_debug(&cfg.reference)
        .field_debug(&cfg.linkage)
        .field_debug(&cfg.k_choice)
        .field_f64(cfg.micro_min_seconds)
        .field_u64(cfg.micro_min_invocations)
        .field_u64(cfg.noise_seed);
    h.finish_hex()
}

// ---------------------------------------------------------------------------
// Store lookup
// ---------------------------------------------------------------------------

/// One stage's store lookup. Without a store, `compute`. With one, derive
/// the key, return the decoded artifact stored under it, or else
/// `compute`, encode and put the result. The store is a cache: its I/O
/// errors and undecodable artifacts fall back to computing and are
/// otherwise ignored.
pub(crate) fn cached<T>(
    cfg: &PipelineConfig,
    kind: ArtifactKind,
    key: impl FnOnce() -> String,
    decode: impl FnOnce(&[u8]) -> Result<T, CodecError>,
    encode: impl FnOnce(&T) -> Vec<u8>,
    compute: impl FnOnce() -> T,
) -> T {
    let Some(store) = &cfg.store else {
        return compute();
    };
    let key = key();
    if let Ok(Some(bytes)) = store.get(kind, &key) {
        if let Ok(value) = decode(&bytes) {
            return value;
        }
    }
    let value = compute();
    let _ = store.put(kind, &key, &encode(&value));
    value
}

// ---------------------------------------------------------------------------
// Shared sub-codecs
// ---------------------------------------------------------------------------

fn put_counters(w: &mut ByteWriter, c: &HwCounters) {
    w.put_f64(c.cycles);
    w.put_f64(c.instructions);
    w.put_f64(c.flops_sp_scalar);
    w.put_f64(c.flops_sp_vector);
    w.put_f64(c.flops_dp_scalar);
    w.put_f64(c.flops_dp_vector);
    w.put_f64(c.fp_div);
    w.put_f64(c.loads);
    w.put_f64(c.stores);
    w.put_f64(c.branches);
    w.put_u64_slice(&c.cache_hits);
    w.put_u64_slice(&c.cache_misses);
    w.put_f64(c.bytes_from_l2);
    w.put_f64(c.bytes_from_l3);
    w.put_f64(c.bytes_from_mem);
    w.put_f64(c.iterations);
    w.put_u64(c.invocations);
}

fn get_counters(r: &mut ByteReader<'_>) -> Result<HwCounters, CodecError> {
    Ok(HwCounters {
        cycles: r.get_f64()?,
        instructions: r.get_f64()?,
        flops_sp_scalar: r.get_f64()?,
        flops_sp_vector: r.get_f64()?,
        flops_dp_scalar: r.get_f64()?,
        flops_dp_vector: r.get_f64()?,
        fp_div: r.get_f64()?,
        loads: r.get_f64()?,
        stores: r.get_f64()?,
        branches: r.get_f64()?,
        cache_hits: r.get_u64_vec()?,
        cache_misses: r.get_u64_vec()?,
        bytes_from_l2: r.get_f64()?,
        bytes_from_l3: r.get_f64()?,
        bytes_from_mem: r.get_f64()?,
        iterations: r.get_f64()?,
        invocations: r.get_u64()?,
    })
}

fn put_app_run(w: &mut ByteWriter, run: &AppRun) {
    w.put_str(&run.app);
    w.put_str(&run.arch);
    w.put_f64(run.total_cycles);
    w.put_f64(run.total_seconds);
    w.put_seq(run.profiles.len());
    for p in &run.profiles {
        w.put_usize(p.codelet);
        w.put_str(&p.name);
        w.put_u64(p.invocations);
        w.put_f64(p.measured_cycles);
        w.put_f64(p.true_cycles);
        w.put_f64(p.first_invocation_cycles);
        put_counters(w, &p.counters);
    }
}

fn get_app_run(r: &mut ByteReader<'_>) -> Result<AppRun, CodecError> {
    let app = r.get_str()?;
    let arch = r.get_str()?;
    let total_cycles = r.get_f64()?;
    let total_seconds = r.get_f64()?;
    let n = r.get_seq()?;
    let mut profiles = Vec::with_capacity(n);
    for _ in 0..n {
        profiles.push(CodeletProfile {
            codelet: r.get_usize()?,
            name: r.get_str()?,
            invocations: r.get_u64()?,
            measured_cycles: r.get_f64()?,
            true_cycles: r.get_f64()?,
            first_invocation_cycles: r.get_f64()?,
            counters: get_counters(r)?,
        });
    }
    Ok(AppRun {
        app,
        arch,
        profiles,
        total_cycles,
        total_seconds,
    })
}

fn put_feature_matrix(w: &mut ByteWriter, m: &FeatureMatrix) {
    w.put_seq(m.len());
    for (i, name) in m.names().iter().enumerate() {
        w.put_str(name);
        w.put_f64_slice(m.row(i).values());
    }
}

fn get_feature_matrix(r: &mut ByteReader<'_>) -> Result<FeatureMatrix, CodecError> {
    let n = r.get_seq()?;
    let mut m = FeatureMatrix::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let values = r.get_f64_vec()?;
        if values.len() != N_FEATURES {
            return Err(CodecError::new(format!(
                "feature row has {} values, expected {N_FEATURES}",
                values.len()
            )));
        }
        let (st, dy) = values.split_at(N_STATIC);
        m.push(name, FeatureVector::compose(st.to_vec(), dy.to_vec()));
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// ProfiledSuite
// ---------------------------------------------------------------------------

/// Serialise a profiled suite (measurements only; see the module docs for
/// why the application graph stays out).
pub fn encode_profiled_suite(suite: &ProfiledSuite) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&apps_fingerprint(&suite.apps));
    w.put_seq(suite.runs.len());
    for run in &suite.runs {
        put_app_run(&mut w, run);
    }
    w.put_seq(suite.codelets.len());
    for c in &suite.codelets {
        w.put_usize(c.app);
        w.put_usize(c.local);
        w.put_str(&c.name);
        w.put_f64(c.tref_cycles);
        w.put_u64(c.invocations);
    }
    put_feature_matrix(&mut w, &suite.features);
    w.put_f64(suite.coverage);
    w.into_bytes()
}

/// Reconstruct a profiled suite against the applications it was profiled
/// from. Fails when `apps` is not the fingerprinted suite, when the bytes
/// are malformed, or when a microbenchmark cannot be re-extracted.
pub fn decode_profiled_suite(
    bytes: &[u8],
    apps: &[Application],
) -> Result<ProfiledSuite, CodecError> {
    let mut r = ByteReader::new(bytes);
    let fp = r.get_str()?;
    if fp != apps_fingerprint(apps) {
        return Err(CodecError::new(
            "profiled-suite artifact was built from a different application set",
        ));
    }
    let n_runs = r.get_seq()?;
    let mut runs = Vec::with_capacity(n_runs);
    for _ in 0..n_runs {
        runs.push(get_app_run(&mut r)?);
    }
    let n_codelets = r.get_seq()?;
    let mut codelets = Vec::with_capacity(n_codelets);
    for _ in 0..n_codelets {
        let app = r.get_usize()?;
        let local = r.get_usize()?;
        let name = r.get_str()?;
        let tref_cycles = r.get_f64()?;
        let invocations = r.get_u64()?;
        if app >= apps.len() {
            return Err(CodecError::new(format!("codelet app index {app} out of range")));
        }
        let micro = Microbenchmark::extract(&apps[app], local).ok_or_else(|| {
            CodecError::new(format!("codelet {name}: microbenchmark no longer extractable"))
        })?;
        codelets.push(CodeletInfo {
            app,
            local,
            name,
            tref_cycles,
            invocations,
            micro,
        });
    }
    let features = get_feature_matrix(&mut r)?;
    let coverage = r.get_f64()?;
    r.finish()?;
    Ok(ProfiledSuite {
        apps: apps.to_vec(),
        runs,
        codelets,
        features,
        coverage,
    })
}

// ---------------------------------------------------------------------------
// ReducedSuite
// ---------------------------------------------------------------------------

/// Serialise a reduced suite (clusters, assignment, dendrogram, curves).
pub fn encode_reduced_suite(r: &ReducedSuite) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_seq(r.clusters.len());
    for cl in &r.clusters {
        w.put_usize_slice(&cl.members);
        w.put_usize(cl.representative);
    }
    w.put_usize(r.k_requested);
    w.put_seq(r.assignment.len());
    for a in &r.assignment {
        w.put_opt_usize(*a);
    }
    w.put_usize_slice(&r.ill_behaved);
    // Row-per-row f64 slices: the byte layout predates the flat Matrix
    // storage and is kept stable for old store artifacts.
    w.put_seq(r.data.nrows());
    for row in r.data.rows() {
        w.put_f64_slice(row);
    }
    w.put_usize(r.dendrogram.len());
    w.put_seq(r.dendrogram.merges().len());
    for m in r.dendrogram.merges() {
        w.put_usize(m.a);
        w.put_usize(m.b);
        w.put_f64(m.height);
        w.put_usize(m.size);
    }
    w.put_seq(r.within_curve.len());
    for &(k, v) in &r.within_curve {
        w.put_usize(k);
        w.put_f64(v);
    }
    w.into_bytes()
}

/// Reconstruct a reduced suite.
pub fn decode_reduced_suite(bytes: &[u8]) -> Result<ReducedSuite, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n_clusters = r.get_seq()?;
    let mut clusters = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let members = r.get_usize_vec()?;
        let representative = r.get_usize()?;
        clusters.push(Cluster {
            members,
            representative,
        });
    }
    let k_requested = r.get_usize()?;
    let n_assign = r.get_seq()?;
    let mut assignment = Vec::with_capacity(n_assign);
    for _ in 0..n_assign {
        assignment.push(r.get_opt_usize()?);
    }
    let ill_behaved = r.get_usize_vec()?;
    let n_rows = r.get_seq()?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        rows.push(r.get_f64_vec()?);
    }
    if rows.iter().any(|row| row.len() != rows[0].len()) {
        return Err(CodecError::new("ragged observation matrix".to_string()));
    }
    let data = fgbs_matrix::Matrix::from_rows(&rows);
    let leaves = r.get_usize()?;
    let n_merges = r.get_seq()?;
    if leaves > 0 && n_merges != leaves - 1 {
        return Err(CodecError::new(format!(
            "dendrogram over {leaves} leaves cannot have {n_merges} merges"
        )));
    }
    let mut merges = Vec::with_capacity(n_merges);
    for _ in 0..n_merges {
        merges.push(Merge {
            a: r.get_usize()?,
            b: r.get_usize()?,
            height: r.get_f64()?,
            size: r.get_usize()?,
        });
    }
    let dendrogram = Dendrogram::new(leaves, merges);
    let n_curve = r.get_seq()?;
    let mut within_curve = Vec::with_capacity(n_curve);
    for _ in 0..n_curve {
        let k = r.get_usize()?;
        let v = r.get_f64()?;
        within_curve.push((k, v));
    }
    r.finish()?;
    Ok(ReducedSuite {
        clusters,
        k_requested,
        assignment,
        ill_behaved,
        data,
        dendrogram,
        within_curve,
    })
}

// ---------------------------------------------------------------------------
// PredictionOutcome
// ---------------------------------------------------------------------------

/// Serialise a prediction outcome.
pub fn encode_prediction(p: &PredictionOutcome) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&p.target);
    w.put_seq(p.predictions.len());
    for c in &p.predictions {
        w.put_usize(c.codelet);
        w.put_opt_usize(c.cluster);
        w.put_bool(c.is_representative);
        w.put_opt_f64(c.predicted_seconds);
        w.put_f64(c.real_seconds);
        w.put_f64(c.ref_seconds);
        w.put_opt_f64(c.error_pct);
    }
    w.put_seq(p.target_runs.len());
    for run in &p.target_runs {
        put_app_run(&mut w, run);
    }
    w.put_f64_slice(&p.rep_seconds);
    w.into_bytes()
}

/// Reconstruct a prediction outcome.
pub fn decode_prediction(bytes: &[u8]) -> Result<PredictionOutcome, CodecError> {
    let mut r = ByteReader::new(bytes);
    let target = r.get_str()?;
    let n = r.get_seq()?;
    let mut predictions = Vec::with_capacity(n);
    for _ in 0..n {
        predictions.push(CodeletPrediction {
            codelet: r.get_usize()?,
            cluster: r.get_opt_usize()?,
            is_representative: r.get_bool()?,
            predicted_seconds: r.get_opt_f64()?,
            real_seconds: r.get_f64()?,
            ref_seconds: r.get_f64()?,
            error_pct: r.get_opt_f64()?,
        });
    }
    let n_runs = r.get_seq()?;
    let mut target_runs = Vec::with_capacity(n_runs);
    for _ in 0..n_runs {
        target_runs.push(get_app_run(&mut r)?);
    }
    let rep_seconds = r.get_f64_vec()?;
    r.finish()?;
    Ok(PredictionOutcome {
        target,
        predictions,
        target_runs,
        rep_seconds,
    })
}

// ---------------------------------------------------------------------------
// Fitness snapshots
// ---------------------------------------------------------------------------

/// Serialise a fitness-cache snapshot. Entries are sorted by genome bits
/// so the encoding is deterministic regardless of shard iteration order.
pub fn encode_fitness_snapshot(entries: &[(BitGenome, f64)]) -> Vec<u8> {
    let mut sorted: Vec<&(BitGenome, f64)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.bits().cmp(b.0.bits()));
    let mut w = ByteWriter::new();
    w.put_seq(sorted.len());
    for (genome, fitness) in sorted {
        let bits = genome.bits();
        w.put_seq(bits.len());
        for &b in bits {
            w.put_bool(b);
        }
        w.put_f64(*fitness);
    }
    w.into_bytes()
}

/// Reconstruct a fitness-cache snapshot.
pub fn decode_fitness_snapshot(bytes: &[u8]) -> Result<Vec<(BitGenome, f64)>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_seq()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let n_bits = r.get_seq()?;
        let mut bits = Vec::with_capacity(n_bits);
        for _ in 0..n_bits {
            bits.push(r.get_bool()?);
        }
        let fitness = r.get_f64()?;
        out.push((BitGenome::from_bits(bits), fitness));
    }
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::predict::predict;
    use crate::profile::profile_reference;
    use crate::reduce::reduce;
    use fgbs_suites::{nr_suite, Class};

    fn setup() -> (Vec<Application>, ProfiledSuite, PipelineConfig) {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(3));
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(6).collect();
        let suite = profile_reference(&apps, &cfg);
        (apps, suite, cfg)
    }

    #[test]
    fn profiled_suite_round_trips_bitwise() {
        let (apps, suite, _) = setup();
        let bytes = encode_profiled_suite(&suite);
        let back = decode_profiled_suite(&bytes, &apps).unwrap();
        assert_eq!(back.runs, suite.runs, "runs round-trip bitwise");
        assert_eq!(back.features, suite.features);
        assert_eq!(back.coverage.to_bits(), suite.coverage.to_bits());
        assert_eq!(back.codelets.len(), suite.codelets.len());
        for (a, b) in back.codelets.iter().zip(&suite.codelets) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.tref_cycles.to_bits(), b.tref_cycles.to_bits());
            assert_eq!(a.micro, b.micro, "micro re-extraction is deterministic");
        }
        // Re-encoding the decoded suite reproduces the exact bytes.
        assert_eq!(encode_profiled_suite(&back), bytes);
    }

    #[test]
    fn profiled_suite_rejects_wrong_apps() {
        let (_, suite, _) = setup();
        let bytes = encode_profiled_suite(&suite);
        let other: Vec<_> = nr_suite(Class::Test).into_iter().take(3).collect();
        assert!(decode_profiled_suite(&bytes, &other).is_err());
    }

    #[test]
    fn reduced_suite_round_trips_bitwise() {
        let (_, suite, cfg) = setup();
        let r = reduce(&suite, &cfg);
        let bytes = encode_reduced_suite(&r);
        let back = decode_reduced_suite(&bytes).unwrap();
        assert_eq!(back.clusters, r.clusters);
        assert_eq!(back.assignment, r.assignment);
        assert_eq!(back.dendrogram, r.dendrogram);
        assert_eq!(back.within_curve, r.within_curve);
        assert_eq!(back.data, r.data);
        assert_eq!(encode_reduced_suite(&back), bytes);
    }

    #[test]
    fn prediction_round_trips_bitwise() {
        let (_, suite, cfg) = setup();
        let r = reduce(&suite, &cfg);
        let target = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let out = predict(&suite, &r, &target, &cfg);
        let bytes = encode_prediction(&out);
        let back = decode_prediction(&bytes).unwrap();
        assert_eq!(back.target, out.target);
        assert_eq!(back.predictions, out.predictions);
        assert_eq!(back.target_runs, out.target_runs);
        assert_eq!(back.rep_seconds, out.rep_seconds);
        assert_eq!(encode_prediction(&back), bytes);
    }

    #[test]
    fn fitness_snapshot_round_trips_and_is_order_independent() {
        let a = (BitGenome::from_bits(vec![true, false, true]), 1.5);
        let b = (BitGenome::from_bits(vec![false, true, false]), 2.5);
        let ab = encode_fitness_snapshot(&[a.clone(), b.clone()]);
        let ba = encode_fitness_snapshot(&[b.clone(), a.clone()]);
        assert_eq!(ab, ba, "entry order does not change the encoding");
        let back = decode_fitness_snapshot(&ab).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.contains(&a) && back.contains(&b));
    }

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let (apps, suite, cfg) = setup();
        assert_eq!(profile_key(&apps, &cfg), profile_key(&apps, &cfg));
        assert_eq!(reduce_key(&suite, &cfg), reduce_key(&suite, &cfg));

        // Profiling-irrelevant options leave the profile key alone…
        let cfg_k = cfg.clone().with_k(KChoice::Fixed(5));
        assert_eq!(profile_key(&apps, &cfg), profile_key(&apps, &cfg_k));
        // …but move the reduce key.
        assert_ne!(reduce_key(&suite, &cfg), reduce_key(&suite, &cfg_k));

        let mut cfg_seed = cfg.clone();
        cfg_seed.noise_seed = 7;
        assert_ne!(profile_key(&apps, &cfg), profile_key(&apps, &cfg_seed));

        let fewer: Vec<_> = apps.iter().take(3).cloned().collect();
        assert_ne!(profile_key(&apps, &cfg), profile_key(&fewer, &cfg));
    }

    #[test]
    fn predict_key_tracks_reduction_content_and_target() {
        let (_, suite, cfg) = setup();
        let r3 = reduce(&suite, &cfg);
        let r5 = reduce(&suite, &cfg.clone().with_k(KChoice::Fixed(5)));
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let sb = Arch::sandy_bridge().scaled(fgbs_machine::PARK_SCALE);
        assert_eq!(
            predict_key(&suite, &r3, &atom, &cfg),
            predict_key(&suite, &r3, &atom, &cfg)
        );
        assert_ne!(
            predict_key(&suite, &r3, &atom, &cfg),
            predict_key(&suite, &r5, &atom, &cfg)
        );
        assert_ne!(
            predict_key(&suite, &r3, &atom, &cfg),
            predict_key(&suite, &r3, &sb, &cfg)
        );
    }

    #[test]
    fn corrupt_payloads_fail_to_decode() {
        let (apps, suite, cfg) = setup();
        let r = reduce(&suite, &cfg);
        let mut b1 = encode_profiled_suite(&suite);
        b1.truncate(b1.len() / 2);
        assert!(decode_profiled_suite(&b1, &apps).is_err());
        let mut b2 = encode_reduced_suite(&r);
        b2.push(0);
        assert!(decode_reduced_suite(&b2).is_err());
        assert!(decode_prediction(&[1, 2, 3]).is_err());
        assert!(decode_fitness_snapshot(&[9]).is_err());
    }
}
