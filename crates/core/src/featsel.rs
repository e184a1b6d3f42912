//! Genetic feature selection (§4.2, Table 2).
//!
//! Each GA individual is a 76-bit mask over the feature catalog. Fitness
//! (minimised) is `max(err_A, err_B, …) × K`: the worst average prediction
//! error across the training targets, scaled by the elbow-selected cluster
//! count — rewarding masks that predict well with few representatives.

use fgbs_analysis::{FeatureMask, N_FEATURES};
use fgbs_clustering::{normalize, MaskedDistanceCache};
use fgbs_extract::AppRun;
use fgbs_genetic::{minimize_parallel, BitGenome, FitnessCache, GaConfig};
use fgbs_machine::Arch;
use parking_lot::Mutex;

use crate::config::PipelineConfig;
use crate::micras::MicroCache;
use crate::predict::predict_with_runs;
use crate::profile::{profile_target, ProfiledSuite};
use crate::reduce::{reduce_from_distances, wellness};

/// Result of the GA search.
#[derive(Debug, Clone)]
pub struct FeatureSelection {
    /// The winning mask.
    pub mask: FeatureMask,
    /// Selected feature ids, ascending.
    pub feature_ids: Vec<usize>,
    /// Winning fitness value.
    pub fitness: f64,
    /// Elbow cluster count under the winning mask.
    pub k: usize,
    /// Best fitness per generation.
    pub history: Vec<f64>,
    /// Distinct fitness evaluations performed.
    pub evaluations: usize,
    /// Fitness-cache lookups answered without re-running the pipeline.
    pub cache_hits: u64,
    /// Fitness-cache lookups that required a pipeline run.
    pub cache_misses: u64,
    /// Artifact-store reads answered from disk during this selection
    /// (0 without a store).
    pub store_hits: u64,
    /// Artifact-store reads that found nothing (0 without a store).
    pub store_misses: u64,
    /// Fitness entries preloaded from a persisted snapshot — a
    /// cross-process warm start (0 without a store or on a cold start).
    pub warm_entries: usize,
}

/// Run the GA over feature masks, training on `targets` (the paper uses
/// Atom and Sandy Bridge, leaving Core 2 and the NAS suite out for
/// validation).
///
/// Each genome's fitness — cluster once, predict per training target —
/// evaluates on the shared work pool (`cfg.threads` workers), memoised
/// across generations by a [`FitnessCache`]. The mask-independent parts
/// of the pipeline are hoisted out of the loop: wellness bits are
/// measured once, and the full 76-feature matrix is z-normalised once
/// (normalisation is column-independent, so projecting the normalised
/// columns is bitwise-identical to normalising each projection). Masked
/// distances come from a shared [`MaskedDistanceCache`], patched
/// incrementally from the previously evaluated genome's quantised
/// accumulators; the quantised integers make the result independent of
/// evaluation order, so results are identical for every thread count.
pub fn select_features_ga(
    suite: &ProfiledSuite,
    targets: &[Arch],
    ga: &GaConfig,
    cfg: &PipelineConfig,
) -> FeatureSelection {
    assert!(!targets.is_empty(), "need at least one training target");
    let mut stage_span = fgbs_trace::span("stage.featsel");
    stage_span.arg_u64("targets", targets.len() as u64);
    stage_span.arg_u64("population", ga.population as u64);
    stage_span.arg_u64("generations", ga.generations as u64);
    let cache = MicroCache::new();
    let runs: Vec<Vec<AppRun>> = targets
        .iter()
        .map(|t| profile_target(suite, t, cfg))
        .collect();

    let mut ga_cfg = ga.clone();
    ga_cfg.genome_len = N_FEATURES;

    // Fitness must evaluate the pipeline serially inside: the pool
    // parallelises across genomes, the coarser (and deterministic) axis.
    // The store is detached too — per-genome reductions are throwaway
    // search state; the warm start below persists their fitness instead.
    let inner_cfg = cfg.clone().with_threads(1).without_store();

    // Mask-independent precomputation, hoisted out of the fitness loop.
    let eligible = {
        let _wellness_span = fgbs_trace::span("featsel.wellness");
        wellness(suite, &inner_cfg, &cache)
    };
    let z = normalize(&suite.features.matrix());
    let masked = Mutex::new(MaskedDistanceCache::new(z.clone()));
    // The cache lock is the fitness loop's shared critical section:
    // genomes queue on it while one patches. Fanning each patch's tiles
    // over the pool shortens the section itself; the quantised integer
    // accumulators keep the result bitwise identical either way.
    let patch_pool = cfg.pool();

    let eval_mask = |mask: &FeatureMask| -> (f64, usize) {
        let ids = mask.ids();
        let dist = masked.lock().distances_with(&ids, &patch_pool);
        let data = z.project_cols(&ids);
        let reduced = reduce_from_distances(suite, &inner_cfg, data, &dist, &eligible);
        let k_used = reduced.n_representatives();
        let mut worst = 0.0f64;
        for (t, r) in targets.iter().zip(&runs) {
            let err = predict_with_runs(suite, &reduced, t, r, &cache, &inner_cfg)
                .average_error_pct();
            if !err.is_finite() {
                return (f64::NAN, k_used);
            }
            worst = worst.max(err);
        }
        (worst, k_used)
    };
    let fitness = |g: &BitGenome| -> f64 {
        if g.count_ones() == 0 {
            return f64::MAX / 2.0; // empty masks cannot cluster
        }
        let mask = FeatureMask::from_bits(g.bits().to_vec());
        let (worst, k_used) = eval_mask(&mask);
        if !worst.is_finite() {
            return f64::MAX / 2.0;
        }
        worst * k_used.max(1) as f64
    };

    // Warm-start the fitness cache from a persisted snapshot: genomes a
    // previous process already evaluated cost a lookup instead of a
    // pipeline run. Counter deltas around the call expose this
    // selection's own store traffic.
    let fitness_cache = FitnessCache::new();
    let store_before = cfg.store.as_ref().map(|s| s.counters());
    let snapshot_key = cfg
        .store
        .as_ref()
        .map(|_| crate::persist::fitness_key(suite, targets, ga, cfg));
    let mut warm_entries = 0usize;
    if let (Some(store), Some(key)) = (&cfg.store, &snapshot_key) {
        if let Ok(Some(bytes)) = store.get(fgbs_store::ArtifactKind::Fitness, key) {
            if let Ok(entries) = crate::persist::decode_fitness_snapshot(&bytes) {
                warm_entries = entries.len();
                for (genome, fit) in entries {
                    fitness_cache.insert(genome, fit);
                }
            }
        }
    }

    fgbs_trace::counter("ga.warm_entries", warm_entries as u64);

    let result = minimize_parallel(&ga_cfg, &cfg.pool(), &fitness_cache, fitness);

    if let (Some(store), Some(key)) = (&cfg.store, &snapshot_key) {
        let _ = store.put(
            fgbs_store::ArtifactKind::Fitness,
            key,
            &crate::persist::encode_fitness_snapshot(&fitness_cache.entries()),
        );
    }
    let (store_hits, store_misses) = match (store_before, cfg.store.as_ref()) {
        (Some(before), Some(store)) => {
            let after = store.counters();
            (after.hits - before.hits, after.misses - before.misses)
        }
        _ => (0, 0),
    };

    let mask = FeatureMask::from_bits(result.best.bits().to_vec());
    // Recompute K for the winner through the same evaluator the GA used.
    let (_, k) = eval_mask(&mask);
    // Work-ledger stats (not counters: the patched/scratch split depends
    // on the order genomes reached the shared cache).
    let (patched, scratch) = masked.lock().work_counts();
    fgbs_trace::stat("featsel.masked_patched_work", patched);
    fgbs_trace::stat("featsel.masked_scratch_work", scratch);
    FeatureSelection {
        feature_ids: mask.ids(),
        mask,
        fitness: result.best_fitness,
        k,
        history: result.history,
        evaluations: result.evaluations,
        cache_hits: fitness_cache.hits(),
        cache_misses: fitness_cache.misses(),
        store_hits,
        store_misses,
        warm_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_reference;
    use fgbs_suites::{nr_suite, Class};

    #[test]
    fn ga_finds_a_workable_feature_set() {
        let cfg = PipelineConfig::fast();
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(8).collect();
        let suite = profile_reference(&apps, &cfg);
        let ga = GaConfig {
            population: 12,
            generations: 4,
            ..GaConfig::default()
        };
        let sel = select_features_ga(&suite, &[Arch::atom().scaled(fgbs_machine::PARK_SCALE)], &ga, &cfg);
        assert!(!sel.feature_ids.is_empty());
        assert!(sel.fitness.is_finite());
        assert!(sel.k >= 1);
        assert_eq!(sel.mask.len(), sel.feature_ids.len());
        assert!(sel.evaluations > 0);
        // Elitist GA: history is monotone non-increasing.
        for w in sel.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
