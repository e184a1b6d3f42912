//! GA feature selection, as `fgbs features` runs it: `select_features_ga`
//! over a profiled suite, trained on Atom and Sandy Bridge.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fgbs_analysis::{FeatureMask, N_FEATURES};
use fgbs_clustering::{normalize, MaskedDistanceCache};
use fgbs_core::{predict_with_runs, select_features_ga, MicroCache, PipelineConfig, ProfiledSuite};
use fgbs_extract::{AppRun, Application};
use fgbs_genetic::{minimize_parallel, BitGenome, FitnessCache, GaConfig};
use fgbs_machine::{Arch, PARK_SCALE};

use crate::compose::{self, Work};
use crate::layers::Sample;
use crate::spans;
use crate::stats::Digest;

/// The training targets `fgbs features` uses.
pub fn targets() -> Vec<Arch> {
    vec![
        Arch::atom().scaled(PARK_SCALE),
        Arch::sandy_bridge().scaled(PARK_SCALE),
    ]
}

pub fn ga_config(population: usize, generations: usize, seed: u64) -> GaConfig {
    GaConfig {
        population,
        generations,
        seed,
        ..GaConfig::default()
    }
}

/// One untraced GA feature selection; returns its output digest.
pub fn run(suite: &ProfiledSuite, ga: &GaConfig, cfg: &PipelineConfig) -> String {
    let sel = select_features_ga(suite, &targets(), ga, cfg);
    digest(&sel.feature_ids, sel.fitness, sel.k, sel.evaluations)
}

/// One GA feature selection re-composed from layer calls under spans:
/// every fitness evaluation runs masked patching, linkage, the elbow
/// cut, representative selection and prediction as separate calls.
/// Returns the output digest (which must equal [`run`]'s) and the layer
/// sample.
pub fn run_traced(
    build: fn() -> Vec<Application>,
    suite: &ProfiledSuite,
    ga: &GaConfig,
    cfg: &PipelineConfig,
) -> (String, Sample) {
    let targets = targets();
    spans::start();
    // The suite was built and profiled in set-up; a fresh build is timed
    // here for `suites.build_ms` and dropped.
    drop(spans::timed("suites.build", build));
    let root = spans::enter("bench.features");
    let cache = MicroCache::new();
    let runs: Vec<Vec<AppRun>> = targets
        .iter()
        .map(|t| compose::target_runs(suite, t, cfg))
        .collect();
    let mut ga_cfg = ga.clone();
    ga_cfg.genome_len = N_FEATURES;
    let inner_cfg = cfg.clone().with_threads(1).without_store();
    let eligible = compose::wellness(suite, &inner_cfg, &cache);
    let z = spans::timed("clustering.normalize", || {
        normalize(&suite.features.matrix())
    });
    let masked = Mutex::new(MaskedDistanceCache::new(z.clone()));
    let patch_pool = cfg.pool();
    let predict_calls = AtomicU64::new(0);

    let eval_mask = |mask: &FeatureMask| -> (f64, usize) {
        let _eval = spans::enter("genetic.eval");
        let ids = mask.ids();
        let dist = {
            let mut guard = spans::timed("genetic.lock_wait", || {
                masked.lock().expect("masked distance cache lock")
            });
            spans::timed("clustering.masked_patch", || {
                guard.distances_with(&ids, &patch_pool)
            })
        };
        let data = spans::timed("matrix.project", || z.project_cols(&ids));
        let reduced = compose::reduce_tail(suite, &inner_cfg, data, &dist, &eligible);
        let k_used = reduced.n_representatives();
        let mut worst = 0.0f64;
        for (t, r) in targets.iter().zip(&runs) {
            predict_calls.fetch_add(k_used as u64, Ordering::Relaxed);
            let err = spans::timed("core.predict", || {
                predict_with_runs(suite, &reduced, t, r, &cache, &inner_cfg)
            })
            .average_error_pct();
            if !err.is_finite() {
                return (f64::NAN, k_used);
            }
            worst = worst.max(err);
        }
        (worst, k_used)
    };

    let fitness_cache = FitnessCache::new();
    let result = {
        let _ga = spans::enter("genetic.minimize");
        let parent = spans::current();
        let fitness = |g: &BitGenome| -> f64 {
            let _adopted = spans::adopt(parent);
            if g.count_ones() == 0 {
                return f64::MAX / 2.0;
            }
            let (worst, k_used) = eval_mask(&FeatureMask::from_bits(g.bits().to_vec()));
            if !worst.is_finite() {
                return f64::MAX / 2.0;
            }
            worst * k_used.max(1) as f64
        };
        minimize_parallel(&ga_cfg, &cfg.pool(), &fitness_cache, fitness)
    };
    let mask = FeatureMask::from_bits(result.best.bits().to_vec());
    let (_, k) = eval_mask(&mask);
    drop(root);
    let spans = spans::stop();
    let out = digest(&mask.ids(), result.best_fitness, k, result.evaluations);

    // Counted off the clock, after the root span closed.
    let mut sample = Sample::from_spans(&spans);
    let calls = suite.len() as u64 + predict_calls.load(Ordering::Relaxed);
    sample.micro_cache(calls, cache.len() as u64);
    let mut per_invocation = BTreeMap::new();
    let mut work = Work::default();
    for r in &runs {
        work.add(compose::app_work(r));
    }
    // Only the reference runs (wellness) sit in `extract.micro` spans;
    // target runs happen inside `predict_with_runs` on first use.
    let timed_micro = compose::micro_work(&cache, suite, &cfg.reference, cfg, &mut per_invocation);
    let mut micro = timed_micro;
    for t in &targets {
        micro.add(compose::micro_work(
            &cache,
            suite,
            t,
            cfg,
            &mut per_invocation,
        ));
    }
    sample.machine(work, micro, timed_micro);
    sample.pool_efficiency(
        &spans,
        "genetic.eval",
        "genetic.minimize",
        cfg.pool().threads(),
    );
    let lookups = fitness_cache.hits() + fitness_cache.misses();
    sample.set("genetic.evaluations", result.evaluations as f64);
    sample.set(
        "genetic.fitness_cache_hit_ratio",
        fitness_cache.hits() as f64 / lookups.max(1) as f64,
    );
    (out, sample)
}

/// The selected feature ids, the fitness bits, K and the evaluation count.
fn digest(ids: &[usize], fitness: f64, k: usize, evaluations: usize) -> String {
    let mut d = Digest::default();
    d.u64(ids.len() as u64);
    for &i in ids {
        d.u64(i as u64);
    }
    d.f64(fitness).u64(k as u64).u64(evaluations as u64);
    d.hex()
}
