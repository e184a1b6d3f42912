//! Parallel evaluation over targets.
//!
//! System selection evaluates many candidate machines. Nearly all of its
//! cost is simulation: every target's full application runs (the ground
//! truth) and every codelet's microbenchmark on every target. Those runs
//! are independent, so they fan out over the shared work pool
//! ([`fgbs_pool::WorkPool`], the same executor the GA and the distance
//! matrix use) as two flat maps, one item per (target, application) and
//! one per (target, codelet). The cheap per-target assembly of
//! predictions, reduction factors and aggregates then runs in target
//! order. Results are identical at every thread count.

use fgbs_extract::AppRun;
use fgbs_machine::Arch;

use crate::appagg::{aggregate_apps, geometric_mean_speedup, AppPrediction};
use crate::config::PipelineConfig;
use crate::micras::MicroCache;
use crate::predict::{predict_with_runs, PredictionOutcome};
use crate::profile::{target_run, ProfiledSuite};
use crate::reduce::ReducedSuite;
use crate::reduction::{reduction_factor, ReductionBreakdown};

/// Everything Step E produces for one target machine.
#[derive(Debug, Clone)]
pub struct TargetEvaluation {
    /// Target name.
    pub target: String,
    /// Per-codelet predictions and ground truth.
    pub outcome: PredictionOutcome,
    /// Benchmarking-cost comparison.
    pub reduction: ReductionBreakdown,
    /// Per-application aggregation.
    pub apps: Vec<AppPrediction>,
    /// Geometric-mean speedups `(real, predicted)`.
    pub geomean: (f64, f64),
}

/// Evaluate the reduced suite on every target, its simulation fanned out
/// over the configured work pool (one work item per ground-truth
/// application run and per microbenchmark; `cfg.threads` caps the
/// workers). The microbenchmark cache is shared across threads.
pub fn evaluate_targets(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    targets: &[Arch],
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> Vec<TargetEvaluation> {
    let pool = cfg.pool();
    let n_apps = suite.apps.len();
    let mut runs = pool
        .map_indexed(targets.len() * n_apps, |k| {
            target_run(suite, &targets[k / n_apps], k % n_apps, cfg)
        })
        .into_iter();
    // Every codelet's microbenchmark on every target: the representatives
    // for the predictions, all of them for the reduction factors.
    let n = suite.len();
    pool.for_each_indexed(targets.len() * n, |k| {
        let idx = k % n;
        cache.measure(
            idx,
            &suite.codelets[idx].micro,
            &targets[k / n],
            cfg.noise_seed,
            cfg.micro_min_seconds,
            cfg.micro_min_invocations,
        );
    });
    targets
        .iter()
        .map(|target| {
            let runs: Vec<AppRun> = runs.by_ref().take(n_apps).collect();
            let outcome = predict_with_runs(suite, reduced, target, &runs, cache, cfg);
            let reduction = reduction_factor(suite, reduced, &outcome, target, cache, cfg);
            let apps = aggregate_apps(suite, &outcome, target, cfg);
            let geomean = geometric_mean_speedup(&apps);
            TargetEvaluation {
                target: target.name.clone(),
                outcome,
                reduction,
                apps,
                geomean,
            }
        })
        .collect()
}

/// Rank targets by predicted geometric-mean speedup, best first.
/// Returns `(name, predicted, real)` triples.
pub fn rank_targets(evals: &[TargetEvaluation]) -> Vec<(String, f64, f64)> {
    let mut v: Vec<(String, f64, f64)> = evals
        .iter()
        .map(|e| (e.target.clone(), e.geomean.1, e.geomean.0))
        .collect();
    // NaN-safe descending order: a degenerate (zero-time) codelet can
    // make a geomean non-finite; it ranks last instead of panicking.
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::persist::encode_profiled_suite;
    use crate::profile::{profile_reference, profile_target};
    use crate::reduce::{reduce_cached, wellness};
    use fgbs_machine::PARK_SCALE;
    use fgbs_suites::{nr_suite, Class};

    #[test]
    fn parallel_matches_sequential() {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(4)).with_threads(4);
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(8).collect();
        let suite = profile_reference(&apps, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let targets = Arch::targets_scaled();

        let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
        assert_eq!(evals.len(), 3);
        for (e, t) in evals.iter().zip(&targets) {
            assert_eq!(e.target, t.name);
            // Cross-check against a sequential run with the same seeds.
            let runs = profile_target(&suite, t, &cfg);
            let seq = predict_with_runs(&suite, &reduced, t, &runs, &cache, &cfg);
            assert_eq!(seq.predictions, e.outcome.predictions);
        }
    }

    /// Every pooled stage gives the same bits at any thread count.
    #[test]
    fn pooled_stages_are_bitwise_identical_across_thread_counts() {
        let apps = nr_suite(Class::Test);
        let targets = Arch::targets_scaled();
        let run = |threads: usize| {
            let cfg = PipelineConfig::default().with_threads(threads);
            let suite = profile_reference(&apps, &cfg);
            let cache = MicroCache::new();
            let well = wellness(&suite, &cfg, &cache);
            let truth = format!("{:?}", profile_target(&suite, &targets[0], &cfg));
            let reduced = reduce_cached(&suite, &cfg, &cache);
            // Debug prints every f64 in its shortest round-trip form.
            let evals = format!(
                "{:?}",
                evaluate_targets(&suite, &reduced, &targets, &cache, &cfg)
            );
            (encode_profiled_suite(&suite), well, truth, evals)
        };
        let serial = run(1);
        for threads in [2, 8] {
            assert!(
                run(threads) == serial,
                "{threads} threads moved an output bit"
            );
        }
    }

    #[test]
    fn ranking_is_descending_by_prediction() {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(4));
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(6).collect();
        let suite = profile_reference(&apps, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let targets = vec![
            Arch::atom().scaled(PARK_SCALE),
            Arch::sandy_bridge().scaled(PARK_SCALE),
        ];
        let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
        let rank = rank_targets(&evals);
        assert_eq!(rank.len(), 2);
        assert!(rank[0].1 >= rank[1].1);
        assert_eq!(rank[0].0, "Sandy Bridge", "SB must out-predict Atom");
    }
}
