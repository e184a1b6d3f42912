//! Cluster-count sweeps (Figure 3) and the random-clustering baseline
//! (Figure 7).

use fgbs_clustering::random_partition;
use fgbs_extract::AppRun;
use fgbs_machine::Arch;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{KChoice, PipelineConfig};
use crate::micras::MicroCache;
use crate::predict::predict_with_runs;
use crate::profile::ProfiledSuite;
use crate::reduce::{reduce_cached, select_representatives, wellness, ReducedSuite};
use crate::reduction::reduction_factor;

/// One point of the error/reduction trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Requested cluster count.
    pub k: usize,
    /// Surviving representative count (after dissolution).
    pub representatives: usize,
    /// Median per-codelet prediction error (percent).
    pub median_error_pct: f64,
    /// Overall benchmarking-reduction factor.
    pub reduction_total: f64,
}

/// Sweep the cluster count from 1 to `k_max` on one target (Figure 3's
/// per-architecture panel). Ground-truth runs and microbenchmark
/// measurements are shared across all K.
pub fn sweep_k(
    suite: &ProfiledSuite,
    target: &Arch,
    k_max: usize,
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> Vec<SweepPoint> {
    let mut free = cfg.clone();
    free.deadline = None;
    try_sweep_k(suite, target, k_max, cache, &free)
        .expect("sweep without a deadline is infallible")
}

/// Deadline-aware [`sweep_k`]: the budget is checked before every K (a
/// sweep is the longest-running request the serve daemon exposes), so an
/// expired request stops between cluster counts instead of finishing the
/// whole curve. The ground-truth runs come from
/// [`MicroCache::target_runs`], so a cache that has run the suite on
/// `target` before simulates no application again.
pub fn try_sweep_k(
    suite: &ProfiledSuite,
    target: &Arch,
    k_max: usize,
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> Result<Vec<SweepPoint>, crate::PipelineError> {
    let mut stage_span = fgbs_trace::span("stage.sweep");
    stage_span.arg_u64("k_max", k_max as u64);
    cfg.check_deadline("sweep")?;
    fgbs_fault::maybe_delay("stage.sweep");
    let runs = cache.target_runs(suite, target, cfg);
    (1..=k_max.min(suite.len()))
        .map(|k| {
            cfg.check_deadline("sweep")?;
            let mut k_span = fgbs_trace::span("sweep.k");
            k_span.arg_u64("k", k as u64);
            let kcfg = cfg.clone().with_k(KChoice::Fixed(k));
            let reduced = reduce_cached(suite, &kcfg, cache);
            let out = predict_with_runs(suite, &reduced, target, &runs, cache, &kcfg);
            let red = reduction_factor(suite, &reduced, &out, target, cache, &kcfg);
            k_span.arg_u64("representatives", reduced.n_representatives() as u64);
            Ok(SweepPoint {
                k,
                representatives: reduced.n_representatives(),
                median_error_pct: out.median_error_pct(),
                reduction_total: red.total,
            })
        })
        .collect()
}

/// Error statistics of many random clusterings at one K (Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomClusteringStats {
    /// Cluster count.
    pub k: usize,
    /// Samples evaluated.
    pub samples: usize,
    /// Best (lowest) median error among samples, percent.
    pub best: f64,
    /// Median of the samples' median errors, percent.
    pub median: f64,
    /// Worst (highest) median error, percent.
    pub worst: f64,
}

/// Evaluate `samples` random partitions into `k` clusters through Steps
/// D + E, returning best/median/worst of the per-partition median errors.
#[allow(clippy::too_many_arguments)]
pub fn random_clustering_errors(
    suite: &ProfiledSuite,
    reduced_template: &ReducedSuite,
    target: &Arch,
    runs: &[AppRun],
    k: usize,
    samples: usize,
    seed: u64,
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> RandomClusteringStats {
    let eligible = wellness(suite, cfg, cache);
    let mut rng = StdRng::seed_from_u64(seed ^ (k as u64) << 32);
    let mut medians = Vec::with_capacity(samples);
    for _ in 0..samples {
        let p = random_partition(suite.len(), k, &mut rng);
        let (clusters, assignment) =
            select_representatives(&reduced_template.data, &p, &eligible);
        let reduced = ReducedSuite {
            clusters,
            k_requested: k,
            assignment,
            ill_behaved: reduced_template.ill_behaved.clone(),
            data: reduced_template.data.clone(),
            dendrogram: reduced_template.dendrogram.clone(),
            within_curve: reduced_template.within_curve.clone(),
        };
        let out = predict_with_runs(suite, &reduced, target, runs, cache, cfg);
        let m = out.median_error_pct();
        if m.is_finite() {
            medians.push(m);
        }
    }
    // total_cmp: NaN medians are filtered above, but a comparator that
    // cannot panic keeps a hostile input from killing the whole sweep.
    medians.sort_by(f64::total_cmp);
    let pick = |q: f64| -> f64 {
        if medians.is_empty() {
            f64::NAN
        } else {
            medians[((medians.len() - 1) as f64 * q).round() as usize]
        }
    };
    RandomClusteringStats {
        k,
        samples: medians.len(),
        best: pick(0.0),
        median: pick(0.5),
        worst: pick(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_reference, profile_target};
    use fgbs_suites::{nr_suite, Class};

    fn setup(n: usize) -> (ProfiledSuite, MicroCache, PipelineConfig) {
        let cfg = PipelineConfig::fast();
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(n).collect();
        let suite = profile_reference(&apps, &cfg);
        (suite, MicroCache::new(), cfg)
    }

    #[test]
    fn sweep_errors_trend_down_and_reduction_trends_down() {
        let (suite, cache, cfg) = setup(8);
        let pts = sweep_k(&suite, &Arch::atom().scaled(fgbs_machine::PARK_SCALE), 8, &cache, &cfg);
        assert_eq!(pts.len(), 8);
        // Error at K = n must not exceed error at K = 1; reduction at K=1
        // must exceed reduction at K = n.
        assert!(pts.last().unwrap().median_error_pct <= pts[0].median_error_pct + 1e-9);
        assert!(pts[0].reduction_total > pts.last().unwrap().reduction_total);
        for p in &pts {
            assert!(p.representatives <= p.k);
        }
    }

    #[test]
    fn random_clustering_is_no_better_than_guided_at_best() {
        let (suite, cache, cfg) = setup(8);
        let kcfg = cfg.clone().with_k(KChoice::Fixed(4));
        let reduced = reduce_cached(&suite, &kcfg, &cache);
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &atom, &kcfg);
        let guided =
            predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &kcfg).median_error_pct();
        let stats = random_clustering_errors(
            &suite, &reduced, &atom, &runs, 4, 30, 7, &cache, &kcfg,
        );
        assert_eq!(stats.samples, 30);
        assert!(stats.best <= stats.median);
        assert!(stats.median <= stats.worst);
        // The guided clustering should be competitive with the best random
        // (allow slack: tiny Test-class suites are noisy).
        assert!(
            guided <= stats.worst + 1e-9,
            "guided {guided}% vs worst random {}%",
            stats.worst
        );
    }
}
