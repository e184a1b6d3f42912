//! Whole-park selection, as `fgbs select` runs it: profile the suite on
//! the reference, reduce at the elbow, evaluate every target of the
//! scaled park on the pool, rank.

use std::collections::BTreeMap;

use fgbs_clustering::{normalize, DistanceMatrix};
use fgbs_core::{
    aggregate_apps, evaluate_targets, geometric_mean_speedup, predict_with_runs, profile_reference,
    rank_targets, reduce, reduction_factor, MicroCache, PipelineConfig, ProfiledSuite,
    ReducedSuite, TargetEvaluation,
};
use fgbs_extract::Application;
use fgbs_machine::Arch;

use crate::compose::{self, Work};
use crate::layers::Sample;
use crate::spans;
use crate::stats::Digest;

/// One untraced selection; returns its output digest.
pub fn run(apps: &[Application], cfg: &PipelineConfig) -> String {
    let suite = profile_reference(apps, cfg);
    let reduced = reduce(&suite, cfg);
    let cache = MicroCache::new();
    let evals = evaluate_targets(&suite, &reduced, &Arch::targets_scaled(), &cache, cfg);
    let rank = rank_targets(&evals);
    digest(&suite, &reduced, &evals, &rank)
}

/// One selection re-composed from layer calls under spans. Returns the
/// output digest (which must equal [`run`]'s) and the layer sample.
pub fn run_traced(build: fn() -> Vec<Application>, cfg: &PipelineConfig) -> (String, Sample) {
    spans::start();
    let apps = spans::timed("suites.build", build);
    let root = spans::enter("bench.select");
    let suite = compose::profile(&apps, cfg);
    let wellness_cache = MicroCache::new();
    let reduced = {
        let _stage = spans::enter("core.reduce");
        let data = spans::timed("clustering.normalize", || {
            normalize(&suite.features.project(&cfg.features))
        });
        let dist = spans::timed("clustering.distance", || {
            DistanceMatrix::euclidean_with(&data, &cfg.pool())
        });
        let eligible = compose::wellness(&suite, cfg, &wellness_cache);
        compose::reduce_tail(&suite, cfg, data, &dist, &eligible)
    };

    let targets = Arch::targets_scaled();
    let cache = MicroCache::new();
    let pool = cfg.pool();
    let evals: Vec<TargetEvaluation> = {
        let _map = spans::enter("pool.map");
        let parent = spans::current();
        pool.map(&targets, |_, target| {
            let _adopted = spans::adopt(parent);
            let _item = spans::enter("core.target_eval");
            evaluate_one(&suite, &reduced, target, &cache, cfg)
        })
    };
    let rank = spans::timed("core.rank", || rank_targets(&evals));
    drop(root);
    let spans = spans::stop();
    let out = digest(&suite, &reduced, &evals, &rank);

    // Counted off the clock, after the root span closed.
    let n = suite.len() as u64;
    let k = reduced.clusters.len() as u64;
    let mut sample = Sample::from_spans(&spans);
    let calls = n + targets.len() as u64 * (2 * k + n);
    let distinct = (wellness_cache.len() + cache.len()) as u64;
    let mut per_invocation = BTreeMap::new();
    let mut work = compose::app_work(&suite.runs);
    for e in &evals {
        work.add(compose::app_work(&e.outcome.target_runs));
    }
    let mut micro = Work::default();
    micro.add(compose::micro_work(
        &wellness_cache,
        &suite,
        &cfg.reference,
        cfg,
        &mut per_invocation,
    ));
    for t in &targets {
        micro.add(compose::micro_work(
            &cache,
            &suite,
            t,
            cfg,
            &mut per_invocation,
        ));
    }
    sample.micro_cache(calls, distinct);
    sample.machine(work, micro, micro);
    sample.pool_efficiency(&spans, "core.target_eval", "pool.map", pool.threads());
    (out, sample)
}

/// Step E for one target, with its microbenchmark runs made in the order
/// `predict_with_runs` and `reduction_factor` make them, so the stage
/// calls that follow find every measurement cached.
fn evaluate_one(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> TargetEvaluation {
    let runs = compose::target_runs(suite, target, cfg);
    let outcome = {
        let _stage = spans::enter("core.predict");
        for cl in &reduced.clusters {
            compose::measure(cache, suite, cl.representative, target, cfg);
        }
        predict_with_runs(suite, reduced, target, &runs, cache, cfg)
    };
    let reduction = {
        let _stage = spans::enter("core.reduction_factor");
        for idx in (0..suite.len()).chain(reduced.clusters.iter().map(|c| c.representative)) {
            compose::measure(cache, suite, idx, target, cfg);
        }
        reduction_factor(suite, reduced, &outcome, target, cache, cfg)
    };
    let (apps, geomean) = spans::timed("core.aggregate", || {
        let apps = aggregate_apps(suite, &outcome, target, cfg);
        let geomean = geometric_mean_speedup(&apps);
        (apps, geomean)
    });
    TargetEvaluation {
        target: target.name.clone(),
        outcome,
        reduction,
        apps,
        geomean,
    }
}

/// The recommended system, K, the clusters and representatives, the
/// ill-behaved set, and every target's geometric means and reduction
/// factors, by their exact bits.
fn digest(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    evals: &[TargetEvaluation],
    rank: &[(String, f64, f64)],
) -> String {
    let mut d = Digest::default();
    d.str(&rank[0].0)
        .u64(suite.len() as u64)
        .f64(suite.coverage);
    d.u64(reduced.k_requested as u64)
        .u64(reduced.clusters.len() as u64);
    for c in &reduced.clusters {
        d.u64(c.representative as u64).u64(c.members.len() as u64);
        for &m in &c.members {
            d.u64(m as u64);
        }
    }
    d.u64(reduced.ill_behaved.len() as u64);
    for &i in &reduced.ill_behaved {
        d.u64(i as u64);
    }
    for e in evals {
        d.str(&e.target).f64(e.geomean.0).f64(e.geomean.1);
        d.f64(e.reduction.total)
            .f64(e.reduction.invocation_factor)
            .f64(e.reduction.clustering_factor);
    }
    d.hex()
}
