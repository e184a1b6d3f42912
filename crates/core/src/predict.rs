//! Step E: the prediction model.
//!
//! Codelets in a cluster share their representative's speedup when moving
//! to a new architecture (§3.5): `t_tar_i ≈ t_ref_i / s_rk` with
//! `s_rk = t_ref_rk / t_tar_rk`. In matrix form `t_tar_all ≈ M · t_tar_repr`
//! with `M[i][k] = t_ref_i / t_ref_rk` for `p_i ∈ C_k` ([`model_matrix`]).

use fgbs_extract::AppRun;
use fgbs_machine::Arch;

use crate::config::PipelineConfig;
use crate::micras::MicroCache;
use crate::profile::{profile_target, ProfiledSuite};
use crate::reduce::ReducedSuite;

/// Per-codelet prediction vs ground truth on one target.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeletPrediction {
    /// Codelet index (into [`ProfiledSuite::codelets`]).
    pub codelet: usize,
    /// Cluster the codelet belongs to, if any survived.
    pub cluster: Option<usize>,
    /// Whether the codelet is its cluster's representative.
    pub is_representative: bool,
    /// Predicted seconds per invocation on the target.
    pub predicted_seconds: Option<f64>,
    /// Real (measured) seconds per invocation on the target.
    pub real_seconds: f64,
    /// Reference seconds per invocation (Step B).
    pub ref_seconds: f64,
    /// Relative error in percent, when a prediction exists.
    pub error_pct: Option<f64>,
}

/// The outcome of Step E on one target architecture.
#[derive(Debug, Clone)]
pub struct PredictionOutcome {
    /// Target architecture name.
    pub target: String,
    /// Per-codelet predictions, aligned with the profiled suite.
    pub predictions: Vec<CodeletPrediction>,
    /// Ground-truth full application runs on the target.
    pub target_runs: Vec<AppRun>,
    /// Standalone seconds-per-invocation of each cluster representative on
    /// the target (cluster order).
    pub rep_seconds: Vec<f64>,
}

impl PredictionOutcome {
    /// Median per-codelet error (percent) over predicted codelets.
    pub fn median_error_pct(&self) -> f64 {
        percentile_errors(&self.predictions, 0.5)
    }

    /// Mean per-codelet error (percent) over predicted codelets.
    pub fn average_error_pct(&self) -> f64 {
        average_error_pct(&self.predictions)
    }
}

/// Mean error (percent) over the codelets that have a prediction; NaN
/// when none has.
pub(crate) fn average_error_pct(preds: &[CodeletPrediction]) -> f64 {
    let errs: Vec<f64> = preds.iter().filter_map(|p| p.error_pct).collect();
    if errs.is_empty() {
        f64::NAN
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

fn percentile_errors(preds: &[CodeletPrediction], q: f64) -> f64 {
    let mut errs: Vec<f64> = preds.iter().filter_map(|p| p.error_pct).collect();
    if errs.is_empty() {
        return f64::NAN;
    }
    // NaN-safe total order (a zero reference time yields NaN/inf errors;
    // they must not panic the percentile deep inside a request handler).
    errs.sort_by(f64::total_cmp);
    let pos = q * (errs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        errs[lo]
    } else {
        errs[lo] + (errs[hi] - errs[lo]) * (pos - lo as f64)
    }
}

/// The model matrix `M` of §3.5: `N × K`, `M[i][k] = t_ref_i / t_ref_rk`
/// when codelet `i` belongs to cluster `k`, else 0.
pub fn model_matrix(suite: &ProfiledSuite, reduced: &ReducedSuite) -> fgbs_matrix::Matrix {
    let k = reduced.clusters.len();
    let mut m = fgbs_matrix::Matrix::zeros(suite.len(), k);
    for i in 0..suite.len() {
        if let Some(c) = reduced.assignment[i] {
            let rep = reduced.clusters[c].representative;
            m.row_mut(i)[c] = suite.codelets[i].tref_cycles / suite.codelets[rep].tref_cycles;
        }
    }
    m
}

/// Step E against precomputed ground-truth runs (sweeps reuse the runs
/// across many cluster counts).
pub fn predict_with_runs(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    target_runs: &[AppRun],
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> PredictionOutcome {
    let (predictions, rep_seconds) =
        predict_codelets(suite, reduced, target, target_runs, cache, cfg);
    PredictionOutcome {
        target: target.name.clone(),
        predictions,
        target_runs: target_runs.to_vec(),
        rep_seconds,
    }
}

/// The model behind [`predict_with_runs`]: every codelet's prediction,
/// and each representative's standalone seconds per invocation on the
/// target (cluster order). It copies none of `target_runs`, so a caller
/// that needs only the errors (the GA's fitness) pays for no outcome.
pub(crate) fn predict_codelets(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    target_runs: &[AppRun],
    cache: &MicroCache,
    cfg: &PipelineConfig,
) -> (Vec<CodeletPrediction>, Vec<f64>) {
    let mut stage_span = fgbs_trace::span("stage.predict");
    stage_span.arg_u64("representatives", reduced.clusters.len() as u64);
    stage_span.arg_u64("codelets", suite.len() as u64);
    // Measure each representative's standalone microbenchmark on the
    // target (the only target-side cost of the method).
    let rep_seconds: Vec<f64> = reduced
        .clusters
        .iter()
        .map(|cl| {
            let rep = cl.representative;
            let r = cache.measure(
                rep,
                &suite.codelets[rep].micro,
                target,
                cfg.noise_seed,
                cfg.micro_min_seconds,
                cfg.micro_min_invocations,
            );
            r.median_seconds
        })
        .collect();

    let reference = &cfg.reference;
    let predictions = suite
        .codelets
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let run = &target_runs[c.app];
            let real_seconds = target.seconds(run.profiles[c.local].mean_cycles());
            let ref_seconds = reference.seconds(c.tref_cycles);
            let cluster = reduced.assignment[i];
            let predicted_seconds = cluster.map(|k| {
                let rep = reduced.clusters[k].representative;
                let tref_rk = reference.seconds(suite.codelets[rep].tref_cycles);
                ref_seconds * rep_seconds[k] / tref_rk
            });
            let error_pct = predicted_seconds.map(|p| {
                if real_seconds > 0.0 {
                    100.0 * (p - real_seconds).abs() / real_seconds
                } else {
                    0.0
                }
            });
            CodeletPrediction {
                codelet: i,
                cluster,
                is_representative: cluster
                    .map(|k| reduced.clusters[k].representative == i)
                    .unwrap_or(false),
                predicted_seconds,
                real_seconds,
                ref_seconds,
                error_pct,
            }
        })
        .collect();
    (predictions, rep_seconds)
}

/// Step E: run the ground truth on the target, measure the
/// representatives and predict every codelet.
///
/// With a store attached ([`PipelineConfig::store`]) the outcome is
/// looked up first — keyed by the suite, the reduction's content and the
/// target — and persisted after computing.
pub fn predict(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    cfg: &PipelineConfig,
) -> PredictionOutcome {
    crate::persist::cached(
        cfg,
        fgbs_store::ArtifactKind::Predict,
        || crate::persist::predict_key(suite, reduced, target, cfg),
        crate::persist::decode_prediction,
        crate::persist::encode_prediction,
        || compute_predict(suite, reduced, target, cfg),
    )
}

/// Deadline- and input-validating [`predict`]: checks the request
/// budget at the stage boundary (around the `stage.predict` failpoint)
/// and rejects non-finite reference times with a typed error before
/// they can poison the prediction ratios.
///
/// `t_pred = t_ref · t_rep / t_ref_rk` divides by each representative's
/// reference time: a zero or non-finite `t_ref_rk` (a "zero-time
/// codelet") would turn every prediction in its cluster into NaN/inf.
/// The infallible [`predict`] tolerates that (its sorts are NaN-safe);
/// this variant surfaces it as [`crate::PipelineError::NonFinite`] so a
/// service can answer 500 with the offending codelet named.
pub fn try_predict(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    cfg: &PipelineConfig,
) -> Result<PredictionOutcome, crate::PipelineError> {
    cfg.check_deadline("predict")?;
    fgbs_fault::maybe_delay("stage.predict");
    cfg.check_deadline("predict")?;
    validate_finite(suite, reduced)?;
    Ok(predict(suite, reduced, target, cfg))
}

/// Reject reference times that would make the §3.5 model ill-defined.
fn validate_finite(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
) -> Result<(), crate::PipelineError> {
    for c in &suite.codelets {
        if !c.tref_cycles.is_finite() {
            return Err(crate::PipelineError::NonFinite {
                stage: "predict",
                detail: format!("codelet `{}` has non-finite t_ref {}", c.name, c.tref_cycles),
            });
        }
    }
    for cl in &reduced.clusters {
        let rep = &suite.codelets[cl.representative];
        if rep.tref_cycles <= 0.0 {
            return Err(crate::PipelineError::NonFinite {
                stage: "predict",
                detail: format!(
                    "representative `{}` has zero-time reference profile (t_ref = {}); \
                     its cluster's predictions would be NaN/inf",
                    rep.name, rep.tref_cycles
                ),
            });
        }
    }
    Ok(())
}

/// The uncached Step E.
fn compute_predict(
    suite: &ProfiledSuite,
    reduced: &ReducedSuite,
    target: &Arch,
    cfg: &PipelineConfig,
) -> PredictionOutcome {
    let runs = profile_target(suite, target, cfg);
    predict_with_runs(suite, reduced, target, &runs, &MicroCache::new(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::profile::profile_reference;
    use crate::reduce::reduce_cached;
    use fgbs_suites::{nr_suite, Class};

    fn setup(n: usize, k: usize) -> (ProfiledSuite, ReducedSuite, MicroCache, PipelineConfig) {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(k));
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(n).collect();
        let suite = profile_reference(&apps, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        (suite, reduced, cache, cfg)
    }

    #[test]
    fn representatives_are_predicted_near_exactly() {
        let (suite, reduced, cache, cfg) = setup(8, 3);
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &atom, &cfg);
        let out = predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &cfg);
        for p in out.predictions.iter().filter(|p| p.is_representative) {
            // The representative is measured directly: its prediction is
            // its own standalone time, which by well-behavedness is within
            // ~10 % of its in-app time (plus noise).
            let e = p.error_pct.expect("reps are predicted");
            assert!(e < 15.0, "rep error {e}% too large");
        }
    }

    #[test]
    fn full_k_gives_small_errors_everywhere() {
        // One cluster per codelet: every codelet is its own representative.
        let (suite, reduced, cache, cfg) = setup(6, 6);
        let sb = Arch::sandy_bridge().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &sb, &cfg);
        let out = predict_with_runs(&suite, &reduced, &sb, &runs, &cache, &cfg);
        assert!(out.median_error_pct() < 15.0, "{}", out.median_error_pct());
        assert_eq!(out.rep_seconds.len(), 6);
    }

    #[test]
    fn model_matrix_reproduces_predictions() {
        let (suite, reduced, cache, cfg) = setup(8, 3);
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &atom, &cfg);
        let out = predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &cfg);
        let m = model_matrix(&suite, &reduced);
        for (i, p) in out.predictions.iter().enumerate() {
            let via_matrix: f64 = m
                .row(i)
                .iter()
                .zip(&out.rep_seconds)
                .map(|(a, b)| a * b)
                .sum();
            let direct = p.predicted_seconds.unwrap();
            assert!(
                (via_matrix - direct).abs() <= 1e-12 * direct.max(1.0),
                "matrix and direct predictions must agree"
            );
        }
    }

    #[test]
    fn matrix_rows_have_single_nonzero() {
        let (suite, reduced, _, _) = setup(8, 3);
        let m = model_matrix(&suite, &reduced);
        for row in m.rows() {
            let nz = row.iter().filter(|v| **v != 0.0).count();
            assert_eq!(nz, 1);
        }
    }

    #[test]
    fn errors_shrink_with_more_clusters() {
        let cfg1 = PipelineConfig::fast().with_k(KChoice::Fixed(2));
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(10).collect();
        let suite = profile_reference(&apps, &cfg1);
        let cache = MicroCache::new();
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &atom, &cfg1);

        let median_at = |k: usize| {
            let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(k));
            let reduced = reduce_cached(&suite, &cfg, &cache);
            predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &cfg).median_error_pct()
        };
        let coarse = median_at(2);
        let fine = median_at(10);
        assert!(
            fine <= coarse + 1e-9,
            "more clusters must not hurt: K=2 -> {coarse}%, K=10 -> {fine}%"
        );
    }

    #[test]
    fn zero_time_codelet_does_not_panic_and_is_typed_in_try_predict() {
        // Regression: a zero reference time yields NaN/inf speedups; the
        // comparators used to `partial_cmp(..).expect(..)` and panic deep
        // inside prediction. They must sort NaN-safely now, and the
        // fallible path must name the offender in a typed error.
        let (mut suite, reduced, cache, cfg) = setup(6, 3);
        let rep = reduced.clusters[0].representative;
        suite.codelets[rep].tref_cycles = 0.0;

        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let runs = profile_target(&suite, &atom, &cfg);
        // Infallible path: non-finite predictions, but no panic anywhere
        // (predict_with_runs, percentile, ranking).
        let out = predict_with_runs(&suite, &reduced, &atom, &runs, &cache, &cfg);
        assert!(out
            .predictions
            .iter()
            .filter_map(|p| p.predicted_seconds)
            .any(|p| !p.is_finite()));
        let _ = out.median_error_pct(); // NaN-safe sort must not panic

        // Fallible path: typed error naming the zero-time representative.
        let err = try_predict(&suite, &reduced, &atom, &cfg).unwrap_err();
        match err {
            crate::PipelineError::NonFinite { stage, detail } => {
                assert_eq!(stage, "predict");
                assert!(detail.contains(&suite.codelets[rep].name), "{detail}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_predict_before_work() {
        let (suite, reduced, _cache, cfg) = setup(4, 2);
        let cfg = cfg.with_deadline(fgbs_fault::Deadline::after_ms(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let atom = Arch::atom().scaled(fgbs_machine::PARK_SCALE);
        let err = try_predict(&suite, &reduced, &atom, &cfg).unwrap_err();
        assert_eq!(err, crate::PipelineError::DeadlineExceeded { stage: "predict" });
    }

    #[test]
    fn percentile_tolerates_non_finite_errors() {
        let mk = |e: f64| CodeletPrediction {
            codelet: 0,
            cluster: Some(0),
            is_representative: false,
            predicted_seconds: Some(1.0),
            real_seconds: 1.0,
            ref_seconds: 1.0,
            error_pct: Some(e),
        };
        let preds = vec![mk(f64::NAN), mk(f64::INFINITY), mk(3.0), mk(1.0)];
        // No panic; finite values still order ahead of inf/NaN.
        let p0 = percentile_errors(&preds, 0.0);
        assert_eq!(p0, 1.0);
    }

    #[test]
    fn percentile_is_median_for_odd_counts() {
        let mk = |e: f64| CodeletPrediction {
            codelet: 0,
            cluster: Some(0),
            is_representative: false,
            predicted_seconds: Some(1.0),
            real_seconds: 1.0,
            ref_seconds: 1.0,
            error_pct: Some(e),
        };
        let preds = vec![mk(5.0), mk(1.0), mk(3.0)];
        assert_eq!(percentile_errors(&preds, 0.5), 3.0);
        assert!(percentile_errors(&[], 0.5).is_nan());
    }
}
