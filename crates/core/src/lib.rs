//! The benchmark-reduction pipeline: Steps A–E of *Fine-grained Benchmark
//! Subsetting for System Selection* (CGO 2014).
//!
//! Given a set of [`fgbs_extract::Application`]s and a machine park:
//!
//! 1. **Step A** — [`profile_reference`] detects codelets with the
//!    Codelet-Finder substrate.
//! 2. **Step B** — the same call profiles every codelet on the reference
//!    architecture and tags it with its 76-feature signature.
//! 3. **Step C** — [`reduce`] clusters the signatures with Ward's
//!    criterion, cutting at a fixed K or at the Elbow.
//! 4. **Step D** — [`reduce`] extracts cluster representatives as
//!    standalone microbenchmarks, retrying past ill-behaved codelets and
//!    dissolving clusters with none eligible.
//! 5. **Step E** — [`predict`] measures the representatives on each
//!    target and extrapolates every codelet, every application and the
//!    whole-suite geometric-mean speedup; [`reduction_factor`] computes
//!    how much cheaper the reduced suite is to run.
//!
//! [`sweep_k`] regenerates the error-vs-reduction trade-off of Figure 3,
//! [`random_clustering_errors`] the random baseline of Figure 7,
//! [`per_app_subsetting`] the comparison of Figure 8, and
//! [`select_features_ga`] the genetic feature selection of Table 2.
//!
//! # Example
//!
//! ```no_run
//! use fgbs_core::{PipelineConfig, profile_reference, reduce, predict};
//! use fgbs_machine::Arch;
//! use fgbs_suites::{nr_suite, Class};
//!
//! let cfg = PipelineConfig::default();
//! let apps = nr_suite(Class::Test);
//! let profiled = profile_reference(&apps, &cfg);
//! let reduced = reduce(&profiled, &cfg);
//! let atom = Arch::atom();
//! let outcome = predict(&profiled, &reduced, &atom, &cfg);
//! println!("median error: {:.1}%", outcome.median_error_pct());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod appagg;
mod config;
mod error;
mod featsel;
mod micras;
mod parallel;
mod perapp;
mod persist;
mod predict;
mod profile;
mod reduce;
mod reduction;
mod sweep;

pub use appagg::{aggregate_apps, geometric_mean_speedup, AppPrediction};
pub use config::{KChoice, PipelineConfig};
pub use error::PipelineError;
pub use featsel::{select_features_ga, FeatureSelection};
pub use micras::MicroCache;
pub use parallel::{evaluate_targets, rank_targets, TargetEvaluation};
pub use perapp::{per_app_subsetting, PerAppPoint};
pub use persist::{
    apps_fingerprint, decode_fitness_snapshot, decode_prediction, decode_profiled_suite,
    decode_reduced_suite, encode_fitness_snapshot, encode_prediction, encode_profiled_suite,
    encode_reduced_suite, fitness_key, predict_key, profile_key, reduce_key, suite_fingerprint,
    CODEC_VERSION,
};
pub use predict::{
    model_matrix, predict, predict_with_runs, try_predict, CodeletPrediction, PredictionOutcome,
};
pub use profile::{profile_reference, profile_target, CodeletInfo, ProfiledSuite};
pub use reduce::{
    reduce, reduce_cached, reduce_with_observations, try_reduce_cached, wellness, Cluster,
    ReducedSuite,
};
pub use reduction::{reduction_factor, ReductionBreakdown};
pub use sweep::{
    random_clustering_errors, sweep_k, try_sweep_k, RandomClusteringStats, SweepPoint,
};
