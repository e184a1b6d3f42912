//! # fgbs — fine-grained benchmark subsetting for system selection
//!
//! A complete Rust reproduction of *Fine-grained Benchmark Subsetting for
//! System Selection* (de Oliveira Castro, Kashnikov, Akel, Popov, Jalby —
//! CGO 2014).
//!
//! The paper reduces the cost of choosing the best machine for a set of
//! applications: applications are broken into *codelets*, similar codelets
//! are clustered on 76 static + dynamic performance features, and only one
//! representative per cluster — extracted as a standalone microbenchmark —
//! is run on each candidate machine. A simple speedup model then predicts
//! every codelet, every application, and the per-machine geometric-mean
//! speedup, at a fraction of the benchmarking cost.
//!
//! This crate re-exports the whole stack:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`isa`] | `fgbs-isa` | codelet IR, virtual ISA, compiler lowering |
//! | [`machine`] | `fgbs-machine` | the simulated machine park (Table 1) |
//! | [`analysis`] | `fgbs-analysis` | the 76-feature MAQAO/Likwid substitute |
//! | [`matrix`] | `fgbs-matrix` | flat numeric kernel layer: matrices, condensed triangles, distance kernels |
//! | [`extract`] | `fgbs-extract` | applications, codelet finder, memory dumps, microbenchmarks |
//! | [`clustering`] | `fgbs-clustering` | Ward hierarchical clustering + elbow |
//! | [`genetic`] | `fgbs-genetic` | GA feature selection |
//! | [`pool`] | `fgbs-pool` | shared scoped work pool + daemon job executor |
//! | [`reactor`] | `fgbs-reactor` | minimal epoll readiness reactor (wake fd, interest sets) |
//! | [`suites`] | `fgbs-suites` | Numerical Recipes + NAS-like benchmark suites |
//! | [`core`] | `fgbs-core` | the five-step pipeline and prediction model |
//! | [`snippet`] | `fgbs-snippet` | portable, versioned, replayable codelet-snippet packs |
//! | [`store`] | `fgbs-store` | content-addressed, versioned on-disk artifact store |
//! | [`serve`] | `fgbs-serve` | concurrent HTTP system-selection service |
//! | [`trace`] | `fgbs-trace` | cross-crate spans, counters, Chrome-trace export |
//! | [`fault`] | `fgbs-fault` | deterministic failpoints, retry/backoff, deadlines |
//! | [`bench`] | `fgbs-bench` | experiment harness + benchmark barometer (`fgbs bench`) |
//!
//! # Quickstart
//!
//! ```
//! use fgbs::core::{profile_reference, reduce, predict, PipelineConfig, KChoice};
//! use fgbs::machine::{Arch, PARK_SCALE};
//! use fgbs::suites::{nr_suite, Class};
//!
//! // Steps A+B: profile a few NR benchmarks on the reference machine.
//! let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(3));
//! let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(6).collect();
//! let suite = profile_reference(&apps, &cfg);
//!
//! // Steps C+D: cluster and extract representatives.
//! let reduced = reduce(&suite, &cfg);
//! assert!(reduced.n_representatives() <= 3);
//!
//! // Step E: predict every codelet on Atom from 3 microbenchmark runs.
//! let atom = Arch::atom().scaled(PARK_SCALE);
//! let outcome = predict(&suite, &reduced, &atom, &cfg);
//! assert!(outcome.median_error_pct().is_finite());
//! ```

#![warn(missing_docs)]

pub use fgbs_analysis as analysis;
pub use fgbs_bench as bench;
pub use fgbs_clustering as clustering;
pub use fgbs_core as core;
pub use fgbs_extract as extract;
pub use fgbs_fault as fault;
pub use fgbs_genetic as genetic;
pub use fgbs_isa as isa;
pub use fgbs_machine as machine;
pub use fgbs_matrix as matrix;
pub use fgbs_pool as pool;
pub use fgbs_reactor as reactor;
pub use fgbs_serve as serve;
pub use fgbs_snippet as snippet;
pub use fgbs_store as store;
pub use fgbs_suites as suites;
pub use fgbs_trace as trace;
