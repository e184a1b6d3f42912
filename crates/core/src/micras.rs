//! Memoised simulations of one profiled suite.
//!
//! Sweeps re-select representatives for many cluster counts, and the
//! serve daemon answers many requests for one suite; each
//! representative's standalone time and each application's ground-truth
//! run on a given architecture never change, so both are cached: the
//! microbenchmark results per `(codelet, architecture)` and the target
//! runs per architecture.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use fgbs_extract::{AppRun, MicroResult, Microbenchmark};
use fgbs_machine::Arch;
use parking_lot::Mutex;

use crate::config::PipelineConfig;
use crate::profile::{profile_target, ProfiledSuite};

/// One architecture's ground-truth runs, filled by the first call that
/// needs them.
type RunsCell = Arc<OnceLock<Arc<Vec<AppRun>>>>;

/// One `(codelet, arch)` microbenchmark result, filled by the first call
/// that needs it.
type MicroCell = Arc<OnceLock<MicroResult>>;

/// A thread-safe cache of one suite's simulations: `arch name → codelet
/// index → MicroResult` and `arch name → target runs`.
///
/// Every entry is a pure function of its key only within one suite and
/// one configuration (noise seed, micro-run floors), and an architecture
/// is known by its name: use one cache per (suite, configuration), in a
/// park where a name denotes one machine.
#[derive(Debug, Default)]
pub struct MicroCache {
    /// Per architecture, one cell slot per codelet index, so a lookup
    /// borrows the name and a hit allocates nothing.
    inner: Mutex<HashMap<String, Vec<Option<MicroCell>>>>,
    runs: Mutex<HashMap<String, RunsCell>>,
}

impl MicroCache {
    /// Empty cache.
    pub fn new() -> MicroCache {
        MicroCache::default()
    }

    /// Measure codelet `idx`'s microbenchmark on `arch`, or return the
    /// cached result of a previous measurement. Concurrent first calls
    /// for one key wait on one measurement instead of each running it.
    pub fn measure(
        &self,
        idx: usize,
        micro: &Microbenchmark,
        arch: &Arch,
        noise_seed: u64,
        min_seconds: f64,
        min_invocations: u64,
    ) -> MicroResult {
        // Stats, not counters: they stay out of the trace digest.
        let cell = {
            let mut arches = self.inner.lock();
            let cells = match arches.get_mut(arch.name.as_str()) {
                Some(cells) => cells,
                None => arches.entry(arch.name.clone()).or_default(),
            };
            if cells.len() <= idx {
                cells.resize(idx + 1, None);
            }
            let cell = cells[idx].get_or_insert_with(MicroCell::default);
            if let Some(hit) = cell.get() {
                fgbs_trace::stat("micro.cache_hits", 1);
                return hit.clone();
            }
            Arc::clone(cell)
        };
        let mut waited = true;
        let r = cell.get_or_init(|| {
            waited = false;
            fgbs_trace::stat("micro.measured", 1);
            micro.run_with(arch, noise_seed ^ idx as u64, min_seconds, min_invocations)
        });
        if waited {
            // Another call measured the key while this one waited.
            fgbs_trace::stat("micro.cache_hits", 1);
        }
        r.clone()
    }

    /// The ground-truth runs of every application of `suite` on `target`
    /// ([`profile_target`]), simulated by the first call for the
    /// architecture and shared by every later one. Concurrent first
    /// calls wait on one run instead of each simulating the suite.
    pub fn target_runs(
        &self,
        suite: &ProfiledSuite,
        target: &Arch,
        cfg: &PipelineConfig,
    ) -> Arc<Vec<AppRun>> {
        let cell = Arc::clone(self.runs.lock().entry(target.name.clone()).or_default());
        Arc::clone(cell.get_or_init(|| Arc::new(profile_target(suite, target, cfg))))
    }

    /// Number of distinct microbenchmark measurements performed.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .values()
            .flatten()
            .flatten()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// True when nothing has been measured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::predict::{predict, try_predict};
    use crate::profile::profile_reference;
    use crate::reduce::reduce_cached;
    use fgbs_extract::{Application, ApplicationBuilder};
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};
    use fgbs_machine::PARK_SCALE;
    use fgbs_suites::{nr_suite, Class};
    use std::sync::Barrier;

    fn nr(n: usize, cfg: &PipelineConfig) -> ProfiledSuite {
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(n).collect();
        profile_reference(&apps, cfg)
    }

    fn app() -> Application {
        let c = CodeletBuilder::new("k", "t")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .store("y", &[1], |b| b.load("x", &[1]))
            .build();
        let b = BindingBuilder::new(0)
            .vector(4096, 8)
            .vector(4096, 8)
            .param(4096)
            .build_for(&c);
        let mut ab = ApplicationBuilder::new("t");
        let i = ab.codelet(c, vec![b]);
        ab.invoke(i, 0, 2);
        ab.build()
    }

    #[test]
    fn caches_per_codelet_and_arch() {
        let app = app();
        let m = Microbenchmark::extract(&app, 0).unwrap();
        let cache = MicroCache::new();
        let a = cache.measure(0, &m, &Arch::nehalem(), 0, 1e-5, 5);
        let b = cache.measure(0, &m, &Arch::nehalem(), 0, 1e-5, 5);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let _ = cache.measure(0, &m, &Arch::atom().scaled(fgbs_machine::PARK_SCALE), 0, 1e-5, 5);
        let _ = cache.measure(1, &m, &Arch::atom().scaled(fgbs_machine::PARK_SCALE), 0, 1e-5, 5);
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn target_runs_simulate_each_arch_once() {
        let cfg = PipelineConfig::fast();
        let suite = nr(4, &cfg);
        let atom = Arch::atom().scaled(PARK_SCALE);
        let cache = MicroCache::new();
        let runs = cache.target_runs(&suite, &atom, &cfg);
        assert!(Arc::ptr_eq(&runs, &cache.target_runs(&suite, &atom, &cfg)));
        assert_eq!(
            format!("{runs:?}"),
            format!("{:?}", profile_target(&suite, &atom, &cfg)),
            "the cached runs are the ground truth itself"
        );
        let sb = cache.target_runs(&suite, &Arch::sandy_bridge().scaled(PARK_SCALE), &cfg);
        assert!(!Arc::ptr_eq(&runs, &sb));
        assert!(sb.iter().all(|r| r.arch == "Sandy Bridge"));
        assert!(cache.is_empty(), "len counts measurements only");
    }

    #[test]
    fn concurrent_first_target_runs_share_one_run() {
        let cfg = PipelineConfig::fast();
        let suite = nr(4, &cfg);
        let atom = Arch::atom().scaled(PARK_SCALE);
        let cache = MicroCache::new();
        let barrier = Barrier::new(2);
        let runs: Vec<Arc<Vec<AppRun>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.target_runs(&suite, &atom, &cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&runs[0], &runs[1]));
    }

    #[test]
    fn try_predict_with_a_warm_cache_matches_predict() {
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(3));
        let suite = nr(6, &cfg);
        let cache = MicroCache::new();
        let reduced = reduce_cached(&suite, &cfg, &cache);
        let atom = Arch::atom().scaled(PARK_SCALE);
        let cold = try_predict(&suite, &reduced, &atom, &cache, &cfg).unwrap();
        let measured = cache.len();
        let warm = try_predict(&suite, &reduced, &atom, &cache, &cfg).unwrap();
        assert_eq!(cache.len(), measured, "a warm cache measures nothing new");
        let fresh = format!("{:?}", predict(&suite, &reduced, &atom, &cfg));
        assert_eq!(format!("{cold:?}"), fresh);
        assert_eq!(format!("{warm:?}"), fresh);
    }
}
