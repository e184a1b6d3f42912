//! Pipeline configuration.

use std::sync::Arc;

use fgbs_analysis::FeatureMask;
use fgbs_clustering::Linkage;
use fgbs_extract::CodeletFinder;
use fgbs_machine::Arch;
use fgbs_pool::WorkPool;
use fgbs_store::Store;

/// How the number of clusters is chosen (§3.3: "the user manually sets K"
/// or "K is automatically selected using the Elbow method").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KChoice {
    /// Cut the dendrogram into exactly K clusters.
    Fixed(usize),
    /// Elbow method over `1..=max_k` clusters.
    Elbow {
        /// Largest cluster count considered.
        max_k: usize,
    },
}

/// Configuration shared by every pipeline stage. The request a run
/// serves is not part of it: stages read the caller's ambient trace
/// scope ([`fgbs_trace::enter_request`]) instead.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The reference architecture (the paper profiles on Nehalem).
    pub reference: Arch,
    /// Cluster-count policy.
    pub k_choice: KChoice,
    /// Feature subset used for clustering (defaults to the paper's
    /// Table 2 GA-selected set).
    pub features: FeatureMask,
    /// Linkage criterion (Ward in the paper; others for ablations).
    pub linkage: Linkage,
    /// Codelet detection policy.
    pub finder: CodeletFinder,
    /// Minimum standalone run time per microbenchmark measurement
    /// (Step D's 1 ms rule; scaled-down pipelines lower it).
    pub micro_min_seconds: f64,
    /// Minimum invocation count per microbenchmark measurement.
    pub micro_min_invocations: u64,
    /// Seed for measurement noise; identical seeds reproduce runs
    /// bit-for-bit.
    pub noise_seed: u64,
    /// Worker threads for the shared work pool (reference and target
    /// application runs, wellness and target microbenchmarks, GA
    /// fitness). `1` runs everything inline;
    /// `0` uses the machine's available parallelism. Results are
    /// identical for every value — parallelism never changes output.
    pub threads: usize,
    /// Optional artifact store. When set, [`crate::profile_reference`],
    /// [`crate::reduce_cached`], [`crate::predict`] and
    /// [`crate::select_features_ga`] consult it before computing and
    /// persist what they compute; because the pipeline is deterministic,
    /// a stored artifact is bitwise-identical to a recomputation. `None`
    /// (the default) keeps every stage purely in-memory.
    pub store: Option<Arc<Store>>,
    /// Optional wall-clock budget for the whole pipeline run. Checked by
    /// the fallible entry points [`crate::try_reduce_cached`],
    /// [`crate::try_predict`] and [`crate::try_sweep_k`] at stage
    /// boundaries (and per K inside sweeps); once expired they return
    /// [`crate::PipelineError::DeadlineExceeded`] instead of starting
    /// more work. Profiling (Steps A–B) has no fallible entry point, and
    /// the infallible entry points ignore the deadline.
    pub deadline: Option<fgbs_fault::Deadline>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            // The experiments run on the uniformly scaled park (see
            // `Arch::scaled`); suite dataset classes are calibrated to it.
            reference: Arch::reference_scaled(),
            k_choice: KChoice::Elbow { max_k: 24 },
            features: FeatureMask::from_ids(&fgbs_analysis::table2_features()),
            linkage: Linkage::Ward,
            finder: CodeletFinder::default(),
            // The paper's rule is "run at least 1 ms" on invocations that
            // last milliseconds. On the scaled park invocations last tens
            // of microseconds, so the floor scales with them; the ≥10
            // invocation rule is unchanged.
            micro_min_seconds: 2.0e-5,
            micro_min_invocations: fgbs_extract::MIN_INVOCATIONS,
            noise_seed: 0,
            threads: 1,
            store: None,
            deadline: None,
        }
    }
}

impl PipelineConfig {
    /// The default configuration with the elbow range narrowed to 16
    /// clusters, for fast tests.
    pub fn fast() -> Self {
        PipelineConfig {
            k_choice: KChoice::Elbow { max_k: 16 },
            ..PipelineConfig::default()
        }
    }

    /// Same configuration with a different K policy.
    pub fn with_k(mut self, k: KChoice) -> Self {
        self.k_choice = k;
        self
    }

    /// Same configuration with a different feature mask.
    pub fn with_features(mut self, features: FeatureMask) -> Self {
        self.features = features;
        self
    }

    /// Same configuration with a different worker-thread count
    /// (`0` = available parallelism, `1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same configuration with an artifact store attached.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Same configuration with no artifact store (inner per-genome
    /// pipelines detach it so GA search does not flood the store with
    /// throwaway reductions).
    pub fn without_store(mut self) -> Self {
        self.store = None;
        self
    }

    /// Same configuration with a wall-clock deadline attached (see
    /// [`PipelineConfig::deadline`]).
    pub fn with_deadline(mut self, deadline: fgbs_fault::Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Fail with [`crate::PipelineError::DeadlineExceeded`] when the
    /// configured deadline (if any) has expired. Stage boundaries call
    /// this so an over-budget request stops promptly instead of hanging.
    pub fn check_deadline(&self, stage: &'static str) -> Result<(), crate::PipelineError> {
        match self.deadline {
            Some(d) if d.expired() => Err(crate::PipelineError::DeadlineExceeded { stage }),
            _ => Ok(()),
        }
    }

    /// The shared work pool this configuration prescribes
    /// ([`WorkPool::new`] maps `0` to the available parallelism).
    pub fn pool(&self) -> WorkPool {
        WorkPool::new(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = PipelineConfig::default();
        assert_eq!(c.reference.name, "Nehalem");
        assert_eq!(c.k_choice, KChoice::Elbow { max_k: 24 });
        assert_eq!(c.features.len(), 14);
        assert_eq!(c.linkage, Linkage::Ward);
        assert_eq!(c.micro_min_invocations, 10);
        // The run floor follows the invocation time scale of the scaled
        // park (the paper's 1 ms rule over ms-scale invocations).
        assert!(c.micro_min_seconds > 0.0 && c.micro_min_seconds < 1e-3);
    }

    #[test]
    fn builders_override() {
        let c = PipelineConfig::fast()
            .with_k(KChoice::Fixed(14))
            .with_features(FeatureMask::all());
        assert_eq!(c.k_choice, KChoice::Fixed(14));
        assert_eq!(c.features.len(), fgbs_analysis::N_FEATURES);
        assert!(c.micro_min_seconds < 1e-3);
    }

    #[test]
    fn threads_default_serial_and_override() {
        let c = PipelineConfig::default();
        assert_eq!(c.threads, 1, "serial by default; parallelism is opt-in");
        assert_eq!(c.pool().threads(), 1);
        let c8 = c.with_threads(8);
        assert_eq!(c8.pool().threads(), 8);
        // 0 = auto-detect: at least one worker.
        assert!(PipelineConfig::default().with_threads(0).pool().threads() >= 1);
    }
}
