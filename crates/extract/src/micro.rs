//! Standalone microbenchmarks: the extracted, replayable form of a codelet.

use fgbs_isa::{compile, Codelet, CompileMode};
use fgbs_machine::{Arch, Machine, Stopwatch};

use crate::app::Application;
use crate::dump::MemoryDump;

/// Step D's invocation-count rule: run at least this long…
pub const MIN_RUN_SECONDS: f64 = 1.0e-3;
/// …with at least this many invocations, and keep the median.
pub const MIN_INVOCATIONS: u64 = 10;

/// An extracted codelet: IR + memory dump, compiled standalone on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Microbenchmark {
    /// The codelet (cloned out of its application).
    pub codelet: Codelet,
    /// The captured first-invocation context.
    pub dump: MemoryDump,
}

/// Result of timing a microbenchmark on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Median measured cycles per invocation (the paper's estimator:
    /// robust against the cold-start outlier).
    pub median_cycles: f64,
    /// Median measured seconds per invocation.
    pub median_seconds: f64,
    /// Mean measured cycles per invocation (kept for the median-vs-mean
    /// ablation; includes the cold start).
    pub mean_cycles: f64,
    /// Mean measured seconds per invocation.
    pub mean_seconds: f64,
    /// Number of invocations executed.
    pub invocations: u64,
    /// Total *benchmarking cost* in seconds (what the user pays to run
    /// this microbenchmark, measured overhead included).
    pub total_seconds: f64,
}

impl Microbenchmark {
    /// Extract codelet `idx` from `app`.
    ///
    /// Returns `None` when the codelet cannot be outlined.
    pub fn extract(app: &Application, idx: usize) -> Option<Microbenchmark> {
        let dump = MemoryDump::capture(app, idx)?;
        Some(Microbenchmark {
            codelet: app.codelets[idx].clone(),
            dump,
        })
    }

    /// Run the microbenchmark on a fresh machine of `arch`.
    ///
    /// The wrapper loads the memory dump (cold caches), then times
    /// invocations until both the [`MIN_RUN_SECONDS`] and
    /// [`MIN_INVOCATIONS`] thresholds are met, and reports the median —
    /// discarding the cold-start outlier exactly as the paper's Step D
    /// prescribes.
    pub fn run_on(&self, arch: &Arch, noise_seed: u64) -> MicroResult {
        self.run_with(arch, noise_seed, MIN_RUN_SECONDS, MIN_INVOCATIONS)
    }

    /// [`Microbenchmark::run_on`] with explicit thresholds (scaled-down
    /// pipelines use a lower time floor).
    pub fn run_with(
        &self,
        arch: &Arch,
        noise_seed: u64,
        min_run_seconds: f64,
        min_invocations: u64,
    ) -> MicroResult {
        self.run_settled(arch, noise_seed, min_run_seconds, min_invocations, true)
    }

    /// [`Microbenchmark::run_with`], replaying settled invocations or
    /// walking every one (the oracle the replay must match bit for bit).
    /// Every invocation repeats the first on a machine nothing else
    /// runs on, so each one after the first [`Machine::settling_runs`]
    /// measures what the last of those did.
    fn run_settled(
        &self,
        arch: &Arch,
        noise_seed: u64,
        min_run_seconds: f64,
        min_invocations: u64,
        replay: bool,
    ) -> MicroResult {
        // Standalone compilation: fragile codelets change here.
        let kernel = compile(&self.codelet, &arch.target(), CompileMode::Standalone);
        let (binding, _mem) = self.dump.restore(&self.codelet);
        let mut machine = Machine::new(arch.clone());
        let mut watch = Stopwatch::for_arch(arch, noise_seed ^ 0x4d49_4352);
        let settle = if replay {
            machine.settling_runs()
        } else {
            u64::MAX
        };

        let mut samples: Vec<f64> = Vec::with_capacity(min_invocations as usize * 2);
        let mut elapsed = 0.0f64;
        let min_cycles = arch.cycles(min_run_seconds);
        // Hard cap so a pathologically fast codelet cannot spin forever.
        let max_invocations = 10_000u64;
        let mut last = None;
        while (samples.len() < min_invocations as usize || elapsed < min_cycles)
            && (samples.len() as u64) < max_invocations
        {
            let meas = match last.take() {
                Some(meas) if samples.len() as u64 >= settle => {
                    machine.replay(&meas);
                    meas
                }
                _ => machine.run(&kernel, &binding),
            };
            let observed = watch.observe(meas.cycles);
            samples.push(observed);
            elapsed += observed;
            last = Some(meas);
        }

        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("cycles are finite"));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
        };
        let mean = elapsed / samples.len() as f64;

        MicroResult {
            median_cycles: median,
            median_seconds: arch.seconds(median),
            mean_cycles: mean,
            mean_seconds: arch.seconds(mean),
            invocations: samples.len() as u64,
            total_seconds: arch.seconds(elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ApplicationBuilder;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Fragility, Precision};

    fn app(fragility: Fragility) -> Application {
        let c = CodeletBuilder::new("axpy", "T")
            .array("x", Precision::F64)
            .array("y", Precision::F64)
            .param_loop("n")
            .fragility(fragility)
            .store("y", &[1], |b| b.load("x", &[1]) * 2.0 + b.load("y", &[1]))
            .build();
        let n = 8192u64;
        let b = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&c);
        let mut ab = ApplicationBuilder::new("T");
        let i = ab.codelet(c, vec![b]);
        ab.invoke(i, 0, 4).rounds(2);
        ab.build()
    }

    #[test]
    fn obeys_invocation_rule() {
        let app = app(Fragility::Robust);
        let m = Microbenchmark::extract(&app, 0).unwrap();
        let r = m.run_on(&Arch::nehalem(), 0);
        assert!(r.invocations >= MIN_INVOCATIONS);
        assert!(
            r.total_seconds >= MIN_RUN_SECONDS || r.invocations == 10_000,
            "must run ≥1 ms: ran {} s over {} invocations",
            r.total_seconds,
            r.invocations
        );
        assert!(r.median_cycles > 0.0);
        assert!((r.median_seconds - Arch::nehalem().seconds(r.median_cycles)).abs() < 1e-15);
    }

    #[test]
    fn median_discards_cold_start() {
        let app = app(Fragility::Robust);
        let m = Microbenchmark::extract(&app, 0).unwrap();
        let r = m.run_on(&Arch::sandy_bridge(), 0);
        // The median must be far below a cold DRAM-bound first run; check
        // it is at least below the mean-with-cold (weak but robust bound).
        assert!(r.median_seconds * r.invocations as f64 <= r.total_seconds * 1.01);
    }

    #[test]
    fn fragile_codelet_runs_slower_standalone() {
        let robust = {
            let app = app(Fragility::Robust);
            Microbenchmark::extract(&app, 0)
                .unwrap()
                .run_on(&Arch::nehalem(), 0)
                .median_cycles
        };
        let fragile = {
            let app = app(Fragility::ScalarWhenStandalone);
            Microbenchmark::extract(&app, 0)
                .unwrap()
                .run_on(&Arch::nehalem(), 0)
                .median_cycles
        };
        assert!(
            fragile > robust * 1.1,
            "scalar standalone {} should clearly exceed vector {}",
            fragile,
            robust
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let app = app(Fragility::Robust);
        let m = Microbenchmark::extract(&app, 0).unwrap();
        let a = m.run_on(&Arch::atom(), 5);
        let b = m.run_on(&Arch::atom(), 5);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod settling_tests {
    use super::*;
    use crate::testapps::{seeded_app, suites, Draw};
    use proptest::prelude::*;

    /// Every extractable codelet of `app`, on every scaled machine, must
    /// measure the same bits replayed as walked.
    fn check(app: &Application, seed: u64, min_run_seconds: f64, min_invocations: u64) {
        for idx in app.extractable() {
            let Some(micro) = Microbenchmark::extract(app, idx) else {
                continue;
            };
            for arch in Arch::park_scaled() {
                let run = |replay| {
                    let r =
                        micro.run_settled(&arch, seed, min_run_seconds, min_invocations, replay);
                    format!("{r:?}")
                };
                assert!(
                    run(true) == run(false),
                    "{} codelet {idx} on {}",
                    app.name,
                    arch.name
                );
            }
        }
    }

    /// At the scaled pipelines' floor: 10 invocations and 20 µs.
    #[test]
    fn settled_replay_matches_the_walk_on_every_suite_codelet() {
        for app in suites() {
            check(&app, 0, 2.0e-5, MIN_INVOCATIONS);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn settled_replay_matches_the_walk_on_seeded_codelets(seed in any::<u64>()) {
            let mut g = Draw(seed);
            let floor = [0.0, 1.0e-6, 2.0e-5][g.below(3) as usize];
            check(&seeded_app(seed), seed, floor, 1 + g.below(30));
        }
    }
}
