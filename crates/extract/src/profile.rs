//! Instrumented execution of a whole application (the paper's Step B and
//! the ground-truth "full benchmark" runs on the targets).

use fgbs_isa::{compile, CompileMode, CompiledKernel};
use fgbs_machine::{Arch, HwCounters, Machine, Measurement, Stopwatch};

use crate::app::Application;

/// Per-codelet result of an application run.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeletProfile {
    /// Codelet index within the application.
    pub codelet: usize,
    /// Qualified codelet name.
    pub name: String,
    /// Invocations observed.
    pub invocations: u64,
    /// Sum of *measured* cycles (probe overhead and noise included).
    pub measured_cycles: f64,
    /// Sum of true simulated cycles (no probe effects).
    pub true_cycles: f64,
    /// Aggregate hardware counters.
    pub counters: HwCounters,
    /// Measured cycles of the first invocation only (what a one-shot
    /// profiler would see).
    pub first_invocation_cycles: f64,
}

impl CodeletProfile {
    /// Mean measured cycles per invocation.
    pub fn mean_cycles(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.measured_cycles / self.invocations as f64
        }
    }

    /// Mean measured seconds per invocation on `arch`.
    pub fn mean_seconds(&self, arch: &Arch) -> f64 {
        arch.seconds(self.mean_cycles())
    }
}

/// Result of running one application end to end on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Application name.
    pub app: String,
    /// Architecture name.
    pub arch: String,
    /// One profile per codelet (index-aligned with
    /// [`Application::codelets`]).
    pub profiles: Vec<CodeletProfile>,
    /// True total cycles of the whole run.
    pub total_cycles: f64,
    /// True total seconds of the whole run.
    pub total_seconds: f64,
}

impl AppRun {
    /// True total seconds spent in codelet `i`.
    pub fn codelet_seconds(&self, arch: &Arch, i: usize) -> f64 {
        arch.seconds(self.profiles[i].true_cycles)
    }
}

/// Run `app` to completion on a fresh machine of `arch`, with measurement
/// probes around every invocation.
///
/// The machine's caches are shared across the whole schedule, so each
/// codelet sees the cache state its predecessors left behind — the
/// behaviour extraction cannot preserve.
///
/// `noise_seed` seeds the measurement-noise stream; runs with the same
/// seed are bit-identical.
///
/// ```
/// use fgbs_extract::{run_application, ApplicationBuilder};
/// use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};
/// use fgbs_machine::Arch;
///
/// let copy = CodeletBuilder::new("copy", "demo")
///     .array("s", Precision::F64)
///     .array("d", Precision::F64)
///     .param_loop("n")
///     .store("d", &[1], |b| b.load("s", &[1]))
///     .build();
/// let binding = BindingBuilder::new(0)
///     .vector(1024, 8).vector(1024, 8).param(1024)
///     .build_for(&copy);
/// let mut app = ApplicationBuilder::new("demo");
/// let i = app.codelet(copy, vec![binding]);
/// app.invoke(i, 0, 4);
/// let run = run_application(&app.build(), &Arch::nehalem(), 0);
/// assert_eq!(run.profiles[i].invocations, 4);
/// ```
pub fn run_application(app: &Application, arch: &Arch, noise_seed: u64) -> AppRun {
    run_schedule(app, arch, noise_seed, true)
}

/// [`run_application`], replaying settled invocations or walking every
/// one (the oracle the replay must match bit for bit).
///
/// Each schedule entry repeats one invocation and each round repeats
/// one sequence of them. An entry's repetitions are walked until the
/// miss test ([`Machine::settled`]) settles one, and every later
/// repetition measures what that one did. Rounds are walked until the
/// miss test, over the round's summed misses, or the line test
/// ([`Machine::holds`], against a copy of the lines the round began
/// with) settles one, and every later round measures what that one did,
/// entry by entry. Both stop by [`Machine::settling_runs`] at the
/// latest. The stopwatch, the profiles and the totals still see every
/// invocation in order.
fn run_schedule(app: &Application, arch: &Arch, noise_seed: u64, replay: bool) -> AppRun {
    let mut machine = Machine::new(arch.clone());
    let mut watch = Stopwatch::for_arch(arch, noise_seed);

    // Compile each codelet once, in application context.
    let kernels: Vec<CompiledKernel> = app
        .codelets
        .iter()
        .map(|c| compile(c, &arch.target(), CompileMode::InApp))
        .collect();

    let mut profiles: Vec<CodeletProfile> = app
        .codelets
        .iter()
        .enumerate()
        .map(|(i, c)| CodeletProfile {
            codelet: i,
            name: c.qualified_name(),
            invocations: 0,
            measured_cycles: 0.0,
            true_cycles: 0.0,
            counters: HwCounters::new(arch.caches.len()),
            first_invocation_cycles: 0.0,
        })
        .collect();

    let mut total_cycles = 0.0;
    let mut credit = |codelet: usize, meas: &Measurement| {
        let observed = watch.observe(meas.cycles);
        let p = &mut profiles[codelet];
        if p.invocations == 0 {
            p.first_invocation_cycles = observed;
        }
        p.invocations += 1;
        p.measured_cycles += observed;
        p.true_cycles += meas.cycles;
        p.counters.add(&meas.counters);
        total_cycles += meas.cycles;
    };
    // Per entry, the walked repetitions of the latest walked round; a
    // repetition past them measures what the last one did.
    let mut last_walked: Vec<Vec<Measurement>> = vec![Vec::new(); app.schedule.len()];
    let mut walking = true;
    let mut rounds_walked = 0;
    for _ in 0..app.rounds {
        let start = (walking && replay).then(|| machine.lines());
        let mut misses = vec![0; arch.caches.len()];
        for (entry, walked) in app.schedule.iter().zip(&mut last_walked) {
            if walking {
                walked.clear();
            }
            let mut settled = !walking;
            for rep in 0..entry.repeats as usize {
                if settled {
                    machine.replay(&walked[rep.min(walked.len() - 1)]);
                } else {
                    let binding = &app.contexts[entry.codelet][entry.context];
                    let meas = machine.run(&kernels[entry.codelet], binding);
                    settled =
                        replay && machine.settled(rep as u64 + 1, &meas.counters.cache_misses);
                    walked.push(meas);
                }
                let meas = &walked[rep.min(walked.len() - 1)];
                for (sum, m) in misses.iter_mut().zip(&meas.counters.cache_misses) {
                    *sum += m;
                }
                credit(entry.codelet, meas);
            }
        }
        if let Some(start) = start {
            rounds_walked += 1;
            walking = !(machine.settled(rounds_walked, &misses) || machine.holds(&start));
        }
    }

    AppRun {
        app: app.name.clone(),
        arch: arch.name.clone(),
        profiles,
        total_cycles,
        total_seconds: arch.seconds(total_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ApplicationBuilder;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};

    fn demo_app() -> Application {
        let streamer = CodeletBuilder::new("stream", "T")
            .array("s", Precision::F64)
            .array("d", Precision::F64)
            .param_loop("n")
            .store("d", &[1], |b| b.load("s", &[1]) * 1.5)
            .build();
        let reducer = CodeletBuilder::new("reduce", "T")
            .array("x", Precision::F64)
            .param_loop("n")
            .update_acc("s", fgbs_isa::BinOp::Add, |b| b.load("x", &[1]))
            .build();
        let n = 4096u64;
        let b0 = BindingBuilder::new(0)
            .vector(n, 8)
            .vector(n, 8)
            .param(n)
            .build_for(&streamer);
        let b1 = BindingBuilder::new(1 << 22)
            .vector(n, 8)
            .param(n)
            .build_for(&reducer);
        let mut ab = ApplicationBuilder::new("T");
        let i0 = ab.codelet(streamer, vec![b0]);
        let i1 = ab.codelet(reducer, vec![b1]);
        ab.invoke(i0, 0, 2).invoke(i1, 0, 3).rounds(4);
        ab.build()
    }

    #[test]
    fn profiles_count_invocations() {
        let app = demo_app();
        let run = run_application(&app, &Arch::nehalem(), 0);
        assert_eq!(run.profiles[0].invocations, 8);
        assert_eq!(run.profiles[1].invocations, 12);
        assert_eq!(run.profiles[0].invocations, app.invocations_of(0));
    }

    #[test]
    fn measured_exceeds_true_cycles() {
        let app = demo_app();
        let run = run_application(&app, &Arch::nehalem(), 0);
        for p in &run.profiles {
            assert!(p.measured_cycles > p.true_cycles); // probe overhead
            assert!(p.mean_cycles() > 0.0);
        }
    }

    #[test]
    fn totals_are_sums_of_true_cycles() {
        let app = demo_app();
        let run = run_application(&app, &Arch::atom(), 3);
        let sum: f64 = run.profiles.iter().map(|p| p.true_cycles).sum();
        assert!((sum - run.total_cycles).abs() < 1e-6);
        assert!(run.total_seconds > 0.0);
        assert_eq!(run.arch, "Atom");
    }

    #[test]
    fn same_seed_reproduces_run() {
        let app = demo_app();
        let a = run_application(&app, &Arch::core2(), 9);
        let b = run_application(&app, &Arch::core2(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_archs_give_different_times() {
        let app = demo_app();
        let nhm = run_application(&app, &Arch::nehalem(), 0);
        let atom = run_application(&app, &Arch::atom(), 0);
        assert!(atom.total_seconds > nhm.total_seconds);
    }
}

#[cfg(test)]
mod helper_tests {
    use super::*;
    use crate::app::ApplicationBuilder;
    use fgbs_isa::{BindingBuilder, CodeletBuilder, Precision};

    #[test]
    fn codelet_seconds_matches_true_cycles() {
        let c = CodeletBuilder::new("k", "T")
            .array("x", Precision::F64)
            .param_loop("n")
            .store("x", &[1], |b| b.constant(1.0))
            .build();
        let b = BindingBuilder::new(0).vector(4096, 8).param(4096).build_for(&c);
        let mut ab = ApplicationBuilder::new("T");
        let i = ab.codelet(c, vec![b]);
        ab.invoke(i, 0, 3);
        let app = ab.build();
        let arch = Arch::nehalem();
        let run = run_application(&app, &arch, 0);
        let s = run.codelet_seconds(&arch, 0);
        assert!((s - arch.seconds(run.profiles[0].true_cycles)).abs() < 1e-15);
        assert!(s > 0.0);
        // Mean helpers behave on empty profiles.
        let empty = CodeletProfile {
            codelet: 9,
            name: "none".into(),
            invocations: 0,
            measured_cycles: 0.0,
            true_cycles: 0.0,
            counters: fgbs_machine::HwCounters::new(2),
            first_invocation_cycles: 0.0,
        };
        assert_eq!(empty.mean_cycles(), 0.0);
        assert_eq!(empty.mean_seconds(&arch), 0.0);
    }

    #[test]
    fn first_invocation_is_slowest_of_a_cold_burst() {
        let c = CodeletBuilder::new("k", "T")
            .array("s", Precision::F64)
            .array("d", Precision::F64)
            .param_loop("n")
            .store("d", &[1], |b| b.load("s", &[1]))
            .build();
        let b = BindingBuilder::new(0)
            .vector(2048, 8)
            .vector(2048, 8)
            .param(2048)
            .build_for(&c);
        let mut ab = ApplicationBuilder::new("T");
        let i = ab.codelet(c, vec![b]);
        ab.invoke(i, 0, 8);
        let app = ab.build();
        let run = run_application(&app, &Arch::nehalem(), 0);
        let p = &run.profiles[0];
        // The cold first invocation exceeds the burst mean.
        assert!(p.first_invocation_cycles > p.mean_cycles());
    }
}

#[cfg(test)]
mod settling_tests {
    use super::*;
    use crate::testapps::{seeded_app, suites};
    use proptest::prelude::*;

    /// Whether two runs carry the same bits: `Debug` prints every float
    /// in its shortest round-tripping form.
    fn same_bits(a: &AppRun, b: &AppRun) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn settled_replay_matches_the_walk_on_every_suite() {
        for app in suites() {
            for arch in Arch::park_scaled() {
                let replayed = run_schedule(&app, &arch, 7, true);
                let walked = run_schedule(&app, &arch, 7, false);
                assert!(
                    same_bits(&replayed, &walked),
                    "{} on {}",
                    app.name,
                    arch.name
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn settled_replay_matches_the_walk_on_seeded_schedules(seed in any::<u64>()) {
            let app = seeded_app(seed);
            for arch in Arch::park_scaled() {
                let replayed = run_schedule(&app, &arch, seed, true);
                let walked = run_schedule(&app, &arch, seed, false);
                prop_assert!(same_bits(&replayed, &walked), "{} on {}", app.name, arch.name);
            }
        }
    }
}
