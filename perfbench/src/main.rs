//! End-to-end benchmark of the fgbs pipeline with per-layer attribution.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --self-check [--spec BENCHMARK.json]
//! perfbench --kernel LOG2 STEPS RUNS    (a calibration kernel alone)
//! ```
//!
//! Each workload calls the crates' public APIs the way `fgbs select`,
//! `fgbs features` and `fgbs serve` do, checks every output against
//! digests committed in `golden.txt`, and prints every end-to-end metric
//! (`--trace 0`) or every per-layer metric from interleaved traced
//! samples (`--trace 1`). The last stdout line is the JSON result.
//! METHODOLOGY.md explains the workloads, the metrics and the checks.

mod compose;
mod features;
mod gate;
mod layers;
mod select;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fgbs_core::{profile_reference, PipelineConfig, ProfiledSuite};
use fgbs_extract::Application;
use fgbs_suites::{bigdata_suite, nas_suite, nr_suite, Class};

use crate::layers::Sample;
use crate::serve::{Daemon, Key, ServeSpec};
use crate::stats::{max, median, min, quantile, Report, Tally};

/// Pool workers of every pipeline call of the main operation.
const WORKERS: usize = 2;
/// Pool workers of the operations a workload runs on small inputs only
/// to report every metric: on one worker they spread less from run to
/// run, and the outputs do not depend on the width.
const SIDE_WORKERS: usize = 1;
/// The seed the committed digests were recorded with.
const DEFAULT_SEED: u64 = 0;
/// Committed output digests: `<op> <input> <hex>` per line.
const GOLDEN: &str = include_str!("../golden.txt");
/// Suite builds timed before every sample when set-up is building a
/// suite, which takes well under a millisecond; each burst's median is
/// one set-up sample.
const BUILD_BURST: usize = 20;
/// The calibration kernels as (log2 of the table's entries, steps, runs
/// at each calibration point): a 256 KiB table, which the core's caches
/// hold, and a 32 MiB one, whose first touches fault pages in and whose
/// steps miss to memory.
const KERNELS: [(u32, u64, usize); 2] = [(15, 10_000_000, 5), (22, 1_500_000, 3)];
/// Geometric mean of the two kernels' fastest runs on the host the
/// committed figures come from (21 to 25 ms over a run on 2 vCPUs of an
/// Intel Xeon VM). Every end-to-end time is scaled by it over the run's
/// own.
const CALIBRATION_REF_S: f64 = 0.0220;
/// Fewest rounds per run, whatever `--seconds` says; every operation
/// runs once in each round.
const ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Select,
    Features,
    Serve,
}

/// One workload: which operation gets the run's time, and the inputs of
/// all three (every run reports every end-to-end metric).
struct Workload {
    name: &'static str,
    main: Op,
    select: (&'static str, fn() -> Vec<Application>),
    features: FeaturesInput,
    serve: (&'static str, fn() -> ServeSpec),
}

struct FeaturesInput {
    label: &'static str,
    build: fn() -> Vec<Application>,
    population: usize,
    generations: usize,
}

fn nas_a() -> Vec<Application> {
    nas_suite(Class::A)
}
fn nr_a() -> Vec<Application> {
    nr_suite(Class::A)
}
fn nr_test() -> Vec<Application> {
    nr_suite(Class::Test)
}
fn bigdata_test() -> Vec<Application> {
    bigdata_suite(Class::Test)
}

const SELECT_NAS_A: (&str, fn() -> Vec<Application>) = ("nas/a", nas_a);
const SELECT_SMALL: (&str, fn() -> Vec<Application>) = ("bigdata/test", bigdata_test);
const FEATURES_NR_A: FeaturesInput = FeaturesInput {
    label: "nr/a/400x40",
    build: nr_a,
    population: 400,
    generations: 40,
};
/// Large enough a first generation that nearly every codelet becomes a
/// representative on both targets whatever the seed, so the GA's
/// one-off microbenchmark runs do not vary with it.
const FEATURES_SMALL: FeaturesInput = FeaturesInput {
    label: "nr/test/200x3",
    build: nr_test,
    population: 200,
    generations: 3,
};

fn key(suite: &'static str, target: &'static str, k: u32) -> Key {
    Key { suite, target, k }
}

const TARGETS: [&str; 3] = ["atom", "core2", "sb"];

/// The mixed traffic: every suite's elbow prediction on every target
/// plus k = 4 on bigdata are hot; new k values on nr and bigdata are
/// cold, two per connection (dealt in turn, so one connection gets an
/// nr and the bigdata key). While a connection waits on a miss the
/// other one sends hits alone, and those take about half as long as
/// when both send hits. With many more cold keys the two kinds of hit
/// come near half and half, and the hit median moves between them from
/// run to run; with four, hits sent alone stay a minority and the median
/// sits among the others. Three of the four cold keys are nr, so each
/// daemon's miss median sits inside one suite's cost rather than
/// between two. Every run prints the split of the connections' time
/// between hits and misses.
fn serve_mixed() -> ServeSpec {
    let mut hot = Vec::new();
    for suite in ["nr", "nas", "bigdata"] {
        for t in TARGETS {
            hot.push(key(suite, t, 0));
        }
    }
    for t in TARGETS {
        hot.push(key("bigdata", t, 4));
    }
    ServeSpec {
        hot,
        cold: vec![
            key("nr", "sb", 5),
            key("nr", "atom", 6),
            key("bigdata", "sb", 2),
            key("nr", "core2", 7),
        ],
        inproc_cold: vec![key("nr", "atom", 13), key("nr", "sb", 14)],
        hot_requests: 40_000,
    }
}

/// A short serve phase on bigdata alone, for the workloads whose time
/// goes elsewhere: in-process when measured, over the socket in the
/// traced run. The hits are many and cheap (about 15 µs each
/// in-process), so that, spread among the misses, they sample the whole
/// phase rather than a few milliseconds of it.
fn serve_small() -> ServeSpec {
    ServeSpec {
        hot: vec![key("bigdata", "atom", 0), key("bigdata", "sb", 0)],
        cold: vec![
            key("bigdata", "atom", 2),
            key("bigdata", "sb", 3),
            key("bigdata", "core2", 5),
            key("bigdata", "atom", 6),
        ],
        inproc_cold: vec![key("bigdata", "core2", 7)],
        hot_requests: 10_000,
    }
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "select-nas-a",
        main: Op::Select,
        select: SELECT_NAS_A,
        features: FEATURES_SMALL,
        serve: ("bigdata", serve_small),
    },
    Workload {
        name: "features-nr",
        main: Op::Features,
        select: SELECT_SMALL,
        features: FEATURES_NR_A,
        serve: ("bigdata", serve_small),
    },
    Workload {
        name: "serve-mixed",
        main: Op::Serve,
        select: SELECT_SMALL,
        features: FEATURES_SMALL,
        serve: ("mixed", serve_mixed),
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(argv: &[String]) -> Result<i32, String> {
    if let Some(pos) = argv.iter().position(|a| a == "--kernel") {
        let arg = |i: usize| -> Result<u64, String> {
            argv.get(pos + i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "--kernel needs LOG2 STEPS RUNS".to_string())
        };
        let (log2, steps, runs) = (arg(1)?, arg(2)?, arg(3)?);
        if !(1..=30).contains(&log2) {
            return Err("--kernel LOG2 must be 1 to 30".into());
        }
        for _ in 0..runs {
            println!("{}", calibrate(log2 as u32, steps));
        }
        return Ok(0);
    }
    let spec_path = flag(argv, "--spec").unwrap_or("BENCHMARK.json");
    if argv.iter().any(|a| a == "--self-check") {
        let (workloads, gates) = gate::load(spec_path)?;
        check_spec(&workloads, &gates)?;
        let bad = gate::self_check(&workloads, &gates);
        println!("{bad} gate(s) misbehaved");
        return Ok(i32::from(bad > 0));
    }

    let args = parse(argv)?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if !host_guard() {
        return Ok(3);
    }
    let mut tally = Tally::default();
    let mut digests = Digests::default();
    let mut report = Report::default();
    if args.trace {
        trace(w, &args, &mut tally, &mut digests, &mut report);
    } else {
        measure(w, &args, &mut tally, &mut digests, &mut report);
    }
    for note in &tally.notes {
        eprintln!("perfbench: failed: {note}");
    }
    report.print(tally.failed == 0, tally.attempted.max(1), tally.failed);
    Ok(0)
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let num = |name: &str| -> Result<Option<f64>, String> {
        flag(argv, name)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("{name} needs a number, got `{v}`"))
            })
            .transpose()
    };
    let seconds = num("--seconds")?.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: flag(argv, "--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: flag(argv, "--seed")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("--seed needs an integer, got `{v}`"))
            })
            .transpose()?
            .unwrap_or(DEFAULT_SEED),
        seconds,
        trace: match flag(argv, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, got `{other}`")),
        },
    })
}

/// Every end-to-end metric the runs print, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("select_s", "s"),
    ("features_s", "s"),
    ("serve_rps", "1/s"),
    ("hit_p50_us", "us"),
    ("miss_p50_ms", "ms"),
];

/// The spec and the binary must name the same workloads and metrics.
fn check_spec(workloads: &[String], gates: &[gate::Gate]) -> Result<(), String> {
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    if workloads != ours.as_slice() {
        return Err(format!("spec workloads {workloads:?} != {ours:?}"));
    }
    let declared: Vec<(&str, &str)> = gates
        .iter()
        .map(|g| (g.name.as_str(), g.unit.as_str()))
        .collect();
    if declared != END_TO_END {
        return Err(format!("spec metrics {declared:?} != {END_TO_END:?}"));
    }
    Ok(())
}

/// Record the host with every result; a workload needing more threads
/// or connections than the host has cores is skipped, not measured.
fn host_guard() -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let needs = WORKERS.max(serve::CONNECTIONS).max(serve::EXECUTORS);
    println!(
        "host nproc={nproc} cpu=\"{cpu}\" pool_workers={WORKERS} side_pool_workers={SIDE_WORKERS} connections={} client_threads={} executors={}",
        serve::CONNECTIONS,
        serve::CONNECTIONS,
        serve::EXECUTORS
    );
    if needs > nproc {
        println!("skipped: needs {needs} cores, host has {nproc}");
        return false;
    }
    true
}

fn pipeline(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default().with_threads(WORKERS);
    cfg.noise_seed = seed;
    cfg
}

/// Output digests seen in this run, checked against each other and,
/// under the default seed, against the committed ones.
#[derive(Default)]
struct Digests {
    first: BTreeMap<String, String>,
}

impl Digests {
    fn check(&mut self, tally: &mut Tally, seed: u64, op: &str, input: &str, got: &str) {
        let id = format!("{op} {input}");
        let first = self.first.entry(id.clone()).or_insert_with(|| {
            println!("digest {id} {got}");
            got.to_string()
        });
        if first != got {
            let first = first.clone();
            tally.fail(format!("{id}: repetition gave {got}, first gave {first}"));
        } else if seed == DEFAULT_SEED {
            let expected = GOLDEN
                .lines()
                .filter_map(|l| l.rsplit_once(' '))
                .find(|(line_id, _)| *line_id == id)
                .map_or("none committed", |(_, hex)| hex);
            tally.check(&id, got, expected);
        } else {
            tally.ok();
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Every end-to-end sample of one run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    select: Vec<f64>,
    features: Vec<f64>,
    /// One per daemon: throughput and the latency quantiles.
    rps: Vec<f64>,
    hit_p50_us: Vec<f64>,
    hit_p99_us: Vec<f64>,
    hits: usize,
    miss_p50_ms: Vec<f64>,
    misses: usize,
    /// Per connection of every daemon: summed hit and miss latency (s).
    split: Vec<(f64, f64)>,
}

/// The host's speed over one run, from calibration kernel runs made at
/// points where this thread is the only one in the process: at the
/// start, before the first call into the program, and after every
/// sample, once each thread the program started has ended. Nothing of
/// the program runs beside the kernel, so no change to the program can
/// slow it and be divided out of the program's own times. A point where
/// another thread is still alive (a pool's idle workers, say) is
/// skipped, and the run then rests on the points that remain.
#[derive(Default)]
struct HostSpeed {
    /// Seconds of every run, per kernel of [`KERNELS`].
    runs: [Vec<f64>; 2],
    points: usize,
    skipped: usize,
}

impl HostSpeed {
    fn point(&mut self) {
        // A joined thread can linger in the count for a moment.
        let alone = (0..20).any(|_| {
            let one = threads() == Some(1);
            if !one {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            one
        });
        if !alone {
            self.skipped += 1;
            return;
        }
        let measured: Result<Vec<Vec<f64>>, String> = KERNELS
            .iter()
            .map(|&(log2, steps, n)| kernel_runs(log2, steps, n))
            .collect();
        match measured {
            Ok(measured) => {
                self.points += 1;
                for (runs, m) in self.runs.iter_mut().zip(measured) {
                    runs.extend(m);
                }
            }
            Err(e) => {
                eprintln!("perfbench: calibration point skipped: {e}");
                self.skipped += 1;
            }
        }
    }

    /// Each kernel's fastest run, their geometric mean `c`, and the
    /// factor every end-to-end time is multiplied by.
    fn factor(&self) -> ([f64; 2], f64, f64) {
        let m = [min(&self.runs[0]), min(&self.runs[1])];
        let c = (m[0] * m[1]).sqrt();
        (m, c, CALIBRATION_REF_S / c)
    }
}

/// `n` runs of a calibration kernel, in a child process of this binary
/// (`--kernel`), so that its table never counts in the benchmark's own
/// peak resident set and leaves nothing in its heap.
fn kernel_runs(log2: u32, steps: u64, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--kernel",
            &log2.to_string(),
            &steps.to_string(),
            &n.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let runs: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.parse().ok())
        .collect();
    if !out.status.success() || runs.len() != n {
        return Err(format!("kernel child exited with {}", out.status));
    }
    Ok(runs)
}

/// Threads of this process, from `/proc/self/status`.
fn threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// A fixed amount of benchmark-only work that tracks the host's speed:
/// an integer random walk of `steps` steps over a freshly allocated
/// table of `1 << log2` entries, the kind of work the simulator does.
/// One thread: a two-thread version tracked the metrics' drift worse.
fn calibrate(log2: u32, steps: u64) -> f64 {
    let mut table = vec![0u64; 1 << log2];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let t0 = Instant::now();
    for i in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> (64 - log2)) as usize;
        table[j] = table[j].wrapping_add(i ^ x);
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

fn build_profiled(build: fn() -> Vec<Application>, cfg: &PipelineConfig) -> ProfiledSuite {
    profile_reference(&build(), cfg)
}

/// One run's three operations, their inputs built once.
struct Ops<'a> {
    w: &'a Workload,
    seed: u64,
    cfg: PipelineConfig,
    select_apps: Vec<Application>,
    features_suite: ProfiledSuite,
    daemons: usize,
}

impl Ops<'_> {
    /// Set-up samples of the main operation, taken before a sample of
    /// `op` so that set-up is timed across the whole run, not in one
    /// burst whose host state every one of its samples shares. Selection
    /// builds its suite [`BUILD_BURST`] times before every sample, the
    /// burst's median being one sample; the GA builds and profiles its
    /// suite before each of its own samples; a daemon's set-up is timed
    /// as it starts.
    fn setup_sample(&self, op: Op, s: &mut Samples) {
        match self.w.main {
            Op::Select => {
                let burst: Vec<f64> = (0..BUILD_BURST)
                    .map(|_| {
                        let (built, secs) = timed(self.w.select.1);
                        black_box(built);
                        secs
                    })
                    .collect();
                s.setup.push(median(&burst));
            }
            Op::Features if op == Op::Features => {
                let (suite, secs) = timed(|| build_profiled(self.w.features.build, &self.cfg));
                black_box(suite);
                s.setup.push(secs);
            }
            _ => {}
        }
    }

    /// One sample of `op`; a daemon's set-up counts towards `setup_s`
    /// when serving is the workload's main operation.
    fn sample(&mut self, op: Op, tally: &mut Tally, digests: &mut Digests, s: &mut Samples) {
        let (w, seed) = (self.w, self.seed);
        let cfg = if op == w.main {
            self.cfg.clone()
        } else {
            self.cfg.clone().with_threads(SIDE_WORKERS)
        };
        match op {
            Op::Select => {
                let (d, secs) = timed(|| select::run(&self.select_apps, &cfg));
                digests.check(tally, seed, "select", w.select.0, &d);
                s.select.push(secs);
            }
            Op::Features => {
                let ga = features::ga_config(w.features.population, w.features.generations, seed);
                let (d, secs) = timed(|| features::run(&self.features_suite, &ga, &cfg));
                digests.check(tally, seed, "features", w.features.label, &d);
                s.features.push(secs);
            }
            Op::Serve => {
                let spec = (w.serve.1)();
                self.daemons += 1;
                // Only the main operation goes over the socket; see
                // `Daemon::phase_in_process`.
                let started = if w.main == Op::Serve {
                    Daemon::start(&spec, seed, self.daemons).map(|(daemon, setup_s)| {
                        s.setup.push(setup_s);
                        let phase = daemon.phase(&spec, seed, false);
                        (daemon, phase)
                    })
                } else {
                    Daemon::start_in_process(&spec, seed, self.daemons).map(|daemon| {
                        let phase = daemon.phase_in_process(&spec, seed);
                        (daemon, phase)
                    })
                };
                let phase = match started {
                    Ok((daemon, phase)) => {
                        daemon.stop();
                        phase
                    }
                    Err(e) => {
                        tally.fail(format!("daemon set-up: {e}"));
                        return;
                    }
                };
                absorb(tally, phase.attempted, phase.failures);
                digests.check(tally, seed, "serve", w.serve.0, &phase.digest);
                let hit_us: Vec<f64> = phase.hit_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
                let completed = phase.hit_ns.len() + phase.miss_ns.len();
                s.rps.push(completed as f64 / phase.wall_s);
                s.hit_p50_us.push(median(&hit_us));
                s.hit_p99_us.push(quantile(&hit_us, 0.99));
                s.hits += hit_us.len();
                let miss_ms: Vec<f64> = phase.miss_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
                s.miss_p50_ms.push(median(&miss_ms));
                s.misses += miss_ms.len();
                s.split.extend(phase.split);
            }
        }
    }
}

/// `--trace 0`: every end-to-end metric. The run goes in rounds of one
/// sample of each operation, the main one first, each after its set-up
/// samples, until `--seconds` have passed. Each metric is the best of
/// the run's samples: the host's slow spells only ever add time, so the
/// fastest sample is the one that reads the program rather than the
/// host, and interleaving gives every operation samples across the run.
/// A host slow for the whole run is scaled away by the calibration
/// kernels' fastest runs.
fn measure(
    w: &Workload,
    args: &Args,
    tally: &mut Tally,
    digests: &mut Digests,
    report: &mut Report,
) {
    let mut host = HostSpeed::default();
    host.point();
    let t0 = Instant::now();
    let cfg = pipeline(args.seed);
    let mut s = Samples::default();

    let features_suite = if w.main == Op::Features {
        let (suite, secs) = timed(|| build_profiled(w.features.build, &cfg));
        s.setup.push(secs);
        suite
    } else {
        build_profiled(w.features.build, &cfg)
    };
    let mut ops = Ops {
        w,
        seed: args.seed,
        select_apps: w.select.1(),
        cfg,
        features_suite,
        daemons: 0,
    };
    let ops_in_round: Vec<Op> = std::iter::once(w.main)
        .chain(
            [Op::Select, Op::Features, Op::Serve]
                .into_iter()
                .filter(|&op| op != w.main),
        )
        .collect();
    let mut round = 0;
    while round < ROUNDS || t0.elapsed().as_secs_f64() < args.seconds {
        for &op in &ops_in_round {
            ops.setup_sample(op, &mut s);
            ops.sample(op, tally, digests, &mut s);
            host.point();
        }
        round += 1;
    }

    // Host speed: times shrink and rates grow on a slow host's run.
    let (kernels, calibration, mut speed) = host.factor();
    if host.points == 0 {
        tally.fail("no calibration point: times cannot be scaled".to_string());
        speed = 1.0;
    }
    println!(
        "calibration {:.3} ms (256 KiB {:.3} ms, 32 MiB {:.3} ms) at {} points ({} skipped): times scaled by {speed:.4}",
        calibration * 1e3,
        kernels[0] * 1e3,
        kernels[1] * 1e3,
        host.points,
        host.skipped
    );
    // Every unscaled sample and their median, the power of the speed
    // factor, and the sample count.
    let rss = vec![peak_rss_mb()];
    let values = [
        (&s.setup, 1, s.setup.len()),
        (&rss, 0, 1),
        (&s.select, 1, s.select.len()),
        (&s.features, 1, s.features.len()),
        (&s.rps, -1, s.rps.len()),
        (&s.hit_p50_us, 1, s.hits),
        (&s.miss_p50_ms, 1, s.misses),
    ];
    // Reported, not gated: a vCPU descheduled for a few milliseconds
    // moves it tenfold between runs of the same code.
    println!(
        "hit_p99_us {:.3} us over {} hits (not gated)",
        median(&s.hit_p99_us) * speed,
        s.hits
    );
    print_split(w.serve.0, &s.split);
    for (&(name, unit), (samples, power, n)) in END_TO_END.iter().zip(values) {
        let best = if name == "serve_rps" {
            max(samples)
        } else {
            min(samples)
        };
        let all: Vec<String> = samples.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "unscaled {name:<12} best {best:.6} median {:.6} {unit}: {}",
            median(samples),
            all.join(" ")
        );
        report.put(name, unit, best * speed.powi(power), n);
    }
}

/// How the serve phases' connection time divides between hits and
/// misses: each connection's summed hit and miss latencies, added up
/// over connections and daemons, and the smallest hit share of any one
/// connection.
fn print_split(label: &str, split: &[(f64, f64)]) {
    let (hit, miss) = split
        .iter()
        .fold((0.0, 0.0), |(h, m), &(a, b)| (h + a, m + b));
    let least = split
        .iter()
        .map(|&(h, m)| h / (h + m))
        .fold(f64::INFINITY, f64::min);
    println!(
        "serve split {label}: hits {:.1} % of connection time ({hit:.2} s), misses {:.1} % ({miss:.2} s); least hit share of one connection {:.1} %",
        100.0 * hit / (hit + miss),
        100.0 * miss / (hit + miss),
        100.0 * least
    );
}

fn absorb(tally: &mut Tally, attempted: u64, failures: Vec<String>) {
    let failed = failures.len() as u64;
    for f in failures {
        tally.fail(f);
    }
    tally.attempted += attempted.saturating_sub(failed);
}

/// `--trace 1`: untraced and traced samples of the main operation,
/// alternating, until the time is spent, then one traced sample of each
/// other operation; every per-layer metric.
fn trace(w: &Workload, args: &Args, tally: &mut Tally, digests: &mut Digests, report: &mut Report) {
    let t0 = Instant::now();
    let cfg = pipeline(args.seed);
    let mut samples = Vec::new();
    let mut walls = Vec::new();
    let same_output = |tally: &mut Tally, untraced: &str, traced: &str| {
        if untraced == traced {
            tally.ok();
        } else {
            tally.fail(format!("traced output {traced} != untraced {untraced}"));
        }
    };
    let more = |n: usize| n < 2 || t0.elapsed().as_secs_f64() < args.seconds;
    match w.main {
        Op::Select => {
            let apps = w.select.1();
            while more(samples.len()) {
                let (d, secs) = timed(|| select::run(&apps, &cfg));
                digests.check(tally, args.seed, "select", w.select.0, &d);
                walls.push(secs);
                let (dt, sample) = select::run_traced(w.select.1, &cfg);
                same_output(tally, &d, &dt);
                samples.push(sample);
            }
        }
        Op::Features => {
            let suite = build_profiled(w.features.build, &cfg);
            let ga = features::ga_config(w.features.population, w.features.generations, args.seed);
            while more(samples.len()) {
                let (d, secs) = timed(|| features::run(&suite, &ga, &cfg));
                digests.check(tally, args.seed, "features", w.features.label, &d);
                walls.push(secs);
                let (dt, sample) = features::run_traced(w.features.build, &suite, &ga, &cfg);
                same_output(tally, &d, &dt);
                samples.push(sample);
            }
        }
        Op::Serve => {
            let spec = (w.serve.1)();
            let mut cycle = 0;
            'pairs: while more(samples.len()) {
                let mut phases = Vec::new();
                for traced in [false, true] {
                    let (daemon, _) = match Daemon::start(&spec, args.seed, cycle) {
                        Ok(d) => d,
                        Err(e) => {
                            tally.fail(format!("daemon set-up: {e}"));
                            break 'pairs;
                        }
                    };
                    cycle += 1;
                    let phase = if traced {
                        let (phase, sample) = daemon.phase_traced(&spec, args.seed);
                        samples.push(sample);
                        phase
                    } else {
                        let phase = daemon.phase(&spec, args.seed, false);
                        walls.push(phase.wall_s);
                        phase
                    };
                    daemon.stop();
                    digests.check(tally, args.seed, "serve", w.serve.0, &phase.digest);
                    absorb(tally, phase.attempted, phase.failures);
                    phases.push(phase.digest);
                }
                same_output(tally, &phases[0], &phases[1]);
            }
        }
    }
    // The layers the main operation does not reach are read off one
    // traced sample of each other operation, on its small input.
    let side: Vec<Sample> = [Op::Select, Op::Features, Op::Serve]
        .into_iter()
        .filter(|&op| op != w.main)
        .filter_map(|op| side_sample(w, op, args.seed, &cfg, tally, digests))
        .collect();
    layers::report(&samples, &side, &walls, report);
    for (layer, pct) in layers::shares(&samples) {
        println!("share {layer:<10} {pct:>6.2} %");
    }
    let unattributed = report
        .metrics
        .iter()
        .find(|m| m.name == "bench.unattributed_pct")
        .map_or(0.0, |m| m.value);
    if unattributed > 15.0 {
        eprintln!(
            "perfbench: warning: the layer spans miss the program's end-to-end time by {unattributed:.1} %: \
             a stage body changed or a layer call has no span"
        );
    }
}

/// One traced sample of an operation other than the workload's main
/// one, on its small input, its output checked like every other.
fn side_sample(
    w: &Workload,
    op: Op,
    seed: u64,
    cfg: &PipelineConfig,
    tally: &mut Tally,
    digests: &mut Digests,
) -> Option<Sample> {
    match op {
        Op::Select => {
            let (d, sample) = select::run_traced(w.select.1, cfg);
            digests.check(tally, seed, "select", w.select.0, &d);
            Some(sample)
        }
        Op::Features => {
            let suite = build_profiled(w.features.build, cfg);
            let ga = features::ga_config(w.features.population, w.features.generations, seed);
            let (d, sample) = features::run_traced(w.features.build, &suite, &ga, cfg);
            digests.check(tally, seed, "features", w.features.label, &d);
            Some(sample)
        }
        Op::Serve => {
            let spec = (w.serve.1)();
            let (daemon, _) = match Daemon::start(&spec, seed, 0) {
                Ok(d) => d,
                Err(e) => {
                    tally.fail(format!("daemon set-up: {e}"));
                    return None;
                }
            };
            let (phase, sample) = daemon.phase_traced(&spec, seed);
            daemon.stop();
            digests.check(tally, seed, "serve", w.serve.0, &phase.digest);
            absorb(tally, phase.attempted, phase.failures);
            Some(sample)
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
