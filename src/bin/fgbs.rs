//! `fgbs` — command-line driver for the benchmark-subsetting pipeline.
//!
//! ```text
//! fgbs info                               # machine park and suite inventory
//! fgbs show    --suite nr|nas [--codelet NAME]   # pseudo-code of the codelets
//! fgbs reduce  --suite nr|nas [options]   # steps A-D: clusters + representatives
//! fgbs predict --suite nr|nas --target atom|core2|sb [options]
//! fgbs select  --suite nr|nas [options]   # full system selection across all targets
//! fgbs features [options]                 # GA feature selection + cache counters
//! fgbs serve   [--addr HOST:PORT] [options]      # system-selection daemon
//! fgbs store ls                           # list persisted pipeline artifacts
//! fgbs store gc [--keep N]                # evict all but the newest N per kind
//! fgbs snippet pack --out FILE [options]  # export a suite as a snippet pack
//! fgbs snippet unpack FILE                # decode and describe a pack
//! fgbs snippet ls                         # list ingested packs in the store
//! fgbs snippet verify FILE                # integrity + semantic validation
//! fgbs snippet replay FILE                # replay against the pack's contract
//! fgbs trace summary FILE                 # aggregate a Chrome-trace file
//! fgbs flightrec dump [--request N]       # print a stored flight-recorder dump
//! fgbs flightrec show [--request N]       # table view of a dump's event window
//! fgbs top [--addr HOST:PORT] [--interval MS] [--count N]  # live /metrics view
//! fgbs bench [--quick] [--filter SUB] [--out FILE]   # run the benchmark barometer
//! fgbs bench cmp OLD.json NEW.json        # noise-aware record comparison
//! fgbs help                               # this text
//!
//! options:
//!   --class test|a|b     dataset class (default a)
//!   --k N | --k elbow    cluster count policy (default elbow)
//!   --threads N          worker threads (0 = auto, 1 = serial; default auto)
//!   --results-dir DIR    experiment outputs and artifact store root (default results/)
//!   --store              persist/reuse pipeline artifacts under the results dir
//!   --trace FILE         record a Chrome trace of the run into FILE
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use fgbs::analysis::catalog;
use fgbs::clustering::render_dendrogram;
use fgbs::core::{
    evaluate_targets, predict, profile_reference, rank_targets, reduce, select_features_ga,
    KChoice, MicroCache, PipelineConfig,
};
use fgbs::genetic::GaConfig;
use fgbs::machine::{Arch, PARK_SCALE};
use fgbs::serve::{Server, Service};
use fgbs::pool::WorkPool;
use fgbs::snippet::{build_pack, encode_pack, list_packs, parse_pack, replay_pack, verify_pack};
use fgbs::store::{ArtifactKind, Store};
use fgbs::suites::{bigdata_suite, nas_suite, nr_suite, Class, BIGDATA_APPS, NAS_APPS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    command: Command,
    suite: SuiteKind,
    class: Class,
    k: KChoice,
    threads: usize,
    target: Option<String>,
    codelet: Option<String>,
    results_dir: String,
    use_store: bool,
    addr: String,
    keep: usize,
    generations: usize,
    population: usize,
    seed: u64,
    trace: Option<String>,
    trace_file: String,
    snippet_file: String,
    fault_spec: Option<String>,
    fault_seed: u64,
    quick: bool,
    bench_filter: Option<String>,
    bench_out: Option<String>,
    bench_registry: Option<String>,
    cmp_old: String,
    cmp_new: String,
    min_change: f64,
    noise_mult: f64,
    strict: bool,
    request: Option<u64>,
    interval_ms: u64,
    count: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Info,
    Show,
    Reduce,
    Predict,
    Select,
    Features,
    Serve,
    StoreLs,
    StoreGc,
    SnippetPack,
    SnippetUnpack,
    SnippetLs,
    SnippetVerify,
    SnippetReplay,
    TraceSummary,
    FlightrecDump,
    FlightrecShow,
    Top,
    BenchRun,
    BenchCmp,
    Help,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuiteKind {
    Nr,
    Nas,
    Bigdata,
}

impl SuiteKind {
    fn as_str(self) -> &'static str {
        match self {
            SuiteKind::Nr => "nr",
            SuiteKind::Nas => "nas",
            SuiteKind::Bigdata => "bigdata",
        }
    }
}

const USAGE: &str = "usage: fgbs <info|show|reduce|predict|select|features|serve|store|snippet|trace|flightrec|top|bench|help> \
[--suite nr|nas|bigdata] [--class test|a|b] [--k N|elbow] [--threads N] \
[--target atom|core2|sb] [--codelet NAME] \
[--results-dir DIR] [--store] [--addr HOST:PORT] [--keep N] \
[--generations N] [--population N] [--seed N] [--trace FILE] \
[--fault-spec SPEC] [--fault-seed N] [--quick] [--filter SUB] \
[--out FILE] [--registry FILE] [--min-change PCT] [--noise-mult X] [--strict] \
[--request N] [--interval MS] [--count N]";

const HELP: &str = "fgbs — fine-grained benchmark subsetting for system selection

commands:
  info                 machine park and suite inventory
  show                 pseudo-code of the codelets (filter with --codelet)
  reduce               steps A-D: clusters + representatives
  predict              predict a target from representatives (--target required)
  select               full system selection across the machine park
  features             GA feature selection; reports fitness/store cache counters
  serve                HTTP system-selection daemon (endpoints: /predict /sweep
                       /reduce /snippets /artifacts /metrics /trace /health)
  store ls             list persisted pipeline artifacts
  store gc             evict all but the newest --keep artifacts per kind
  snippet pack         export a suite (--suite/--class) as a portable,
                       checksummed snippet pack (--out FILE required)
  snippet unpack FILE  decode a pack and describe every snippet in it
  snippet ls           list snippet packs ingested into the artifact store
  snippet verify FILE  validate a pack's integrity without executing it
  snippet replay FILE  execute a pack and check its bitwise replay contract
  trace summary FILE   aggregate a Chrome-trace file into a per-span table
  flightrec dump       print the newest stored flight-recorder dump as JSON
                       (--request N picks the dump for one request id)
  flightrec show       human-readable table of a dump's last-N-events window
  top                  poll a running daemon's /metrics: per-series
                       throughput, p50/p95/p99, fault and store counters,
                       in-flight requests (--interval MS, --count N)
  bench                run the declarative benchmark registry; prints per-
                       benchmark medians/noise and evaluates declared perf
                       gates (--quick for the fast subset, --out to record)
  bench cmp OLD NEW    compare two bench records with per-benchmark noise
                       thresholds; exits non-zero on regression
  help                 this text

options:
  --suite nr|nas|bigdata  benchmark suite (default nas)
  --class test|a|b     dataset class (default a)
  --k N|elbow          cluster count policy (default elbow)
  --threads N          worker threads; for serve: connection workers (0 = auto)
  --target NAME        atom | core2 | sb (predict; serve default target)
  --codelet NAME       substring filter for show
  --results-dir DIR    experiment outputs and artifact store root (default results/)
  --store              persist/reuse pipeline artifacts in DIR/store
  --addr HOST:PORT     serve bind address (default 127.0.0.1:8422)
  --keep N             store gc: artifacts kept per kind (default 4)
  --generations N      features: GA generations (default 12)
  --population N       features: GA population (default 40)
  --seed N             features: GA seed (default 7)
  --trace FILE         record a Chrome trace (chrome://tracing) of the run
  --fault-spec SPEC    arm deterministic failpoints for chaos testing, e.g.
                       'store.read=err:0.2#3,stage.reduce=delay:50'
                       (actions: err|delay[:ms]|short[:keep]|corrupt)
  --fault-seed N       seed for failpoint decisions: same spec + seed + run
                       order reproduces the exact same injected faults
  --quick              bench: fewer iterations, skip the slowest entries
  --filter SUB         bench: only benchmarks whose id contains SUB
  --out FILE           bench: write the JSON measurement record to FILE
  --registry FILE      bench: load the registry from FILE (default built-in)
  --min-change PCT     bench cmp: smallest change ever flagged (default 10)
  --noise-mult X       bench cmp: noise-floor multiplier (default 4)
  --strict             bench cmp: also fail when records diverge in content
  --request N          flightrec: select the dump captured for request N
  --interval MS        top: poll period in milliseconds (default 1000)
  --count N            top: number of polls before exiting (0 = forever)";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Command::Info,
        suite: SuiteKind::Nas,
        class: Class::A,
        k: KChoice::Elbow { max_k: 24 },
        threads: 0, // the CLI defaults to all available cores
        target: None,
        codelet: None,
        results_dir: "results".to_string(),
        use_store: false,
        addr: "127.0.0.1:8422".to_string(),
        keep: 4,
        generations: 12,
        population: 40,
        seed: 7,
        trace: None,
        trace_file: String::new(),
        snippet_file: String::new(),
        fault_spec: None,
        fault_seed: 0,
        quick: false,
        bench_filter: None,
        bench_out: None,
        bench_registry: None,
        cmp_old: String::new(),
        cmp_new: String::new(),
        min_change: 10.0,
        noise_mult: 4.0,
        strict: false,
        request: None,
        interval_ms: 1000,
        count: 0,
    };
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("info") => cli.command = Command::Info,
        Some("show") => cli.command = Command::Show,
        Some("reduce") => cli.command = Command::Reduce,
        Some("predict") => cli.command = Command::Predict,
        Some("select") => cli.command = Command::Select,
        Some("features") => cli.command = Command::Features,
        Some("serve") => cli.command = Command::Serve,
        Some("store") => {
            cli.command = match it.next().map(String::as_str) {
                Some("ls") => Command::StoreLs,
                Some("gc") => Command::StoreGc,
                Some(other) => return Err(format!("unknown store subcommand `{other}` (ls|gc)")),
                None => return Err("store expects a subcommand: ls|gc".to_string()),
            }
        }
        Some("snippet") => {
            let pack_file = |verb: &str,
                             it: &mut std::slice::Iter<'_, String>|
             -> Result<String, String> {
                match it.next() {
                    Some(f) if !f.starts_with('-') => Ok(f.clone()),
                    _ => Err(format!("snippet {verb} expects a pack file path")),
                }
            };
            cli.command = match it.next().map(String::as_str) {
                Some("pack") => Command::SnippetPack,
                Some("unpack") => {
                    cli.snippet_file = pack_file("unpack", &mut it)?;
                    Command::SnippetUnpack
                }
                Some("ls") => Command::SnippetLs,
                Some("verify") => {
                    cli.snippet_file = pack_file("verify", &mut it)?;
                    Command::SnippetVerify
                }
                Some("replay") => {
                    cli.snippet_file = pack_file("replay", &mut it)?;
                    Command::SnippetReplay
                }
                Some(other) => {
                    return Err(format!(
                        "unknown snippet subcommand `{other}` (pack|unpack|ls|verify|replay)"
                    ))
                }
                None => {
                    return Err(
                        "snippet expects a subcommand: pack|unpack|ls|verify|replay".to_string()
                    )
                }
            }
        }
        Some("trace") => {
            cli.command = match it.next().map(String::as_str) {
                Some("summary") => {
                    cli.trace_file = it
                        .next()
                        .ok_or_else(|| "trace summary expects a trace file path".to_string())?
                        .clone();
                    Command::TraceSummary
                }
                Some(other) => {
                    return Err(format!("unknown trace subcommand `{other}` (summary)"))
                }
                None => return Err("trace expects a subcommand: summary FILE".to_string()),
            }
        }
        Some("flightrec") => {
            cli.command = match it.next().map(String::as_str) {
                Some("dump") => Command::FlightrecDump,
                Some("show") => Command::FlightrecShow,
                Some(other) => {
                    return Err(format!("unknown flightrec subcommand `{other}` (dump|show)"))
                }
                None => return Err("flightrec expects a subcommand: dump|show".to_string()),
            }
        }
        Some("top") => cli.command = Command::Top,
        Some("bench") => {
            // `bench cmp OLD NEW` vs plain `bench [options]`: peek so an
            // option token is not swallowed as a subcommand.
            if it.as_slice().first().map(String::as_str) == Some("cmp") {
                it.next();
                cli.cmp_old = it
                    .next()
                    .ok_or_else(|| "bench cmp expects OLD.json NEW.json".to_string())?
                    .clone();
                cli.cmp_new = it
                    .next()
                    .ok_or_else(|| "bench cmp expects OLD.json NEW.json".to_string())?
                    .clone();
                cli.command = Command::BenchCmp;
            } else {
                cli.command = Command::BenchRun;
            }
        }
        Some("help") | Some("--help") | Some("-h") => cli.command = Command::Help,
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => {
                cli.suite = match it.next().map(String::as_str) {
                    Some("nr") => SuiteKind::Nr,
                    Some("nas") => SuiteKind::Nas,
                    Some("bigdata") => SuiteKind::Bigdata,
                    other => return Err(format!("--suite nr|nas|bigdata, got {other:?}")),
                }
            }
            "--class" => {
                cli.class = match it.next().map(String::as_str) {
                    Some("test") => Class::Test,
                    Some("a") => Class::A,
                    Some("b") => Class::B,
                    other => return Err(format!("--class test|a|b, got {other:?}")),
                }
            }
            "--k" => {
                cli.k = match it.next().map(String::as_str) {
                    Some("elbow") => KChoice::Elbow { max_k: 24 },
                    Some(n) => KChoice::Fixed(
                        n.parse()
                            .map_err(|_| format!("--k expects a number or `elbow`, got `{n}`"))?,
                    ),
                    None => return Err("--k expects a value".into()),
                }
            }
            "--threads" => cli.threads = parse_num(&mut it, "--threads")?,
            "--target" => {
                cli.target = Some(
                    it.next()
                        .ok_or_else(|| "--target expects a value".to_string())?
                        .clone(),
                )
            }
            "--codelet" => {
                cli.codelet = Some(
                    it.next()
                        .ok_or_else(|| "--codelet expects a name".to_string())?
                        .clone(),
                )
            }
            "--results-dir" => {
                cli.results_dir = it
                    .next()
                    .ok_or_else(|| "--results-dir expects a path".to_string())?
                    .clone()
            }
            "--store" => cli.use_store = true,
            "--addr" => {
                cli.addr = it
                    .next()
                    .ok_or_else(|| "--addr expects HOST:PORT".to_string())?
                    .clone()
            }
            "--keep" => cli.keep = parse_num(&mut it, "--keep")?,
            "--trace" => {
                cli.trace = Some(
                    it.next()
                        .ok_or_else(|| "--trace expects a file path".to_string())?
                        .clone(),
                )
            }
            "--generations" => cli.generations = parse_num(&mut it, "--generations")?,
            "--population" => cli.population = parse_num(&mut it, "--population")?,
            "--seed" => cli.seed = parse_num(&mut it, "--seed")?,
            "--fault-spec" => {
                cli.fault_spec = Some(
                    it.next()
                        .ok_or_else(|| {
                            "--fault-spec expects site=action[:prob[:param]][#maxfires],…"
                                .to_string()
                        })?
                        .clone(),
                )
            }
            "--fault-seed" => cli.fault_seed = parse_num(&mut it, "--fault-seed")?,
            "--quick" => cli.quick = true,
            "--filter" => {
                cli.bench_filter = Some(
                    it.next()
                        .ok_or_else(|| "--filter expects an id substring".to_string())?
                        .clone(),
                )
            }
            "--out" => {
                cli.bench_out = Some(
                    it.next()
                        .ok_or_else(|| "--out expects a file path".to_string())?
                        .clone(),
                )
            }
            "--registry" => {
                cli.bench_registry = Some(
                    it.next()
                        .ok_or_else(|| "--registry expects a file path".to_string())?
                        .clone(),
                )
            }
            "--min-change" => cli.min_change = parse_num(&mut it, "--min-change")?,
            "--noise-mult" => cli.noise_mult = parse_num(&mut it, "--noise-mult")?,
            "--strict" => cli.strict = true,
            "--request" => cli.request = Some(parse_num(&mut it, "--request")?),
            "--interval" => cli.interval_ms = parse_num(&mut it, "--interval")?,
            "--count" => cli.count = parse_num(&mut it, "--count")?,
            // Distinguish a mistyped flag from a stray positional so
            // `fgbs info extra` fails loudly instead of pretending
            // `extra` was an option.
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{USAGE}"))
            }
            other => return Err(format!("unexpected trailing argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    match it.next() {
        Some(n) => n
            .parse()
            .map_err(|_| format!("{flag} expects a number, got `{n}`")),
        None => Err(format!("{flag} expects a value")),
    }
}

fn target_by_name(name: &str) -> Result<Arch, String> {
    let arch = match name.to_ascii_lowercase().as_str() {
        "atom" => Arch::atom(),
        "core2" | "core-2" | "core 2" => Arch::core2(),
        "sb" | "sandybridge" | "sandy-bridge" => Arch::sandy_bridge(),
        "nehalem" | "ref" => Arch::nehalem(),
        other => return Err(format!("unknown target `{other}` (atom|core2|sb)")),
    };
    Ok(arch.scaled(PARK_SCALE))
}

/// The artifact store under the results dir (`<results-dir>/store`).
fn open_store(cli: &Cli) -> Result<Arc<Store>, String> {
    let root = PathBuf::from(&cli.results_dir).join("store");
    Store::open(&root)
        .map(Arc::new)
        .map_err(|e| format!("cannot open store at {}: {e}", root.display()))
}

fn build_config(cli: &Cli) -> Result<PipelineConfig, String> {
    let mut cfg = PipelineConfig::default().with_k(cli.k).with_threads(cli.threads);
    if cli.use_store {
        cfg = cfg.with_store(open_store(cli)?);
    }
    Ok(cfg)
}

fn suite_apps(cli: &Cli) -> Vec<fgbs::extract::Application> {
    match cli.suite {
        SuiteKind::Nr => nr_suite(cli.class),
        SuiteKind::Nas => nas_suite(cli.class),
        SuiteKind::Bigdata => bigdata_suite(cli.class),
    }
}

fn class_name(class: Class) -> &'static str {
    match class {
        Class::Test => "test",
        Class::A => "a",
        Class::B => "b",
    }
}

fn cmd_info() {
    println!("machine park (simulated at 1/{PARK_SCALE} cache capacity):");
    for a in Arch::park_scaled() {
        let caches: Vec<String> = a
            .caches
            .iter()
            .enumerate()
            .map(|(i, c)| format!("L{} {} KB", i + 1, c.size / 1024))
            .collect();
        println!(
            "  {:<13} {} @ {:.2} GHz, {}, {}",
            a.name,
            a.cpu,
            a.freq_ghz,
            if a.in_order { "in-order" } else { "out-of-order" },
            caches.join(" / ")
        );
    }
    println!("\nsuites:");
    println!("  nr  — 28 Numerical Recipes kernels (Table 3), one codelet each");
    println!(
        "  nas — {} NAS-like applications: {}",
        NAS_APPS.len(),
        NAS_APPS.join(", ")
    );
    println!(
        "  bigdata — {} data-intensive applications: {}",
        BIGDATA_APPS.len(),
        BIGDATA_APPS.join(", ")
    );
}

fn cmd_show(cli: &Cli) {
    let apps = suite_apps(cli);
    for app in &apps {
        for c in &app.codelets {
            if let Some(filter) = &cli.codelet {
                if !c.qualified_name().contains(filter.as_str()) {
                    continue;
                }
            }
            print!("{c}");
            println!(
                "  # pattern: {} | strides: {} | {}",
                c.pattern,
                c.stride_summary(),
                if c.extractable { "extractable" } else { "not extractable" }
            );
            println!();
        }
    }
}

fn cmd_reduce(cli: &Cli) -> Result<(), String> {
    let cfg = build_config(cli)?;
    let apps = suite_apps(cli);
    eprintln!("profiling on {}…", cfg.reference.name);
    let suite = profile_reference(&apps, &cfg);
    let reduced = reduce(&suite, &cfg);
    println!(
        "{} codelets ({:.0} % coverage) -> {} clusters, {} ill-behaved",
        suite.len(),
        100.0 * suite.coverage,
        reduced.n_representatives(),
        reduced.ill_behaved.len()
    );
    for (i, c) in reduced.clusters.iter().enumerate() {
        println!(
            "cluster {:>2}: <{}> + {} sibling(s)",
            i + 1,
            suite.codelets[c.representative].name,
            c.members.len() - 1
        );
    }
    let labels: Vec<String> = suite.codelets.iter().map(|c| c.name.clone()).collect();
    println!("\ndendrogram:");
    print!("{}", render_dendrogram(&reduced.dendrogram, &labels, 36));
    report_store(&cfg);
    Ok(())
}

fn cmd_predict(cli: &Cli) -> Result<(), String> {
    let name = cli
        .target
        .as_deref()
        .ok_or("predict requires --target atom|core2|sb")?;
    let target = target_by_name(name)?;
    let cfg = build_config(cli)?;
    let apps = suite_apps(cli);
    eprintln!("profiling on {}…", cfg.reference.name);
    let suite = profile_reference(&apps, &cfg);
    let reduced = reduce(&suite, &cfg);
    eprintln!(
        "measuring {} representatives on {}…",
        reduced.n_representatives(),
        target.name
    );
    let out = predict(&suite, &reduced, &target, &cfg);
    println!("{:<28} {:>12} {:>12} {:>8}", "codelet", "real", "predicted", "err %");
    for p in &out.predictions {
        println!(
            "{:<28} {:>9.1} us {:>9.1} us {:>8.1}",
            suite.codelets[p.codelet].name,
            p.real_seconds * 1e6,
            p.predicted_seconds.unwrap_or(f64::NAN) * 1e6,
            p.error_pct.unwrap_or(f64::NAN)
        );
    }
    println!(
        "\nmedian error {:.1} %, average {:.1} %",
        out.median_error_pct(),
        out.average_error_pct()
    );
    report_store(&cfg);
    Ok(())
}

fn cmd_select(cli: &Cli) -> Result<(), String> {
    let cfg = build_config(cli)?;
    let apps = suite_apps(cli);
    eprintln!("profiling on {}…", cfg.reference.name);
    let suite = profile_reference(&apps, &cfg);
    let reduced = reduce(&suite, &cfg);
    let targets = Arch::targets_scaled();
    eprintln!(
        "evaluating {} targets on {} worker thread(s) from {} representatives…",
        targets.len(),
        cfg.pool().threads(),
        reduced.n_representatives()
    );
    let cache = MicroCache::new();
    let evals = evaluate_targets(&suite, &reduced, &targets, &cache, &cfg);
    for e in &evals {
        println!(
            "{:<13} geo-mean speedup predicted {:.2} (real {:.2}), benchmarking cost x{:.1} lower",
            e.target, e.geomean.1, e.geomean.0, e.reduction.total
        );
    }
    let rank = rank_targets(&evals);
    println!("\nrecommended system: {}", rank[0].0);
    report_store(&cfg);
    Ok(())
}

fn cmd_features(cli: &Cli) -> Result<(), String> {
    let cfg = build_config(cli)?;
    let apps = suite_apps(cli);
    eprintln!("profiling on {}…", cfg.reference.name);
    let suite = profile_reference(&apps, &cfg);
    let targets = vec![
        Arch::atom().scaled(PARK_SCALE),
        Arch::sandy_bridge().scaled(PARK_SCALE),
    ];
    let ga = GaConfig {
        population: cli.population,
        generations: cli.generations,
        seed: cli.seed,
        ..GaConfig::default()
    };
    eprintln!(
        "GA feature selection: population {}, {} generations, seed {}…",
        ga.population, ga.generations, ga.seed
    );
    let sel = select_features_ga(&suite, &targets, &ga, &cfg);
    print_ga_progress(&fgbs::trace::snapshot());
    println!(
        "selected {} features (fitness {:.2}, elbow K = {}):",
        sel.feature_ids.len(),
        sel.fitness,
        sel.k
    );
    let cat = catalog();
    for id in &sel.feature_ids {
        println!("  - {} [{:?}]", cat[*id].name, cat[*id].kind);
    }
    println!(
        "\ncounters: {} evaluations, fitness cache {} hits / {} misses, \
         store {} hits / {} misses, {} warm-start entries",
        sel.evaluations,
        sel.cache_hits,
        sel.cache_misses,
        sel.store_hits,
        sel.store_misses,
        sel.warm_entries
    );
    Ok(())
}

fn cmd_serve(cli: &Cli) -> Result<(), String> {
    let store = open_store(cli)?;
    // Failing requests (503s, quarantines, armed failpoints, panics)
    // dump their flight-recorder window into the store as diagnostic
    // artifacts; `fgbs flightrec dump|show` reads them back.
    fgbs::serve::install_diagnostic_sink(Arc::clone(&store));
    // Requests run the pipeline serially; concurrency comes from the
    // connection workers, so identical queries stay deterministic.
    let cfg = PipelineConfig::default().with_k(cli.k).with_threads(1);
    let service = Arc::new(Service::new(cfg, store));
    let server = Server::start(&cli.addr, cli.threads, service)
        .map_err(|e| format!("cannot serve on {}: {e}", cli.addr))?;
    println!("fgbs-serve listening on http://{}", server.addr());
    println!("store: {}/store — try: curl 'http://{}/predict?suite=nr&class=test&target=atom'",
        cli.results_dir, server.addr());
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_store_ls(cli: &Cli) -> Result<(), String> {
    let store = open_store(cli)?;
    let mut artifacts = store.list();
    artifacts.sort_by(|a, b| (a.kind.as_str(), &a.key).cmp(&(b.kind.as_str(), &b.key)));
    println!("{:<10} {:<34} {:>10} {:>12}", "kind", "key", "bytes", "stored_at");
    for m in &artifacts {
        println!(
            "{:<10} {:<34} {:>10} {:>12}",
            m.kind.as_str(),
            m.key,
            m.bytes,
            m.stored_at
        );
    }
    println!("{} artifact(s) at {}", artifacts.len(), store.root().display());
    let problems = store.verify();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("integrity: {p}");
        }
        return Err(format!("{} integrity problem(s) found", problems.len()));
    }
    Ok(())
}

fn cmd_store_gc(cli: &Cli) -> Result<(), String> {
    let store = open_store(cli)?;
    let report = store
        .gc(cli.keep)
        .map_err(|e| format!("gc failed: {e}"))?;
    println!(
        "evicted {} artifact(s), freed {} bytes (keeping newest {} per kind)",
        report.removed, report.bytes_freed, cli.keep
    );
    Ok(())
}

/// `fgbs snippet pack`: export a suite as a portable snippet pack.
fn cmd_snippet_pack(cli: &Cli) -> Result<(), String> {
    let out = cli
        .bench_out
        .as_deref()
        .ok_or("snippet pack requires --out FILE")?;
    let apps = suite_apps(cli);
    let pool = WorkPool::new(cli.threads);
    let class = class_name(cli.class);
    let pack = build_pack(
        &format!("{}-{class}", cli.suite.as_str()),
        cli.suite.as_str(),
        &format!("class={class}"),
        &apps,
        &pool,
    )?;
    let bytes = encode_pack(&pack);
    let summary = verify_pack(&bytes).map_err(|e| format!("freshly packed bytes invalid: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "packed {} snippet(s) from {} {} app(s) -> {out} ({} bytes, id {})",
        summary.snippets,
        apps.len(),
        cli.suite.as_str(),
        summary.bytes,
        summary.id
    );
    Ok(())
}

fn read_pack_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// `fgbs snippet unpack`: decode a pack and describe its contents.
fn cmd_snippet_unpack(cli: &Cli) -> Result<(), String> {
    let bytes = read_pack_file(&cli.snippet_file)?;
    let pack = parse_pack(&bytes).map_err(|e| format!("{}: {e}", cli.snippet_file))?;
    println!(
        "pack {} (suite {}, extraction {}, {} snippet(s))",
        pack.name, pack.provenance.suite, pack.provenance.extraction, pack.snippets.len()
    );
    println!(
        "{:<28} {:>9} {:>9} {:>18}",
        "codelet", "contexts", "features", "contract digest"
    );
    for s in &pack.snippets {
        println!(
            "{:<28} {:>9} {:>9} {:>18}",
            s.codelet.qualified_name(),
            s.contexts.len(),
            s.features.len(),
            format!("{:016x}", s.contract.digest)
        );
    }
    Ok(())
}

/// `fgbs snippet ls`: the packs ingested into the artifact store.
fn cmd_snippet_ls(cli: &Cli) -> Result<(), String> {
    let store = open_store(cli)?;
    let packs = list_packs(&store);
    println!("{:<34} {:>10} {:>12}", "id", "bytes", "stored_at");
    for m in &packs {
        println!("{:<34} {:>10} {:>12}", m.key, m.bytes, m.stored_at);
    }
    println!("{} pack(s) at {}", packs.len(), store.root().display());
    Ok(())
}

/// `fgbs snippet verify`: full integrity + semantic validation, no
/// execution. Exits non-zero on any corruption.
fn cmd_snippet_verify(cli: &Cli) -> Result<(), String> {
    let bytes = read_pack_file(&cli.snippet_file)?;
    let s = verify_pack(&bytes).map_err(|e| format!("{}: INVALID: {e}", cli.snippet_file))?;
    println!(
        "{}: ok — pack {} (suite {}, schema {}, {} snippet(s), {} bytes, id {})",
        cli.snippet_file, s.name, s.suite, s.schema, s.snippets, s.bytes, s.id
    );
    Ok(())
}

/// `fgbs snippet replay`: execute every snippet and check the bitwise
/// replay contract. Exits non-zero if any digest diverges.
fn cmd_snippet_replay(cli: &Cli) -> Result<(), String> {
    let bytes = read_pack_file(&cli.snippet_file)?;
    let pack = parse_pack(&bytes).map_err(|e| format!("{}: {e}", cli.snippet_file))?;
    let pool = WorkPool::new(cli.threads);
    let report = replay_pack(&pack, &pool)?;
    for o in &report.outcomes {
        println!(
            "{:<28} expected {:016x} actual {:016x} {}",
            o.name,
            o.expected,
            o.actual,
            if o.ok { "ok" } else { "FAIL" }
        );
    }
    let failures = report.failures();
    if failures.is_empty() {
        println!(
            "{} snippet(s) replayed bitwise-identical on {} thread(s)",
            report.outcomes.len(),
            pool.threads()
        );
        Ok(())
    } else {
        Err(format!(
            "{} of {} snippet(s) broke the replay contract",
            failures.len(),
            report.outcomes.len()
        ))
    }
}

/// The per-generation GA progress table (`ga.generation` trace spans
/// carry `gen`/`best`/`mean` arguments recorded by the GA driver).
fn print_ga_progress(trace: &fgbs::trace::Trace) {
    let spans = trace.spans_named("ga.generation");
    if spans.is_empty() {
        return;
    }
    let arg = |s: &fgbs::trace::SpanRecord, key: &str| -> Option<f64> {
        s.args.iter().find(|(k, _)| *k == key).map(|(_, v)| match v {
            fgbs::trace::ArgValue::U64(n) => *n as f64,
            fgbs::trace::ArgValue::F64(x) => *x,
            fgbs::trace::ArgValue::Str(_) => f64::NAN,
        })
    };
    println!("{:>4} {:>14} {:>14}", "gen", "best", "mean");
    for s in spans {
        let gen = arg(s, "gen").unwrap_or(f64::NAN);
        let best = arg(s, "best").unwrap_or(f64::NAN);
        let mean = arg(s, "mean").unwrap_or(f64::NAN);
        println!("{gen:>4} {best:>14.3} {mean:>14.3}");
    }
    println!();
}

fn cmd_trace_summary(cli: &Cli) -> Result<(), String> {
    let raw = std::fs::read_to_string(&cli.trace_file)
        .map_err(|e| format!("cannot read {}: {e}", cli.trace_file))?;
    let doc = fgbs::trace::Json::parse(&raw)
        .map_err(|e| format!("{} is not valid JSON: {e}", cli.trace_file))?;
    let summary = fgbs::trace::summary::summarize(&doc)
        .map_err(|e| format!("{} is not a Chrome trace: {e}", cli.trace_file))?;
    print!("{}", summary.render());
    Ok(())
}

/// Load the diagnostic flight-recorder dump selected by `--request`
/// (or the newest one) from the results store. Returns the artifact key
/// and the parsed dump document.
fn load_flightrec_dump(cli: &Cli) -> Result<(String, fgbs::trace::Json), String> {
    let store = open_store(cli)?;
    let mut dumps: Vec<_> = store
        .list()
        .into_iter()
        .filter(|m| m.kind == ArtifactKind::Diagnostic)
        .collect();
    // Newest first; the key ends in the capture timestamp, which breaks
    // same-second `stored_at` ties.
    dumps.sort_by(|a, b| (b.stored_at, &b.key).cmp(&(a.stored_at, &a.key)));
    for m in &dumps {
        let Ok(Some(bytes)) = store.get(ArtifactKind::Diagnostic, &m.key) else {
            continue;
        };
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        let Ok(doc) = fgbs::trace::Json::parse(&raw) else {
            continue;
        };
        if let Some(want) = cli.request {
            if doc.get("request").and_then(fgbs::trace::Json::as_u64) != Some(want) {
                continue;
            }
        }
        return Ok((m.key.clone(), doc));
    }
    Err(match cli.request {
        Some(r) => format!("no diagnostic dump for request {r} in the store"),
        None => "no diagnostic dumps in the store (nothing has failed yet)".to_string(),
    })
}

/// `fgbs flightrec dump`: the selected dump as machine-readable JSON.
fn cmd_flightrec_dump(cli: &Cli) -> Result<(), String> {
    let (_, doc) = load_flightrec_dump(cli)?;
    println!("{}", doc.render());
    Ok(())
}

/// `fgbs flightrec show`: the selected dump as a human-readable event
/// table — what the failing request (and its neighbours) did in the
/// moments before the trigger fired.
fn cmd_flightrec_show(cli: &Cli) -> Result<(), String> {
    let (key, doc) = load_flightrec_dump(cli)?;
    let reason = doc.get("reason").and_then(fgbs::trace::Json::as_str).unwrap_or("?");
    let request = doc.get("request").and_then(fgbs::trace::Json::as_u64).unwrap_or(0);
    let events = doc
        .get("events")
        .and_then(fgbs::trace::Json::as_arr)
        .ok_or_else(|| format!("dump {key} has no event array"))?;
    println!(
        "flight recorder dump {key}: reason {reason}, request {request}, {} event(s)",
        events.len()
    );
    let t0 = events
        .first()
        .and_then(|e| e.get("ts_ns"))
        .and_then(fgbs::trace::Json::as_u64)
        .unwrap_or(0);
    println!(
        "{:>12} {:>6} {:>4} {:<8} {:<28} {:>12}",
        "t+us", "req", "tid", "kind", "name", "value"
    );
    for e in events {
        let f = |k: &str| e.get(k).and_then(fgbs::trace::Json::as_u64).unwrap_or(0);
        println!(
            "{:>12.1} {:>6} {:>4} {:<8} {:<28} {:>12}",
            f("ts_ns").saturating_sub(t0) as f64 / 1e3,
            f("req"),
            f("tid"),
            e.get("kind").and_then(fgbs::trace::Json::as_str).unwrap_or("?"),
            e.get("name").and_then(fgbs::trace::Json::as_str).unwrap_or("?"),
            f("value"),
        );
    }
    Ok(())
}

/// One blocking `GET /metrics` against a running daemon.
fn fetch_metrics(addr: &str) -> Result<fgbs::trace::Json, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e} (is `fgbs serve` running?)"))?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: fgbs\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("{addr}: {e}"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .ok_or_else(|| format!("{addr}: malformed /metrics response"))?;
    fgbs::trace::Json::parse(body).map_err(|e| format!("{addr}: /metrics is not JSON: {e}"))
}

/// `fgbs top`: poll `/metrics` and render a compact live view —
/// per-series throughput and latency quantiles, store and fault
/// counters, in-flight requests.
fn cmd_top(cli: &Cli) -> Result<(), String> {
    let mut prev: Option<(std::time::Instant, Vec<(String, u64)>)> = None;
    let mut polls = 0u64;
    loop {
        let doc = fetch_metrics(&cli.addr)?;
        let now = std::time::Instant::now();
        let g = |path: &[&str]| -> u64 {
            let mut node = &doc;
            for k in path {
                match node.get(k) {
                    Some(n) => node = n,
                    None => return 0,
                }
            }
            node.as_u64().unwrap_or(0)
        };
        println!(
            "fgbs top — {} | in-flight {} | computations {} | coalesced {}",
            cli.addr,
            g(&["in_flight"]),
            g(&["computations"]),
            g(&["flight", "coalesced"])
        );
        println!(
            "store: {} hits / {} misses / {} puts, {} quarantine(s), {} artifact(s)",
            g(&["store", "hits"]),
            g(&["store", "misses"]),
            g(&["store", "puts"]),
            g(&["store", "quarantines"]),
            g(&["store", "artifacts"])
        );
        println!(
            "faults: {} injected, {} retries, {} deadline(s) expired, {} panic(s)",
            g(&["trace", "stats", "fault.injected"]),
            g(&["trace", "stats", "fault.retries"]),
            g(&["trace", "stats", "serve.deadline_expired"]),
            g(&["trace", "stats", "serve.panics"])
        );
        println!(
            "{:<16} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "series", "count", "req/s", "p50_us", "p95_us", "p99_us", "ewma_us"
        );
        let mut counts: Vec<(String, u64)> = Vec::new();
        if let Some(fgbs::trace::Json::Obj(series)) = doc.get("requests") {
            for (name, s) in series {
                let v = |k: &str| s.get(k).and_then(fgbs::trace::Json::as_u64).unwrap_or(0);
                let count = v("count");
                counts.push((name.clone(), count));
                if count == 0 {
                    continue;
                }
                let rate = prev
                    .as_ref()
                    .and_then(|(t, cs)| {
                        let old = cs.iter().find(|(n, _)| n == name)?.1;
                        let dt = now.duration_since(*t).as_secs_f64();
                        (dt > 0.0).then(|| (count.saturating_sub(old)) as f64 / dt)
                    })
                    .unwrap_or(0.0);
                let ewma = s
                    .get("ewma_micros")
                    .and_then(fgbs::trace::Json::as_f64)
                    .unwrap_or(0.0);
                println!(
                    "{:<16} {:>8} {:>8.1} {:>10} {:>10} {:>10} {:>10.1}",
                    name,
                    count,
                    rate,
                    v("p50"),
                    v("p95"),
                    v("p99"),
                    ewma
                );
            }
        }
        prev = Some((now, counts));
        polls += 1;
        if cli.count != 0 && polls >= cli.count {
            return Ok(());
        }
        println!();
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms.max(50)));
    }
}

/// Load `--registry FILE` when given, else the built-in catalogue.
fn bench_registry(cli: &Cli) -> Result<fgbs::bench::barometer::Registry, String> {
    match &cli.bench_registry {
        Some(path) => {
            let raw = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read registry {path}: {e}"))?;
            fgbs::bench::barometer::Registry::parse(&raw)
        }
        None => Ok(fgbs::bench::barometer::Registry::builtin()),
    }
}

fn cmd_bench_run(cli: &Cli) -> Result<(), String> {
    let reg = bench_registry(cli)?;
    let threads = if cli.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cli.threads
    };
    let opts = fgbs::bench::barometer::RunOptions {
        quick: cli.quick,
        filter: cli.bench_filter.clone(),
        threads,
    };
    eprintln!(
        "benchmark barometer: {} mode, {} worker thread(s)…",
        if cli.quick { "quick" } else { "full" },
        threads
    );
    let out = fgbs::bench::barometer::run_registry(&reg, &opts)?;
    print!("{}", fgbs::bench::barometer::render_report(&out));
    if let Some(path) = &cli.bench_out {
        std::fs::write(path, out.record.render())
            .map_err(|e| format!("cannot write record to {path}: {e}"))?;
        eprintln!("record -> {path}");
    }
    let failed = out.failed_gates();
    if !failed.is_empty() {
        let ids: Vec<&str> = failed.iter().map(|g| g.id.as_str()).collect();
        return Err(format!(
            "{} perf gate(s) failed: {}",
            failed.len(),
            ids.join(", ")
        ));
    }
    Ok(())
}

fn cmd_bench_cmp(cli: &Cli) -> Result<(), String> {
    let load = |path: &str| -> Result<fgbs::bench::barometer::Record, String> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read record {path}: {e}"))?;
        fgbs::bench::barometer::Record::parse(&raw).map_err(|e| format!("{path}: {e}"))
    };
    let old = load(&cli.cmp_old)?;
    let new = load(&cli.cmp_new)?;
    let opts = fgbs::bench::barometer::CmpOptions {
        min_change_pct: cli.min_change,
        noise_mult: cli.noise_mult,
        strict: cli.strict,
    };
    let report = fgbs::bench::barometer::compare(&old, &new, &opts);
    print!("{}", report.render());
    match report.failure(&opts) {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

/// Write the collector's contents as a Chrome trace into `path`.
fn write_trace(path: &str) -> Result<(), String> {
    let trace = fgbs::trace::drain();
    let doc = fgbs::trace::chrome::to_chrome(&trace);
    std::fs::write(path, doc.render())
        .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    eprintln!(
        "trace: {} span(s), {} counter(s) -> {path} (load in chrome://tracing \
         or run `fgbs trace summary {path}`)",
        trace.spans.len(),
        trace.counters.len()
    );
    Ok(())
}

/// Print store counters when a store was attached (`--store`).
fn report_store(cfg: &PipelineConfig) {
    if let Some(store) = &cfg.store {
        let c = store.counters();
        eprintln!(
            "store: {} hits, {} misses, {} writes ({})",
            c.hits,
            c.misses,
            c.puts,
            store.root().display()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Every CLI invocation is one logical request: spans, counters and
    // flight-recorder events it emits carry this id, exactly like an
    // HTTP request through the daemon.
    let _request_ctx = fgbs::trace::enter_request(fgbs::trace::next_request_id());
    // The flight recorder is armed for every invocation: recording is
    // bounded (per-thread logs) and cheap enough to leave on — the
    // `obs/flightrec_record` barometer entry gates it under 50 ns/event
    // — so a failure anywhere always has a recent-events window.
    fgbs::trace::flightrec::arm(true);
    // `--trace` turns the collector on for any command; `features`
    // always records so it can report per-generation GA progress.
    if cli.trace.is_some() || cli.command == Command::Features {
        fgbs::trace::set_enabled(true);
    }
    // Arm the failpoint registry before any pipeline or store work runs;
    // with no --fault-spec the probes stay a single relaxed atomic load.
    if let Some(spec) = &cli.fault_spec {
        match fgbs::fault::FaultPlan::parse(spec, cli.fault_seed) {
            Ok(plan) => {
                fgbs::fault::install(plan);
                eprintln!("faults armed: {spec} (seed {})", cli.fault_seed);
            }
            Err(e) => {
                eprintln!("bad --fault-spec: {e}");
                std::process::exit(2);
            }
        }
    }
    let outcome = match cli.command {
        Command::Info => {
            cmd_info();
            Ok(())
        }
        Command::Show => {
            cmd_show(&cli);
            Ok(())
        }
        Command::Help => {
            println!("{HELP}");
            Ok(())
        }
        Command::Reduce => cmd_reduce(&cli),
        Command::Predict => cmd_predict(&cli),
        Command::Select => cmd_select(&cli),
        Command::Features => cmd_features(&cli),
        Command::Serve => cmd_serve(&cli),
        Command::StoreLs => cmd_store_ls(&cli),
        Command::StoreGc => cmd_store_gc(&cli),
        Command::SnippetPack => cmd_snippet_pack(&cli),
        Command::SnippetUnpack => cmd_snippet_unpack(&cli),
        Command::SnippetLs => cmd_snippet_ls(&cli),
        Command::SnippetVerify => cmd_snippet_verify(&cli),
        Command::SnippetReplay => cmd_snippet_replay(&cli),
        Command::TraceSummary => cmd_trace_summary(&cli),
        Command::FlightrecDump => cmd_flightrec_dump(&cli),
        Command::FlightrecShow => cmd_flightrec_show(&cli),
        Command::Top => cmd_top(&cli),
        Command::BenchRun => cmd_bench_run(&cli),
        Command::BenchCmp => cmd_bench_cmp(&cli),
    };
    let outcome = outcome.and_then(|()| match &cli.trace {
        Some(path) => write_trace(path),
        None => Ok(()),
    });
    if fgbs::fault::armed() {
        eprintln!(
            "faults: {} injected, {} retried",
            fgbs::fault::injected(),
            fgbs::fault::retries()
        );
    }
    if let Err(e) = outcome {
        eprintln!("{e}");
        // Usage errors (bad --target and friends) exit 2, runtime
        // failures (store I/O, bind) exit 1.
        let code = if e.starts_with("predict requires") || e.starts_with("unknown target") {
            2
        } else {
            1
        };
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_commands_and_options() {
        let c = parse(&argv("reduce --suite nr --class test --k 5")).unwrap();
        assert_eq!(c.command, Command::Reduce);
        assert_eq!(c.suite, SuiteKind::Nr);
        assert_eq!(c.class, Class::Test);
        assert_eq!(c.k, KChoice::Fixed(5));
        assert_eq!(c.threads, 0, "auto-detect unless --threads given");
        assert_eq!(c.results_dir, "results", "default results dir");
        assert!(!c.use_store);

        let c = parse(&argv("select --threads 8")).unwrap();
        assert_eq!(c.threads, 8);
        assert_eq!(build_config(&c).unwrap().threads, 8);
        let c = parse(&argv("select --threads 1")).unwrap();
        assert_eq!(build_config(&c).unwrap().pool().threads(), 1);

        let c = parse(&argv("predict --target atom")).unwrap();
        assert_eq!(c.command, Command::Predict);
        assert_eq!(c.target.as_deref(), Some("atom"));

        let c = parse(&argv("select --k elbow")).unwrap();
        assert_eq!(c.command, Command::Select);
        assert_eq!(c.k, KChoice::Elbow { max_k: 24 });
    }

    #[test]
    fn parses_new_subcommands() {
        let c = parse(&argv("serve --addr 0.0.0.0:9000 --threads 4")).unwrap();
        assert_eq!(c.command, Command::Serve);
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.threads, 4);

        let c = parse(&argv("store ls --results-dir /tmp/x")).unwrap();
        assert_eq!(c.command, Command::StoreLs);
        assert_eq!(c.results_dir, "/tmp/x");

        let c = parse(&argv("store gc --keep 2")).unwrap();
        assert_eq!(c.command, Command::StoreGc);
        assert_eq!(c.keep, 2);

        let c = parse(&argv("features --generations 3 --population 10 --seed 1")).unwrap();
        assert_eq!(c.command, Command::Features);
        assert_eq!((c.generations, c.population, c.seed), (3, 10, 1));

        let c = parse(&argv("reduce --store")).unwrap();
        assert!(c.use_store);

        let c = parse(&argv("reduce --trace out.json")).unwrap();
        assert_eq!(c.trace.as_deref(), Some("out.json"));

        let c = parse(&argv("reduce --fault-spec store.read=err:0.5#2 --fault-seed 42")).unwrap();
        assert_eq!(c.fault_spec.as_deref(), Some("store.read=err:0.5#2"));
        assert_eq!(c.fault_seed, 42);
        let c = parse(&argv("reduce")).unwrap();
        assert_eq!(c.fault_spec, None);
        assert_eq!(c.fault_seed, 0, "deterministic default seed");

        let c = parse(&argv("trace summary results/run.json")).unwrap();
        assert_eq!(c.command, Command::TraceSummary);
        assert_eq!(c.trace_file, "results/run.json");

        let c = parse(&argv("help")).unwrap();
        assert_eq!(c.command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_bench_commands() {
        let c = parse(&argv("bench")).unwrap();
        assert_eq!(c.command, Command::BenchRun);
        assert!(!c.quick && c.bench_filter.is_none() && c.bench_out.is_none());

        let c = parse(&argv("bench --quick --filter clustering --out rec.json --threads 2"))
            .unwrap();
        assert_eq!(c.command, Command::BenchRun);
        assert!(c.quick);
        assert_eq!(c.bench_filter.as_deref(), Some("clustering"));
        assert_eq!(c.bench_out.as_deref(), Some("rec.json"));
        assert_eq!(c.threads, 2);

        let c = parse(&argv("bench --registry custom.json")).unwrap();
        assert_eq!(c.bench_registry.as_deref(), Some("custom.json"));

        let c = parse(&argv("bench cmp old.json new.json")).unwrap();
        assert_eq!(c.command, Command::BenchCmp);
        assert_eq!(c.cmp_old, "old.json");
        assert_eq!(c.cmp_new, "new.json");
        assert_eq!(c.min_change, 10.0);
        assert_eq!(c.noise_mult, 4.0);
        assert!(!c.strict);

        let c = parse(&argv("bench cmp a.json b.json --min-change 25 --noise-mult 2 --strict"))
            .unwrap();
        assert_eq!(c.min_change, 25.0);
        assert_eq!(c.noise_mult, 2.0);
        assert!(c.strict);

        // An option right after `bench` must not be eaten as a subcommand.
        let c = parse(&argv("bench --quick")).unwrap();
        assert_eq!(c.command, Command::BenchRun);
        assert!(c.quick);

        assert!(parse(&argv("bench cmp old.json")).is_err());
        assert!(parse(&argv("bench cmp")).is_err());
        assert!(parse(&argv("bench --filter")).is_err());
        assert!(parse(&argv("bench --out")).is_err());
        assert!(parse(&argv("bench --registry")).is_err());
        assert!(parse(&argv("bench cmp a b --min-change lots")).is_err());
    }

    #[test]
    fn parses_snippet_subcommands() {
        let c = parse(&argv("snippet pack --suite bigdata --class test --out p.fgsn")).unwrap();
        assert_eq!(c.command, Command::SnippetPack);
        assert_eq!(c.suite, SuiteKind::Bigdata);
        assert_eq!(c.class, Class::Test);
        assert_eq!(c.bench_out.as_deref(), Some("p.fgsn"));

        let c = parse(&argv("snippet unpack p.fgsn")).unwrap();
        assert_eq!(c.command, Command::SnippetUnpack);
        assert_eq!(c.snippet_file, "p.fgsn");

        let c = parse(&argv("snippet ls --results-dir /tmp/x")).unwrap();
        assert_eq!(c.command, Command::SnippetLs);
        assert_eq!(c.results_dir, "/tmp/x");

        let c = parse(&argv("snippet verify p.fgsn")).unwrap();
        assert_eq!(c.command, Command::SnippetVerify);

        let c = parse(&argv("snippet replay p.fgsn --threads 8")).unwrap();
        assert_eq!(c.command, Command::SnippetReplay);
        assert_eq!(c.threads, 8);

        assert!(parse(&argv("snippet")).is_err(), "snippet needs a subcommand");
        assert!(parse(&argv("snippet smash")).is_err());
        assert!(parse(&argv("snippet verify")).is_err(), "verify needs a file");
        assert!(
            parse(&argv("snippet replay --threads 2")).is_err(),
            "a flag is not a pack file"
        );
    }

    #[test]
    fn help_text_enumerates_every_subcommand() {
        for cmd in [
            "info", "show", "reduce", "predict", "select", "features", "serve", "store ls",
            "store gc", "snippet pack", "snippet unpack", "snippet ls", "snippet verify",
            "snippet replay", "trace summary", "flightrec dump", "flightrec show", "top",
            "bench", "bench cmp", "help",
        ] {
            assert!(HELP.contains(cmd), "help must describe `{cmd}`");
        }
    }

    #[test]
    fn parses_observability_subcommands() {
        let c = parse(&argv("flightrec dump")).unwrap();
        assert_eq!(c.command, Command::FlightrecDump);
        assert_eq!(c.request, None, "newest dump by default");

        let c = parse(&argv("flightrec show --request 42 --results-dir /tmp/x")).unwrap();
        assert_eq!(c.command, Command::FlightrecShow);
        assert_eq!(c.request, Some(42));
        assert_eq!(c.results_dir, "/tmp/x");

        let c = parse(&argv("top")).unwrap();
        assert_eq!(c.command, Command::Top);
        assert_eq!(c.interval_ms, 1000);
        assert_eq!(c.count, 0, "poll forever by default");

        let c = parse(&argv("top --addr 127.0.0.1:9000 --interval 250 --count 3")).unwrap();
        assert_eq!(c.addr, "127.0.0.1:9000");
        assert_eq!(c.interval_ms, 250);
        assert_eq!(c.count, 3);

        assert!(parse(&argv("flightrec")).is_err(), "flightrec needs a subcommand");
        assert!(parse(&argv("flightrec replay")).is_err());
        assert!(parse(&argv("flightrec show --request soon")).is_err());
        assert!(parse(&argv("top --interval fast")).is_err());
    }

    #[test]
    fn trailing_arguments_are_rejected_not_swallowed() {
        let err = parse(&argv("info extra")).unwrap_err();
        assert!(err.contains("unexpected trailing argument `extra`"), "{err}");
        let err = parse(&argv("reduce --suite nr leftovers")).unwrap_err();
        assert!(err.contains("unexpected trailing argument `leftovers`"), "{err}");
        // Mistyped flags still read as unknown options.
        let err = parse(&argv("reduce --bogus")).unwrap_err();
        assert!(err.contains("unknown option `--bogus`"), "{err}");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("loadgen")).is_err(), "serve load runs as `bench --filter serve/`");
        assert!(parse(&argv("reduce --k banana")).is_err());
        assert!(parse(&argv("reduce --suite spec")).is_err());
        assert!(parse(&argv("reduce --bogus")).is_err());
        assert!(parse(&argv("select --threads")).is_err());
        assert!(parse(&argv("select --threads many")).is_err());
        assert!(parse(&argv("store")).is_err(), "store needs a subcommand");
        assert!(parse(&argv("store drop")).is_err());
        assert!(parse(&argv("serve --addr")).is_err());
        assert!(parse(&argv("store gc --keep some")).is_err());
        assert!(parse(&argv("features --seed x")).is_err());
        assert!(parse(&argv("reduce --results-dir")).is_err());
        assert!(parse(&argv("reduce --trace")).is_err());
        assert!(parse(&argv("trace")).is_err(), "trace needs a subcommand");
        assert!(parse(&argv("trace summary")).is_err(), "summary needs a file");
        assert!(parse(&argv("trace dump x.json")).is_err());
        assert!(parse(&argv("reduce --fault-spec")).is_err());
        assert!(parse(&argv("reduce --fault-seed nope")).is_err());
    }

    #[test]
    fn resolves_targets() {
        assert_eq!(target_by_name("atom").unwrap().name, "Atom");
        assert_eq!(target_by_name("SB").unwrap().name, "Sandy Bridge");
        assert_eq!(target_by_name("core2").unwrap().name, "Core 2");
        assert!(target_by_name("vax").is_err());
        // Targets come back scaled.
        let full = Arch::atom().caches[1].size;
        assert_eq!(target_by_name("atom").unwrap().caches[1].size, full / PARK_SCALE);
    }
}
