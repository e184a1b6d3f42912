//! End-to-end golden outputs of whole-park system selection.
//!
//! `tests/golden/e2e.txt` pins, one digest per line, what `fgbs select`
//! computes for NR, NAS and bigdata at class test and for NAS at class
//! A: the reference profile, K, the clusters and representatives, the
//! ill-behaved set and, per target, the predicted times, the median
//! error, the reduction factor and the geometric means. It also pins
//! what `fgbs features` computes on NR class test at 1 and 2 threads:
//! the selected feature ids, the fitness, K, the evaluation count and
//! the per-generation history. Every value is digested by its exact
//! bits, so a refactor or optimisation that moves any output bit fails
//! here. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test golden_e2e`, which rewrites the
//! file and then fails.

use std::path::PathBuf;

use fgbs::core::{
    evaluate_targets, profile_reference, reduce_cached, select_features_ga, MicroCache,
    PipelineConfig, ProfiledSuite, ReducedSuite, TargetEvaluation,
};
use fgbs::extract::Application;
use fgbs::genetic::GaConfig;
use fgbs::machine::{Arch, PARK_SCALE};
use fgbs::suites::{bigdata_suite, nas_suite, nr_suite, Class};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("e2e.txt")
}

/// FNV-1a over the exact bytes of every value fed in.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    fn opt_f64(&mut self, v: Option<f64>) -> &mut Digest {
        match v {
            Some(x) => self.u64(1).f64(x),
            None => self.u64(0),
        }
    }

    fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The reference profile: every detected codelet, its Step B time and
/// feature vector, the coverage, and the full application runs.
fn profile_digest(suite: &ProfiledSuite) -> String {
    let mut d = Digest::new();
    d.u64(suite.len() as u64).f64(suite.coverage);
    for (i, c) in suite.codelets.iter().enumerate() {
        d.str(&c.name)
            .u64(c.app as u64)
            .u64(c.local as u64)
            .f64(c.tref_cycles)
            .u64(c.invocations);
        for &x in suite.features.row(i).values() {
            d.f64(x);
        }
    }
    for run in &suite.runs {
        d.str(&run.app).f64(run.total_cycles).f64(run.total_seconds);
        for p in &run.profiles {
            d.u64(p.invocations)
                .f64(p.measured_cycles)
                .f64(p.true_cycles);
        }
    }
    d.hex()
}

fn clusters_digest(reduced: &ReducedSuite) -> String {
    let mut d = Digest::new();
    d.u64(reduced.clusters.len() as u64);
    for c in &reduced.clusters {
        d.u64(c.representative as u64).u64(c.members.len() as u64);
        for &m in &c.members {
            d.u64(m as u64);
        }
    }
    for a in &reduced.assignment {
        d.u64(a.map_or(u64::MAX, |c| c as u64));
    }
    d.hex()
}

fn ill_behaved_digest(reduced: &ReducedSuite) -> String {
    let mut d = Digest::new();
    d.u64(reduced.ill_behaved.len() as u64);
    for &i in &reduced.ill_behaved {
        d.u64(i as u64);
    }
    d.hex()
}

fn predicted_digest(e: &TargetEvaluation) -> String {
    let mut d = Digest::new();
    for p in &e.outcome.predictions {
        d.u64(p.codelet as u64)
            .opt_f64(p.predicted_seconds)
            .f64(p.real_seconds)
            .f64(p.ref_seconds);
    }
    for &s in &e.outcome.rep_seconds {
        d.f64(s);
    }
    d.hex()
}

fn reduction_digest(e: &TargetEvaluation) -> String {
    let r = &e.reduction;
    let mut d = Digest::new();
    d.f64(r.full_seconds)
        .f64(r.all_micro_seconds)
        .f64(r.reduced_seconds)
        .f64(r.total)
        .f64(r.invocation_factor)
        .f64(r.clustering_factor);
    d.hex()
}

/// `fgbs select`'s pipeline on one suite, as golden lines. Returns the
/// reference profile for the lines that build on it.
fn select_lines(label: &str, apps: &[Application], out: &mut Vec<String>) -> ProfiledSuite {
    let cfg = PipelineConfig::default().with_threads(0);
    let suite = profile_reference(apps, &cfg);
    let cache = MicroCache::new();
    let reduced = reduce_cached(&suite, &cfg, &cache);
    let evals = evaluate_targets(&suite, &reduced, &Arch::targets_scaled(), &cache, &cfg);

    out.push(format!("{label} profile {}", profile_digest(&suite)));
    out.push(format!("{label} k {}", reduced.k_requested));
    out.push(format!("{label} clusters {}", clusters_digest(&reduced)));
    out.push(format!(
        "{label} ill_behaved {}",
        ill_behaved_digest(&reduced)
    ));
    for e in &evals {
        let target = e.target.to_lowercase().replace(' ', "_");
        out.push(format!(
            "{label} {target} predicted {}",
            predicted_digest(e)
        ));
        out.push(format!(
            "{label} {target} median_error_pct {:016x}",
            e.outcome.median_error_pct().to_bits()
        ));
        out.push(format!(
            "{label} {target} reduction {}",
            reduction_digest(e)
        ));
        let mut g = Digest::new();
        g.f64(e.geomean.0).f64(e.geomean.1);
        out.push(format!("{label} {target} geomean {}", g.hex()));
    }
    suite
}

/// `fgbs features`' GA on a profiled suite, trained on Atom and Sandy
/// Bridge, at each thread count, as golden lines.
fn features_lines(label: &str, suite: &ProfiledSuite, out: &mut Vec<String>) {
    let targets = [
        Arch::atom().scaled(PARK_SCALE),
        Arch::sandy_bridge().scaled(PARK_SCALE),
    ];
    let ga = GaConfig {
        population: 24,
        generations: 4,
        seed: 0,
        ..GaConfig::default()
    };
    let size = format!("{}x{}", ga.population, ga.generations);
    for threads in [1, 2] {
        let cfg = PipelineConfig::default().with_threads(threads);
        let sel = select_features_ga(suite, &targets, &ga, &cfg);
        let at = format!("{label} ga {size} t{threads}");
        let mut ids = Digest::new();
        ids.u64(sel.feature_ids.len() as u64);
        for &i in &sel.feature_ids {
            ids.u64(i as u64);
        }
        out.push(format!("{at} feature_ids {}", ids.hex()));
        out.push(format!("{at} fitness {:016x}", sel.fitness.to_bits()));
        out.push(format!("{at} k {}", sel.k));
        out.push(format!("{at} evaluations {}", sel.evaluations));
        let mut history = Digest::new();
        history.u64(sel.history.len() as u64);
        for &h in &sel.history {
            history.f64(h);
        }
        out.push(format!("{at} history {}", history.hex()));
    }
}

#[test]
fn end_to_end_outputs_match_the_golden_file() {
    let mut lines = vec![
        "# Whole-park selection outputs: <suite>/<class> <output> <digest of its exact bits>."
            .to_string(),
        "# GA feature selection outputs: <suite>/<class> ga <population>x<generations> t<threads> <output> <value or digest>."
            .to_string(),
        "# Regenerate only on purpose: UPDATE_GOLDEN=1 cargo test --test golden_e2e".to_string(),
    ];
    let nr = select_lines("nr/test", &nr_suite(Class::Test), &mut lines);
    select_lines("nas/test", &nas_suite(Class::Test), &mut lines);
    select_lines("bigdata/test", &bigdata_suite(Class::Test), &mut lines);
    select_lines("nas/a", &nas_suite(Class::A), &mut lines);
    features_lines("nr/test", &nr, &mut lines);
    let got = lines.join("\n") + "\n";

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        panic!(
            "golden file regenerated at {}; rerun without UPDATE_GOLDEN",
            path.display()
        );
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let moved: Vec<String> = got
        .lines()
        .zip(pinned.lines())
        .filter(|(g, p)| g != p)
        .map(|(g, p)| format!("  golden {p}\n  now    {g}"))
        .collect();
    assert!(
        moved.is_empty() && got == pinned,
        "end-to-end outputs moved ({} lines now, {} pinned):\n{}",
        got.lines().count(),
        pinned.lines().count(),
        moved.join("\n")
    );
}
