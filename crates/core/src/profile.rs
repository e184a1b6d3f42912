//! Steps A and B: codelet detection and reference-architecture profiling.

use fgbs_analysis::{dynamic_features, static_features, FeatureMatrix, FeatureVector};
use fgbs_extract::{run_application, AppRun, Application, Microbenchmark};
use fgbs_isa::{compile, CompileMode};
use fgbs_machine::Arch;

use crate::config::PipelineConfig;

/// One detected codelet, fully characterised on the reference
/// architecture.
#[derive(Debug, Clone)]
pub struct CodeletInfo {
    /// Index into [`ProfiledSuite::apps`].
    pub app: usize,
    /// Codelet index within its application.
    pub local: usize,
    /// Qualified name (`app/name`).
    pub name: String,
    /// Mean measured cycles per invocation on the reference (Step B's
    /// `t_ref`).
    pub tref_cycles: f64,
    /// Invocations over the full application run.
    pub invocations: u64,
    /// The extracted standalone microbenchmark.
    pub micro: Microbenchmark,
}

/// The output of Steps A + B over a suite of applications.
#[derive(Debug, Clone)]
pub struct ProfiledSuite {
    /// The applications, as supplied.
    pub apps: Vec<Application>,
    /// Full reference-architecture runs, one per application.
    pub runs: Vec<AppRun>,
    /// Detected codelets in stable order (application order, then codelet
    /// order).
    pub codelets: Vec<CodeletInfo>,
    /// 76-feature signatures, row-aligned with `codelets`.
    pub features: FeatureMatrix,
    /// Fraction of total suite time covered by detected codelets.
    pub coverage: f64,
}

impl ProfiledSuite {
    /// Number of detected codelets.
    pub fn len(&self) -> usize {
        self.codelets.len()
    }

    /// True when nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.codelets.is_empty()
    }

    /// Index of a codelet by qualified name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.codelets.iter().position(|c| c.name == name)
    }
}

/// Run Steps A and B: execute every application on the reference
/// architecture with instrumentation, detect the extractable codelets,
/// and compute each one's static + dynamic feature vector.
///
/// With a store attached ([`PipelineConfig::store`]) the profile is
/// looked up first and persisted after computing; profiling is
/// deterministic, so the stored artifact is bitwise-identical to a fresh
/// run. Store I/O failures fall back to computing.
pub fn profile_reference(apps: &[Application], cfg: &PipelineConfig) -> ProfiledSuite {
    let Some(store) = &cfg.store else {
        return compute_profile(apps, cfg);
    };
    let key = crate::persist::profile_key(apps, cfg);
    if let Ok(Some(bytes)) = store.get(fgbs_store::ArtifactKind::Profile, &key) {
        if let Ok(suite) = crate::persist::decode_profiled_suite(&bytes, apps) {
            return suite;
        }
    }
    let suite = compute_profile(apps, cfg);
    let _ = store.put(
        fgbs_store::ArtifactKind::Profile,
        &key,
        &crate::persist::encode_profiled_suite(&suite),
    );
    suite
}

/// The uncached Steps A + B.
fn compute_profile(apps: &[Application], cfg: &PipelineConfig) -> ProfiledSuite {
    let mut stage_span = fgbs_trace::span("stage.profile");
    stage_span.arg_u64("apps", apps.len() as u64);
    let arch = &cfg.reference;
    // One application per work item: each runs on its own machine with a
    // seed derived from its index.
    let runs: Vec<AppRun> = {
        let _run_span = fgbs_trace::span("profile.run");
        cfg.pool().map(apps, |i, app| {
            run_application(app, arch, cfg.noise_seed ^ (i as u64) << 8)
        })
    };

    let mut codelets = Vec::new();
    let mut features = FeatureMatrix::new();
    let mut covered = 0.0;
    let mut total = 0.0;

    let detect_span = fgbs_trace::span("profile.detect");
    for (ai, (app, run)) in apps.iter().zip(&runs).enumerate() {
        total += run.total_cycles;
        let det = cfg.finder.detect(app, run, arch);
        for &ci in &det.detected {
            let p = &run.profiles[ci];
            covered += p.true_cycles;
            let micro = Microbenchmark::extract(app, ci)
                .expect("detected codelets are extractable by construction");

            // Static half (MAQAO substitute): analyse the in-app binary.
            let kernel = compile(&app.codelets[ci], &arch.target(), CompileMode::InApp);
            let st = static_features(&kernel, arch);
            // Dynamic half (Likwid substitute): counters of the profiled
            // run, with the *measured* cycle total a real probe would see.
            let dy = dynamic_features(&p.counters, arch, p.measured_cycles);

            features.push(p.name.clone(), FeatureVector::compose(st, dy));
            codelets.push(CodeletInfo {
                app: ai,
                local: ci,
                name: p.name.clone(),
                tref_cycles: p.mean_cycles(),
                invocations: p.invocations,
                micro,
            });
        }
    }

    drop(detect_span);
    fgbs_trace::counter("profile.codelets", codelets.len() as u64);
    stage_span.arg_u64("codelets", codelets.len() as u64);

    ProfiledSuite {
        apps: apps.to_vec(),
        runs,
        codelets,
        features,
        coverage: if total > 0.0 { covered / total } else { 0.0 },
    }
}

/// Ground-truth target run: execute every application in full on `target`
/// (this is exactly what the reduced suite is meant to replace), one
/// application per work item on the configured pool.
pub fn profile_target(suite: &ProfiledSuite, target: &Arch, cfg: &PipelineConfig) -> Vec<AppRun> {
    cfg.pool()
        .map_indexed(suite.apps.len(), |app| target_run(suite, target, app, cfg))
}

/// The ground-truth run of application `app` on `target`, in its own
/// `profile.target` span.
pub(crate) fn target_run(
    suite: &ProfiledSuite,
    target: &Arch,
    app: usize,
    cfg: &PipelineConfig,
) -> AppRun {
    let mut span = fgbs_trace::span("profile.target");
    span.arg_str("target", target.name.as_str());
    span.arg_u64("app", app as u64);
    run_application(
        &suite.apps[app],
        target,
        cfg.noise_seed ^ 0xA11 ^ ((app as u64) << 8),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgbs_suites::{nr_suite, Class};

    fn small_nr() -> Vec<Application> {
        nr_suite(Class::Test).into_iter().take(6).collect()
    }

    #[test]
    fn profiles_every_nr_codelet() {
        let apps = small_nr();
        let cfg = PipelineConfig::fast();
        let p = profile_reference(&apps, &cfg);
        assert_eq!(p.len(), 6, "each NR code contributes one codelet");
        assert!(p.coverage > 0.99, "NR codelets cover everything: {}", p.coverage);
        for c in &p.codelets {
            assert!(c.tref_cycles > 0.0);
            assert_eq!(c.invocations, 32);
        }
        assert_eq!(p.features.len(), 6);
        assert!(p.index_of(&p.codelets[3].name.clone()) == Some(3));
    }

    #[test]
    fn feature_vectors_distinguish_kernels() {
        let apps = small_nr();
        let cfg = PipelineConfig::fast();
        let p = profile_reference(&apps, &cfg);
        // toeplz_1 (reduction) and realft_4 (scalar butterfly) must have
        // different signatures on the Table 2 features.
        let a = p.index_of("toeplz_1/toeplz_1").unwrap();
        let b = p.index_of("realft_4/realft_4").unwrap();
        let mask = &cfg.features;
        assert_ne!(p.features.row(a).project(mask), p.features.row(b).project(mask));
    }

    #[test]
    fn target_runs_cover_all_apps() {
        let apps = small_nr();
        let cfg = PipelineConfig::fast();
        let p = profile_reference(&apps, &cfg);
        let runs = profile_target(&p, &fgbs_machine::Arch::atom().scaled(fgbs_machine::PARK_SCALE), &cfg);
        assert_eq!(runs.len(), 6);
        for r in &runs {
            assert_eq!(r.arch, "Atom");
            assert!(r.total_seconds > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let apps = small_nr();
        let cfg = PipelineConfig::fast();
        let a = profile_reference(&apps, &cfg);
        let b = profile_reference(&apps, &cfg);
        assert_eq!(a.codelets.len(), b.codelets.len());
        for (x, y) in a.codelets.iter().zip(&b.codelets) {
            assert_eq!(x.tref_cycles, y.tref_cycles);
        }
    }
}
