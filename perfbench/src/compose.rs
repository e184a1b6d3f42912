//! The pipeline stages re-composed from public calls, each layer call in
//! its own span. Traced samples run these instead of the stage entry
//! points, so every layer is reached; each must reproduce the stage it
//! replaces bit for bit, which the traced samples' output digests check.

use std::collections::BTreeMap;

use fgbs_analysis::{dynamic_features, static_features, FeatureMatrix, FeatureVector};
use fgbs_clustering::{elbow_k, linkage, medoid, within_variance_curve, DistanceMatrix, Partition};
use fgbs_core::{
    Cluster, CodeletInfo, KChoice, MicroCache, PipelineConfig, ProfiledSuite, ReducedSuite,
};
use fgbs_extract::{run_application, AppRun, Application, MicroResult, Microbenchmark};
use fgbs_isa::{compile, CompileMode};
use fgbs_machine::{Arch, Machine};
use fgbs_matrix::{kernel, Matrix};

use crate::spans;

/// `profile_reference` without a store: Steps A + B.
pub fn profile(apps: &[Application], cfg: &PipelineConfig) -> ProfiledSuite {
    let _stage = spans::enter("core.profile");
    let arch = &cfg.reference;
    let runs: Vec<AppRun> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            spans::timed("extract.app_run", || {
                run_application(app, arch, cfg.noise_seed ^ (i as u64) << 8)
            })
        })
        .collect();

    let mut codelets = Vec::new();
    let mut features = FeatureMatrix::new();
    let mut covered = 0.0;
    let mut total = 0.0;
    for (ai, (app, run)) in apps.iter().zip(&runs).enumerate() {
        total += run.total_cycles;
        let det = spans::timed("extract.detect", || cfg.finder.detect(app, run, arch));
        for &ci in &det.detected {
            let p = &run.profiles[ci];
            covered += p.true_cycles;
            let micro = spans::timed("extract.detect", || Microbenchmark::extract(app, ci))
                .expect("detected codelets are extractable by construction");
            let kernel = spans::timed("isa.compile", || {
                compile(&app.codelets[ci], &arch.target(), CompileMode::InApp)
            });
            spans::timed("analysis.features", || {
                let st = static_features(&kernel, arch);
                let dy = dynamic_features(&p.counters, arch, p.measured_cycles);
                features.push(p.name.clone(), FeatureVector::compose(st, dy));
            });
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
    ProfiledSuite {
        apps: apps.to_vec(),
        runs,
        codelets,
        features,
        coverage: if total > 0.0 { covered / total } else { 0.0 },
    }
}

/// `profile_target`: the ground-truth application runs on `target`.
pub fn target_runs(suite: &ProfiledSuite, target: &Arch, cfg: &PipelineConfig) -> Vec<AppRun> {
    let _stage = spans::enter("core.target_runs");
    suite
        .apps
        .iter()
        .enumerate()
        .map(|(i, app)| {
            spans::timed("extract.app_run", || {
                run_application(app, target, cfg.noise_seed ^ 0xA11 ^ ((i as u64) << 8))
            })
        })
        .collect()
}

/// One `MicroCache::measure` call as the stages make it.
pub fn measure(
    cache: &MicroCache,
    suite: &ProfiledSuite,
    idx: usize,
    arch: &Arch,
    cfg: &PipelineConfig,
) -> MicroResult {
    spans::timed("extract.micro", || {
        cache.measure(
            idx,
            &suite.codelets[idx].micro,
            arch,
            cfg.noise_seed,
            cfg.micro_min_seconds,
            cfg.micro_min_invocations,
        )
    })
}

/// `wellness`: every codelet's standalone run on the reference.
pub fn wellness(suite: &ProfiledSuite, cfg: &PipelineConfig, cache: &MicroCache) -> Vec<bool> {
    let _stage = spans::enter("core.wellness");
    (0..suite.len())
        .map(|i| {
            let micro = measure(cache, suite, i, &cfg.reference, cfg);
            fgbs_extract::behaves_well(micro.median_cycles, suite.codelets[i].tref_cycles)
        })
        .collect()
}

/// Steps C + D downstream of the distance matrix: linkage, elbow cut and
/// representative selection, as the reduce stage and the GA's fitness
/// both run them.
pub fn reduce_tail(
    suite: &ProfiledSuite,
    cfg: &PipelineConfig,
    data: Matrix,
    dist: &DistanceMatrix,
    eligible: &[bool],
) -> ReducedSuite {
    let dendro = spans::timed("clustering.linkage", || linkage(dist, cfg.linkage));
    let (curve, k) = spans::timed("clustering.elbow", || {
        let max_k = match cfg.k_choice {
            KChoice::Fixed(k) => k.min(suite.len()),
            KChoice::Elbow { max_k } => max_k.min(suite.len()),
        };
        let curve = within_variance_curve(&data, &dendro, max_k.max(1));
        let k = match cfg.k_choice {
            KChoice::Fixed(k) => k.clamp(1, suite.len()),
            KChoice::Elbow { .. } => elbow_k(&curve),
        };
        (curve, k)
    });
    let ill_behaved: Vec<usize> = (0..suite.len()).filter(|&i| !eligible[i]).collect();
    let (clusters, assignment) = spans::timed("clustering.select", || {
        select_representatives(&data, &dendro.cut(k), eligible)
    });
    ReducedSuite {
        clusters,
        k_requested: k,
        assignment,
        ill_behaved,
        data,
        dendrogram: dendro,
        within_curve: curve,
    }
}

/// Step D's selection: the eligible medoid of each cluster; clusters with
/// no eligible member dissolve into their members' nearest survivors.
fn select_representatives(
    data: &Matrix,
    partition: &Partition,
    eligible: &[bool],
) -> (Vec<Cluster>, Vec<Option<usize>>) {
    let n = data.nrows();
    let ineligible: Vec<usize> = (0..n).filter(|&i| !eligible[i]).collect();
    let mut clusters: Vec<Cluster> = (0..partition.k())
        .filter_map(|c| {
            medoid(data, partition, c, &ineligible).map(|rep| Cluster {
                members: partition.members(c),
                representative: rep,
            })
        })
        .collect();
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    for (ci, cl) in clusters.iter().enumerate() {
        for &m in &cl.members {
            assignment[m] = Some(ci);
        }
    }
    let orphans: Vec<usize> = (0..n).filter(|&i| assignment[i].is_none()).collect();
    for o in orphans {
        let mut best: Option<(usize, f64)> = None;
        for (j, slot) in assignment.iter().enumerate() {
            if j == o {
                continue;
            }
            if let Some(cj) = *slot {
                let d = kernel::sq_dist(data.row(o), data.row(j));
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((cj, d));
                }
            }
        }
        if let Some((cj, _)) = best {
            assignment[o] = Some(cj);
            clusters[cj].members.push(o);
        }
    }
    (clusters, assignment)
}

/// Simulated work, counted outside the timed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub invocations: u64,
    /// L1 line lookups: one per cache line each simulated access touches.
    pub accesses: u64,
}

impl Work {
    pub fn add(&mut self, other: Work) {
        self.invocations += other.invocations;
        self.accesses += other.accesses;
    }
}

/// The work of full application runs, from their hardware counters.
pub fn app_work(runs: &[AppRun]) -> Work {
    let mut w = Work::default();
    for p in runs.iter().flat_map(|r| &r.profiles) {
        w.invocations += p.invocations;
        w.accesses += p.counters.cache_hits[0] + p.counters.cache_misses[0];
    }
    w
}

/// The work of the microbenchmark runs `cache` holds for `arch`, over
/// codelets `0..suite.len()`. A standalone run repeats one invocation on
/// one binding, and the lines an invocation touches do not depend on
/// cache state, so one replayed invocation per codelet gives the count.
/// Codelets the cache has not measured are measured here (off the clock)
/// and not counted.
pub fn micro_work(
    cache: &MicroCache,
    suite: &ProfiledSuite,
    arch: &Arch,
    cfg: &PipelineConfig,
    per_invocation: &mut BTreeMap<(usize, String), u64>,
) -> Work {
    let mut w = Work::default();
    for (idx, c) in suite.codelets.iter().enumerate() {
        let before = cache.len();
        let r = cache.measure(
            idx,
            &c.micro,
            arch,
            cfg.noise_seed,
            cfg.micro_min_seconds,
            cfg.micro_min_invocations,
        );
        if cache.len() != before {
            continue;
        }
        let lines = *per_invocation
            .entry((idx, arch.name.clone()))
            .or_insert_with(|| {
                let kernel = compile(&c.micro.codelet, &arch.target(), CompileMode::Standalone);
                let (binding, _mem) = c.micro.dump.restore(&c.micro.codelet);
                let m = Machine::new(arch.clone()).run(&kernel, &binding);
                m.counters.cache_hits[0] + m.counters.cache_misses[0]
            });
        w.invocations += r.invocations;
        w.accesses += r.invocations * lines;
    }
    w
}
