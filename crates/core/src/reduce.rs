//! Steps C and D: clustering and representative extraction.

use fgbs_clustering::{
    elbow_k, linkage, medoid, normalize, within_variance_curve, Dendrogram, DistanceMatrix,
    Partition,
};
use fgbs_extract::behaves_well;
use fgbs_matrix::{kernel, Matrix};

use crate::config::{KChoice, PipelineConfig};
use crate::micras::MicroCache;
use crate::profile::ProfiledSuite;

/// One cluster of codelets with its chosen representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Codelet indices (into [`ProfiledSuite::codelets`]).
    pub members: Vec<usize>,
    /// The representative: the eligible member closest to the centroid.
    pub representative: usize,
}

/// Output of Steps C + D.
#[derive(Debug, Clone)]
pub struct ReducedSuite {
    /// Surviving clusters (dissolved clusters removed, members
    /// redistributed).
    pub clusters: Vec<Cluster>,
    /// The cluster count requested before dissolution.
    pub k_requested: usize,
    /// Per-codelet cluster index, `None` when a codelet could not be
    /// attached to any surviving cluster (every codelet ill-behaved).
    pub assignment: Vec<Option<usize>>,
    /// Codelets rejected as ill-behaved on the reference.
    pub ill_behaved: Vec<usize>,
    /// The normalised, masked observation matrix used for clustering.
    pub data: Matrix,
    /// The full merge history.
    pub dendrogram: Dendrogram,
    /// Within-cluster variance for every cut considered.
    pub within_curve: Vec<(usize, f64)>,
}

impl ReducedSuite {
    /// Number of representatives (= surviving clusters).
    pub fn n_representatives(&self) -> usize {
        self.clusters.len()
    }

    /// Representative codelet indices.
    pub fn representatives(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.representative).collect()
    }
}

/// Which codelets are *well-behaved*: their standalone microbenchmark,
/// run on the reference architecture, reproduces the in-app time within
/// 10 %. Mask-independent, so computed once and reused across sweeps.
/// One codelet per work item on the configured pool.
pub fn wellness(suite: &ProfiledSuite, cfg: &PipelineConfig, cache: &MicroCache) -> Vec<bool> {
    cfg.pool().map(&suite.codelets, |i, c| {
        let micro = cache.measure(
            i,
            &c.micro,
            &cfg.reference,
            cfg.noise_seed,
            cfg.micro_min_seconds,
            cfg.micro_min_invocations,
        );
        behaves_well(micro.median_cycles, c.tref_cycles)
    })
}

/// Step D's selection process over an arbitrary partition: pick the
/// eligible medoid of each cluster; clusters whose members are all
/// ill-behaved are destroyed and their members moved to the cluster of
/// their closest eligible neighbour.
pub(crate) fn select_representatives(
    data: &Matrix,
    partition: &Partition,
    eligible: &[bool],
) -> (Vec<Cluster>, Vec<Option<usize>>) {
    let n = data.nrows();
    let mut clusters = Vec::new();
    let ineligible: Vec<usize> = (0..n).filter(|&i| !eligible[i]).collect();

    for c in 0..partition.k() {
        // A cluster with no eligible medoid dissolves below, once the
        // survivors are known.
        if let Some(rep) = medoid(data, partition, c, &ineligible) {
            clusters.push(Cluster {
                members: partition.members(c),
                representative: rep,
            });
        }
    }

    // Redistribute members of dissolved clusters.
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    for (ci, cl) in clusters.iter().enumerate() {
        for &m in &cl.members {
            assignment[m] = Some(ci);
        }
    }
    let orphans: Vec<usize> = (0..n).filter(|&i| assignment[i].is_none()).collect();
    for &o in &orphans {
        // Closest neighbour belonging to a surviving cluster.
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

/// Run Steps C + D with a fresh microbenchmark cache.
pub fn reduce(suite: &ProfiledSuite, cfg: &PipelineConfig) -> ReducedSuite {
    reduce_cached(suite, cfg, &MicroCache::new())
}

/// Run Steps C + D, reusing cached microbenchmark measurements.
///
/// With a store attached ([`PipelineConfig::store`]) the reduction is
/// looked up first and persisted after computing (store hits skip the
/// wellness measurements entirely, so the micro cache stays cold).
///
/// # Panics
///
/// Panics when the suite is empty or the feature mask selects nothing.
pub fn reduce_cached(
    suite: &ProfiledSuite,
    cfg: &PipelineConfig,
    cache: &MicroCache,
) -> ReducedSuite {
    assert!(!cfg.features.is_empty(), "feature mask selects no features");
    crate::persist::cached(
        cfg,
        fgbs_store::ArtifactKind::Reduce,
        || crate::persist::reduce_key(suite, cfg),
        crate::persist::decode_reduced_suite,
        crate::persist::encode_reduced_suite,
        || compute_reduce(suite, cfg, cache),
    )
}

/// Deadline-aware [`reduce_cached`]: checks the request budget at the
/// stage boundary (around the `stage.reduce` failpoint) and refuses to
/// start over-budget work.
pub fn try_reduce_cached(
    suite: &ProfiledSuite,
    cfg: &PipelineConfig,
    cache: &MicroCache,
) -> Result<ReducedSuite, crate::PipelineError> {
    cfg.check_deadline("reduce")?;
    fgbs_fault::maybe_delay("stage.reduce");
    cfg.check_deadline("reduce")?;
    Ok(reduce_cached(suite, cfg, cache))
}

/// The uncached Steps C + D over the masked feature matrix.
fn compute_reduce(suite: &ProfiledSuite, cfg: &PipelineConfig, cache: &MicroCache) -> ReducedSuite {
    let raw = suite.features.project(&cfg.features);
    reduce_with_observations(suite, cfg, cache, &raw)
}

/// Run Steps C + D over an arbitrary observation matrix (one row per
/// codelet): used to cluster on alternative signatures such as the
/// architecture-independent metrics of `fgbs-analysis::archind`.
///
/// # Panics
///
/// Panics when the suite is empty or `raw` has the wrong row count.
pub fn reduce_with_observations(
    suite: &ProfiledSuite,
    cfg: &PipelineConfig,
    cache: &MicroCache,
    raw: &Matrix,
) -> ReducedSuite {
    assert!(!suite.is_empty(), "cannot reduce an empty suite");
    assert_eq!(raw.nrows(), suite.len(), "one observation row per codelet");

    let mut stage_span = fgbs_trace::span("stage.reduce");
    stage_span.arg_u64("codelets", suite.len() as u64);

    let data = normalize(raw);
    let dist = DistanceMatrix::euclidean(&data);
    let eligible = {
        let _wellness_span = fgbs_trace::span("reduce.wellness");
        wellness(suite, cfg, cache)
    };
    let reduced = reduce_from_distances(suite, cfg, data, &dist, &eligible);

    stage_span.arg_u64("k_requested", reduced.k_requested as u64);
    stage_span.arg_u64("clusters", reduced.clusters.len() as u64);
    reduced
}

/// Steps C + D downstream of the distance matrix: linkage, elbow cut and
/// representative selection over precomputed normalised observations and
/// eligibility. The GA's incremental fitness path enters here — its
/// distances come patched from a [`fgbs_clustering::MaskedDistanceCache`]
/// and its wellness bits are mask-independent, so neither is recomputed
/// per genome.
pub(crate) fn reduce_from_distances(
    suite: &ProfiledSuite,
    cfg: &PipelineConfig,
    data: Matrix,
    dist: &DistanceMatrix,
    eligible: &[bool],
) -> ReducedSuite {
    let dendro = linkage(dist, cfg.linkage);

    let max_k = match cfg.k_choice {
        KChoice::Fixed(k) => k.min(suite.len()),
        KChoice::Elbow { max_k } => max_k.min(suite.len()),
    };
    let curve = within_variance_curve(&data, &dendro, max_k.max(1));
    let k = match cfg.k_choice {
        KChoice::Fixed(k) => k.clamp(1, suite.len()),
        KChoice::Elbow { .. } => elbow_k(&curve),
    };
    let partition = dendro.cut(k);

    let ill_behaved: Vec<usize> = (0..suite.len()).filter(|&i| !eligible[i]).collect();
    let (clusters, assignment) = {
        let _select_span = fgbs_trace::span("reduce.select");
        select_representatives(&data, &partition, eligible)
    };

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KChoice;
    use crate::profile::profile_reference;
    use fgbs_suites::{nr_suite, Class};

    fn profiled(n: usize) -> ProfiledSuite {
        let apps: Vec<_> = nr_suite(Class::Test).into_iter().take(n).collect();
        profile_reference(&apps, &PipelineConfig::fast())
    }

    #[test]
    fn fixed_k_produces_k_clusters_when_all_eligible() {
        let p = profiled(8);
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(3));
        let r = reduce(&p, &cfg);
        assert_eq!(r.k_requested, 3);
        // NR codelets are all well-behaved, so nothing dissolves.
        assert_eq!(r.ill_behaved.len(), 0);
        assert_eq!(r.n_representatives(), 3);
        // Every codelet is assigned, and representatives belong to their
        // own cluster.
        for (i, a) in r.assignment.iter().enumerate() {
            let c = a.expect("all assigned");
            assert!(r.clusters[c].members.contains(&i));
        }
        for cl in &r.clusters {
            assert!(cl.members.contains(&cl.representative));
        }
    }

    #[test]
    fn elbow_stays_in_range() {
        let p = profiled(10);
        let cfg = PipelineConfig::fast().with_k(KChoice::Elbow { max_k: 8 });
        let r = reduce(&p, &cfg);
        assert!(r.k_requested >= 1 && r.k_requested <= 8);
        assert_eq!(r.within_curve.len(), 8);
    }

    #[test]
    fn k_larger_than_suite_is_clamped() {
        let p = profiled(4);
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(99));
        let r = reduce(&p, &cfg);
        assert_eq!(r.k_requested, 4);
        assert_eq!(r.n_representatives(), 4);
    }

    #[test]
    fn selection_dissolves_fully_ineligible_clusters() {
        // Synthetic data: two tight groups; group 2 entirely ineligible.
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
        ]);
        let partition = Partition::from_labels(&[0, 0, 1, 1]);
        let eligible = vec![true, true, false, false];
        let (clusters, assignment) = select_representatives(&data, &partition, &eligible);
        assert_eq!(clusters.len(), 1);
        // Orphans joined the surviving cluster.
        assert!(assignment.iter().all(|a| *a == Some(0)));
        assert_eq!(clusters[0].members.len(), 4);
        assert!(clusters[0].representative <= 1);
    }

    #[test]
    fn selection_skips_ineligible_medoid() {
        let data = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2]]);
        let partition = Partition::from_labels(&[0, 0, 0]);
        // The true medoid (index 1, the centre) is ineligible.
        let eligible = vec![true, false, true];
        let (clusters, _) = select_representatives(&data, &partition, &eligible);
        assert_eq!(clusters.len(), 1);
        assert_ne!(clusters[0].representative, 1);
    }

    #[test]
    fn all_ineligible_yields_empty_reduction() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let partition = Partition::from_labels(&[0, 1]);
        let (clusters, assignment) = select_representatives(&data, &partition, &[false, false]);
        assert!(clusters.is_empty());
        assert!(assignment.iter().all(|a| a.is_none()));
    }

    #[test]
    fn cache_is_shared_across_reductions() {
        let p = profiled(5);
        let cfg = PipelineConfig::fast().with_k(KChoice::Fixed(2));
        let cache = MicroCache::new();
        let _ = reduce_cached(&p, &cfg, &cache);
        let before = cache.len();
        let _ = reduce_cached(&p, &cfg.clone().with_k(KChoice::Fixed(4)), &cache);
        assert_eq!(cache.len(), before, "wellness measurements are reused");
    }
}
