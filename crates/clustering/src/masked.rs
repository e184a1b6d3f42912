//! Incremental masked distances: the GA fitness hot path.
//!
//! The GA evaluates thousands of feature masks over one fixed
//! z-normalised observation matrix. Recomputing every pairwise distance
//! from scratch costs O(n² · 76) per genome; consecutive genomes differ
//! in only a few bits, so almost all of that work repeats.
//!
//! [`MaskedDistanceCache`] keeps, for the most recently evaluated mask,
//! the full condensed triangle of *quantised squared-distance
//! accumulators* (`Condensed<i128>`, see [`fgbs_matrix::kernel`]). A new
//! mask is evaluated either by patching each pair's accumulator with the
//! contributions of the features that were added and removed — O(n² ·
//! |Δ|) — or from scratch — O(n² · |mask|) — whichever costs less.
//!
//! A patch reads each feature's contributions from a table: per feature,
//! its quantised contribution to every pair, in condensed order. A
//! feature's column is filled by the first patch that adds or removes
//! it; after that, patching it is only integer adds and subtractions,
//! about a quarter of the cost of quantising it again. The table holds
//! at most `n_features · n(n−1)/2` `i128` (460 KB for 28 codelets and
//! 76 features). A from-scratch evaluation is one pair-major pass that
//! stores nothing, so a cache evaluated once allocates no columns.
//!
//! # Exactness invariant
//!
//! Because per-feature contributions are quantised to integers once and
//! integer addition is associative and exact, a pair's accumulator is a
//! pure function of the mask *set*: patching from any anchor mask, in
//! any order, yields bit-for-bit the accumulator a from-scratch
//! evaluation produces. A feature id repeated in the request counts
//! once. Fitness values therefore do not depend on which genome
//! happened to be cached — the property that keeps the GA deterministic
//! even when a shared cache is raced over by a thread pool (behind a
//! lock).

use fgbs_matrix::{kernel, Condensed, Matrix};
use fgbs_pool::WorkPool;

use crate::distance::DistanceMatrix;

/// What one contribution quantised from the matrix costs, in adds of
/// one read from a filled column (measured at 28 rows: about 4).
const QUANTISE_COST: usize = 4;

/// Cached incremental evaluator of masked pairwise distances over a
/// fixed observation matrix (rows = observations, columns = features —
/// normally the z-normalised full feature matrix).
///
/// Evaluation runs on the calling thread. Callers that share one cache
/// across a pool (the GA's fitness loop) hold it behind a lock; a patch
/// is short enough that fanning it out again would only nest a pool
/// inside the pool.
#[derive(Debug)]
pub struct MaskedDistanceCache {
    z: Matrix,
    /// Mask of the cached accumulators, as a bitset over columns.
    cached_mask: Vec<bool>,
    /// Number of set bits in `cached_mask`.
    cached_len: usize,
    /// Quantised squared-distance accumulators for `cached_mask`.
    acc: Condensed<i128>,
    /// Per feature, its quantised contribution to every pair in
    /// condensed order; empty until a patch first adds or removes it.
    columns: Vec<Vec<i128>>,
    /// Pair-feature contributions evaluated incrementally so far.
    patched: u64,
    /// Pair-feature contributions evaluated from scratch so far.
    scratched: u64,
}

impl MaskedDistanceCache {
    /// A cache over `z` with an empty anchor mask (every accumulator 0).
    pub fn new(z: Matrix) -> MaskedDistanceCache {
        let n = z.nrows();
        MaskedDistanceCache {
            cached_mask: vec![false; z.ncols()],
            cached_len: 0,
            acc: Condensed::filled(n, 0i128),
            columns: vec![Vec::new(); z.ncols()],
            z,
            patched: 0,
            scratched: 0,
        }
    }

    /// The observation matrix the cache evaluates masks over.
    pub fn observations(&self) -> &Matrix {
        &self.z
    }

    /// `(incremental, from_scratch)` pair-feature contribution counts —
    /// the cache's work ledger, for telemetry.
    pub fn work_counts(&self) -> (u64, u64) {
        (self.patched, self.scratched)
    }

    /// Pairwise Euclidean distances restricted to the feature columns in
    /// `ids`, updating the cached accumulators to this mask. A repeated
    /// id counts once.
    ///
    /// Result is identical — bitwise — no matter which mask was cached
    /// before the call (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when a feature id is out of range.
    pub fn distances(&mut self, ids: &[usize]) -> DistanceMatrix {
        let mut next_mask = vec![false; self.z.ncols()];
        for &f in ids {
            assert!(f < self.z.ncols(), "feature id {f} out of range");
            next_mask[f] = true;
        }
        let n = self.z.nrows();

        // Symmetric difference against the cached mask.
        let mut added: Vec<usize> = Vec::new();
        let mut removed: Vec<usize> = Vec::new();
        for (f, (&was, &now)) in self.cached_mask.iter().zip(&next_mask).enumerate() {
            match (was, now) {
                (false, true) => added.push(f),
                (true, false) => removed.push(f),
                _ => {}
            }
        }

        let delta = added.len() + removed.len();
        let next_len = self.cached_len + added.len() - removed.len();
        let npairs = n * n.saturating_sub(1) / 2;
        // Per pair, a filled column costs one add; a column still to
        // fill, like every feature of a scratch pass, one quantisation.
        let patch_cost: usize = added
            .iter()
            .chain(&removed)
            .map(|&f| {
                if self.columns[f].is_empty() {
                    QUANTISE_COST
                } else {
                    1
                }
            })
            .sum();
        if patch_cost < next_len * QUANTISE_COST {
            // Patch the cached triangle in place. A *stat*, not a counter:
            // which anchor a genome patches from depends on evaluation
            // order (thread scheduling), even though the distances do not.
            fgbs_trace::stat("cluster.masked_incremental", 1);
            self.patched += npairs as u64 * delta as u64;
            for &f in added.iter().chain(&removed) {
                fill_column(&mut self.columns, &self.z, f);
            }
            let plus: Vec<&[i128]> = added.iter().map(|&f| &self.columns[f][..]).collect();
            let minus: Vec<&[i128]> = removed.iter().map(|&f| &self.columns[f][..]).collect();
            for (p, a) in self.acc.as_mut_slice().iter_mut().enumerate() {
                let mut x = *a;
                for c in &plus {
                    x += c[p];
                }
                for c in &minus {
                    x -= c[p];
                }
                *a = x;
            }
        } else {
            // From scratch: cheaper than patching, or nothing cached yet.
            fgbs_trace::stat("cluster.masked_scratch", 1);
            self.scratched += npairs as u64 * next_len as u64;
            let distinct: Vec<usize> = (0..next_mask.len()).filter(|&f| next_mask[f]).collect();
            let mut cells = self.acc.as_mut_slice().iter_mut();
            for i in 0..n {
                let a = self.z.row(i);
                for j in (i + 1)..n {
                    let cell = cells.next().expect("one accumulator per pair");
                    *cell = kernel::masked_sq_acc(a, self.z.row(j), &distinct);
                }
            }
        }
        self.cached_len = next_len;
        self.cached_mask = next_mask;
        let d: Vec<f64> = self
            .acc
            .as_slice()
            .iter()
            .map(|&a| kernel::acc_to_dist(a))
            .collect();
        DistanceMatrix::from_condensed(Condensed::from_vec(n, d))
    }

    /// [`MaskedDistanceCache::distances`], for callers that pass a pool:
    /// `pool` is not used, and evaluation runs on the calling thread.
    pub fn distances_with(&mut self, ids: &[usize], _pool: &WorkPool) -> DistanceMatrix {
        self.distances(ids)
    }
}

/// Feature `f`'s quantised contribution `(z_if − z_jf)²` to every pair
/// `i < j`, in condensed order: its column of the table, filled on first
/// use.
fn fill_column(columns: &mut [Vec<i128>], z: &Matrix, f: usize) {
    let column = &mut columns[f];
    if column.is_empty() {
        let x: Vec<f64> = z.rows().map(|row| row[f]).collect();
        column.reserve_exact(x.len() * x.len().saturating_sub(1) / 2);
        for (i, &xi) in x.iter().enumerate() {
            for &xj in &x[i + 1..] {
                let d = xi - xj;
                column.push(kernel::quantize_sq(d * d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z() -> Matrix {
        Matrix::from_rows(
            &(0..9)
                .map(|i| {
                    (0..12)
                        .map(|j| ((i * 7 + j * 13) % 19) as f64 / 3.0 - 2.5)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        )
    }

    fn scratch_distances(z: &Matrix, ids: &[usize]) -> DistanceMatrix {
        let mut fresh = MaskedDistanceCache::new(z.clone());
        fresh.distances(ids)
    }

    #[test]
    fn incremental_equals_scratch_bitwise() {
        let z = z();
        let mut cache = MaskedDistanceCache::new(z.clone());
        // A walk of masks that exercises additions, removals and both.
        let masks: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
            vec![0, 1, 2, 3, 4, 5, 6, 9],
            vec![2, 3, 4, 5, 6, 9],
            vec![0, 11],
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        ];
        for ids in &masks {
            let inc = cache.distances(ids);
            let scr = scratch_distances(&z, ids);
            assert_eq!(inc, scr, "mask {ids:?} must be anchor-independent");
        }
        let (patched, scratched) = cache.work_counts();
        assert!(patched > 0, "small deltas must take the incremental path");
        assert!(scratched > 0, "large deltas must take the scratch path");
    }

    #[test]
    fn repeated_mask_is_free_of_feature_work() {
        let z = z();
        let mut cache = MaskedDistanceCache::new(z.clone());
        let ids = [1usize, 4, 7];
        let first = cache.distances(&ids);
        let work_after_first = cache.work_counts();
        let second = cache.distances(&ids);
        assert_eq!(first, second);
        assert_eq!(
            cache.work_counts().0 + cache.work_counts().1,
            work_after_first.0 + work_after_first.1,
            "an unchanged mask patches zero contributions"
        );
    }

    #[test]
    fn matches_float_kernel_to_tolerance() {
        // Quantised distances approximate the float kernel to far below
        // any behavioural threshold.
        let z = z();
        let ids = [0usize, 2, 5, 11];
        let q = scratch_distances(&z, &ids);
        let proj = z.project_cols(&ids);
        let f = DistanceMatrix::euclidean(&proj);
        for i in 0..z.nrows() {
            for j in (i + 1)..z.nrows() {
                assert!(
                    (q.get(i, j) - f.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    q.get(i, j),
                    f.get(i, j)
                );
            }
        }
    }

    #[test]
    fn empty_mask_is_all_zero_distances() {
        let z = z();
        let mut cache = MaskedDistanceCache::new(z.clone());
        let _ = cache.distances(&[3]);
        let d = cache.distances(&[]);
        for i in 0..z.nrows() {
            for j in (i + 1)..z.nrows() {
                assert_eq!(d.get(i, j), 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_feature_panics() {
        let mut cache = MaskedDistanceCache::new(z());
        let _ = cache.distances(&[99]);
    }

    #[test]
    fn repeated_ids_count_once_from_any_anchor() {
        // A fresh cache and an anchored one must agree when ids repeat:
        // each distinct id contributes once, as in a patch.
        let z = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![3.0, -1.0, 2.0],
        ]);
        let ids = [0usize, 0, 1];
        let fresh = MaskedDistanceCache::new(z.clone()).distances(&ids);
        let mut anchored = MaskedDistanceCache::new(z.clone());
        let _ = anchored.distances(&[0, 1]);
        let patched = anchored.distances(&ids);
        assert_eq!(fresh, patched);
        assert_eq!(fresh, MaskedDistanceCache::new(z).distances(&[0, 1]));
        assert_eq!(fresh.get(0, 1), 5f64.sqrt());
    }

    #[test]
    fn a_single_evaluation_fills_no_columns() {
        let mut cache = MaskedDistanceCache::new(z());
        let _ = cache.distances(&[0, 1, 2, 3, 4, 5]);
        assert!(cache.columns.iter().all(Vec::is_empty));
        // Patching fills exactly the columns it touches.
        let _ = cache.distances(&[0, 1, 2, 3, 4, 6]);
        let filled: Vec<usize> = (0..cache.columns.len())
            .filter(|&f| !cache.columns[f].is_empty())
            .collect();
        assert_eq!(filled, vec![5, 6]);
    }
}
