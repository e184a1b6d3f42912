//! The Elbow method (Thorndike 1953): pick the cluster count where the
//! within-cluster variance stops improving significantly (§3.3).

use fgbs_matrix::Matrix;

use crate::dendrogram::{find, Dendrogram};

/// Within-cluster variance `W(k)` for `k = 1..=k_max` cuts of the
/// dendrogram, computed over the observation matrix the clustering used.
///
/// One union-find pass applies the merges in order and evaluates each
/// cut with `k ≤ k_max` clusters as it passes, reusing one set of
/// buffers. Each `W(k)` is bit for bit [`crate::Partition::wcss`] of
/// [`Dendrogram::cut`]`(k)`: cluster column sums accumulate in row
/// order, each centroid is divided once, and the squared deviations sum
/// in the same row-then-column order.
///
/// # Panics
///
/// Panics when the dendrogram is empty or `data` has a different number
/// of rows.
pub fn within_variance_curve(
    data: &Matrix,
    dendro: &Dendrogram,
    k_max: usize,
) -> Vec<(usize, f64)> {
    let k_max = k_max.min(dendro.len()).max(1);
    let mut scan_span = fgbs_trace::span("cluster.elbow");
    scan_span.arg_u64("k_max", k_max as u64);
    let n = dendro.len();
    assert!(n >= 1, "cannot cut {n} leaves into {k_max}");
    assert_eq!(data.nrows(), n, "data/partition mismatch");
    let m = data.ncols();
    let merges = dendro.merges();

    // Union-find over leaf + internal ids; a root's cluster index at the
    // cut being evaluated is `slot[root]`, valid while `cut_of[root]`
    // names that cut.
    let mut parent: Vec<usize> = (0..n + merges.len()).collect();
    let mut slot = vec![0usize; parent.len()];
    let mut cut_of = vec![0usize; parent.len()];
    let mut label = vec![0usize; n];
    let mut centroids: Vec<f64> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut curve = vec![(0, 0.0); k_max];
    // After `t` merges the cut has `k = n - t` clusters.
    for (t, k) in (1..=n).rev().enumerate() {
        if k <= k_max {
            let mut clusters = 0;
            for (i, l) in label.iter_mut().enumerate() {
                let r = find(&mut parent, i);
                if cut_of[r] != k {
                    cut_of[r] = k;
                    slot[r] = clusters;
                    clusters += 1;
                }
                *l = slot[r];
            }
            centroids.clear();
            centroids.resize(clusters * m, 0.0);
            counts.clear();
            counts.resize(clusters, 0);
            for (row, &c) in data.rows().zip(&label) {
                counts[c] += 1;
                for (s, &v) in centroids[c * m..(c + 1) * m].iter_mut().zip(row) {
                    *s += v;
                }
            }
            for (c, &count) in counts.iter().enumerate() {
                for s in &mut centroids[c * m..(c + 1) * m] {
                    *s /= count as f64;
                }
            }
            let mut w = 0.0;
            for (row, &c) in data.rows().zip(&label) {
                for (&v, &mu) in row.iter().zip(&centroids[c * m..(c + 1) * m]) {
                    w += (v - mu) * (v - mu);
                }
            }
            curve[k - 1] = (k, w);
        }
        if let Some(merge) = merges.get(t) {
            let ra = find(&mut parent, merge.a);
            let rb = find(&mut parent, merge.b);
            parent[ra] = n + t;
            parent[rb] = n + t;
        }
    }
    curve
}

/// [`within_variance_curve`] as one [`Dendrogram::cut`] and
/// [`crate::Partition::wcss`] per `k`: the oracle the one-pass sweep
/// must match bit for bit.
#[cfg(test)]
pub(crate) fn within_variance_curve_per_cut(
    data: &Matrix,
    dendro: &Dendrogram,
    k_max: usize,
) -> Vec<(usize, f64)> {
    let k_max = k_max.min(dendro.len()).max(1);
    (1..=k_max).map(|k| (k, dendro.cut(k).wcss(data))).collect()
}

/// Select `k` from a within-variance curve by maximising the distance to
/// the chord joining the curve's endpoints (a standard formalisation of
/// "where the curve bends").
///
/// Returns 1 for degenerate curves (fewer than 3 points or no decrease).
///
/// ```
/// use fgbs_clustering::elbow_k;
/// // A sharp knee at k = 3.
/// let curve = vec![(1, 100.0), (2, 50.0), (3, 5.0), (4, 4.0), (5, 3.0)];
/// assert_eq!(elbow_k(&curve), 3);
/// ```
pub fn elbow_k(curve: &[(usize, f64)]) -> usize {
    if curve.len() < 3 {
        return curve.first().map(|&(k, _)| k).unwrap_or(1);
    }
    let (x0, y0) = (curve[0].0 as f64, curve[0].1);
    let (x1, y1) = (
        curve[curve.len() - 1].0 as f64,
        curve[curve.len() - 1].1,
    );
    let dy = y0 - y1;
    if dy <= 0.0 {
        return curve[0].0;
    }
    let dx = x1 - x0;
    let mut best_k = curve[0].0;
    let mut best_dist = f64::NEG_INFINITY;
    for &(k, w) in curve {
        // Normalised coordinates in [0,1]².
        let x = (k as f64 - x0) / dx;
        let y = (w - y1) / dy;
        // Distance from (x, y) to the descending diagonal y = 1 - x is
        // proportional to (1 - x - y); maximise its negation's magnitude.
        let d = 1.0 - x - y;
        if d > best_dist {
            best_dist = d;
            best_k = k;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::hierarchy::{linkage, Linkage};
    use crate::normalize::normalize;
    use proptest::prelude::*;

    /// Three well-separated blobs of 4 points each.
    fn blobs() -> fgbs_matrix::Matrix {
        let mut v = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)] {
            for (dx, dy) in [(0.0, 0.0), (0.4, 0.1), (0.1, 0.4), (0.3, 0.3)] {
                v.push(vec![cx + dx, cy + dy]);
            }
        }
        fgbs_matrix::Matrix::from_rows(&v)
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let data = normalize(&blobs());
        let d = DistanceMatrix::euclidean(&data);
        let dendro = linkage(&d, Linkage::Ward);
        let curve = within_variance_curve(&data, &dendro, 12);
        for w in curve.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "W(k) must not increase with k: {curve:?}"
            );
        }
        assert_eq!(curve.len(), 12);
        assert!(curve.last().unwrap().1.abs() < 1e-9, "W(n) == 0");
    }

    #[test]
    fn elbow_finds_three_blobs() {
        let data = normalize(&blobs());
        let d = DistanceMatrix::euclidean(&data);
        let dendro = linkage(&d, Linkage::Ward);
        let curve = within_variance_curve(&data, &dendro, 12);
        let k = elbow_k(&curve);
        assert_eq!(k, 3, "curve: {curve:?}");
    }

    #[test]
    fn degenerate_curves_return_first_k() {
        assert_eq!(elbow_k(&[]), 1);
        assert_eq!(elbow_k(&[(1, 5.0)]), 1);
        assert_eq!(elbow_k(&[(1, 5.0), (2, 4.0)]), 1);
        // Flat curve: no structure, keep one cluster.
        assert_eq!(elbow_k(&[(1, 1.0), (2, 1.0), (3, 1.0)]), 1);
    }

    #[test]
    fn elbow_on_synthetic_knee() {
        // Sharp knee at k = 4.
        let curve: Vec<(usize, f64)> = (1..=10)
            .map(|k| {
                let w = if k < 4 {
                    100.0 - 30.0 * (k - 1) as f64
                } else {
                    10.0 - (k - 4) as f64
                };
                (k, w)
            })
            .collect();
        assert_eq!(elbow_k(&curve), 4);
    }

    /// Rows with some duplicated, so zero-height merges and ties occur.
    fn rows_with_duplicates() -> impl Strategy<Value = Matrix> {
        (
            1usize..4,
            proptest::collection::vec(proptest::collection::vec(-25.0f64..25.0, 3), 1..18),
            any::<u64>(),
        )
            .prop_map(|(cols, rows, seed)| {
                let mut rows: Vec<Vec<f64>> =
                    rows.into_iter().map(|r| r[..cols].to_vec()).collect();
                let n = rows.len();
                for i in 0..(seed as usize % (n + 1)) {
                    let src = (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % n;
                    rows.push(rows[src].clone());
                }
                Matrix::from_rows(&rows)
            })
    }

    fn bits(curve: &[(usize, f64)]) -> Vec<(usize, u64)> {
        curve.iter().map(|&(k, w)| (k, w.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn one_sweep_curve_matches_per_cut_oracle_bitwise(
            data in rows_with_duplicates(),
            extra in 0usize..6,
            normalised in any::<bool>(),
        ) {
            let data = if normalised { normalize(&data) } else { data };
            let d = DistanceMatrix::euclidean(&data);
            for method in [Linkage::Ward, Linkage::Single, Linkage::Complete, Linkage::Average] {
                let dendro = linkage(&d, method);
                // Every k_max from 1 to beyond the observation count.
                for k_max in 1..=data.nrows() + extra {
                    prop_assert_eq!(
                        bits(&within_variance_curve(&data, &dendro, k_max)),
                        bits(&within_variance_curve_per_cut(&data, &dendro, k_max)),
                        "{:?}, k_max {}", method, k_max
                    );
                }
            }
        }
    }

    #[test]
    fn one_sweep_curve_matches_the_oracle_on_a_projection() {
        // The reduce stage's shape: the curve over fewer columns than
        // the distances were built from.
        let data = normalize(&blobs());
        let dendro = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
        for cols in [vec![1], vec![], vec![1, 0, 1]] {
            let projected = data.project_cols(&cols);
            for k_max in [1, 5, 12, 40] {
                assert_eq!(
                    bits(&within_variance_curve(&projected, &dendro, k_max)),
                    bits(&within_variance_curve_per_cut(&projected, &dendro, k_max)),
                    "columns {cols:?}, k_max {k_max}"
                );
            }
        }
    }
}
