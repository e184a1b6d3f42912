//! The Elbow method (Thorndike 1953): pick the cluster count where the
//! within-cluster variance stops improving significantly (§3.3).

use fgbs_matrix::Matrix;

use crate::dendrogram::{find, Dendrogram};

/// Cuts whose `W(k)` chains one pass over the rows sums side by side:
/// enough independent adds in flight to hide an add's latency.
const LANES: usize = 8;

/// Within-cluster variance `W(k)` for `k = 1..=k_max` cuts of the
/// dendrogram, computed over the observation matrix the clustering used.
///
/// Each `W(k)` is bit for bit [`crate::Partition::wcss`] of
/// [`Dendrogram::cut`]`(k)`. A cluster's centroid depends only on its
/// member set, so each dendrogram node of a cut `k ≤ k_max` gets its
/// centroid once (`cut_nodes`). The `W(k)` chains are then summed
/// `LANES` at a time in lockstep, one accumulator per `k`: each chain
/// adds its squared deviations in its own row-then-column order, so the
/// interleaving changes no bit, and the chains' add latencies overlap.
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
    let (label, centroids) = cut_nodes(data, dendro, k_max);

    let mut curve = Vec::with_capacity(k_max);
    // Row `i`'s squared deviations from each distinct node it falls in
    // across one group's lanes. Its node only coarsens as `k` falls, so
    // the lanes that share a node are adjacent.
    let mut terms = vec![0.0; LANES * m];
    for k0 in (0..k_max).step_by(LANES) {
        // Lane `l` sums `W(k0 + l + 1)`; lanes past `k_max` repeat the
        // last cut and are dropped.
        let cuts: [&[usize]; LANES] = std::array::from_fn(|l| {
            let k = (k0 + l).min(k_max - 1);
            &label[k * n..(k + 1) * n]
        });
        let mut w = [0.0f64; LANES];
        for (i, row) in data.rows().enumerate() {
            let mut at = [0; LANES];
            let mut nodes = [cuts[0][i]; LANES];
            let mut distinct = 1;
            for l in 1..LANES {
                let c = cuts[l][i];
                distinct += usize::from(c != nodes[distinct - 1]);
                nodes[distinct - 1] = c;
                at[l] = (distinct - 1) * m;
            }
            for (dev, &c) in terms.chunks_exact_mut(m.max(1)).zip(&nodes[..distinct]) {
                let mu = &centroids[c * m..][..m];
                for ((d, &v), &mu) in dev.iter_mut().zip(row).zip(mu) {
                    *d = (v - mu) * (v - mu);
                }
            }
            let lanes: [&[f64]; LANES] = std::array::from_fn(|l| &terms[at[l]..][..m]);
            for j in 0..m {
                for (acc, lane) in w.iter_mut().zip(&lanes) {
                    *acc += lane[j];
                }
            }
        }
        curve.extend((k0 + 1..=k_max).zip(w));
    }
    curve
}

/// The nodes of the cuts `k = 1..=k_max`: the `k_max` clusters of the
/// finest cut, then the one node each later merge makes. Returns each
/// row's node per cut (`label[(k - 1) * n + i]`) and each node's
/// centroid (`centroids[c * m..(c + 1) * m]`): its members' rows summed
/// in row order, then divided once per column, as
/// [`crate::Partition::wcss`] computes it.
fn cut_nodes(data: &Matrix, dendro: &Dendrogram, k_max: usize) -> (Vec<usize>, Vec<f64>) {
    let n = dendro.len();
    let m = data.ncols();
    let merges = dendro.merges();
    // Union-find over leaf + internal ids, run up to the finest cut.
    let mut parent: Vec<usize> = (0..n + merges.len()).collect();
    for (t, merge) in merges[..n - k_max].iter().enumerate() {
        let ra = find(&mut parent, merge.a);
        let rb = find(&mut parent, merge.b);
        parent[ra] = n + t;
        parent[rb] = n + t;
    }
    let mut node = vec![usize::MAX; parent.len()];
    let mut label = vec![0; k_max * n];
    let mut sums: Vec<f64> = Vec::with_capacity((2 * k_max - 1) * m);
    let mut counts: Vec<usize> = Vec::with_capacity(2 * k_max - 1);
    let mut members = vec![0; n];
    let finest = &mut label[(k_max - 1) * n..];
    for (i, (l, row)) in finest.iter_mut().zip(data.rows()).enumerate() {
        let r = find(&mut parent, i);
        if node[r] == usize::MAX {
            node[r] = counts.len();
            counts.push(0);
            sums.resize(sums.len() + m, 0.0);
        }
        *l = node[r];
        counts[*l] += 1;
        add_row(&mut sums[*l * m..][..m], row);
    }
    // Cut `k` is cut `k + 1` with the merged pair's rows relabelled to
    // the new node, whose sums start from zero.
    for (t, merge) in merges.iter().enumerate().skip(n - k_max) {
        let ra = find(&mut parent, merge.a);
        let rb = find(&mut parent, merge.b);
        parent[ra] = n + t;
        parent[rb] = n + t;
        let (a, b, c) = (node[ra], node[rb], counts.len());
        node[n + t] = c;
        let k = n - t - 1;
        let (coarse, fine) = label[(k - 1) * n..(k + 1) * n].split_at_mut(n);
        coarse.copy_from_slice(fine);
        let mut count = 0;
        for (i, l) in coarse.iter_mut().enumerate() {
            let member = *l == a || *l == b;
            members[count] = i;
            count += usize::from(member);
            *l = if member { c } else { *l };
        }
        sums.resize(sums.len() + m, 0.0);
        let sum = &mut sums[c * m..];
        for &i in &members[..count] {
            add_row(sum, data.row(i));
        }
        counts.push(count);
    }
    // A singleton's centroid is its sum: `x / 1.0` is `x`.
    for (sum, &count) in sums.chunks_exact_mut(m.max(1)).zip(&counts) {
        if count > 1 {
            for s in sum {
                *s /= count as f64;
            }
        }
    }
    (label, sums)
}

/// `sum += row`, column by column.
fn add_row(sum: &mut [f64], row: &[f64]) {
    for (s, &v) in sum.iter_mut().zip(row) {
        *s += v;
    }
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

    /// Up to 40 rows of 0–40 columns, some rows duplicated so that
    /// zero-height merges and ties occur. Past 8 columns a row spans
    /// several lanes' worth of adds.
    fn rows_with_duplicates() -> impl Strategy<Value = Matrix> {
        (
            0usize..41,
            proptest::collection::vec(proptest::collection::vec(-25.0f64..25.0, 40), 1..25),
            any::<u64>(),
        )
            .prop_map(|(cols, rows, seed)| {
                let mut rows: Vec<Vec<f64>> =
                    rows.into_iter().map(|r| r[..cols].to_vec()).collect();
                let n = rows.len();
                for i in 0..(seed as usize % (n.min(16) + 1)) {
                    let src = (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % n;
                    rows.push(rows[src].clone());
                }
                Matrix::from_rows(&rows)
            })
    }

    /// A curve's bits. Rust leaves the sign and payload of a NaN that
    /// arithmetic returns unspecified (the optimiser may swap an add's
    /// operands), so every NaN reads as `f64::NAN`.
    fn bits(curve: &[(usize, f64)]) -> Vec<(usize, u64)> {
        let canonical = |w: f64| if w.is_nan() { f64::NAN } else { w };
        curve
            .iter()
            .map(|&(k, w)| (k, canonical(w).to_bits()))
            .collect()
    }

    /// The sweep at every `k_max` from 1 to past the observation count
    /// against the oracle: the per-cut curve at `k_max` is its full
    /// curve's first `k_max` points, so the oracle runs once. That
    /// covers every remainder of the last lane group.
    fn assert_every_k_max_matches(data: &Matrix, dendro: &Dendrogram, extra: usize) {
        let n = data.nrows();
        let oracle = bits(&within_variance_curve_per_cut(data, dendro, n));
        for k_max in 1..=n + extra {
            assert_eq!(
                bits(&within_variance_curve(data, dendro, k_max)),
                &oracle[..k_max.min(n)],
                "k_max {k_max}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn one_sweep_curve_matches_per_cut_oracle_bitwise(
            data in rows_with_duplicates(),
            extra in 0usize..10,
            normalised in any::<bool>(),
        ) {
            let data = if normalised { normalize(&data) } else { data };
            let d = DistanceMatrix::euclidean(&data);
            for method in [Linkage::Ward, Linkage::Single, Linkage::Complete, Linkage::Average] {
                assert_every_k_max_matches(&data, &linkage(&d, method), extra);
            }
        }

        /// Non-finite and negative-zero cells, which the distances
        /// cannot hold, in the matrix the curve is taken over: a
        /// singleton's centroid skips its division by one, so it must
        /// keep the oracle's bits for every value.
        #[test]
        fn one_sweep_curve_matches_per_cut_oracle_on_non_finite_cells(
            data in rows_with_duplicates(),
            cells in proptest::collection::vec((any::<u64>(), 0usize..4), 1..8),
        ) {
            let dendro = linkage(&DistanceMatrix::euclidean(&data), Linkage::Ward);
            let (n, m) = (data.nrows(), data.ncols());
            let mut poisoned = data.to_rows();
            for (at, value) in cells.into_iter().filter(|_| m > 0) {
                let at = at as usize;
                poisoned[at / m % n][at % m] =
                    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0][value];
            }
            assert_every_k_max_matches(&Matrix::from_rows(&poisoned), &dendro, 2);
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
