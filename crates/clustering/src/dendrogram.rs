//! Dendrograms: the full merge history of a hierarchical clustering.

use crate::partition::Partition;

/// One merge step. Cluster ids follow the SciPy convention: ids `0..n`
/// are the original observations; the merge at step `t` creates id `n+t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage height of the merge (the dendrogram's y-axis).
    pub height: f64,
    /// Number of observations in the new cluster.
    pub size: usize,
}

/// The recorded merge history over `n` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Build from a merge list.
    ///
    /// # Panics
    ///
    /// Panics if the merge count is not `n - 1` (for `n > 0`).
    pub fn new(n: usize, merges: Vec<Merge>) -> Dendrogram {
        assert_eq!(
            merges.len(),
            n.saturating_sub(1),
            "a dendrogram over {n} observations has {} merges",
            n.saturating_sub(1)
        );
        Dendrogram { n, merges }
    }

    /// Number of observations (leaves).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no observations.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The merge history, in order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cut the tree to produce exactly `k` clusters (1 ≤ k ≤ n): apply the
    /// first `n - k` merges.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the observation count.
    pub fn cut(&self, k: usize) -> Partition {
        assert!(k >= 1 && k <= self.n, "cannot cut {} leaves into {k}", self.n);
        // Union-find over leaf + internal ids.
        let mut parent: Vec<usize> = (0..self.n + self.merges.len()).collect();
        for (t, m) in self.merges.iter().take(self.n - k).enumerate() {
            let new_id = self.n + t;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = new_id;
            parent[rb] = new_id;
        }
        let roots: Vec<usize> = (0..self.n).map(|i| find(&mut parent, i)).collect();
        Partition::from_labels(&roots)
    }

    /// Height of the merge that reduces the clustering from `k+1` to `k`
    /// clusters — i.e. the threshold at which a height cut yields `k`
    /// clusters.
    pub fn cut_height(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.n);
        if k == self.n {
            0.0
        } else {
            self.merges[self.n - k - 1].height
        }
    }
}

/// Root of `x`'s set in a union-find forest, halving the path on the
/// way.
pub(crate) fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;
    use crate::hierarchy::{linkage, Linkage};

    fn chain_data() -> fgbs_matrix::Matrix {
        fgbs_matrix::Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0], vec![50.0]])
    }

    fn dendro() -> Dendrogram {
        linkage(&DistanceMatrix::euclidean(&chain_data()), Linkage::Ward)
    }

    #[test]
    fn cut_extremes() {
        let d = dendro();
        assert_eq!(d.cut(5).k(), 5);
        assert_eq!(d.cut(1).k(), 1);
    }

    #[test]
    fn cut_k_yields_k_nonempty_clusters() {
        let d = dendro();
        for k in 1..=5 {
            let p = d.cut(k);
            assert_eq!(p.k(), k);
            for c in 0..k {
                assert!(!p.members(c).is_empty());
            }
        }
    }

    #[test]
    fn cut_3_matches_structure() {
        let p = dendro().cut(3);
        assert_eq!(p.assignment(0), p.assignment(1));
        assert_eq!(p.assignment(2), p.assignment(3));
        assert_ne!(p.assignment(0), p.assignment(2));
        assert_ne!(p.assignment(4), p.assignment(0));
        assert_ne!(p.assignment(4), p.assignment(2));
    }

    #[test]
    fn cut_heights_are_monotone_in_k() {
        let d = dendro();
        for k in 1..5 {
            assert!(d.cut_height(k) >= d.cut_height(k + 1) - 1e-12);
        }
        assert_eq!(d.cut_height(5), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot cut")]
    fn zero_k_panics() {
        dendro().cut(0);
    }

    #[test]
    #[should_panic(expected = "has 4 merges")]
    fn wrong_merge_count_panics() {
        let _ = Dendrogram::new(5, vec![]);
    }
}
