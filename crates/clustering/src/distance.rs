//! Condensed pairwise distance matrices, built in one pass of the SIMD
//! triangle kernel.

use fgbs_matrix::{simd, Condensed, Matrix};
use fgbs_pool::WorkPool;

/// A symmetric pairwise distance matrix over `n` observations, stored in
/// condensed upper-triangular form ([`Condensed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    d: Condensed<f64>,
}

impl DistanceMatrix {
    /// Euclidean distances between rows of `data`, from
    /// [`simd::dist_condensed`]: each pair's distance is one fixed
    /// norm-identity graph (one serial fma dot-product chain per pair,
    /// vectorised *across* pairs), so the result is bitwise identical
    /// on every dispatch path.
    pub fn euclidean(data: &Matrix) -> DistanceMatrix {
        let n = data.nrows();
        let mut build_span = fgbs_trace::span("cluster.distance");
        build_span.arg_u64("observations", n as u64);
        let d = simd::dist_condensed(data);
        fgbs_trace::counter("cluster.pairs", d.len() as u64);
        DistanceMatrix {
            d: Condensed::from_vec(n, d),
        }
    }

    /// [`DistanceMatrix::euclidean`], for callers that pass a pool:
    /// `pool` is not used, and the build runs on the calling thread. A
    /// whole suite's triangle is microseconds of work, less than a pool
    /// fan-out costs.
    pub fn euclidean_with(data: &Matrix, _pool: &WorkPool) -> DistanceMatrix {
        DistanceMatrix::euclidean(data)
    }

    /// Build from an explicit full matrix accessor (for tests/ablations).
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> f64) -> DistanceMatrix {
        let mut d = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                d.push(f(i, j));
            }
        }
        DistanceMatrix {
            d: Condensed::from_vec(n, d),
        }
    }

    /// Wrap an existing condensed triangle.
    pub fn from_condensed(d: Condensed<f64>) -> DistanceMatrix {
        DistanceMatrix { d }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.d.n()
    }

    /// True for an empty matrix.
    pub fn is_empty(&self) -> bool {
        self.d.is_empty()
    }

    /// The condensed triangle backing this matrix.
    pub fn condensed(&self) -> &Condensed<f64> {
        &self.d
    }

    /// Distance between observations `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            assert!(i < self.len(), "index out of range");
            return 0.0;
        }
        self.d.get(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_hand_computation() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]]);
        let d = DistanceMatrix::euclidean(&data);
        assert_eq!(d.len(), 3);
        assert!((d.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((d.get(0, 2) - 1.0).abs() < 1e-12);
        assert!((d.get(1, 0) - 5.0).abs() < 1e-12); // symmetric
        assert_eq!(d.get(2, 2), 0.0);
    }

    #[test]
    fn condensed_indexing_is_consistent() {
        let n = 7;
        let d = DistanceMatrix::from_fn(n, |i, j| (i * 10 + j) as f64);
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(d.get(i, j), (i * 10 + j) as f64);
                assert_eq!(d.get(j, i), (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_panics() {
        let d = DistanceMatrix::euclidean(&Matrix::from_rows(&[vec![0.0], vec![1.0]]));
        let _ = d.get(0, 2);
    }

    #[test]
    fn euclidean_matches_the_per_pair_reference_bitwise() {
        let data = Matrix::from_rows(
            &(0..67)
                .map(|i| {
                    (0..14)
                        .map(|j| ((i * 31 + j * 17) % 23) as f64 / 7.0)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        );
        let want = DistanceMatrix::from_fn(data.nrows(), |i, j| {
            let (a, b) = (data.row(i), data.row(j));
            simd::dist_serial(a, b, simd::norm_serial(a), simd::norm_serial(b))
        });
        assert_eq!(DistanceMatrix::euclidean(&data), want);
    }

    #[test]
    fn degenerate_sizes_build() {
        assert_eq!(DistanceMatrix::euclidean(&Matrix::new()).len(), 0);
        // No rows but several features: nothing to transpose.
        assert_eq!(DistanceMatrix::euclidean(&Matrix::zeros(0, 3)).len(), 0);
        let one = DistanceMatrix::euclidean(&Matrix::from_rows(&[vec![1.0]]));
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(0, 0), 0.0);
    }
}
