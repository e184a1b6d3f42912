//! Property-based equivalence of the O(n²) nearest-neighbor-chain
//! linkage against the O(n³) greedy scan it replaced, and of the
//! incremental masked-distance cache against from-scratch evaluation.
//!
//! The NN-chain contract (see `fgbs_clustering::hierarchy`): for every
//! reducible linkage — Ward, single, complete, average all are — the
//! chain performs exactly the merges the greedy closest-pair scan
//! performs. The tree *structure* (pairs and sizes, hashed by
//! [`dendrogram_digest`]) matches merge for merge; heights agree to
//! relative tolerance only, because the two algorithms discover merges
//! in different orders and float rounding is order-sensitive.

use fgbs_clustering::{
    dendrogram_digest, linkage, naive_linkage, normalize, DistanceMatrix, Linkage,
    MaskedDistanceCache,
};
use fgbs_matrix::{simd, Matrix};
use proptest::prelude::*;

fn matrix_strategy(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(
        proptest::collection::vec(-25.0f64..25.0, cols),
        2..max_rows,
    )
    .prop_map(|rows| Matrix::from_rows(&rows))
}

/// Duplicate some rows so equidistant / zero-distance pairs appear —
/// the tie-handling paths both algorithms must agree on.
fn matrix_with_duplicates() -> impl Strategy<Value = Matrix> {
    (matrix_strategy(12, 3), any::<u64>()).prop_map(|(m, seed)| {
        let mut rows = m.to_rows();
        let n = rows.len();
        // Deterministically duplicate up to n/2 rows.
        for i in 0..n / 2 {
            let src = (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % n;
            rows.push(rows[src].clone());
        }
        Matrix::from_rows(&rows)
    })
}

fn assert_equivalent(data: &Matrix, method: Linkage) {
    let d = DistanceMatrix::euclidean(data);
    let fast = linkage(&d, method);
    let slow = naive_linkage(&d, method);
    assert_eq!(
        dendrogram_digest(&fast),
        dendrogram_digest(&slow),
        "structure must match for {method:?}"
    );
    for (f, s) in fast.merges().iter().zip(slow.merges()) {
        assert_eq!(f.a, s.a);
        assert_eq!(f.b, s.b);
        assert_eq!(f.size, s.size);
        let tol = 1e-8 * s.height.abs().max(1.0);
        assert!(
            (f.height - s.height).abs() <= tol,
            "height {} vs {} for {method:?}",
            f.height,
            s.height
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nn_chain_matches_naive_ward(data in matrix_strategy(16, 4)) {
        assert_equivalent(&normalize(&data), Linkage::Ward);
    }

    #[test]
    fn nn_chain_matches_naive_single(data in matrix_strategy(16, 4)) {
        assert_equivalent(&data, Linkage::Single);
    }

    #[test]
    fn nn_chain_matches_naive_complete(data in matrix_strategy(16, 4)) {
        assert_equivalent(&data, Linkage::Complete);
    }

    #[test]
    fn nn_chain_matches_naive_average(data in matrix_strategy(16, 4)) {
        assert_equivalent(&data, Linkage::Average);
    }

    #[test]
    fn nn_chain_is_valid_under_ties(data in matrix_with_duplicates()) {
        // Exact ties make the merge order among equal-height merges
        // implementation-defined (the chain and the greedy scan may
        // legitimately order them differently), so structure equality is
        // only guaranteed in generic position — the tests above. Under
        // ties we assert what both algorithms must still satisfy.
        let n = data.nrows();
        let d = DistanceMatrix::euclidean(&data);
        for method in [Linkage::Ward, Linkage::Single, Linkage::Complete, Linkage::Average] {
            let fast = linkage(&d, method);
            prop_assert_eq!(fast.len(), n);
            prop_assert_eq!(fast.merges().len(), n - 1);
            prop_assert_eq!(fast.merges().last().unwrap().size, n);
            // Reducible linkages yield monotone heights even with ties.
            for w in fast.merges().windows(2) {
                prop_assert!(w[1].height >= w[0].height - 1e-9, "{:?}", method);
            }
            // Duplicated rows must merge at height ~0.
            prop_assert!(fast.merges()[0].height.abs() < 1e-9);
        }
        // Single linkage heights are MST edge weights: the multiset is
        // invariant under any tie-breaking, so chain and naive agree.
        let mut hf: Vec<f64> =
            linkage(&d, Linkage::Single).merges().iter().map(|m| m.height).collect();
        let mut hs: Vec<f64> =
            naive_linkage(&d, Linkage::Single).merges().iter().map(|m| m.height).collect();
        hf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        hs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in hf.iter().zip(&hs) {
            prop_assert!((a - b).abs() <= 1e-8 * b.abs().max(1.0));
        }
    }

    #[test]
    fn cuts_agree_between_chain_and_naive(data in matrix_strategy(14, 3)) {
        let d = DistanceMatrix::euclidean(&data);
        let fast = linkage(&d, Linkage::Ward);
        let slow = naive_linkage(&d, Linkage::Ward);
        for k in 1..=d.len() {
            prop_assert_eq!(
                fast.cut(k).assignments(),
                slow.cut(k).assignments(),
                "cut at k={} must agree",
                k
            );
        }
    }

    #[test]
    fn masked_incremental_is_bitwise_anchor_independent(
        (z, walk) in (
            matrix_strategy(10, 8),
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), 1..8),
        )
    ) {
        // Walk the cache through a random sequence of masks; at every
        // step the patched distances must be bitwise identical to a
        // fresh from-scratch evaluation of the same mask.
        let mut cache = MaskedDistanceCache::new(z.clone());
        for bits in &walk {
            let ids: Vec<usize> =
                bits.iter().enumerate().filter_map(|(i, &b)| b.then_some(i)).collect();
            let inc = cache.distances(&ids);
            let scratch = MaskedDistanceCache::new(z.clone()).distances(&ids);
            prop_assert_eq!(&inc, &scratch, "mask {:?} depended on its anchor", ids);
        }
    }

    #[test]
    fn linkage_agrees_over_the_per_pair_distance_reference(data in matrix_strategy(40, 4)) {
        // The vectorised triangle kernel must be invisible end to end:
        // the same bitwise distance triangle as the one-pair-at-a-time
        // reference, hence the same dendrogram digest through the chain.
        let data = normalize(&data);
        let built = DistanceMatrix::euclidean(&data);
        let reference = DistanceMatrix::from_fn(data.nrows(), |i, j| {
            let (a, b) = (data.row(i), data.row(j));
            simd::dist_serial(a, b, simd::norm_serial(a), simd::norm_serial(b))
        });
        prop_assert_eq!(&built, &reference);
        prop_assert_eq!(
            dendrogram_digest(&linkage(&built, Linkage::Ward)),
            dendrogram_digest(&linkage(&reference, Linkage::Ward))
        );
    }

    #[test]
    fn masked_distances_feed_identical_dendrograms(
        (z, bits) in (
            matrix_strategy(10, 6),
            proptest::collection::vec(any::<bool>(), 6),
        )
    ) {
        // End-to-end: quantised masked distances fed through the chain
        // must produce the same tree as through the naive scan.
        let ids: Vec<usize> =
            bits.iter().enumerate().filter_map(|(i, &b)| b.then_some(i)).collect();
        let d = MaskedDistanceCache::new(z).distances(&ids);
        let fast = linkage(&d, Linkage::Ward);
        let slow = naive_linkage(&d, Linkage::Ward);
        prop_assert_eq!(dendrogram_digest(&fast), dendrogram_digest(&slow));
    }
}
