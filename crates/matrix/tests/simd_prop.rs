//! Property tests for the SIMD dispatch layer: every supported path is
//! bitwise-equal to the scalar reference, across lengths 0..257, odd
//! tails, strip offsets, and unaligned buffers.
//!
//! The kernels promise a *fixed accumulation order* on every path, so
//! equality here is exact `to_bits` equality — no tolerance anywhere.

use fgbs_matrix::simd::{self, dist_serial, norm_serial, sq_dist_serial, Isa};
use fgbs_matrix::Matrix;
use proptest::prelude::*;

/// Deterministic value stream for synthesizing panels from one seed.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in (-100, 100) from the stream — generic position, no ties.
fn val(s: &mut u64) -> f64 {
    (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
}

/// `n` rows of `d` features, synthesized from `seed`.
fn panel(n: usize, d: usize, seed: u64) -> Matrix {
    let mut s = seed;
    Matrix::from_flat(n, d, (0..n * d).map(|_| val(&mut s)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sq_dist_every_path_matches_serial(
        d in 0usize..257,
        seed in any::<u64>(),
        shift in 0usize..4,
    ) {
        // Unaligned views: the same rows read from an odd offset into a
        // parent buffer must not change a single bit.
        let mut s = seed;
        let mut a = vec![0.0f64; shift];
        let mut b = vec![0.0f64; shift];
        a.extend((0..d).map(|_| val(&mut s)));
        b.extend((0..d).map(|_| val(&mut s)));
        let (a, b) = (&a[shift..], &b[shift..]);
        // The single-pair kernel has its own fixed graph (an 8-lane
        // tree, not the strips' serial chain): the reference is the
        // scalar *dispatch path*, which shares that graph exactly.
        let want = simd::sq_dist_with(Isa::Scalar, a, b);
        // The tree still sums the same exact squares, so it agrees with
        // the serial chain to ordinary rounding.
        let serial = sq_dist_serial(a, b);
        prop_assert!((want - serial).abs() <= 1e-12 * serial.max(1.0));
        for isa in Isa::supported() {
            let got = simd::sq_dist_with(isa, a, b);
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "sq_dist on {} diverges: {} vs {}", isa.name(), got, want
            );
        }
    }

    #[test]
    fn dist_condensed_every_path_matches_serial(
        n in 0usize..257,
        d in 0usize..10,
        seed in any::<u64>(),
    ) {
        // Row `i` is one strip at column offset `i + 1` and width
        // `n - i - 1`, so one triangle covers every strip offset and
        // every tail width below `n`.
        let m = panel(n, d, seed);
        for isa in Isa::supported() {
            let got = simd::dist_condensed_with(isa, &m);
            prop_assert_eq!(got.len(), n * n.saturating_sub(1) / 2);
            let mut cell = 0;
            for i in 0..n {
                for j in i + 1..n {
                    let (a, b) = (m.row(i), m.row(j));
                    let want = dist_serial(a, b, norm_serial(a), norm_serial(b));
                    prop_assert_eq!(
                        got[cell].to_bits(), want.to_bits(),
                        "cell ({}, {}) on {} (n={}, d={})", i, j, isa.name(), n, d
                    );
                    cell += 1;
                }
            }
        }
    }
}
