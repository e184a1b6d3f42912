//! Distance kernels: blocked dense kernels and the quantised masked
//! accumulator behind the GA's incremental fitness.
//!
//! # Dense kernels
//!
//! [`sq_dist`] forwards to the explicit-width SIMD layer
//! ([`crate::simd`]): one eight-lane accumulation graph (lane `l` owns
//! elements `l, l+8, …`, combined as a fixed tree) compiled under
//! several instruction sets and dispatched once at startup. Every
//! dispatch path produces the same bits, so results are deterministic
//! for a given slice length on any machine — the
//! thread-count-invariance contract of the distance stage does not
//! depend on how rows are scheduled or which ISA the probe picks.
//!
//! # Masked quantised accumulation
//!
//! The GA evaluates thousands of feature masks over one fixed
//! z-normalised matrix. A mask's squared distance for a pair is the sum
//! of that pair's per-feature contributions `(z_if − z_jf)²` over the
//! selected features. Floating-point sums are not associative, so a sum
//! patched incrementally (start from a cached mask, subtract removed
//! features, add new ones) would drift from a from-scratch sum by
//! last-ulp amounts that depend on *which* cached mask the update
//! started from — breaking determinism.
//!
//! Instead each contribution is quantised once to an integer number of
//! `2⁻⁸⁰` quanta ([`quantize_sq`]) and summed in `i128`. Integer
//! addition is associative and exact, so the accumulator for a mask is
//! a pure function of the mask *set* — identical whether it was built
//! from scratch ([`masked_sq_acc`]) or by any chain of incremental
//! updates. The final distance is `sqrt(acc · 2⁻⁸⁰)`.
//!
//! Range: z-scores are bounded by `√(n−1)`, so one contribution is at
//! most `4(n−1) < 2¹⁵` for any realistic suite, i.e. `< 2⁹⁵` quanta;
//! even 2²⁰ features cannot overflow the 127-bit accumulator.

/// Quantisation scale for masked squared-distance contributions: values
/// are stored as integer multiples of `2⁻⁸⁰`.
pub const Q_SCALE_BITS: u32 = 80;

/// `2⁸⁰` as an exactly-representable f64.
const Q_SCALE: f64 = (1u128 << Q_SCALE_BITS) as f64;

/// Squared Euclidean distance between two equal-length rows, on the
/// SIMD layer's active dispatch path (see [`crate::simd::sq_dist`]).
///
/// # Panics
///
/// Debug-asserts equal lengths; release builds truncate to the shorter
/// row (the `Matrix` layer guarantees rectangular input).
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernel rows must have equal length");
    crate::simd::sq_dist(a, b)
}

/// Euclidean distance between two equal-length rows.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Quantise one squared per-feature contribution to `2⁻⁸⁰` quanta.
///
/// Returns exactly `(c * 2⁸⁰) as i128` for every input: the multiply by
/// a power of two is exact short of overflow, and the conversion
/// truncates toward zero and saturates as the cast does (NaN to 0, ±∞
/// and magnitudes of `2¹²⁷` or more to the nearer bound). It reads the
/// product's exponent and mantissa instead of casting, because on
/// x86-64 the `f64 as i128` cast is a runtime-library call that costs
/// about twice as much. Contributions are non-negative, so the result
/// is too.
#[inline]
pub fn quantize_sq(c: f64) -> i128 {
    const MANTISSA_BITS: i32 = 52;
    let x = c * Q_SCALE;
    let bits = x.to_bits();
    let exp = ((bits >> MANTISSA_BITS) & 0x7ff) as i32 - 1023;
    if exp < 0 {
        // |x| < 1, zeros and subnormals included.
        return 0;
    }
    let negative = bits >> 63 != 0;
    if exp >= 127 {
        // |x| ≥ 2¹²⁷, ±∞ or NaN.
        return match (x.is_nan(), negative) {
            (true, _) => 0,
            (false, true) => i128::MIN,
            (false, false) => i128::MAX,
        };
    }
    let mantissa = (bits & ((1 << MANTISSA_BITS) - 1)) | (1 << MANTISSA_BITS);
    let magnitude = if exp >= MANTISSA_BITS {
        (mantissa as i128) << (exp - MANTISSA_BITS)
    } else {
        (mantissa >> (MANTISSA_BITS - exp)) as i128
    };
    if negative {
        -magnitude
    } else {
        magnitude
    }
}

/// Turn an accumulated quantised squared distance back into a distance.
#[inline]
pub fn acc_to_dist(acc: i128) -> f64 {
    debug_assert!(acc >= 0, "masked squared distances are non-negative");
    ((acc as f64) / Q_SCALE).sqrt()
}

/// Quantised squared distance between rows `a` and `b` over the feature
/// ids in `ids` — the from-scratch path of the masked kernel.
#[inline]
pub fn masked_sq_acc(a: &[f64], b: &[f64], ids: &[usize]) -> i128 {
    let mut acc: i128 = 0;
    for &f in ids {
        let d = a[f] - b[f];
        acc += quantize_sq(d * d);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sq_dist_matches_naive() {
        for len in 0..20 {
            let a: Vec<f64> = (0..len).map(|i| (i as f64) * 0.7 - 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).sin()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let blocked = sq_dist(&a, &b);
            assert!(
                (blocked - naive).abs() <= 1e-12 * naive.max(1.0),
                "len={len}: {blocked} vs {naive}"
            );
        }
    }

    #[test]
    fn dist_is_sqrt_of_sq_dist() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(dist(&a, &b), 5.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn quantisation_is_exact_for_powers_of_two() {
        assert_eq!(quantize_sq(1.0), 1i128 << Q_SCALE_BITS);
        assert_eq!(quantize_sq(0.0), 0);
        assert_eq!(acc_to_dist(1i128 << Q_SCALE_BITS), 1.0);
        assert_eq!(acc_to_dist(0), 0.0);
    }

    #[test]
    fn masked_acc_close_to_float_sum() {
        let a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.31).cos()).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.17).sin()).collect();
        let ids: Vec<usize> = (0..16).step_by(3).collect();
        let float: f64 = ids.iter().map(|&f| (a[f] - b[f]) * (a[f] - b[f])).sum();
        let q = acc_to_dist(masked_sq_acc(&a, &b, &ids));
        assert!((q - float.sqrt()).abs() < 1e-9, "{q} vs {}", float.sqrt());
    }

    /// The cast [`quantize_sq`] replaces, kept as its oracle.
    fn quantize_by_cast(c: f64) -> i128 {
        (c * Q_SCALE) as i128
    }

    #[test]
    fn quantize_sq_matches_the_cast_on_edge_cases() {
        let big = 2f64.powi(127 - Q_SCALE_BITS as i32);
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            2f64.powi(-80),
            2f64.powi(-81),
            2f64.powi(-80) * 1.5,
            0.999_999_999,
            1.0,
            -1.0,
            -2.5,
            3.75e-7,
            big,
            -big,
            big * (1.0 - f64::EPSILON),
            -big * (1.0 - f64::EPSILON),
            big * 2.0,
            -big * 2.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for c in edges {
            assert_eq!(
                quantize_sq(c),
                quantize_by_cast(c),
                "c = {c:e} ({:#018x})",
                c.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn quantize_sq_matches_the_cast_on_random_bits(bits in any::<u64>()) {
            let c = f64::from_bits(bits);
            prop_assert_eq!(quantize_sq(c), quantize_by_cast(c), "c = {:e}", c);
        }

        #[test]
        fn quantize_sq_matches_the_cast_between_the_quantum_and_the_bound(
            mantissa in any::<u64>(),
            exp in -82i32..48,
            negative in any::<bool>(),
        ) {
            // Scaled by 2⁸⁰, every exponent from just under one quantum
            // to the i128 bound: the range where the conversion shifts.
            let bits = (negative as u64) << 63
                | ((exp + 1023) as u64) << 52
                | (mantissa & ((1 << 52) - 1));
            let c = f64::from_bits(bits);
            prop_assert_eq!(quantize_sq(c), quantize_by_cast(c), "c = {:e}", c);
        }
    }
}
