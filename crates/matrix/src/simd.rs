//! Explicit-width SIMD kernels with runtime ISA dispatch.
//!
//! # One arithmetic graph, several instruction sets
//!
//! Every kernel here has exactly one body, written over fixed-width
//! `[f64; LANES]` lane arrays, and two or three dispatch wrappers that
//! compile that same body under different `#[target_feature]` sets
//! (baseline SSE2, AVX2, AVX-512F). The wrappers never change the
//! arithmetic — IEEE-754 add/sub/mul/sqrt are exactly specified, so a
//! fixed operation graph produces the same bits on every path. That is
//! the **bitwise-dispatch contract**: which ISA the startup probe picks
//! is invisible in the output, across machines, not just thread counts.
//! `fgbs-matrix/tests/simd_prop.rs` proptests the contract over every
//! supported path, odd lengths and unaligned slices.
//!
//! Two accumulation orders exist, both fixed:
//!
//! * [`sq_dist`] — the single-pair kernel splits features over
//!   eight independent accumulators (lane `l` owns features
//!   `l, l+8, …`) combined as a fixed tree, plus a serial tail. This
//!   keeps the add chains short (ILP) for latency-bound single pairs.
//! * [`dist_condensed`] — the whole-triangle kernel gives each *pair*
//!   one lane and accumulates its features serially in index order, so
//!   a pair's sum is one serial chain regardless of where its row's
//!   strip starts or how wide the hardware is. It uses the norm
//!   identity `d² = ‖a‖² + ‖c‖² − 2·(a·c)`: one fma per pair-feature
//!   instead of a subtract *and* an fma, with the clamp `max(0, ·)` and
//!   the square root fused into the same fixed graph. [`dist_serial`]
//!   is its scalar reference.
//!
//! Fused multiply-add is part of the fixed graph, never a contraction
//! the compiler may or may not apply: every accumulation step is an
//! explicit [`f64::mul_add`], which IEEE-754 specifies exactly (one
//! rounding). Hardware FMA and the soft-float fallback on machines
//! without it produce the same bits — slower there, never different.
//! Rust licenses no reassociation, so the graph is the graph.

use std::sync::OnceLock;

use crate::Matrix;

/// Fixed logical lane count of the kernels' accumulation schemes. Wide
/// enough to fill one AVX-512 register or two AVX2 registers; the
/// scalar path executes the same eight-lane graph one lane at a time.
const LANES: usize = 8;

/// An instruction-set dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Baseline codegen (SSE2 on x86-64, NEON on aarch64).
    Scalar,
    /// 256-bit AVX2 codegen (x86-64 only).
    Avx2,
    /// 512-bit AVX-512F codegen (x86-64 only).
    Avx512,
}

impl Isa {
    /// Short stable name (for messages).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether this machine can execute the path. The vector paths are
    /// compiled with hardware FMA (the kernels' accumulation step), so
    /// they require it alongside the vector width.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every path this machine supports, widest last. Tests iterate
    /// this to prove bitwise dispatch equality on the hardware at hand.
    pub fn supported() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|i| i.is_supported())
            .collect()
    }

    /// The widest supported path (the startup default).
    pub fn detect() -> Isa {
        *Isa::supported().last().unwrap_or(&Isa::Scalar)
    }
}

/// The dispatch path every kernel call uses: the widest supported ISA
/// ([`Isa::detect`]), probed once per process.
pub fn active() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(Isa::detect)
}

// ---------------------------------------------------------------------
// Kernel bodies: one arithmetic graph each, inlined into every wrapper.
// ---------------------------------------------------------------------

/// Hardware block width of the strip kernels: eight [`LANES`]-wide
/// register groups. Each pair's serial fma chain has latency ≈ its own
/// issue slots, so a block this wide buys the out-of-order window the
/// slack to hide the chain latency *and* keep the square-root unit fed
/// by the fused epilogue. Because each pair's chain is serial, grouping
/// is invisible in the bits — it only sets how many chains run
/// concurrently.
const BLOCK: usize = 8 * LANES;

/// Eight-lane squared distance: lane `l` owns features `l, l+8, …`,
/// each lane accumulating by fused multiply-add, lanes combine as a
/// fixed tree, the tail (len % 8) sums serially.
#[inline(always)]
fn sq_dist_body(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc = [0.0f64; LANES];
    let chunks = n / LANES;
    for c in 0..chunks {
        let at = &a[c * LANES..c * LANES + LANES];
        let bt = &b[c * LANES..c * LANES + LANES];
        for l in 0..LANES {
            let d = at[l] - bt[l];
            acc[l] = d.mul_add(d, acc[l]);
        }
    }
    let mut tail = 0.0;
    for i in chunks * LANES..n {
        let d = a[i] - b[i];
        tail = d.mul_add(d, tail);
    }
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// One register block of the dot-product strip: inner products of `a`
/// with the `W` columns at `base`, one serial fused-multiply-add chain
/// per column.
#[inline(always)]
fn dot_acc<const W: usize>(a: &[f64], cols: &[f64], stride: usize, base: usize) -> [f64; W] {
    let d = a.len();
    assert!(
        d == 0 || (d - 1) * stride + base + W <= cols.len(),
        "strip block escapes the column-major buffer"
    );
    let mut acc = [0.0f64; W];
    for (f, &av) in a.iter().enumerate() {
        let start = f * stride + base;
        // SAFETY: `start + W ≤ (d−1)·stride + base + W ≤ cols.len()`,
        // proven by the assert above.
        let col = unsafe { cols.get_unchecked(start..start + W) };
        for l in 0..W {
            acc[l] = col[l].mul_add(av, acc[l]);
        }
    }
    acc
}

/// One register block of the norm strip: squared norms of the `W`
/// columns at `base`, one serial fused-multiply-add chain per column.
#[inline(always)]
fn norm_acc<const W: usize>(cols: &[f64], stride: usize, d: usize, base: usize) -> [f64; W] {
    assert!(
        d == 0 || (d - 1) * stride + base + W <= cols.len(),
        "strip block escapes the column-major buffer"
    );
    let mut acc = [0.0f64; W];
    for f in 0..d {
        let start = f * stride + base;
        // SAFETY: bounded by the assert above.
        let col = unsafe { cols.get_unchecked(start..start + W) };
        for l in 0..W {
            acc[l] = col[l].mul_add(col[l], acc[l]);
        }
    }
    acc
}

/// Squared norms of the first `out.len()` columns of the panel:
/// `out[j] = ‖column j‖²`, each a serial feature-order fma chain (the
/// `a == column` special case of the dot strip, without needing a
/// row-major copy). The tail runs at full width into the panel's
/// padding, like [`dist_strip_body`].
#[inline(always)]
fn norm_strip_body(cols: &[f64], stride: usize, d: usize, out: &mut [f64]) {
    let width = out.len();
    let mut k = 0;
    while k + LANES <= width {
        out[k..k + LANES].copy_from_slice(&norm_acc::<LANES>(cols, stride, d, k));
        k += LANES;
    }
    if k < width {
        let acc = norm_acc::<LANES>(cols, stride, d, k);
        out[k..width].copy_from_slice(&acc[..width - k]);
    }
}

/// Euclidean distances from `a` to the panel's columns `j0..stride`,
/// appended to `out`, by the norm identity `d²(a, c) = ‖a‖² + ‖c‖² −
/// 2·(a·c)`, fused end to end: dot strip, then per pair the fixed
/// epilogue `sqrt(max(0, fma(−2, a·c, ‖a‖² + ‖c‖²)))` while the block
/// is cache-hot. One fma per pair-feature — half the FMA-port pressure of
/// the subtract-then-square form — at the price of the usual norm-trick
/// cancellation for nearly-identical columns (absolute error
/// ~ulp(‖a‖² + ‖c‖²); the clamp makes exact duplicates come out 0, not
/// NaN). The whole graph is fixed, so every path agrees bitwise.
#[inline(always)]
fn dist_strip_body(
    a: &[f64],
    norm_a: f64,
    cols: &[f64],
    norms: &[f64],
    stride: usize,
    j0: usize,
    out: &mut Vec<f64>,
) {
    // Per register block: dot strip, then the epilogue immediately,
    // while the block is in registers. The square-root unit grinds one
    // block's epilogue while the FMA port issues the next block's dot
    // products — a strip-wide epilogue pass would serialise the two.
    #[inline(always)]
    fn block<const W: usize>(
        a: &[f64],
        norm_a: f64,
        cols: &[f64],
        nj: &[f64],
        stride: usize,
        base: usize,
    ) -> [f64; W] {
        let mut acc = dot_acc::<W>(a, cols, stride, base);
        dist_epilogue(&mut acc, norm_a, nj);
        acc
    }
    let width = stride - j0;
    let mut k = 0;
    while k + BLOCK <= width {
        let b = block::<BLOCK>(a, norm_a, cols, &norms[j0 + k..j0 + k + BLOCK], stride, j0 + k);
        out.extend_from_slice(&b);
        k += BLOCK;
    }
    while k + LANES <= width {
        let b = block::<LANES>(a, norm_a, cols, &norms[j0 + k..j0 + k + LANES], stride, j0 + k);
        out.extend_from_slice(&b);
        k += LANES;
    }
    if k < width {
        // Full-width partial block into the padding `cols` and `norms`
        // carry past the data (zeros ⇒ the surplus lanes compute
        // `sqrt(max(0, ·))` of finite junk — discarded, never UB).
        let b = block::<LANES>(a, norm_a, cols, &norms[j0 + k..j0 + k + LANES], stride, j0 + k);
        out.extend_from_slice(&b[..width - k]);
    }
}

/// The norm-identity epilogue of one register block: `sqrt(max(0,
/// fma(−2, dot, norm_a + norm_c)))`, lane-wise over a fixed array.
#[inline(always)]
fn dist_epilogue<const W: usize>(acc: &mut [f64; W], norm_a: f64, nj: &[f64]) {
    for l in 0..W {
        let d2 = (-2.0f64).mul_add(acc[l], norm_a + nj[l]);
        acc[l] = d2.max(0.0).sqrt();
    }
}

/// The whole condensed triangle: the row norms, then for every row `i`
/// one [`dist_strip_body`] strip over columns `i+1..n`, appended to
/// `out`. In condensed order row `i`'s cells follow row `i−1`'s, so
/// appending builds the triangle without first zero-filling it (which
/// cost about 0.2 ms of a 1.5 ms build at n = 1024). The row loop runs
/// inside the dispatched function: the triangle costs one dispatch (and
/// one cold `#[target_feature]` prologue), not one per row.
#[inline(always)]
fn dist_condensed_body(data: &Matrix, cols: &[f64], norms: &mut [f64], out: &mut Vec<f64>) {
    let n = data.nrows();
    norm_strip_body(cols, n, data.ncols(), &mut norms[..n]);
    for i in 0..n {
        dist_strip_body(data.row(i), norms[i], cols, norms, n, i + 1, out);
    }
}

/// The column-major panel the strip kernel streams over: feature `f` of
/// row `j` at `[f * n + j]`, so one feature of consecutive rows is
/// contiguous. [`LANES`] zero cells follow the data, so a final partial
/// block runs at full lane width over padding instead of falling back
/// to latency-bound scalar pairs.
fn col_major(data: &Matrix) -> Vec<f64> {
    let (n, d) = (data.nrows(), data.ncols());
    let mut cols = vec![0.0f64; n * d + LANES];
    let src = data.as_slice();
    // Feature-outer, so every write is sequential: 3–5× faster than a
    // row-outer loop at 1024 × 14. With no rows the walk is empty.
    for f in 0..d {
        let feature = src.get(f..).unwrap_or_default().iter().step_by(d);
        for (c, &x) in cols[f * n..(f + 1) * n].iter_mut().zip(feature) {
            *c = x;
        }
    }
    cols
}

// ---------------------------------------------------------------------
// Dispatch wrappers. Same body, different codegen features; calling one
// requires the feature to be present (checked by `active()`/`_with`).
// ---------------------------------------------------------------------

macro_rules! dispatch_paths {
    ($body:ident => $scalar:ident, $avx2:ident, $avx512:ident,
     ($($arg:ident : $ty:ty),*) -> $ret:ty) => {
        fn $scalar($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $avx2($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,fma")]
        unsafe fn $avx512($($arg: $ty),*) -> $ret {
            $body($($arg),*)
        }
    };
}

dispatch_paths!(sq_dist_body => sq_dist_scalar, sq_dist_avx2, sq_dist_avx512,
    (a: &[f64], b: &[f64]) -> f64);
dispatch_paths!(dist_condensed_body => dcond_scalar, dcond_avx2, dcond_avx512,
    (data: &Matrix, cols: &[f64], norms: &mut [f64], out: &mut Vec<f64>) -> ());

#[cfg(not(target_arch = "x86_64"))]
macro_rules! run_path {
    ($isa:expr, $scalar:ident, $avx2:ident, $avx512:ident, ($($arg:expr),*)) => {{
        let _ = $isa;
        $scalar($($arg),*)
    }};
}

#[cfg(target_arch = "x86_64")]
macro_rules! run_path {
    ($isa:expr, $scalar:ident, $avx2:ident, $avx512:ident, ($($arg:expr),*)) => {
        match $isa {
            Isa::Scalar => $scalar($($arg),*),
            // SAFETY: dispatch only reaches a vector path after
            // `is_supported` confirmed the CPU feature.
            Isa::Avx2 => unsafe { $avx2($($arg),*) },
            Isa::Avx512 => unsafe { $avx512($($arg),*) },
        }
    };
}

/// Squared Euclidean distance between two rows on an explicit path.
///
/// # Panics
///
/// Panics when `isa` is not supported by this machine.
pub fn sq_dist_with(isa: Isa, a: &[f64], b: &[f64]) -> f64 {
    assert!(isa.is_supported(), "{} is not supported here", isa.name());
    run_path!(isa, sq_dist_scalar, sq_dist_avx2, sq_dist_avx512, (a, b))
}

/// Squared Euclidean distance between two rows on the active path.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    run_path!(active(), sq_dist_scalar, sq_dist_avx2, sq_dist_avx512, (a, b))
}

/// One serial feature-order fused-multiply-add chain of squared
/// differences: a plain reference that [`sq_dist`]'s lane tree matches
/// to ordinary rounding, not bit for bit.
pub fn sq_dist_serial(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = y - x;
        acc = d.mul_add(d, acc);
    }
    acc
}

/// Euclidean distances between all pairs of rows of `data` on an
/// explicit path (see [`dist_condensed`]).
///
/// # Panics
///
/// Panics when `isa` is not supported by this machine.
pub fn dist_condensed_with(isa: Isa, data: &Matrix) -> Vec<f64> {
    assert!(isa.is_supported(), "{} is not supported here", isa.name());
    let n = data.nrows();
    let cols = col_major(data);
    // LANES zero cells past the last norm, like the panel's padding.
    let mut norms = vec![0.0f64; n + LANES];
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    run_path!(
        isa,
        dcond_scalar,
        dcond_avx2,
        dcond_avx512,
        (data, &cols, &mut norms, &mut out)
    );
    out
}

/// Euclidean distances between all pairs of rows of `data` on the
/// active path, in condensed upper-triangular order `(0,1), (0,2), …,
/// (n−2,n−1)`. Each cell is the fixed norm-identity graph
/// `sqrt(max(0, fma(−2, a·c, ‖a‖² + ‖c‖²)))`, with one serial
/// feature-order fma chain for the dot product and one for each norm,
/// so it equals [`dist_serial`]`(a, c, norm_serial(a), norm_serial(c))`
/// bit for bit on every path. One fma per pair-feature halves the
/// FMA-port pressure of the subtract-then-square form, at the price of
/// the norm identity's cancellation for nearly identical rows (absolute
/// error ~ulp(‖a‖² + ‖c‖²); exact duplicates come out 0, not NaN).
pub fn dist_condensed(data: &Matrix) -> Vec<f64> {
    dist_condensed_with(active(), data)
}

/// The [`dist_condensed`] scalar reference: the same fixed
/// norm-identity graph, one pair at a time — serial fma dot product,
/// then `sqrt(max(0, fma(−2, a·b, norm_a + norm_b)))`.
pub fn dist_serial(a: &[f64], b: &[f64], norm_a: f64, norm_b: f64) -> f64 {
    let mut dot = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot = y.mul_add(*x, dot);
    }
    (-2.0f64).mul_add(dot, norm_a + norm_b).max(0.0).sqrt()
}

/// The row-norm reference for [`dist_serial`]: one serial
/// feature-order fma chain, `acc = x·x + acc`. [`dist_condensed`]
/// computes every row's norm bit for bit like this, on every path.
pub fn norm_serial(a: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in a {
        acc = x.mul_add(x, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(seed).wrapping_add(7) % 1000) as f64 / 31.0 - 16.0)
            .collect()
    }

    #[test]
    fn detection_is_sane() {
        assert!(Isa::Scalar.is_supported());
        let all = Isa::supported();
        assert!(all.contains(&Isa::Scalar));
        assert!(all.contains(&Isa::detect()));
        assert_eq!(active(), Isa::detect());
    }

    #[test]
    fn every_path_matches_scalar_bitwise() {
        for len in [0, 1, 2, 7, 8, 9, 15, 16, 31, 64, 77] {
            let a = row(len, 0x9E37);
            let b = row(len, 0x85EB);
            let reference = sq_dist_with(Isa::Scalar, &a, &b);
            for isa in Isa::supported() {
                assert_eq!(
                    sq_dist_with(isa, &a, &b).to_bits(),
                    reference.to_bits(),
                    "len={len} isa={}",
                    isa.name()
                );
            }
        }
    }

    #[test]
    fn condensed_identical_rows_come_out_zero() {
        // The norm identity cancels catastrophically for duplicates;
        // the clamp must turn the tiny negative residue into 0, not
        // NaN.
        let a = row(9, 0xBEEF);
        let mut near = a.clone();
        // Perturb by more than the identity's cancellation floor (~ulp
        // of the norms): below it, near-duplicates round to exactly 0
        // by design.
        near[0] += 1e-3;
        // Cells (0,1) exact copy, (0,2) near copy, (1,2) near copy.
        let d = dist_condensed(&Matrix::from_rows(&[a.clone(), a, near]));
        assert_eq!(d[0], 0.0, "exact duplicate");
        assert!(d[1].is_finite() && d[1] > 0.0, "near duplicate: {}", d[1]);
        assert_eq!(d[1], d[2]);
    }

    #[test]
    fn single_pair_kernel_is_a_distance() {
        let a = row(76, 3);
        assert_eq!(sq_dist(&a, &a), 0.0);
        let b = row(76, 11);
        assert!((sq_dist(&a, &b) - sq_dist_serial(&a, &b)).abs() < 1e-9 * sq_dist_serial(&a, &b));
    }
}
