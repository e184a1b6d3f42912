//! The flat numeric kernel layer shared by the whole numeric core.
//!
//! The pipeline's hot loop — z-normalise → pairwise distances → Ward
//! linkage → medoid extraction — re-executes thousands of times inside
//! the GA fitness function, so its storage and kernels live here, in one
//! crate, instead of being re-derived ad hoc per stage:
//!
//! * [`Matrix`] — a contiguous row-major observation matrix with
//!   borrowed row views. Row length is validated **once** at
//!   construction, so kernels never re-check shapes inside O(n²·d)
//!   loops.
//! * [`Condensed`] — upper-triangular pairwise storage (`n·(n−1)/2`
//!   cells), generic over the cell type so both `f64` distances and the
//!   `i128` masked-distance accumulators share the indexing math.
//! * [`kernel`] — squared-distance kernels and the quantised
//!   masked-distance accumulator that makes the GA's incremental fitness
//!   *exact*: per-feature contributions are quantised to integers once,
//!   so adding and removing features from a cached sum is associative
//!   and bitwise-reproducible no matter which cached mask the update
//!   starts from.
//! * [`simd`] — the explicit-width SIMD layer under `kernel`: one
//!   arithmetic body per kernel compiled for several instruction sets
//!   (baseline, AVX2, AVX-512F) with a fixed accumulation order, so the
//!   path the runtime probe picks is invisible in the output bits.
//!   [`simd::dist_condensed`] builds a whole distance triangle in one
//!   dispatched pass of row strips over a column-major panel.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod condensed;
mod dense;
pub mod kernel;
pub mod simd;

pub use condensed::Condensed;
pub use dense::Matrix;
