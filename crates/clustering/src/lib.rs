//! Hierarchical clustering for codelet signatures (the paper's Step C).
//!
//! Feature vectors live in a contiguous [`fgbs_matrix::Matrix`] and are
//! z-normalised ([`normalize`]) so every feature weighs equally in the
//! Euclidean distance ([`DistanceMatrix`], condensed upper-triangular
//! storage), then clustered bottom-up with Ward's minimum-variance
//! criterion ([`linkage`], [`Linkage::Ward`]) — exactly the recipe of
//! §3.3, run through the O(n²) nearest-neighbor-chain algorithm (the
//! O(n³) scan survives as [`naive_linkage`] for equivalence checks). The
//! resulting [`Dendrogram`] can be cut at any height to produce a
//! [`Partition`]; [`elbow_k`] implements the Elbow method the paper uses
//! to pick the cluster count automatically.
//!
//! [`medoid`] selects the representative of each cluster (the codelet
//! closest to the centroid, §3.4), [`random_partition`] generates the
//! random clusterings of the paper's Figure 7 baseline, and
//! [`MaskedDistanceCache`] serves the GA's fitness loop with incremental
//! masked distances patched from the previous genome's accumulators.
//!
//! # Example
//!
//! ```
//! use fgbs_clustering::{normalize, DistanceMatrix, linkage, Linkage, elbow_k};
//! use fgbs_matrix::Matrix;
//!
//! let data = Matrix::from_rows(&[
//!     vec![0.0, 0.1], vec![0.1, 0.0],      // cluster A
//!     vec![10.0, 9.9], vec![9.9, 10.1],    // cluster B
//! ]);
//! let norm = normalize(&data);
//! let d = DistanceMatrix::euclidean(&norm);
//! let dendro = linkage(&d, Linkage::Ward);
//! let part = dendro.cut(2);
//! assert_eq!(part.k(), 2);
//! assert_eq!(part.assignment(0), part.assignment(1));
//! assert_ne!(part.assignment(0), part.assignment(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dendrogram;
mod distance;
mod elbow;
mod hierarchy;
mod masked;
mod medoid;
mod normalize;
mod partition;
mod random;
mod render;

pub use dendrogram::{Dendrogram, Merge};
pub use distance::DistanceMatrix;
pub use elbow::{elbow_k, within_variance_curve};
pub use hierarchy::{dendrogram_digest, linkage, naive_linkage, Linkage};
pub use masked::MaskedDistanceCache;
pub use medoid::{centroid, medoid};
pub use normalize::normalize;
pub use partition::Partition;
pub use random::random_partition;
pub use render::render_dendrogram;
