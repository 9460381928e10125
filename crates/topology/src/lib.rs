//! # oc-topology — the open-cube rooted tree
//!
//! This crate implements the *open-cube* structure of Hélary & Mostefaoui
//! (INRIA RR-2041, 1993), Section 2: a rooted tree on `n = 2^p` nodes
//! obtained from the `p`-dimensional hypercube by removing edges, defined
//! recursively as two `(n/2)`-open-cubes whose roots are joined by one
//! directed edge.
//!
//! The structure has two properties the mutual-exclusion algorithm builds on:
//!
//! * **Bounded branches** (Prop. 2.3): every root-to-leaf branch has length
//!   at most `log2 n`, which caps the worst-case message cost per request.
//! * **Stability & locality** (Thm. 2.1, Cors. 2.2–2.3): swapping a node with
//!   its *last son* (a *b-transformation*) preserves the open-cube shape, all
//!   p-groups, and all pairwise distances. Distances are therefore constants
//!   of the system and can be computed with bit arithmetic.
//!
//! ## Quick tour
//!
//! ```
//! use oc_topology::{OpenCube, NodeId};
//!
//! // The canonical 16-open-cube of the paper's Figure 2d.
//! let cube = OpenCube::canonical(16);
//! let n1 = NodeId::new(1);
//! let n9 = NodeId::new(9);
//! assert_eq!(cube.root(), n1);
//! assert_eq!(cube.power(n1), 4);
//! assert_eq!(cube.power(n9), 3);
//! assert_eq!(oc_topology::dist(n1, n9), 4);
//! assert!(cube.verify().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod node_id;

pub mod branch;
pub mod canonical;
pub mod distance;
pub mod groups;
pub mod hypercube;
pub mod invariant;
pub mod transform;
pub mod tree;

pub use branch::{branch_to_root, longest_branch_len};
pub use canonical::{canonical_father, canonical_power, canonical_sons};
pub use distance::{dist, ring_iter, ring_size, RingIter};
pub use error::{StructureError, TopologyError};
pub use groups::{group_of, group_root, p_group};
pub use node_id::NodeId;
pub use tree::OpenCube;

/// Returns `true` if `n` is a valid open-cube size (a power of two, ≥ 1).
///
/// The paper assumes `n = 2^p` throughout; all constructors in this crate
/// enforce it.
///
/// ```
/// assert!(oc_topology::is_valid_size(8));
/// assert!(!oc_topology::is_valid_size(12));
/// assert!(!oc_topology::is_valid_size(0));
/// ```
pub fn is_valid_size(n: usize) -> bool {
    n >= 1 && n.is_power_of_two()
}

/// The dimension `p = log2 n` of an `n`-open-cube.
///
/// # Panics
///
/// Panics if `n` is not a power of two (see [`is_valid_size`]).
///
/// ```
/// assert_eq!(oc_topology::dimension(16), 4);
/// ```
pub fn dimension(n: usize) -> u32 {
    assert!(is_valid_size(n), "open-cube size must be a power of two, got {n}");
    n.trailing_zeros()
}
