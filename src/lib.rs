//! # opencube — fault-tolerant distributed mutual exclusion on the
//! open-cube structure
//!
//! A full reproduction of:
//!
//! > J.-M. Hélary, A. Mostefaoui. *A O(log2 n) fault-tolerant distributed
//! > mutual exclusion algorithm based on open-cube structure.* INRIA
//! > RR-2041, 1993 (ICDCS'94 submission).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`topology`] — the open-cube rooted tree (Section 2): powers,
//!   distances, p-groups, b-transformations, invariant verification.
//! * [`algo`] — the algorithm itself (Sections 3 & 5): token + tree
//!   protocol, suspicion timeouts, root enquiry, token regeneration,
//!   `search_father`, recovery and anomaly repair.
//! * [`sim`] — a deterministic discrete-event simulator with bounded-delay
//!   non-FIFO channels, fail-stop injection, safety oracles and metrics.
//! * [`runtime`] — the same state machines on real OS threads over
//!   `std::sync::mpsc` channels.
//! * [`baselines`] — Raymond's and Naimi–Trehel's algorithms (plus a
//!   centralized coordinator) on the same interface, for comparison.
//! * [`analysis`] — the paper's complexity formulas, executable.
//! * [`general`] — the Hélary–Mostefaoui–Raynal general scheme with
//!   pluggable behavior rules, of which the open-cube algorithm, Raymond
//!   and Naimi–Trehel are instances (paper §3, "Relation with the general
//!   algorithm").
//!
//! ## Quickstart
//!
//! ```
//! use opencube::algo::{Config, OpenCubeNode};
//! use opencube::sim::{SimConfig, SimDuration, SimTime, World};
//! use opencube::topology::NodeId;
//!
//! let config = Config::new(
//!     8,
//!     SimDuration::from_ticks(10), // δ: the network's max delay
//!     SimDuration::from_ticks(50), // e: the critical-section estimate
//! );
//! let mut world = World::new(SimConfig::default(), OpenCubeNode::build_all(config));
//! world.schedule_request(SimTime::from_ticks(1), NodeId::new(6));
//! assert!(world.run_to_quiescence());
//! assert_eq!(world.metrics().cs_entries, 1);
//! assert!(world.oracle_report().is_clean());
//! ```
//!
//! See `examples/` for the paper's worked examples, failure injection, the
//! algorithm comparison, and the threaded runtime; `DESIGN.md` for the
//! system inventory; `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use oc_algo as algo;
pub use oc_analysis as analysis;
pub use oc_baselines as baselines;
pub use oc_check as check;
pub use oc_general as general;
pub use oc_runtime as runtime;
pub use oc_sim as sim;
pub use oc_topology as topology;
