//! # oc-algo — open-cube fault-tolerant distributed mutual exclusion
//!
//! This crate implements the algorithm of:
//!
//! > J.-M. Hélary, A. Mostefaoui. *A O(log2 n) fault-tolerant distributed
//! > mutual exclusion algorithm based on open-cube structure.* INRIA
//! > RR-2041, 1993 (ICDCS'94 submission).
//!
//! It is a token- and tree-based mutual exclusion algorithm whose routing
//! tree always remains an *open-cube* (see [`oc_topology`]), giving:
//!
//! * worst-case `log2 N + 1` messages per critical-section request,
//! * average `¾·log2 N + 5/4` messages per request,
//! * `O(log2 N)` extra messages to recover from each node failure.
//!
//! Each node is an [`OpenCubeNode`] — a sans-io state machine implementing
//! [`oc_sim::Protocol`], runnable under the deterministic simulator
//! ([`oc_sim::World`]), the threaded runtime (`oc-runtime`), or scripted by
//! hand.
//!
//! ## Quickstart
//!
//! ```
//! use oc_algo::{Config, OpenCubeNode};
//! use oc_sim::{SimConfig, SimDuration, SimTime, World};
//! use oc_topology::NodeId;
//!
//! // An 8-node system: δ = 10 ticks, critical sections take ≤ 50 ticks.
//! let config = Config::new(
//!     8,
//!     SimDuration::from_ticks(10),
//!     SimDuration::from_ticks(50),
//! );
//! let mut world = World::new(SimConfig::default(), OpenCubeNode::build_all(config));
//!
//! // Three nodes want the critical section.
//! world.schedule_request(SimTime::from_ticks(5), NodeId::new(6));
//! world.schedule_request(SimTime::from_ticks(7), NodeId::new(3));
//! world.schedule_request(SimTime::from_ticks(9), NodeId::new(8));
//! assert!(world.run_to_quiescence());
//!
//! assert_eq!(world.metrics().cs_entries, 3);
//! assert!(world.oracle_report().is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

mod config;
mod enquiry;
mod fair_queue;
mod message;
mod mint;
mod node;
mod ringset;
mod search;

pub use config::{Config, Hardening, Mutation};
pub use message::{AnswerKind, EnquiryStatus, Msg};
pub use node::OpenCubeNode;
pub use ringset::{RingSet, RingSetIter};

use oc_topology::NodeId;

/// Reconstructs the global father graph from the nodes' local pointers —
/// the simulator-side view used by quiescence oracles. Entry `k` is the
/// father of node `k + 1`.
#[must_use]
pub fn father_table(world: &oc_sim::World<OpenCubeNode>) -> Vec<Option<NodeId>> {
    NodeId::all(world.len()).map(|id| world.node(id).father()).collect()
}
