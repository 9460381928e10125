//! # oc-analysis — the paper's analytic results, executable
//!
//! Section 4 of the paper derives the message complexity of the open-cube
//! algorithm; Section 5 derives the cost of `search_father`. This crate
//! encodes those derivations so the experiment harness can print
//! *predicted vs measured* columns for every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complexity;
pub mod stats;

pub use complexity::{
    alpha, average_messages_closed_form, average_messages_exact, expected_ring_probes, ring_size,
    worst_case_messages,
};
pub use stats::{ci95_half_width, mean, Summary};
