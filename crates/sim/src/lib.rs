//! # oc-sim — deterministic discrete-event simulation substrate
//!
//! The Hélary–Mostefaoui algorithm assumes only:
//!
//! * reliable asynchronous channels (messages neither lost nor corrupted,
//!   possibly delivered out of order),
//! * a known upper bound δ on message delay between live nodes,
//! * fail-stop node crashes that destroy the node's state **and** all
//!   messages in transit toward it.
//!
//! This crate implements exactly that contract as a seeded, fully
//! deterministic discrete-event simulator, so the paper's message-count
//! experiments can be regenerated bit-for-bit.
//!
//! Protocols are *sans-io* state machines implementing [`Protocol`]: they
//! consume [`NodeEvent`]s and emit [`Action`]s into an [`Outbox`]. The same
//! state machine also runs unchanged on the real threaded runtime
//! (`oc-runtime`).
//!
//! See the `examples/` directory at the workspace root for complete
//! protocols driven through [`World`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod outbox;
mod pending;
mod time;

pub mod channel;
pub mod choices;
pub mod crash;
pub mod engine;
pub mod hash;
pub mod liveness;
pub mod metrics;
pub mod oracle;
pub mod protocol;
pub mod queue;
pub mod trace;
pub mod workload;
pub mod world;

pub use channel::{CompiledScript, DelayModel, FaultPhase, FaultPhaseKind, FaultScript, LinkFate};
pub use choices::{Choices, Draw, Tape};
pub use crash::FailurePlan;
pub use engine::{drive, drive_recovery, ActionSink, DeadlineSet, TimerTable};
pub use hash::Fnv64;
pub use liveness::{
    check_horizon, check_liveness, isolation_from_components, Horizon, LivenessReport,
    LivenessViolation, NodeAtHorizon,
};
pub use metrics::{Counter, Metrics, MsgKind};
pub use oracle::{Oracle, OracleReport, Violation};
pub use outbox::Outbox;
pub use protocol::{Action, MessageKind, NodeEvent, Protocol};
pub use queue::{EventQueue, QueueBackend};
pub use time::{ticks_to_wall, SimDuration, SimTime};
pub use trace::{Trace, TraceRecord};
pub use workload::{ArrivalSchedule, Arrivals};
pub use world::{Checkpoint, SimConfig, World};
