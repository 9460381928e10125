//! # oc-transport — the socket substrate
//!
//! Runs the open-cube protocol as *real processes over real sockets*:
//! one `OpenCubeNode` per OS process, peers wired by TCP or Unix-domain
//! streams, crash injection by SIGKILL, judged post hoc by the same
//! unmodified `oc-sim` oracles every other substrate answers to.
//!
//! Layering, bottom up:
//!
//! * [`net`] — one [`net::Stream`] abstraction over `TcpStream` and
//!   `UnixStream`, plus the [`net::Cluster`] endpoint map;
//! * [`frame`] — length-prefixed framing: the only synchronization the
//!   byte stream has, so payload garbage can never desync a link;
//! * [`wire`] — the control-plane [`wire::Frame`] codec: peer envelopes
//!   (embedding the protocol message in its canonical `oc_algo::codec`
//!   bytes, byte-for-byte), the client session API, and orchestration;
//! * [`hlc`] — hybrid logical clocks, the merge order of event logs;
//! * [`log`] — per-process append-only event logs, their stamp-ordered
//!   merge, and the replay into a fresh safety [`oc_sim::Oracle`];
//! * [`proc`] — the socket node's protocol core without I/O: frames in as
//!   bytes with a clock reading, log records and effects out, advanced
//!   through the exact same [`oc_sim::ActionSink`] seam the simulator and
//!   the threaded runtime drive through;
//! * [`nodeproc`] — its OS end: sockets, the host clock, the log file.
//!
//! The orchestrator that spawns node processes, drives workloads, kills
//! and heals on schedule, and merges the logs lives in `oc-bench`
//! (which owns the `oc-node` binary); this crate is the substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod hlc;
pub mod log;
pub mod net;
pub mod nodeproc;
pub mod proc;
pub mod wire;

pub use hlc::{Hlc, Stamp};
pub use log::{decode_log, merge, read_log, replay, whole_len, LogRecord, LogWriter, Replay};
pub use net::{Cluster, Endpoint, Listener, Stream};
pub use nodeproc::{parse_args, run, NodeOptions, DEFAULT_TICK};
pub use proc::{Effect, Input, Output, Proc};
pub use wire::{CompletionStatus, Frame, NodeStatus, WireError};
