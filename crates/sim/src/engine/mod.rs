//! The simulation engine core: the pieces of the substrate that have to
//! scale to hundreds of thousands of nodes and tens of millions of events.
//!
//! The engine is deliberately separate from the *policy* layers around it
//! ([`crate::world`] for virtual time, `oc-runtime` for real threads):
//!
//! * [`calendar`] — the bucketed calendar, [`crate::queue::EventQueue`]'s
//!   second backend: O(1) near-future scheduling with a heap fallback for
//!   far-future events, preserving the exact `(time, seq)` pop order of
//!   the binary heap. No [`crate::World`] runs on it; the queue-level
//!   probes and tests that name it are all that keep it.
//! * [`timers`] — the simulator's table of armed timers, sized by what is
//!   armed: generations with lazy cancellation for the virtual clock; and
//!   the live-armings-only wall-clock deadline set both real-time
//!   substrates share.
//! * [`driver`] — the one place that turns a [`crate::Protocol`]'s emitted
//!   [`crate::Action`]s into substrate effects. Both [`crate::World`] and
//!   `oc-runtime` route through [`driver::drive`], so the sans-io contract
//!   (every effect goes through the outbox, in order) is enforced once.
//!
//! Everything here is allocation-free per event once warmed up: the outbox
//! buffer, the event heap (or the calendar's buckets) and the timer table
//! all retain their capacity.

pub mod calendar;
pub mod driver;
pub mod timers;

pub use calendar::CalendarQueue;
pub use driver::{drive, drive_recovery, ActionSink};
pub use timers::{DeadlineSet, TimerTable};
