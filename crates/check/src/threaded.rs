//! The runtime-backed runner: a [`Scenario`] played through the threaded
//! lock service's worker cores on one thread in virtual time
//! (`oc_runtime::run_virtual`) instead of the simulator.
//!
//! A scenario is plain data — arrivals, crash plan, delay envelope,
//! fault script, all in ticks — so the same scenario that fails (or
//! passes) under [`crate::run_scenario`] replays against the runtime's
//! worker code by mapping ticks to nanoseconds, and the verdict comes
//! back as the same [`Outcome`], judged by the same oracles. The clock
//! jumps to the earliest due work, a scheduler seeded from the
//! scenario's seed interleaves the workers, and the horizon is
//! `max_events`, as in the simulator: the run is deterministic and plays
//! the 2 000-scenario battery in well under a second. What a runtime
//! outcome can and cannot say is written on [`Outcome`].
//!
//! The workers' OS end — threads, channels, the wall clock — is covered
//! by `oc_runtime`'s own tests and the load harness, not from here: a
//! wall-clock replay cuts any scenario whose schedule outlasts its
//! settle timeout, whatever the protocol did.

use std::time::Duration;

use oc_algo::{Hardening, Mutation, OpenCubeNode};
use oc_runtime::{run_virtual, RuntimeConfig};
use oc_sim::ticks_to_wall;

use crate::run::Outcome;
use crate::scenario::Scenario;

/// The length of one scenario tick on the runtime's nanosecond clock.
const TICK: Duration = Duration::from_micros(20);

/// Plays `scenario` through the threaded runtime's worker cores in
/// virtual time, `workers` of them (`0` means `min(n, 8)`, as on
/// threads), and returns its oracle verdict. A pure function of its
/// arguments.
#[must_use]
pub fn run_scenario_runtime_virtual(
    scenario: &Scenario,
    mutation: Mutation,
    workers: usize,
) -> Outcome {
    let config = RuntimeConfig {
        workers,
        tick: TICK,
        // The protocol's δ is `delay_max` ticks; the runtime's delay
        // bound maps it exactly.
        max_network_delay: ticks_to_wall(scenario.delay_max, TICK),
        cs_duration: ticks_to_wall(scenario.cs_ticks, TICK),
        seed: scenario.seed,
    };
    let report = run_virtual(
        config,
        scenario.fault_script(),
        OpenCubeNode::build_all(scenario.config(mutation, Hardening::None)),
        &scenario.schedule(),
        &scenario.failure_plan(),
        scenario.max_events,
    );
    Outcome {
        drained: report.drained,
        events: report.events_processed,
        messages: report.messages_sent,
        cs_entries: report.cs_entries,
        crashes: report.crashes,
        recoveries: report.recoveries,
        abandoned: report.requests_abandoned,
        lost_to_faults: report.lost_to_faults,
        lost_to_partition: report.lost_to_partition,
        duplicated: report.duplicated_deliveries,
        safety: report.safety,
        liveness: report.liveness,
        ..Outcome::default()
    }
}
