//! The runtime-backed runner: a [`Scenario`] played through the
//! *threaded* lock service instead of the simulator.
//!
//! A scenario is plain data — arrivals, crash plan, delay envelope,
//! fault script, all in ticks — so the same scenario that fails (or
//! passes) under [`crate::run_scenario`] replays against
//! `oc_runtime::Runtime` by mapping ticks to wall time, and the verdict
//! comes back as the same [`Outcome`], judged by the same oracles. This
//! is the one runner over the runtime: the explorer's replays and the
//! socket deployment's differential twin both call it. What a runtime
//! outcome can and cannot say is written on [`Outcome`].
//!
//! The simulator's `max_events` horizon maps to a wall-clock settle
//! timeout: a run that has not settled when it expires is reported as
//! horizon exhaustion by the liveness oracle, exactly like a sim run
//! that tripped its event cap.

use std::time::Duration;

use oc_algo::{Hardening, Mutation, OpenCubeNode};
use oc_runtime::{Runtime, RuntimeConfig};
use oc_sim::ticks_to_wall;

use crate::run::Outcome;
use crate::scenario::Scenario;

/// Wall-clock mapping for a runtime-backed scenario run.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeProfile {
    /// Real-time length of one scenario tick.
    pub tick: Duration,
    /// Worker threads for the node shards.
    pub workers: usize,
    /// How long to wait for the run to settle before cutting the horizon.
    pub settle_timeout: Duration,
}

impl Default for RuntimeProfile {
    fn default() -> Self {
        RuntimeProfile {
            tick: Duration::from_micros(20),
            workers: 4,
            settle_timeout: Duration::from_secs(30),
        }
    }
}

/// Plays `scenario` through the threaded runtime and returns its oracle
/// verdict.
#[must_use]
pub fn run_scenario_runtime(
    scenario: &Scenario,
    mutation: Mutation,
    profile: &RuntimeProfile,
) -> Outcome {
    let rt = Runtime::start_scripted(
        RuntimeConfig {
            workers: profile.workers,
            tick: profile.tick,
            // The protocol's δ is `delay_max` ticks; the runtime's delay
            // bound maps it exactly.
            max_network_delay: ticks_to_wall(scenario.delay_max, profile.tick),
            cs_duration: ticks_to_wall(scenario.cs_ticks, profile.tick),
            seed: scenario.seed,
        },
        // The scenario's fault script, verbatim: phase windows are in
        // ticks and the runtime evaluates them against its tick clock.
        scenario.fault_script(),
        OpenCubeNode::build_all(scenario.config(mutation, Hardening::None)),
    );
    let _ = rt.schedule_workload(&scenario.schedule());
    rt.schedule_failures(&scenario.failure_plan());

    let _ = rt.await_settled(profile.settle_timeout);
    let report = rt.shutdown();
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
