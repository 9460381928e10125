//! The runtime-backed runners: a [`Scenario`] played through the
//! threaded lock service's workers instead of the simulator — on real
//! threads against the wall clock, or on one thread in virtual time.
//!
//! A scenario is plain data — arrivals, crash plan, delay envelope,
//! fault script, all in ticks — so the same scenario that fails (or
//! passes) under [`crate::run_scenario`] replays against the runtime's
//! worker code by mapping ticks to nanoseconds, and the verdict comes
//! back as the same [`Outcome`], judged by the same oracles. What a
//! runtime outcome can and cannot say is written on [`Outcome`].
//!
//! * [`run_scenario_runtime`] runs `oc_runtime::Runtime` on real
//!   threads: the explorer's replays and the socket deployment's
//!   differential twin call it. The simulator's `max_events` horizon
//!   becomes a wall-clock settle timeout, and a run that has not settled
//!   when it expires is reported as horizon exhaustion by the liveness
//!   oracle, like a sim run that tripped its event cap. A scenario whose
//!   schedule runs past the timeout is cut there whatever the protocol
//!   did: 8 of the first 40 scenarios of the seed-42 default battery
//!   have crash plans of 1.16–2.49 M ticks, 23–50 s at the default
//!   20 µs tick, and a 20 s timeout cuts every one of them.
//! * [`run_scenario_runtime_virtual`] runs the same worker cores in
//!   virtual time (`oc_runtime::run_virtual`): the clock jumps to the
//!   earliest due work, a scheduler seeded from the scenario's seed
//!   interleaves the workers, and the horizon is `max_events`, as in the
//!   simulator. It is deterministic and plays the 2 000-scenario
//!   battery in well under a second — the runner that holds the
//!   runtime to the explorer's battery.

use std::time::Duration;

use oc_algo::{Hardening, Mutation, OpenCubeNode};
use oc_runtime::{run_virtual, Runtime, RuntimeConfig, RuntimeReport};
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

/// The runtime configuration a scenario maps to at `tick` per tick.
fn runtime_config(scenario: &Scenario, tick: Duration, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        tick,
        // The protocol's δ is `delay_max` ticks; the runtime's delay
        // bound maps it exactly.
        max_network_delay: ticks_to_wall(scenario.delay_max, tick),
        cs_duration: ticks_to_wall(scenario.cs_ticks, tick),
        seed: scenario.seed,
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
        runtime_config(scenario, profile.tick, profile.workers),
        // The scenario's fault script, verbatim: phase windows are in
        // ticks and the runtime evaluates them against its tick clock.
        scenario.fault_script(),
        OpenCubeNode::build_all(scenario.config(mutation, Hardening::None)),
    );
    let _ = rt.schedule_workload(&scenario.schedule());
    rt.schedule_failures(&scenario.failure_plan());

    let _ = rt.await_settled(profile.settle_timeout);
    outcome_of(rt.shutdown())
}

/// Plays `scenario` through the threaded runtime's worker cores in
/// virtual time, `workers` of them (`0` means `min(n, 8)`, as on
/// threads), at [`RuntimeProfile`]'s default tick, and returns its
/// oracle verdict. A pure function of its arguments.
#[must_use]
pub fn run_scenario_runtime_virtual(
    scenario: &Scenario,
    mutation: Mutation,
    workers: usize,
) -> Outcome {
    let report = run_virtual(
        runtime_config(scenario, RuntimeProfile::default().tick, workers),
        scenario.fault_script(),
        OpenCubeNode::build_all(scenario.config(mutation, Hardening::None)),
        &scenario.schedule(),
        &scenario.failure_plan(),
        scenario.max_events,
    );
    outcome_of(report)
}

/// The verdict and the counters a runtime report carries.
fn outcome_of(report: RuntimeReport) -> Outcome {
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
