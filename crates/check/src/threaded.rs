//! Runtime-backed scenario execution: the explorer's scenarios played
//! through the *threaded* lock service instead of the simulator.
//!
//! A [`Scenario`] is plain data — arrivals, crash plan, delay envelope,
//! fault window, all in ticks — so the same scenario that fails (or
//! passes) under [`crate::run_scenario`] can be replayed against
//! `oc_runtime::Runtime` by mapping ticks to wall time. The verdict
//! comes back as the same [`Outcome`] type, judged by the same oracles;
//! only determinism is lost (real threads, real clocks), so runtime
//! outcomes are evidence, not fingerprints: equal scenarios give equal
//! *verdicts* on healthy runs, not byte-equal counters.
//!
//! The simulator's `max_events` horizon maps to a wall-clock settle
//! timeout: a run that has not settled when it expires is reported as
//! horizon exhaustion by the liveness oracle, exactly like a sim run
//! that tripped its event cap.

use std::time::Duration;

use oc_algo::{Config, Mutation, OpenCubeNode};
use oc_runtime::{Runtime, RuntimeConfig};
use oc_sim::{ArrivalSchedule, SimDuration, SimTime};
use oc_topology::NodeId;

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

/// Maps `t` scenario ticks onto wall time in pure `u64` nanoseconds
/// (saturating), so large tick horizons don't collapse onto a `u32`
/// clamp the way the pre-fix `Duration::saturating_mul(u32)` code did.
fn ticks(profile: &RuntimeProfile, t: u64) -> Duration {
    let tick_nanos = u64::try_from(profile.tick.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(tick_nanos.saturating_mul(t))
}

/// Plays `scenario` through the threaded runtime and returns its oracle
/// verdict — the same [`Outcome`] shape as the deterministic
/// [`crate::run_scenario`], with `events` counting worker-processed
/// commands instead of simulator events.
#[must_use]
pub fn run_scenario_runtime(
    scenario: &Scenario,
    mutation: Mutation,
    profile: &RuntimeProfile,
) -> Outcome {
    let cfg = Config::new(
        scenario.n,
        SimDuration::from_ticks(scenario.delay_max),
        SimDuration::from_ticks(scenario.cs_ticks),
    )
    .with_contention_slack(SimDuration::from_ticks(scenario.contention_slack))
    .with_mutation(mutation);

    let rt = Runtime::start_scripted(
        RuntimeConfig {
            workers: profile.workers,
            tick: profile.tick,
            // The protocol's δ is `delay_max` ticks; the runtime's delay
            // bound maps it exactly.
            max_network_delay: ticks(profile, scenario.delay_max),
            cs_duration: ticks(profile, scenario.cs_ticks),
            seed: scenario.seed,
            record_trace: false,
            ..RuntimeConfig::default()
        },
        // The scenario's fault script, verbatim: phase windows are in
        // ticks and the runtime evaluates them against its tick clock.
        scenario.fault_script(),
        OpenCubeNode::build_all(cfg),
    );

    let mut schedule = ArrivalSchedule::new();
    for (at, node) in &scenario.arrivals {
        schedule = schedule.then(SimTime::from_ticks(*at), NodeId::new(*node));
    }
    let _ = rt.schedule_workload(&schedule);
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
        // The runtime's report carries no per-kind or epoch accounting;
        // runtime outcomes are verdict evidence, not counter fingerprints
        // (see the module doc), so these stay zero.
        epoch_discards: 0,
        mint_requests: 0,
        mint_acks: 0,
        safety: report.safety,
        liveness: report.liveness,
        coverage: crate::run::CoverageStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_mapping_survives_large_horizons() {
        // The wall-clock arithmetic bugfix: a 2^40-tick horizon at a
        // 20µs tick is ≈ 255 days, far beyond the old u32 tick clamp
        // (u32::MAX ticks ≈ 23 hours at 20µs, under which *every* larger
        // timestamp collapsed to the same instant).
        let profile = RuntimeProfile::default();
        let t = 1u64 << 40;
        assert_eq!(ticks(&profile, t), Duration::from_nanos(t * 20_000));
        let old_clamp = profile.tick.saturating_mul(u32::MAX);
        assert!(ticks(&profile, t) > old_clamp);
        // Saturates instead of wrapping at the u64 nano ceiling.
        assert_eq!(ticks(&profile, u64::MAX), Duration::from_nanos(u64::MAX));
    }
}
