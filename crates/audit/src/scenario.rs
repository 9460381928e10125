//! The audited scenario: a crash-free open-cube run under sustained
//! contention, trace disabled — exactly the configuration whose per-event
//! loop is claimed allocation-free once warm.
//!
//! Crash-free is deliberate: the protocol's recovery allocates by design
//! (a node's first search builds its search state and fault-path
//! counters — `tests/steady_state.rs` pins that count; the queue purge
//! itself is held to zero by `tests/retain_purge.rs`), and the
//! zero-allocation claim is about the *steady state* between faults,
//! where throughput is earned.

use oc_algo::{Config, OpenCubeNode};
use oc_sim::{ArrivalSchedule, DelayModel, SimConfig, SimDuration, World};
use rand::{rngs::StdRng, SeedableRng};

/// Mean message delay bound δ used by the scenario, in ticks.
pub const DELTA: u64 = 10;
/// Critical-section duration, in ticks.
pub const CS: u64 = 25;
/// Gap between arrivals on the uniform schedule, in ticks.
pub const GAP: u64 = 40;

/// Builds the world: `n` nodes, `requests` uniformly-scattered CS
/// requests (all scheduled up front, so injection itself is outside any
/// measured window), no faults, no trace.
#[must_use]
pub fn steady_state_world(n: usize, requests: usize, seed: u64) -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed,
        record_trace: false,
        max_events: u64::MAX,
        ..SimConfig::default()
    };
    let cfg = Config::new(n, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(2_000));
    let mut nodes = OpenCubeNode::build_all(cfg);
    for node in &mut nodes {
        // At most one queued remote claim per peer: `n` slots is the
        // worst case, so warm queues never grow during the run.
        node.reserve_queue(n);
    }
    let mut world = World::new(sim, nodes);
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, requests, SimDuration::from_ticks(GAP));
    world.schedule_workload(&schedule);
    // The event heap grows by doubling whenever in-flight load sets a new
    // peak, which warmup alone cannot promise to have reached; pre-size it
    // so the measured stretch starts at capacity.
    world.reserve_events(8_192);
    world
}
