//! The world-reuse allocation gate: `World::reset` of a warm world, given
//! nodes and a configuration built outside the measured window, must not
//! allocate a single byte, and neither must judging the run that follows
//! (`World::horizon`). Every buffer a scenario needs — the flag vectors,
//! the timer table, the pending-request store, the queue's heaps and run,
//! the outbox, the oracle, the trace and the horizon — was grown by an
//! earlier run at least as large; a reset empties and refills them in
//! place. That is what lets every explorer runner keep one world per
//! thread (`oc_check::run_scenario`).
//!
//! The configurations carry no fault script: a reset compiles a script's
//! phases afresh, so a scripted reset allocates what its phases hold.
//!
//! `harness = false` for the reason `steady_state.rs` gives: libtest's own
//! threads would allocate inside the measured window.

use oc_algo::{Config, OpenCubeNode};
use oc_audit::CountingAlloc;
use oc_sim::{DelayModel, SimConfig, SimDuration, SimTime, World};
use oc_topology::NodeId;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The largest population: the warm-up runs at it.
const LARGEST: usize = 64;

fn nodes(n: usize) -> Vec<OpenCubeNode> {
    let cfg = Config::new(n, SimDuration::from_ticks(10), SimDuration::from_ticks(30))
        .with_contention_slack(SimDuration::from_ticks(2_000));
    OpenCubeNode::build_all(cfg)
}

fn config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(10),
        },
        cs_duration: SimDuration::from_ticks(30),
        seed,
        max_events: 1_000_000,
        ..SimConfig::default()
    }
}

/// Files a request on every node and a crash/recover pair on node 2, and
/// runs the world to quiescence.
fn play(world: &mut World<OpenCubeNode>) -> bool {
    let n = world.len() as u32;
    for (k, raw) in (1..=n).cycle().take(3 * n as usize).enumerate() {
        world.schedule_request(SimTime::from_ticks(1 + 5 * k as u64), NodeId::new(raw));
    }
    world.schedule_failure(SimTime::from_ticks(40), NodeId::new(2));
    world.schedule_recovery(SimTime::from_ticks(600), NodeId::new(2));
    world.run_to_quiescence()
}

fn main() {
    // Warm-up: the largest shape, run and judged, so every buffer has
    // held as much as a later run of at most that size needs.
    let mut world = World::new(config(1), nodes(LARGEST));
    let drained = play(&mut world);
    world.horizon(drained);

    let mut resets = 0;
    for (seed, n) in [2, LARGEST, 16, 4, 32, 8].into_iter().enumerate() {
        let (population, config) = (nodes(n), config(seed as u64 + 2));
        oc_audit::trap_next_allocation();
        let before = ALLOC.snapshot();
        world.reset(config, population);
        let after = ALLOC.snapshot();
        oc_audit::disarm_allocation_trap();
        assert_eq!(before, after, "resetting a warm world for n = {n} touched the heap");
        resets += 1;

        let drained = play(&mut world);
        assert!(drained, "n = {n} quiesced");
        oc_audit::trap_next_allocation();
        let before = ALLOC.snapshot();
        let (horizon, _) = world.horizon(drained);
        assert_eq!(horizon.nodes.len(), n);
        let after = ALLOC.snapshot();
        oc_audit::disarm_allocation_trap();
        assert_eq!(before, after, "judging a warm world of n = {n} touched the heap");
        assert!(world.oracle_report().is_clean());
    }
    println!("world reset audit: 0 allocations across {resets} resets and their judgements — ok");
}
