//! Filing a time-ordered schedule costs the queue a cursor, not an entry
//! per arrival: `World::schedule_workload` of 100 000 sorted arrivals must
//! allocate a constant handful of bytes — the one stretch of the input
//! tier's run that points into the shared arrivals — where filing them one
//! by one allocates a buffer that holds them all. An unsorted schedule is
//! still filed one by one, and is the control that shows the counter sees
//! such a buffer.
//!
//! `harness = false` for the reason `steady_state.rs` gives: libtest's own
//! threads would allocate inside the measured window.

use oc_algo::{Config, OpenCubeNode};
use oc_audit::CountingAlloc;
use oc_sim::{ArrivalSchedule, SimConfig, SimDuration, World};
use rand::{rngs::StdRng, SeedableRng};

const ARRIVALS: usize = 100_000;

/// What filing a whole sorted schedule may cost, at most: a few
/// allocations for the input tier's first buffers, whatever the length.
const BOUND: (u64, u64) = (4, 1_024);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `(allocations, bytes)` spent filing `schedule` into a fresh world.
fn filing_cost(schedule: &ArrivalSchedule) -> (u64, u64) {
    let cfg = Config::new(64, SimDuration::from_ticks(10), SimDuration::from_ticks(25));
    let mut world = World::new(SimConfig::default(), OpenCubeNode::build_all(cfg));
    let before = ALLOC.snapshot();
    world.schedule_workload(schedule);
    let after = ALLOC.snapshot();
    assert_eq!(world.requests_injected(), schedule.len() as u64);
    (after.0 - before.0, after.1 - before.1)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let sorted = ArrivalSchedule::uniform(&mut rng, 64, ARRIVALS, SimDuration::from_ticks(25));
    let cost = filing_cost(&sorted);
    assert!(
        cost.0 <= BOUND.0 && cost.1 <= BOUND.1,
        "filing {ARRIVALS} sorted arrivals cost {cost:?} (allocations, bytes), over {BOUND:?}"
    );

    // The same arrivals, last one first: out of time order, so filed one
    // by one, and the tier's buffers grow with the schedule.
    let reversed: ArrivalSchedule = sorted.arrivals().iter().rev().copied().collect();
    let control = filing_cost(&reversed);
    assert!(
        control.1 >= (ARRIVALS * 24) as u64,
        "the unsorted control should pay per arrival: {control:?}"
    );
    println!(
        "schedule audit: {ARRIVALS} sorted arrivals filed for {} allocations and {} B \
         ({} B filed one by one) — ok",
        cost.0, cost.1, control.1
    );
}
