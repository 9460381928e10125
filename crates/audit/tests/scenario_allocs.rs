//! What one explorer scenario costs the heap, pinned: 2 000 scenarios of
//! the default space, judged one after the other by `run_scenario` the
//! way every battery, the guided explorer and `check-battery` do it, must
//! make exactly the pinned number of allocations for exactly the pinned
//! number of requested bytes.
//!
//! A scenario is a world of a dozen nodes and a hundred events, so its
//! cost is what building, filling and judging a `World` costs, not
//! stepping. That fixed cost is what this gate watches: with
//! the calendar as the default queue every world built 1 024 empty
//! buckets and an input heap (76.8 allocations and 42.2 KB per scenario);
//! on the binary heap and the sorted input run it was 43.5 allocations and
//! 9 527 B; since the input tier stores 24-byte `Input`s and the world
//! keeps no per-node token caches (three vectors fewer per world, one
//! token mask built per `partition_isolation` call, which a scenario makes
//! twice) it is 42.5 allocations and 7 738 B — the figures below.
//! The run is seeded and single-threaded, so the totals are exact on any
//! host, and a per-world fixed cost that comes back — a table sized for a
//! large run, a buffer allocated before it is needed — fails here the
//! moment it lands, with no clock involved.
//!
//! `harness = false` for the reason `steady_state.rs` gives: libtest's own
//! threads would allocate inside the measured window.

use oc_algo::Mutation;
use oc_audit::CountingAlloc;
use oc_check::{run_scenario, Scenario, Space};

const SCENARIOS: u64 = 2_000;
/// Heap allocations, then bytes requested, across the whole battery.
const PINNED: (u64, u64) = (84_903, 15_475_394);

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let space = Space::default();
    let (mut events, mut failing) = (0u64, 0u64);
    let mut spent = (0u64, 0u64);
    for index in 0..SCENARIOS {
        // Generation is the explorer's own cost, not the world's: outside.
        let scenario = Scenario::generate(&space, 42, index);
        let before = ALLOC.snapshot();
        let outcome = run_scenario(&scenario, Mutation::None);
        let after = ALLOC.snapshot();
        spent = (spent.0 + after.0 - before.0, spent.1 + after.1 - before.1);
        events += outcome.events;
        failing += u64::from(!outcome.is_clean());
    }

    assert_eq!(failing, 0, "the default space at seed 42 is clean");
    assert!(events > 100 * SCENARIOS, "the battery ran: {events} events");
    assert_eq!(
        spent,
        PINNED,
        "(allocations, bytes) across {SCENARIOS} scenarios moved: {:.1} allocations and \
         {:.0} B per scenario now",
        spent.0 as f64 / SCENARIOS as f64,
        spent.1 as f64 / SCENARIOS as f64,
    );
    println!(
        "scenario audit: {:.1} allocations and {:.0} B per scenario across {SCENARIOS} \
         scenarios ({events} events) — ok",
        spent.0 as f64 / SCENARIOS as f64,
        spent.1 as f64 / SCENARIOS as f64,
    );
}
