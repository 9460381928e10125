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
//! token mask built per `partition_isolation` call, which a scenario then
//! made twice) it was 42.5 allocations and 7 738 B. Since armed timers and
//! pending request times live in two sparse tables instead of a timer row
//! and a deque per node, a dozen nodes no longer pay a first timer and a
//! first request each: 32.6 allocations and 6 303 B. Since a queued local
//! `enter_cs` call is a count rather than a slot in a per-node buffer, and
//! the runner judges liveness from the one isolation mask it builds for
//! its coverage block: 30.5 allocations and 6 165 B. Since a son whose
//! re-sent claim waits at its prober answers silence, the battery makes
//! 14 allocations and 1 464 B fewer: 30.5 allocations and 6 164 B. Since
//! a node counts through its outbox instead of in its fault box, the
//! battery makes 3 allocations and 237 464 B fewer: 15 fault boxes are
//! no longer allocated just to count (−15, −1 920 B), the other 4 261
//! shrink from 128 to 72 B (−238 616 B), and count actions grow the
//! outbox 12 times (+12, +3 072 B): 30.5 allocations and 6 045 B. Since
//! a thread keeps one world and every runner resets it in place, files a
//! scenario's crashes without building a failure plan and judges the
//! horizon in a buffer the world keeps, a warm world costs the battery
//! nothing (`world_reset.rs`): what is left is the nodes the runner builds
//! (their vector and shared configuration), a duplication window's
//! script, and the protocol's own fault-path state — 10.9 allocations and
//! 2 055 B (21 833 allocations and 4 109 418 B in all). Since the
//! generated tier keeps a sorted front of 16 entries over its heap, the
//! thread's kept world grows that front once, to 4, 8 and then 16 entries
//! of 48 B: 3 allocations and 1 344 B more across the whole battery, none
//! per scenario. Since every draw goes through one `oc_sim::Choices` (a
//! generator and its optional record, where a bare generator was), the
//! world is 24 B larger, and the thread's one boxed world with it: 24 B
//! more across the battery, no allocation more — the figures below.
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
const PINNED: (u64, u64) = (21_836, 4_110_786);

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
