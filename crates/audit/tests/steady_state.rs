//! The zero-allocation regression gate: after a warmup phase establishes
//! every capacity (the event heap, the armed-timer table, node work
//! queues, the shared outbox, the pending-request store), a measured
//! stretch of the same run must not allocate a single byte.
//!
//! The run is seeded and single-threaded, so this is a deterministic
//! property, not a flaky threshold: a heap touch introduced anywhere in
//! the dispatch loop — `Core::send`, timer arming, search bookkeeping,
//! metrics, the oracle's census — fails it reproducibly, and the armed
//! trap aborts with a backtrace at the exact allocation site.
//!
//! A third stretch then runs crash/recover pairs. The simulator's share
//! of a crash — the purge of the pending queue — allocates nothing (see
//! `retain_purge.rs`), but the protocol's recovery does: a node's first
//! search allocates its search state and ring sets, and its fault-path
//! counters, and a search's rings grow with the rings it probes. So that
//! stretch is not held to zero; its allocation count is pinned, and a
//! change that makes a failure cost more heap traffic shows here. (It was
//! 399 while the calendar was the default queue: the probe bursts of
//! `search_father` kept lifting buckets to new peaks. It was 303 while a
//! crash dropped the search state the recovery search now reuses, and
//! each node kept its own timer row and pending-request deque.)
//!
//! This is a `harness = false` test on purpose: libtest runs tests on
//! spawned threads whose channel machinery allocates while the test body
//! runs, polluting the process-global counter.

use oc_audit::{scenario, CountingAlloc};
use oc_sim::{SimDuration, SimTime};
use oc_topology::NodeId;

/// Heap allocations across the eight crash/recover pairs of the third
/// stretch: seeded and single-threaded, so exact.
const RECOVERY_ALLOCATIONS: u64 = 274;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let mut world = scenario::steady_state_world(64, 6_000, 42);
    // Warmup: a third of the schedule. Arrivals span requests × gap ticks.
    let drained = world.run_until(SimTime::from_ticks(80_000));
    assert!(!drained, "warmup consumed the whole schedule");
    let warm_events = world.metrics().events_processed;

    oc_audit::trap_next_allocation();
    let before = ALLOC.snapshot();
    world.run_until(SimTime::from_ticks(160_000));
    let after = ALLOC.snapshot();
    oc_audit::disarm_allocation_trap();

    let measured = world.metrics().events_processed - warm_events;
    assert!(measured > 10_000, "measured window too small: {measured} events");
    assert_eq!(
        before, after,
        "steady-state loop touched the heap across {measured} events \
         (allocations, bytes): {before:?} -> {after:?}"
    );
    println!("steady-state audit: 0 allocations across {measured} events — ok");

    // Eight crash/recover pairs over the last third of the schedule, on
    // nodes spread across the cube (never node 1, the initial root).
    for k in 0..8u32 {
        let at = SimTime::from_ticks(165_000 + 9_000 * u64::from(k));
        let victim = NodeId::new(2 + 7 * k);
        world.schedule_failure(at, victim);
        world.schedule_recovery(at + SimDuration::from_ticks(3_000), victim);
    }
    let (before, _) = ALLOC.snapshot();
    world.run_until(SimTime::from_ticks(240_000));
    let (after, _) = ALLOC.snapshot();
    assert_eq!((world.metrics().crashes, world.metrics().recoveries), (8, 8));
    assert_eq!(
        after - before,
        RECOVERY_ALLOCATIONS,
        "heap allocations across 8 crash/recover pairs moved"
    );
    assert!(world.oracle_report().is_clean());
    println!(
        "recovery audit: {RECOVERY_ALLOCATIONS} allocations across 8 crash/recover pairs — ok"
    );
}
