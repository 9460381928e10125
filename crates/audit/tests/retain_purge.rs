//! The crash purge's allocation gate: `EventQueue::retain` on a warm
//! queue — entries in every tier of either backend — must not allocate a
//! single byte. The purge is written in place (`BinaryHeap::retain`,
//! `Vec::retain`), so this is a property of the code; the
//! `into_iter().filter().collect()` it replaced also measured zero here,
//! but only because the standard library happens to collect a filtered
//! `vec::IntoIter` into its source buffer — an optimisation it does not
//! promise. This gate is what promises it.
//!
//! `harness = false` for the reason `steady_state.rs` gives: libtest's own
//! threads would allocate inside the measured window.

use oc_audit::CountingAlloc;
use oc_sim::{EventQueue, QueueBackend, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Fills every tier. On the bucketed backend (64-tick buckets, a window of
/// 65 536 ticks): the first push lifts `split` to 64, so ticks below it
/// stay in `near`; 7-tick spacing then spreads the rest over ~450 buckets;
/// ticks from 1 000 000 overflow. Inputs interleave with all three ranges.
fn warm_queue(backend: QueueBackend) -> EventQueue<u32> {
    let mut q = EventQueue::with_backend(backend);
    for i in 0..4_096u32 {
        q.push(SimTime::from_ticks(u64::from(i) * 7), i);
    }
    for i in 0..1_024u32 {
        q.push(SimTime::from_ticks(1_000_000 + u64::from(i) * 1_000), 4_096 + i);
        q.push_input(SimTime::from_ticks(u64::from(i) * 1_500), 3 * i);
    }
    q
}

fn main() {
    for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
        let mut q = warm_queue(backend);
        let len = q.len();

        oc_audit::trap_next_allocation();
        let before = ALLOC.snapshot();
        let dropped = q.retain(|e| e % 3 != 0);
        let after = ALLOC.snapshot();
        oc_audit::disarm_allocation_trap();

        assert_eq!(before, after, "retain allocated on {backend:?}: {before:?} -> {after:?}");
        // A third of the 5 120 generated entries (payloads 0, 3, .., 5 118)
        // and none of the inputs, though every input payload is one the
        // predicate rejects.
        assert_eq!(dropped, 1_707, "{backend:?}");
        assert_eq!(q.len(), len - dropped);
        let mut last = SimTime::from_ticks(0);
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "{backend:?} popped out of order after the purge");
            last = at;
        }
    }
    println!("retain audit: 0 allocations purging 1 707 of 5 120 entries on both backends — ok");
}
