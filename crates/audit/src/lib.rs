//! Allocation audit harness for the simulator's hot path.
//!
//! The engine's performance story rests on a discipline, not a guess: in
//! steady state — warm capacities, no crashes in flight, trace disabled —
//! processing an event allocates *nothing*. Dispatch reuses the shared
//! outbox, `Core::send` goes straight to the event queue, timer rows
//! retain capacity, `RingSet` search bookkeeping recycles its buffers, and
//! metrics are flat counters. This crate turns that discipline into a
//! regression gate: a counting global allocator plus a scripted
//! warmup-then-measure run that fails the moment the steady-state loop
//! touches the heap.
//!
//! It lives outside the workspace lint umbrella because implementing
//! [`GlobalAlloc`] is inherently `unsafe`; the two methods below delegate
//! verbatim to [`System`] and only add relaxed atomic counting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// When set, the next allocation prints a backtrace and aborts — the
/// fastest way to find *who* broke the zero-allocation discipline.
/// Cleared before capturing, so the capture's own allocations pass.
static TRAP_ARMED: AtomicBool = AtomicBool::new(false);

/// Arms [`TRAP_ARMED`]: the next allocation anywhere in the process
/// aborts with a backtrace pointing at the exact allocation site — far
/// more useful than a count mismatch when the gate fails.
pub fn trap_next_allocation() {
    TRAP_ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the trap (e.g. before printing a success message, which may
/// lazily allocate stdout's buffer).
pub fn disarm_allocation_trap() {
    TRAP_ARMED.store(false, Ordering::SeqCst);
}

/// A [`System`]-delegating allocator that counts every allocation and the
/// bytes it requested. Install with `#[global_allocator]` in the harness
/// binary, then bracket the region under audit with [`CountingAlloc::snapshot`].
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter (all zeros).
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// The `(allocation count, bytes requested)` totals so far. Reallocs
    /// count as one allocation of the new size; frees do not count here
    /// — this pair asks "did the hot loop touch the heap at all", and a
    /// steady-state loop must neither grow nor churn.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64) {
        (self.allocs.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }

    /// Bytes allocated and not yet freed. This one asks "does the loop
    /// keep what it allocates": a structure that holds dead entries
    /// churns like a healthy one but grows.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method delegates directly to `System`, which upholds
// the `GlobalAlloc` contract; the added atomic counting has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRAP_ARMED.swap(false, Ordering::SeqCst) {
            eprintln!(
                "allocation trap: {} bytes\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            std::process::abort();
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRAP_ARMED.swap(false, Ordering::SeqCst) {
            eprintln!(
                "allocation trap: {} bytes\n{}",
                new_size,
                std::backtrace::Backtrace::force_capture()
            );
            std::process::abort();
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        // Wrapping: the net of the two is what the block grew or shrank by.
        self.live
            .fetch_add((new_size as u64).wrapping_sub(layout.size() as u64), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRAP_ARMED.swap(false, Ordering::SeqCst) {
            eprintln!(
                "allocation trap: {} bytes\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            std::process::abort();
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        self.live.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

pub mod scenario;
