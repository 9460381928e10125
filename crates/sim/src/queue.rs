//! The deterministic event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties in virtual time are
//! broken by insertion order, so a run is a pure function of the
//! configuration and seed.
//!
//! # Two tiers, one order
//!
//! The queue keeps two stores that draw their sequence numbers from one
//! counter and pop as one `(time, seq)`-ordered stream:
//!
//! * the *generated* tier ([`EventQueue::push`]) holds what a run creates
//!   as it goes — deliveries, timers, CS exits. It is the only tier
//!   [`EventQueue::retain`] inspects, so a crash purge costs what is in
//!   flight, not what is scheduled.
//! * the *input* tier ([`EventQueue::push_input`]) holds what is injected
//!   from outside — workload arrivals, the failure plan. A binary heap
//!   (fronted by a short run of the next few inputs in order) that
//!   `retain` never visits: a long horizon of pre-scheduled inputs adds
//!   nothing to the cost of a purge.
//!
//! Which tier an event belongs to is the caller's knowledge, stated by the
//! method it calls; the queue puts no bound on `E`.
//!
//! # Backends
//!
//! Two interchangeable backends store the generated tier:
//!
//! * [`QueueBackend::Bucketed`] — the default: the engine's
//!   [calendar queue](crate::engine::calendar), O(1) near-future
//!   scheduling with a heap fallback for far-future events.
//! * [`QueueBackend::Heap`] — a plain binary heap, kept as the reference
//!   implementation; the cross-backend determinism test holds both to
//!   byte-identical traces.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::engine::calendar::{CalendarQueue, Entry};
use crate::time::SimTime;

/// Which data structure orders the pending events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Binary heap over all pending events: O(log n) everywhere. The
    /// reference backend.
    Heap,
    /// Bucketed calendar with heap overflow: O(1) near-future pushes. The
    /// production default.
    #[default]
    Bucketed,
}

/// Ticks covered by one calendar bucket. Sized for the workloads this
/// repository simulates: delivery delays and CS durations are tens of
/// ticks, so the hot traffic lands within a few buckets of the cursor.
const DEFAULT_BUCKET_WIDTH: u64 = 64;

#[derive(Debug, Clone)]
enum Store<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Bucketed(CalendarQueue<E>),
}

/// Inputs moved from the heap to the in-order run per refill. A run of
/// a million arrivals holds a heap of hundreds of megabytes; popping it
/// once per arrival, between events that each touch other memory, walks
/// it cold every time (−6 % on the n = 2^20 run against a queue with no
/// input tier), where a burst of pops walks it warm.
const INPUT_BURST: usize = 1024;

/// The input tier: a heap of everything scheduled from outside, fronted by
/// the next few inputs in pop order.
#[derive(Debug, Clone)]
struct Inputs<E> {
    /// The earliest inputs, ascending; every key here is below every key in
    /// `far`. Refilled from `far` in bursts of [`INPUT_BURST`].
    next: VecDeque<Entry<E>>,
    /// Everything else.
    far: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> Inputs<E> {
    fn len(&self) -> usize {
        self.next.len() + self.far.len()
    }

    fn push(&mut self, entry: Entry<E>) {
        if self.next.back().is_some_and(|last| entry < *last) {
            let at = self.next.partition_point(|e| *e < entry);
            self.next.insert(at, entry);
        } else {
            self.far.push(Reverse(entry));
        }
    }

    fn head(&self) -> Option<&Entry<E>> {
        self.next.front().or_else(|| self.far.peek().map(|Reverse(e)| e))
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.next.is_empty() {
            let burst = INPUT_BURST.min(self.far.len());
            self.next.extend((0..burst).filter_map(|_| self.far.pop()).map(|Reverse(e)| e));
        }
        self.next.pop_front()
    }
}

/// A deterministic min-priority queue of simulation events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The generated tier, on the chosen backend.
    store: Store<E>,
    /// The input tier: never purged, so never scanned by `retain`.
    inputs: Inputs<E>,
    /// Shared by both tiers: `(at, seq)` keys are unique across the queue.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (bucketed) backend.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on the given backend.
    #[must_use]
    pub fn with_backend(backend: QueueBackend) -> Self {
        let store = match backend {
            QueueBackend::Heap => Store::Heap(BinaryHeap::new()),
            QueueBackend::Bucketed => Store::Bucketed(CalendarQueue::new(DEFAULT_BUCKET_WIDTH)),
        };
        EventQueue {
            store,
            inputs: Inputs { next: VecDeque::new(), far: BinaryHeap::new() },
            next_seq: 0,
        }
    }

    /// The backend this queue runs on.
    #[must_use]
    pub fn backend(&self) -> QueueBackend {
        match self.store {
            Store::Heap(_) => QueueBackend::Heap,
            Store::Bucketed(_) => QueueBackend::Bucketed,
        }
    }

    /// Pre-sizes the store for sustained load: on the bucketed backend,
    /// every calendar bucket gets capacity for `per_bucket` entries and
    /// the internal heaps room for `heap` more each; the plain heap
    /// backend reserves `heap`. Purely a capacity hint — behaviour is
    /// unchanged, but a warm queue keeps the steady-state event loop
    /// allocation-free (see the `oc-audit` crate).
    pub fn reserve(&mut self, per_bucket: usize, heap: usize) {
        match &mut self.store {
            Store::Heap(binary_heap) => binary_heap.reserve(heap),
            Store::Bucketed(calendar) => calendar.reserve(per_bucket, heap),
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules a run-generated `event` at virtual time `at`: it is
    /// visible to [`EventQueue::retain`].
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.take_seq();
        match &mut self.store {
            Store::Heap(heap) => heap.push(Reverse(Entry { at, seq, event })),
            Store::Bucketed(calendar) => calendar.push(at, seq, event),
        }
    }

    /// Schedules an externally injected `event` at virtual time `at`. It
    /// pops in the same `(time, seq)` order as everything else, but
    /// [`EventQueue::retain`] never sees it: use this only for events no
    /// purge may drop.
    pub fn push_input(&mut self, at: SimTime, event: E) {
        let seq = self.take_seq();
        self.inputs.push(Entry { at, seq, event });
    }

    /// The `(time, seq)` key of the generated tier's earliest event.
    fn generated_key(&self) -> Option<(SimTime, u64)> {
        match &self.store {
            Store::Heap(heap) => heap.peek().map(|Reverse(e)| (e.at, e.seq)),
            Store::Bucketed(calendar) => calendar.peek_key(),
        }
    }

    /// `true` when the next event in `(time, seq)` order is an input.
    fn input_is_next(&self) -> bool {
        self.inputs.head().is_some_and(|input| {
            self.generated_key().is_none_or(|head| (input.at, input.seq) < head)
        })
    }

    /// Moves the earliest input, which precedes every generated event,
    /// to the head of the generated store under its own `(at, seq)`.
    /// Out of line: one pop in fourteen takes it on the densest workload.
    #[cold]
    #[inline(never)]
    fn stage_input(&mut self) {
        let Some(Entry { at, seq, event }) = self.inputs.pop() else { return };
        match &mut self.store {
            Store::Heap(heap) => heap.push(Reverse(Entry { at, seq, event })),
            Store::Bucketed(calendar) => calendar.push_head(at, seq, event),
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    ///
    /// An input that is next is first staged at the head of the generated
    /// store and popped from there by this same call, so no purge can ever
    /// meet it and every event reaches the caller through one path. That
    /// is for the engine's hot loop: returning from two stores made *every*
    /// pop copy its entry through a temporary (two producers of one return
    /// value, and the call no longer inlined), which cost the n = 2^20 run
    /// 12 % of its throughput with the input tier empty; this shape, forced
    /// inline, measures level with a queue that has no second tier.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.input_is_next() {
            self.stage_input();
        }
        match &mut self.store {
            Store::Heap(heap) => heap.pop().map(|Reverse(e)| (e.at, e.event)),
            Store::Bucketed(calendar) => calendar.pop(),
        }
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let generated = self.generated_key().map(|(at, _)| at);
        let input = self.inputs.head().map(|e| e.at);
        generated.into_iter().chain(input).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
            + match &self.store {
                Store::Heap(heap) => heap.len(),
                Store::Bucketed(calendar) => calendar.len(),
            }
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every generated event ([`EventQueue::push`]) that fails the
    /// predicate, in place. Used when a node crashes: in-flight messages
    /// toward it are destroyed. Inputs ([`EventQueue::push_input`]) are not
    /// offered to the predicate.
    ///
    /// Returns the number of dropped events.
    pub fn retain<F: FnMut(&E) -> bool>(&mut self, mut keep: F) -> usize {
        match &mut self.store {
            Store::Heap(heap) => {
                let before = heap.len();
                heap.retain(|Reverse(e)| keep(&e.event));
                before - heap.len()
            }
            Store::Bucketed(calendar) => calendar.retain(keep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> [QueueBackend; 2] {
        [QueueBackend::Heap, QueueBackend::Bucketed]
    }

    #[test]
    fn orders_by_time() {
        for backend in backends() {
            let mut q = EventQueue::with_backend(backend);
            q.push(SimTime::from_ticks(5), "b");
            q.push(SimTime::from_ticks(1), "a");
            q.push(SimTime::from_ticks(9), "c");
            assert_eq!(q.pop().unwrap().1, "a");
            assert_eq!(q.pop().unwrap().1, "b");
            assert_eq!(q.pop().unwrap().1, "c");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn fifo_among_ties() {
        for backend in backends() {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_ticks(3);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn retain_drops_matching() {
        for backend in backends() {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..10 {
                q.push(SimTime::from_ticks(i), i);
            }
            let dropped = q.retain(|e| e % 2 == 0);
            assert_eq!(dropped, 5);
            assert_eq!(q.len(), 5);
            // Order is preserved after retain.
            assert_eq!(q.pop().unwrap().1, 0);
            assert_eq!(q.pop().unwrap().1, 2);
        }
    }

    #[test]
    fn peek_time() {
        for backend in backends() {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_ticks(4), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
        }
    }

    #[test]
    fn default_backend_is_bucketed() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::Bucketed);
    }
}
