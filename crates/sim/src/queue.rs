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
//!   from outside — workload arrivals, the failure plan. `retain` never
//!   visits it: a long horizon of pre-scheduled inputs adds nothing to the
//!   cost of a purge.
//!
//! Which tier an event belongs to is the caller's knowledge, stated by the
//! method it calls; the queue puts no bound on `E`.
//!
//! # Inputs are their own type
//!
//! `EventQueue<E, I = E>` stores inputs as `I`, converted into an `E` only
//! as one reaches the head of the queue (`I: Into<E>`, asked by
//! [`EventQueue::pop`] alone). An input is a few words — the simulator's is
//! a node id and a kind, 24 bytes with its key — while `E` must be large
//! enough for any protocol message; a horizon of millions of scheduled
//! arrivals is stored at the input's size, not the message's. `I` defaults
//! to `E`, so a queue with one event type is written as before.
//!
//! # The input tier: a sorted run and the latecomers
//!
//! Inputs are filed the way they are made: an arrival schedule in time
//! order, then a failure plan in time order behind it. So the tier is two
//! stores, and the earlier of their two heads is the tier's head:
//!
//! * `run` — a deque in ascending `(time, seq)` order. An input whose key
//!   is above the run's last is appended; the run's head pops in O(1)
//!   with no sift. A schedule filed in time order lives here entirely.
//! * `late` — a binary heap of every input that arrived below the run's
//!   last key: a failure plan filed after the schedule it interleaves
//!   with, an arrival injected mid-run. It is as large as what was filed
//!   out of order, not as the horizon.
//!
//! The tier used to be one heap of everything behind a 1 024-entry
//! buffer, refilled by a burst of pops so that a multi-million-entry heap
//! was at least walked warm. With the run there is no such heap to walk —
//! the schedule that filled it was in order all along — so the buffer and
//! its refill loop are gone. The worst case (descending pushes, or one
//! far-future input filed first) puts all but one input in `late`: the
//! heap the tier was before, never worse.
//!
//! # Backends
//!
//! Two interchangeable backends store the generated tier:
//!
//! * [`QueueBackend::Heap`] — the default: a plain binary heap. A run
//!   keeps a few events per busy node in flight, so the heap is shallow,
//!   and an empty one costs nothing to build, clone or drop — which is
//!   what the explorer's hundreds of thousands of tiny worlds pay for.
//! * [`QueueBackend::Bucketed`] — the engine's
//!   [calendar queue](crate::engine::calendar): O(1) near-future
//!   scheduling with a heap fallback for far-future events, at a fixed
//!   cost of 1 024 buckets per queue. Alternated pairs found it no faster
//!   than the heap on any workload (EXPERIMENTS.md, E7); it stays
//!   selectable, and held to byte-identical traces by the cross-backend
//!   determinism tests, only because the frozen benchmark's
//!   `sim.queue_*` probes name it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::engine::calendar::{CalendarQueue, Entry};
use crate::time::SimTime;

/// Which data structure orders the pending events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Binary heap over all pending events: O(log n) everywhere, nothing
    /// to build when empty. The default.
    #[default]
    Heap,
    /// Bucketed calendar with heap overflow: O(1) near-future pushes,
    /// 1 024 buckets to build, clone and drop per queue.
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

/// The input tier: a sorted run of what was filed in time order, and a
/// heap of what was not. See the module docs.
#[derive(Debug, Clone)]
struct Inputs<I> {
    /// Ascending; an input above the last key is appended here.
    run: VecDeque<Entry<I>>,
    /// Every input filed below `run`'s last key at the time.
    late: BinaryHeap<Reverse<Entry<I>>>,
}

impl<I> Inputs<I> {
    fn len(&self) -> usize {
        self.run.len() + self.late.len()
    }

    fn push(&mut self, entry: Entry<I>) {
        if self.run.back().is_none_or(|last| *last < entry) {
            self.run.push_back(entry);
        } else {
            self.late.push(Reverse(entry));
        }
    }

    /// `true` when the tier's head is `late`'s, not `run`'s.
    fn late_is_next(&self) -> bool {
        self.late.peek().is_some_and(|Reverse(late)| self.run.front().is_none_or(|run| late < run))
    }

    fn head(&self) -> Option<&Entry<I>> {
        if self.late_is_next() {
            self.late.peek().map(|Reverse(e)| e)
        } else {
            self.run.front()
        }
    }

    fn pop(&mut self) -> Option<Entry<I>> {
        if self.late_is_next() {
            self.late.pop().map(|Reverse(e)| e)
        } else {
            self.run.pop_front()
        }
    }
}

/// A deterministic min-priority queue of simulation events: generated
/// events are `E`s, inputs are `I`s (see the module docs).
#[derive(Debug)]
pub struct EventQueue<E, I = E> {
    /// The generated tier, on the chosen backend.
    store: Store<E>,
    /// The input tier: never purged, so never scanned by `retain`.
    inputs: Inputs<I>,
    /// Shared by both tiers: `(at, seq)` keys are unique across the queue.
    next_seq: u64,
}

impl<E: Clone, I: Clone> Clone for EventQueue<E, I> {
    fn clone(&self) -> Self {
        EventQueue {
            store: self.store.clone(),
            inputs: self.inputs.clone(),
            next_seq: self.next_seq,
        }
    }

    /// Overwrites in place, keeping every buffer this queue already owns
    /// (a calendar is copied afresh): what [`crate::World::restore`] runs
    /// once per rewind. `source` is destructured without `..`, so a new
    /// field does not compile until it is restored here.
    fn clone_from(&mut self, source: &Self) {
        let EventQueue { store, inputs: Inputs { run, late }, next_seq } = source;
        match (&mut self.store, store) {
            (Store::Heap(heap), Store::Heap(from)) => heap.clone_from(from),
            (store, from) => *store = from.clone(),
        }
        self.inputs.run.clone_from(run);
        self.inputs.late.clone_from(late);
        self.next_seq = *next_seq;
    }
}

impl<E, I> Default for EventQueue<E, I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, I> EventQueue<E, I> {
    /// Creates an empty queue on the default (heap) backend.
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
            inputs: Inputs { run: VecDeque::new(), late: BinaryHeap::new() },
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

    /// Pre-sizes the generated store for sustained load: the heap backend
    /// reserves room for `heap` more entries and ignores `per_bucket`; on
    /// the bucketed backend every calendar bucket gets capacity for
    /// `per_bucket` entries and the internal heaps room for `heap` more
    /// each. Purely a capacity hint — behaviour is unchanged, but a warm
    /// queue keeps the steady-state event loop allocation-free (see the
    /// `oc-audit` crate).
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

    /// Schedules an externally injected `input` at virtual time `at`. It
    /// pops, as an `E`, in the same `(time, seq)` order as everything
    /// else, but [`EventQueue::retain`] never sees it: use this only for
    /// events no purge may drop.
    pub fn push_input(&mut self, at: SimTime, input: I) {
        let seq = self.take_seq();
        self.inputs.push(Entry { at, seq, event: input });
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
    /// to the head of the generated store as an `E`, under its own
    /// `(at, seq)`. Out of line: one pop in fourteen takes it on the
    /// densest workload.
    #[cold]
    #[inline(never)]
    fn stage_input(&mut self)
    where
        I: Into<E>,
    {
        let Some(Entry { at, seq, event: input }) = self.inputs.pop() else { return };
        let event = input.into();
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
    pub fn pop(&mut self) -> Option<(SimTime, E)>
    where
        I: Into<E>,
    {
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
            let mut q: EventQueue<_> = EventQueue::with_backend(backend);
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
            let mut q: EventQueue<_> = EventQueue::with_backend(backend);
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
            let mut q: EventQueue<_> = EventQueue::with_backend(backend);
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
            let mut q: EventQueue<_> = EventQueue::with_backend(backend);
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_ticks(4), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
        }
    }

    #[test]
    fn a_time_ordered_schedule_never_touches_a_heap() {
        let mut q: EventQueue<_> = EventQueue::new();
        for i in 0..10_000u64 {
            // Ties included: equal ticks are still in `(time, seq)` order.
            q.push_input(SimTime::from_ticks(i / 2), i);
        }
        assert_eq!((q.inputs.run.len(), q.inputs.late.len()), (10_000, 0));
        for i in 0..10_000u64 {
            assert!(q.inputs.late.is_empty());
            // Staging passes each input through the generated store, one
            // at a time: it never holds more than the one being popped.
            assert_eq!(q.len() - q.inputs.len(), 0);
            assert_eq!(q.pop(), Some((SimTime::from_ticks(i / 2), i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn a_plan_filed_after_the_schedule_is_all_that_is_late() {
        // `sim-faults`' shape: arrivals in time order, then crash/recover
        // pairs in time order across the same span.
        for backend in backends() {
            let mut q: EventQueue<_> = EventQueue::with_backend(backend);
            for i in 0..1_000u64 {
                q.push_input(SimTime::from_ticks(i * 10), i);
            }
            for k in 0..50u64 {
                q.push_input(SimTime::from_ticks(k * 200 + 5), 1_000 + 2 * k);
                q.push_input(SimTime::from_ticks(k * 200 + 95), 1_001 + 2 * k);
            }
            // One past the schedule's end extends the run instead.
            q.push_input(SimTime::from_ticks(20_000), 1_100);
            assert_eq!((q.inputs.run.len(), q.inputs.late.len()), (1_001, 100));
            let mut popped = Vec::new();
            while let Some((at, _)) = q.pop() {
                popped.push(at);
            }
            assert_eq!(popped.len(), 1_101);
            assert!(popped.is_sorted());
        }
    }

    /// A generated event, or the event an input becomes.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Event {
        Generated(u64),
        Input(u64),
    }

    /// A narrower input type: what the input tier stores.
    struct Arrival(u64);

    impl From<Arrival> for Event {
        fn from(Arrival(k): Arrival) -> Self {
            Event::Input(k)
        }
    }

    #[test]
    fn typed_inputs_pop_as_their_events_in_key_order() {
        for backend in backends() {
            let mut q: EventQueue<Event, Arrival> = EventQueue::with_backend(backend);
            // Five ticks, revisited out of order, so inputs land in both
            // `run` and `late` and every tick holds both kinds.
            let mut expected = Vec::new();
            for k in 0..60u64 {
                let at = SimTime::from_ticks(k * 7 % 5);
                if k % 3 == 0 {
                    q.push_input(at, Arrival(k));
                    expected.push((at, Event::Input(k)));
                } else {
                    q.push(at, Event::Generated(k));
                    expected.push((at, Event::Generated(k)));
                }
            }
            assert!(!q.inputs.late.is_empty(), "{backend:?}");
            // Pushes were numbered in this order: a stable sort by time
            // is the `(time, seq)` order.
            expected.sort_by_key(|(at, _)| *at);
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, expected, "{backend:?}");
        }
    }

    #[test]
    fn clone_from_keeps_buffers_and_copies_everything() {
        for backend in backends() {
            let mut source = EventQueue::with_backend(backend);
            for i in 0..64u64 {
                source.push(SimTime::from_ticks(100 - i), i);
                source.push_input(SimTime::from_ticks(i * 3), 100 + i);
                source.push_input(SimTime::from_ticks(i), 200 + i);
            }
            // A target that already holds more than it is about to receive.
            let mut target = EventQueue::with_backend(backend);
            for i in 0..500u64 {
                target.push(SimTime::from_ticks(i), i);
                target.push_input(SimTime::from_ticks(i), i);
            }
            let run_buffer = target.inputs.run.capacity();
            target.clone_from(&source);
            assert_eq!(target.inputs.run.capacity(), run_buffer, "{backend:?}");
            assert_eq!(target.len(), source.len());
            // Same future, sequence counter included.
            for q in [&mut source, &mut target] {
                q.push(SimTime::from_ticks(7), 999);
            }
            while let Some(expected) = source.pop() {
                assert_eq!(target.pop(), Some(expected), "{backend:?}");
            }
            assert!(target.is_empty());
        }
    }

    #[test]
    fn default_backend_is_heap() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::Heap);
        assert_eq!(QueueBackend::default(), QueueBackend::Heap);
    }
}
