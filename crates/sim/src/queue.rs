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
//! * `run` — ascending `(time, seq)` order. An input whose key is above
//!   the run's last is appended; the run's head pops in O(1) with no sift.
//!   A time-ordered [`ArrivalSchedule`] filed whole
//!   ([`EventQueue::push_schedule`]) is not copied into it: the run holds
//!   the shared schedule and a cursor, and reads arrival `i` as the key
//!   `(at_i, first_seq + i)` — exactly the key filing the arrivals one by
//!   one would have given it. A schedule of millions of arrivals costs the
//!   queue one cursor, not an entry each.
//! * `late` — a binary heap of every input that arrived below the run's
//!   last key: a failure plan filed after the schedule it interleaves
//!   with, an arrival injected mid-run, the front of a schedule that
//!   starts before the run ends. It is as large as what was filed out of order,
//!   not as the horizon.
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
//! * [`QueueBackend::Heap`] — the default, and the only one a
//!   [`crate::World`] runs on: a *sorted front over a binary heap*. The
//!   front is a `Vec` of at most `FRONT` (16) entries in descending
//!   `(time, seq)` order, so the earliest pops from its end with no sift;
//!   every entry the front has no room for waits in the heap. A push scans
//!   the front back from its end and inserts there; into a full front it
//!   evicts the front's largest entry to the heap, unless it is larger
//!   still and goes to the heap itself. A pop takes the smaller of the two
//!   heads, so no order needs to hold between front and heap and a tier of
//!   any length pops the same `(time, seq)` stream; every operation costs
//!   O(`FRONT` + log n). A run's generated tier is short — besides the
//!   event a pop takes, it holds on average 2.4 events on the benchmark's
//!   `sim-faults` (n = 64, thousands of crash/recover pairs), 3.8 on
//!   `check-battery` (the explorer's tiny worlds) and 1.1 on `sim-scale`
//!   (n = 2^20) — so the heap is empty at 95 %, 92 % and 100 % of their
//!   pops, and such a pop is a `Vec::pop`. What is long is the rare
//!   case: lazily cancelled timers of a large faulty run, far-future
//!   pushes; they sit in the heap at O(log n), where a plain sorted
//!   `Vec` would pay O(n) to file each. Both parts are empty `Vec`s until
//!   used, so an empty queue costs nothing to build, clone or drop —
//!   which is what the explorer's hundreds of thousands of tiny worlds
//!   pay for. This is the near-future list of the ladder queue (Tang, Goh
//!   and Thng, ACM TOMACS 15(3), 2005) cut to one fixed-size rung.
//! * [`QueueBackend::Bucketed`] — the engine's
//!   [calendar queue](crate::engine::calendar): O(1) near-future
//!   scheduling with a heap fallback for far-future events, at a fixed
//!   cost of 1 024 buckets per queue. Alternated pairs found it no faster
//!   than the heap on any workload (EXPERIMENTS.md, E7), so no world can
//!   select it. It is reachable through [`EventQueue::with_backend`] only
//!   because the frozen benchmark's `sim.queue_*` probes name it, and
//!   `tests/engine.rs` holds it to the same `(time, seq)` order as the
//!   heap for as long as it exists.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use oc_topology::NodeId;

use crate::engine::calendar::{CalendarQueue, Entry};
use crate::time::SimTime;
use crate::workload::ArrivalSchedule;

/// Which data structure orders the pending events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// A sorted front of the earliest few events over a binary heap of the
    /// rest: a pop without a sift while the tier is short, O(log n) when
    /// it is long, nothing to build when empty. The default.
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

/// The most entries the heap backend keeps sorted in front of its heap.
/// A run's tier holds 1–4 events besides the one a pop takes, and 8, 16
/// and 32 measured alike on such tiers; a longer front shifts more
/// entries for each insert into a tier longer than it.
const FRONT: usize = 16;

#[derive(Debug, Clone)]
enum Store<E> {
    Heap(FrontHeap<E>),
    Bucketed(CalendarQueue<E>),
}

/// The heap backend: a sorted front over a binary heap (see the module
/// docs).
#[derive(Debug, Clone)]
struct FrontHeap<E> {
    /// Descending `(at, seq)`, at most [`FRONT`] long: the earliest entry
    /// is the last one.
    front: Vec<Entry<E>>,
    /// Every entry the front had no room for. No order holds between it
    /// and the front.
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> FrontHeap<E> {
    fn new() -> Self {
        FrontHeap { front: Vec::new(), heap: BinaryHeap::new() }
    }

    fn len(&self) -> usize {
        self.front.len() + self.heap.len()
    }

    fn push(&mut self, entry: Entry<E>) {
        let full = self.front.len() == FRONT;
        if full && self.front[0] < entry {
            self.heap.push(Reverse(entry));
            return;
        }
        // Scan back from the end: `entry` goes above every smaller entry.
        let mut slot = self.front.len();
        while slot > 0 && self.front[slot - 1] < entry {
            slot -= 1;
        }
        if full {
            // The largest entry leaves for the heap; those between it and
            // `slot` move up one place, and `entry` takes the one freed.
            let largest = std::mem::replace(&mut self.front[0], entry);
            self.front[..slot].rotate_left(1);
            self.heap.push(Reverse(largest));
        } else {
            self.front.insert(slot, entry);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry<E>> {
        let heap_is_next = match (self.front.last(), self.heap.peek()) {
            (Some(front), Some(Reverse(heap))) => heap < front,
            (None, heap) => heap.is_some(),
            (Some(_), None) => false,
        };
        if heap_is_next {
            self.heap.pop().map(|Reverse(e)| e)
        } else {
            self.front.pop()
        }
    }

    fn peek_key(&self) -> Option<(SimTime, u64)> {
        let front = self.front.last().map(|e| (e.at, e.seq));
        let heap = self.heap.peek().map(|Reverse(e)| (e.at, e.seq));
        match (front, heap) {
            (Some(front), Some(heap)) => Some(front.min(heap)),
            (front, heap) => front.or(heap),
        }
    }

    fn retain<F: FnMut(&E) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.len();
        self.front.retain(|e| keep(&e.event));
        self.heap.retain(|Reverse(e)| keep(&e.event));
        before - self.len()
    }

    fn clear(&mut self) {
        self.front.clear();
        self.heap.clear();
    }
}

/// One stretch of the sorted run.
#[derive(Debug, Clone)]
enum Stretch<I> {
    /// An input filed on its own.
    One(Entry<I>),
    /// The unread part of a schedule filed by reference: arrivals
    /// `next..`, where arrival `i` has the key `(at_i, first_seq + i)` and
    /// becomes the input `input(node_i)`.
    Listed { schedule: ArrivalSchedule, next: usize, first_seq: u64, input: fn(NodeId) -> I },
}

impl<I> Stretch<I> {
    fn head_key(&self) -> (SimTime, u64) {
        match self {
            Stretch::One(entry) => (entry.at, entry.seq),
            Stretch::Listed { schedule, next, first_seq, .. } => {
                (schedule.arrivals().get(*next).0, first_seq + *next as u64)
            }
        }
    }

    fn last_key(&self) -> (SimTime, u64) {
        match self {
            Stretch::One(entry) => (entry.at, entry.seq),
            Stretch::Listed { schedule, first_seq, .. } => {
                let last = schedule.len() - 1;
                (schedule.arrivals().get(last).0, first_seq + last as u64)
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Stretch::One(_) => 1,
            Stretch::Listed { schedule, next, .. } => schedule.len() - next,
        }
    }
}

/// The input tier: a sorted run of what was filed in time order, and a
/// heap of what was not. See the module docs.
#[derive(Debug, Clone)]
struct Inputs<I> {
    /// Ascending; an input above the last key is appended here. No
    /// `Listed` stretch is ever empty.
    run: VecDeque<Stretch<I>>,
    /// Every input filed below `run`'s last key at the time.
    late: BinaryHeap<Reverse<Entry<I>>>,
    /// The earlier of the two stores' head keys, kept current by every
    /// change to either: it is compared with the generated tier's head on
    /// every pop of the queue, so it is one load, not a walk to two heads.
    head: Option<(SimTime, u64)>,
}

impl<I> Inputs<I> {
    fn new() -> Self {
        Inputs { run: VecDeque::new(), late: BinaryHeap::new(), head: None }
    }

    fn len(&self) -> usize {
        self.run.iter().map(Stretch::len).sum::<usize>() + self.late.len()
    }

    fn push(&mut self, entry: Entry<I>) {
        let key = (entry.at, entry.seq);
        if self.run.back().is_none_or(|last| last.last_key() < key) {
            self.run.push_back(Stretch::One(entry));
        } else {
            self.late.push(Reverse(entry));
        }
        self.head = Some(self.head.map_or(key, |head| head.min(key)));
    }

    /// Recomputes `head` from the two stores.
    fn refresh_head(&mut self) {
        let late = self.late.peek().map(|Reverse(e)| (e.at, e.seq));
        let run = self.run.front().map(Stretch::head_key);
        self.head = match (late, run) {
            (Some(late), Some(run)) => Some(late.min(run)),
            (late, run) => late.or(run),
        };
    }

    /// Files the time-ordered `schedule` under the keys `first_seq..`:
    /// its front below the run's last key goes to `late` arrival by
    /// arrival, the rest joins the run by reference — where filing each
    /// arrival with [`Inputs::push`] would have put it.
    fn push_schedule(
        &mut self,
        schedule: &ArrivalSchedule,
        first_seq: u64,
        input: fn(NodeId) -> I,
    ) {
        let arrivals = schedule.arrivals();
        // Every key in the schedule is newer than the run's last, so an
        // arrival extends the run exactly when it is not earlier in time.
        let split = self.run.back().map_or(0, |last| {
            let (last_at, _) = last.last_key();
            arrivals.iter().take_while(|(at, _)| *at < last_at).count()
        });
        for (k, (at, node)) in arrivals.iter().take(split).enumerate() {
            let seq = first_seq + k as u64;
            self.late.push(Reverse(Entry { at, seq, event: input(node) }));
        }
        if split < arrivals.len() {
            let schedule = schedule.clone();
            self.run.push_back(Stretch::Listed { schedule, next: split, first_seq, input });
        }
        self.refresh_head();
    }

    fn pop(&mut self) -> Option<Entry<I>> {
        let late_is_next =
            self.late.peek().is_some_and(|Reverse(late)| Some((late.at, late.seq)) == self.head);
        let entry = if late_is_next {
            self.late.pop().map(|Reverse(e)| e)
        } else if let Some(Stretch::Listed { schedule, next, first_seq, input }) =
            self.run.front_mut()
        {
            // Read in place: the cursor moves, the stretch stays until spent.
            let (at, node) = schedule.arrivals().get(*next);
            let seq = *first_seq + *next as u64;
            let event = input(node);
            *next += 1;
            if *next == schedule.len() {
                self.run.pop_front();
            }
            Some(Entry { at, seq, event })
        } else {
            self.run.pop_front().map(|stretch| match stretch {
                Stretch::One(entry) => entry,
                Stretch::Listed { .. } => unreachable!("a listed stretch is read in place"),
            })
        };
        self.refresh_head();
        entry
    }
}

/// A deterministic min-priority queue of simulation events: generated
/// events are `E`s, inputs are `I`s, and a schedule filed by reference
/// lists nodes that become `I`s as they are read (see the module docs).
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
    /// (a calendar is copied afresh; a schedule filed by reference is
    /// shared, not copied): what [`crate::World::restore`] runs once per rewind. `source` is destructured without `..`, so a new
    /// field does not compile until it is restored here.
    fn clone_from(&mut self, source: &Self) {
        let EventQueue { store, inputs: Inputs { run, late, head }, next_seq } = source;
        match (&mut self.store, store) {
            (Store::Heap(to), Store::Heap(FrontHeap { front, heap })) => {
                to.front.clone_from(front);
                to.heap.clone_from(heap);
            }
            (store, from) => *store = from.clone(),
        }
        self.inputs.run.clone_from(run);
        self.inputs.late.clone_from(late);
        self.inputs.head = *head;
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
            QueueBackend::Heap => Store::Heap(FrontHeap::new()),
            QueueBackend::Bucketed => Store::Bucketed(CalendarQueue::new(DEFAULT_BUCKET_WIDTH)),
        };
        EventQueue { store, inputs: Inputs::new(), next_seq: 0 }
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
    /// grows its sorted front to full size, reserves room for `heap` more
    /// entries in its heap and ignores `per_bucket`; on
    /// the bucketed backend every calendar bucket gets capacity for
    /// `per_bucket` entries and the internal heaps room for `heap` more
    /// each. Purely a capacity hint — behaviour is unchanged, but a warm
    /// queue keeps the steady-state event loop allocation-free (see the
    /// `oc-audit` crate).
    pub fn reserve(&mut self, per_bucket: usize, heap: usize) {
        match &mut self.store {
            Store::Heap(store) => {
                store.front.reserve(FRONT - store.front.len());
                store.heap.reserve(heap);
            }
            Store::Bucketed(calendar) => calendar.reserve(per_bucket, heap),
        }
    }

    /// Drops every pending event and restarts the sequence numbers at 0,
    /// as [`EventQueue::new`] would, keeping the front's, the heaps' and
    /// the run's buffers: what [`crate::World::reset`] runs once per
    /// scenario. A calendar becomes the default heap backend.
    pub(crate) fn clear(&mut self) {
        let EventQueue { store, inputs: Inputs { run, late, head }, next_seq } = self;
        match store {
            Store::Heap(generated) => generated.clear(),
            Store::Bucketed(_) => *store = Store::Heap(FrontHeap::new()),
        }
        run.clear();
        late.clear();
        *head = None;
        *next_seq = 0;
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
            Store::Heap(generated) => generated.push(Entry { at, seq, event }),
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

    /// Schedules every arrival of a time-ordered `schedule` by reference,
    /// each as the input its node converts into: the queue shares the
    /// schedule and reads it in place. Keys and pop order are exactly
    /// those of [`EventQueue::push_input`] called on each arrival in
    /// turn; what is stored is one cursor, plus whatever front of the
    /// schedule falls below inputs already filed.
    ///
    /// # Panics
    ///
    /// Debug-panics if `schedule` is not ordered by time.
    pub fn push_schedule(&mut self, schedule: &ArrivalSchedule)
    where
        I: From<NodeId>,
    {
        debug_assert!(schedule.is_time_ordered(), "a schedule filed whole must be time-ordered");
        let first_seq = self.next_seq;
        self.next_seq += schedule.len() as u64;
        self.inputs.push_schedule(schedule, first_seq, I::from);
    }

    /// The `(time, seq)` key of the generated tier's earliest event.
    fn generated_key(&self) -> Option<(SimTime, u64)> {
        match &self.store {
            Store::Heap(generated) => generated.peek_key(),
            Store::Bucketed(calendar) => calendar.peek_key(),
        }
    }

    /// `true` when the next event in `(time, seq)` order is an input.
    fn input_is_next(&self) -> bool {
        self.inputs.head.is_some_and(|input| self.generated_key().is_none_or(|head| input < head))
    }

    /// Moves the earliest input, which precedes every generated event,
    /// to the head of the generated store as an `E`, under its own
    /// `(at, seq)`: on the heap backend, the end of the sorted front. Out
    /// of line: one pop in fourteen takes it on the densest workload.
    #[cold]
    #[inline(never)]
    fn stage_input(&mut self)
    where
        I: Into<E>,
    {
        let Some(Entry { at, seq, event: input }) = self.inputs.pop() else { return };
        let event = input.into();
        match &mut self.store {
            Store::Heap(generated) => generated.push(Entry { at, seq, event }),
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
            Store::Heap(generated) => generated.pop().map(|e| (e.at, e.event)),
            Store::Bucketed(calendar) => calendar.pop(),
        }
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let generated = self.generated_key().map(|(at, _)| at);
        let input = self.inputs.head.map(|(at, _)| at);
        generated.into_iter().chain(input).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
            + match &self.store {
                Store::Heap(generated) => generated.len(),
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
    pub fn retain<F: FnMut(&E) -> bool>(&mut self, keep: F) -> usize {
        match &mut self.store {
            Store::Heap(generated) => generated.retain(keep),
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
    #[derive(Clone)]
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
            let mut source: EventQueue<u64> = EventQueue::with_backend(backend);
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
