//! A bucketed calendar queue with a heap fallback for far-future events.
//!
//! The simulator's event population is overwhelmingly near-future: message
//! deliveries land within δ ticks, CS exits within the CS duration, timers
//! within a few multiples of δ. A binary heap pays O(log m) per operation
//! on the whole population; the calendar pays O(1) to file a near-future
//! event into its bucket and only sorts events when their bucket becomes
//! current. Far-future events (workload arrivals scheduled hours ahead,
//! failure plans) overflow into a plain heap and migrate into buckets as
//! the window advances.
//!
//! # Ordering contract
//!
//! Identical to the heap backend, and load-bearing for determinism: events
//! pop in strict `(time, seq)` order, where `seq` is assignment order. The
//! cross-backend determinism test in `tests/engine.rs` holds both backends
//! to byte-identical traces.
//!
//! # Structure
//!
//! Three tiers, partitioned by a moving `split` tick:
//!
//! * `near` — a min-heap of every event with `t < split`. The global
//!   minimum always lives here (the struct maintains: `near` is non-empty
//!   whenever the queue is non-empty).
//! * `buckets` — `BUCKETS` vecs, each covering `bucket_width` ticks of the
//!   window starting at `base`. Unsorted; a bucket is dumped wholesale
//!   into `near` when the cursor reaches it.
//! * `overflow` — a min-heap of events beyond the window; refills the
//!   window when the buckets run dry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of buckets in the calendar window.
const BUCKETS: usize = 1024;

/// A `(time, seq)`-ordered entry. `Ord` is the natural order, so heaps
/// wrap entries in [`Reverse`].
#[derive(Debug, Clone)]
pub(crate) struct Entry<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The bucketed calendar event store. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    /// Every event with `t < split`; its top is the global minimum.
    near: BinaryHeap<Reverse<Entry<E>>>,
    /// Tick bound of `near`: all near events are strictly below it,
    /// everything in buckets/overflow is at or above it.
    split: u64,
    /// First tick covered by `buckets[0]`.
    base: u64,
    /// Next bucket to dump into `near`; buckets below are empty.
    cursor: usize,
    /// Ticks covered by one bucket.
    bucket_width: u64,
    /// `log2(bucket_width)` when the width is a power of two — the common
    /// case (the simulator sizes widths from δ rounded up to a power of
    /// two) — so the per-push bucket index is a shift, not a 64-bit
    /// division. `None` falls back to division.
    width_shift: Option<u32>,
    /// The calendar window `[base, base + BUCKETS * bucket_width)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Far-future fallback: everything at or beyond the window end.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Total events stored across all tiers.
    len: usize,
}

impl<E> CalendarQueue<E> {
    /// An empty calendar whose buckets each cover `bucket_width` ticks.
    #[must_use]
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        CalendarQueue {
            near: BinaryHeap::new(),
            split: 0,
            base: 0,
            cursor: 0,
            bucket_width,
            width_shift: bucket_width.is_power_of_two().then(|| bucket_width.trailing_zeros()),
            buckets: std::iter::repeat_with(Vec::new).take(BUCKETS).collect(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of stored events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Timestamp of the earliest event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, seq)` of the earliest event: what a caller merging this
    /// calendar with another `(time, seq)`-ordered source compares.
    #[must_use]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.near.peek().map(|Reverse(e)| (e.at, e.seq))
    }

    /// Pre-sizes every tier for sustained load: each bucket to capacity
    /// for at least `per_bucket` entries, and the near/overflow heaps for
    /// `heap` more entries each. Window refills re-map tick ranges onto
    /// buckets, so without this a long run keeps paying occasional
    /// bucket-growth reallocations whenever a bucket sees a new peak;
    /// reserving up front makes the steady-state loop allocation-free.
    pub fn reserve(&mut self, per_bucket: usize, heap: usize) {
        for bucket in &mut self.buckets {
            if bucket.capacity() < per_bucket {
                bucket.reserve(per_bucket - bucket.len());
            }
        }
        self.near.reserve(heap);
        self.overflow.reserve(heap);
    }

    /// `(t - base) / bucket_width`, via shift when the width allows.
    #[inline]
    fn bucket_index(&self, t: u64) -> usize {
        match self.width_shift {
            Some(shift) => ((t - self.base) >> shift) as usize,
            None => ((t - self.base) / self.bucket_width) as usize,
        }
    }

    /// Rounds `t` down to a bucket boundary.
    #[inline]
    fn align_to_width(&self, t: u64) -> u64 {
        match self.width_shift {
            Some(shift) => (t >> shift) << shift,
            None => (t / self.bucket_width) * self.bucket_width,
        }
    }

    fn window_end(&self) -> u64 {
        self.base.saturating_add((BUCKETS as u64).saturating_mul(self.bucket_width))
    }

    /// Files an event. `seq` must be globally unique and increasing.
    pub fn push(&mut self, at: SimTime, seq: u64, event: E) {
        let t = at.ticks();
        let entry = Entry { at, seq, event };
        self.len += 1;
        if t < self.split {
            self.near.push(Reverse(entry));
            return;
        }
        let landed = if t < self.window_end() {
            let idx = self.bucket_index(t);
            debug_assert!(idx >= self.cursor, "push below the calendar cursor");
            self.buckets[idx].push(entry);
            idx
        } else {
            self.overflow.push(Reverse(entry));
            BUCKETS
        };
        // Keep the invariant: a non-empty queue has a non-empty near heap.
        if self.near.is_empty() {
            // An empty `near` means the calendar held nothing before this
            // push: there is nothing between the cursor and it to scan.
            self.cursor = landed;
            self.advance();
        }
    }

    /// Files an event that precedes everything stored — the caller's
    /// claim, debug-asserted. With `near` non-empty that means at or before
    /// its head, so the entry belongs in `near` whatever `split` says
    /// (including the saturated `split = u64::MAX` corner, where a plain
    /// `push` at `u64::MAX` would queue behind `near`); an empty calendar
    /// takes it as any other push.
    pub fn push_head(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(self.peek_key().is_none_or(|head| (at, seq) < head));
        if self.near.is_empty() {
            self.push(at, seq, event);
        } else {
            self.len += 1;
            self.near.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.near.pop()?;
        self.len -= 1;
        if self.near.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((entry.at, entry.event))
    }

    /// Drops events failing `keep`, in place; returns how many were
    /// dropped. Costs what is stored, not the window's size: buckets below
    /// `cursor` are empty by invariant, and the scan stops once every
    /// bucketed entry has been seen. Pop order is a function of the unique
    /// `(at, seq)` keys alone, so how the heaps re-settle cannot show.
    pub fn retain<F: FnMut(&E) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.len;
        let mut unseen = before - self.near.len() - self.overflow.len();
        self.near.retain(|Reverse(e)| keep(&e.event));
        let mut bucketed = 0;
        for bucket in &mut self.buckets[self.cursor..] {
            if unseen == 0 {
                break;
            }
            unseen -= bucket.len();
            bucket.retain(|e| keep(&e.event));
            bucketed += bucket.len();
        }
        self.overflow.retain(|Reverse(e)| keep(&e.event));
        self.len = self.near.len() + bucketed + self.overflow.len();
        if self.near.is_empty() && self.len > 0 {
            self.advance();
        }
        before - self.len
    }

    /// Moves the earliest non-empty tier into `near`. Caller guarantees at
    /// least one event lives outside `near`.
    fn advance(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
        loop {
            while self.cursor < BUCKETS {
                if self.buckets[self.cursor].is_empty() {
                    self.cursor += 1;
                    continue;
                }
                for entry in self.buckets[self.cursor].drain(..) {
                    self.near.push(Reverse(entry));
                }
                self.split = self.base + (self.cursor as u64 + 1) * self.bucket_width;
                self.cursor += 1;
                return;
            }
            // Window exhausted: refill it from the overflow heap, aligned
            // to the earliest far-future event.
            let Some(Reverse(first)) = self.overflow.peek() else {
                // Everything left already sits in `near` — impossible here
                // because the caller guaranteed otherwise.
                unreachable!("calendar advance with no events outside near");
            };
            let first_tick = first.at.ticks();
            self.base = self.align_to_width(first_tick);
            self.cursor = 0;
            let window_end = self.window_end();
            if first_tick >= window_end {
                // Saturation corner: within one window of `u64::MAX`,
                // `window_end` cannot move past the events, so bucketing
                // would loop forever. Fall back to pure heap ordering for
                // everything left — `split = u64::MAX` keeps the tier
                // invariant (`near` below `split`, the rest at or above).
                self.split = u64::MAX;
                self.near.extend(std::mem::take(&mut self.overflow));
                return;
            }
            while let Some(Reverse(e)) = self.overflow.peek() {
                if e.at.ticks() >= window_end {
                    break;
                }
                let Some(Reverse(entry)) = self.overflow.pop() else { unreachable!() };
                let idx = self.bucket_index(entry.at.ticks());
                self.buckets[idx].push(entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((at, e)) = q.pop() {
            out.push((at.ticks(), e));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(16);
        q.push(SimTime::from_ticks(50), 0, 1);
        q.push(SimTime::from_ticks(10), 1, 2);
        q.push(SimTime::from_ticks(50), 2, 3);
        q.push(SimTime::from_ticks(9_999_999), 3, 4);
        q.push(SimTime::from_ticks(10), 4, 5);
        assert_eq!(drain_all(&mut q), vec![(10, 2), (10, 5), (50, 1), (50, 3), (9_999_999, 4)]);
    }

    #[test]
    fn push_below_split_after_drain_still_orders() {
        let mut q = CalendarQueue::new(16);
        q.push(SimTime::from_ticks(100), 0, 1);
        // Draining bucket 6 lifts split past tick 100.
        assert_eq!(q.pop().unwrap().0, SimTime::from_ticks(100));
        // A new event below split goes straight into the near heap.
        q.push(SimTime::from_ticks(101), 1, 2);
        q.push(SimTime::from_ticks(100), 2, 3);
        assert_eq!(drain_all(&mut q), vec![(100, 3), (101, 2)]);
    }

    #[test]
    fn far_future_overflow_migrates_back() {
        let width = 4;
        let mut q = CalendarQueue::new(width);
        let window = width * BUCKETS as u64;
        // Far beyond the first window, spread over several buckets.
        for i in 0..100u64 {
            q.push(SimTime::from_ticks(window * 3 + i * 7), i, i as u32);
        }
        q.push(SimTime::from_ticks(1), 1_000, 999);
        let drained = drain_all(&mut q);
        assert_eq!(drained.len(), 101);
        assert_eq!(drained[0], (1, 999));
        let times: Vec<u64> = drained.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn retain_preserves_order_and_len() {
        let mut q = CalendarQueue::new(8);
        for i in 0..500u64 {
            q.push(SimTime::from_ticks(i * 13 % 4096), i, i as u32);
        }
        let dropped = q.retain(|e| e % 3 != 0);
        assert_eq!(dropped, 167);
        assert_eq!(q.len(), 333);
        let drained = drain_all(&mut q);
        assert_eq!(drained.len(), 333);
        let times: Vec<u64> = drained.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn near_u64_max_times_fall_back_to_heap_ordering() {
        // Regression: timestamps within one window of u64::MAX must not
        // wedge the refill loop (window_end saturates there).
        let mut q = CalendarQueue::new(64);
        q.push(SimTime::from_ticks(u64::MAX), 0, 1);
        q.push(SimTime::from_ticks(u64::MAX - 1), 1, 2);
        q.push(SimTime::from_ticks(5), 2, 3);
        q.push(SimTime::from_ticks(u64::MAX), 3, 4);
        assert_eq!(
            drain_all(&mut q),
            vec![(5, 3), (u64::MAX - 1, 2), (u64::MAX, 1), (u64::MAX, 4)]
        );
        // And again after the fallback engaged once.
        q.push(SimTime::from_ticks(u64::MAX), 4, 5);
        q.push(SimTime::from_ticks(9), 5, 6);
        assert_eq!(drain_all(&mut q), vec![(9, 6), (u64::MAX, 5)]);
    }

    #[test]
    fn empty_behaviour() {
        let mut q: CalendarQueue<()> = CalendarQueue::new(64);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }
}
