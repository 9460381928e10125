//! The arrival times of every node's unserved requests, in one store.

use crate::time::SimTime;

/// The end of a list: no slot.
const NONE: u32 = u32::MAX;

/// A node's list: its oldest and newest slots, `NONE` when empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY: Ends = Ends { head: NONE, tail: NONE };

/// Per node, the virtual times at which its not-yet-served `RequestCs`
/// events arrived, oldest first: a critical-section entry pops one for the
/// waiting-time metric, a crash abandons them all.
///
/// One store for the whole population. Slots hold a time and the index of
/// the next slot in the same list; each node keeps the two ends of its
/// list; a popped slot goes onto a free list threaded through the same
/// links and is the next one pushed. So a node with nothing pending costs
/// its 8 bytes of ends and no allocation of its own, and the slots are as
/// many as were ever pending at once.
#[derive(Debug)]
pub(crate) struct PendingRequests {
    ends: Vec<Ends>,
    times: Vec<SimTime>,
    /// Per slot, the next slot of its list — a node's, or the free list.
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
}

impl Clone for PendingRequests {
    fn clone(&self) -> Self {
        PendingRequests {
            ends: self.ends.clone(),
            times: self.times.clone(),
            next: self.next.clone(),
            free: self.free,
        }
    }

    /// Into the vectors this store already owns. `source` is destructured
    /// without `..`: a new field does not compile until it is copied here.
    fn clone_from(&mut self, source: &Self) {
        let PendingRequests { ends, times, next, free } = source;
        self.ends.clone_from(ends);
        self.times.clone_from(times);
        self.next.clone_from(next);
        self.free = *free;
    }
}

impl PendingRequests {
    /// A store for `n` nodes with nothing pending.
    pub(crate) fn new(n: usize) -> Self {
        PendingRequests { ends: vec![EMPTY; n], times: Vec::new(), next: Vec::new(), free: NONE }
    }

    /// Makes this the store [`PendingRequests::new`] would give for `n`
    /// nodes, keeping every vector it owns. `self` is destructured without
    /// `..`: a new field does not compile until it is reset here.
    pub(crate) fn reset(&mut self, n: usize) {
        let PendingRequests { ends, times, next, free } = self;
        crate::world::refill(ends, n, EMPTY);
        times.clear();
        next.clear();
        *free = NONE;
    }

    /// Appends `at` to node `idx`'s requests.
    pub(crate) fn push(&mut self, idx: usize, at: SimTime) {
        let slot = if self.free == NONE {
            assert!(self.times.len() < NONE as usize, "fewer than 2^32 - 1 pending requests");
            let slot = self.times.len() as u32;
            self.times.push(at);
            self.next.push(NONE);
            slot
        } else {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.times[slot as usize] = at;
            self.next[slot as usize] = NONE;
            slot
        };
        let ends = &mut self.ends[idx];
        if ends.tail == NONE {
            ends.head = slot;
        } else {
            self.next[ends.tail as usize] = slot;
        }
        ends.tail = slot;
    }

    /// Removes and returns node `idx`'s oldest request time.
    pub(crate) fn pop(&mut self, idx: usize) -> Option<SimTime> {
        let ends = &mut self.ends[idx];
        let slot = ends.head;
        if slot == NONE {
            return None;
        }
        ends.head = self.next[slot as usize];
        if ends.head == NONE {
            ends.tail = NONE;
        }
        self.next[slot as usize] = self.free;
        self.free = slot;
        Some(self.times[slot as usize])
    }

    /// Number of requests pending on node `idx` (walks its list).
    pub(crate) fn len(&self, idx: usize) -> usize {
        let mut count = 0;
        let mut slot = self.ends[idx].head;
        while slot != NONE {
            count += 1;
            slot = self.next[slot as usize];
        }
        count
    }

    /// Drops every request pending on node `idx`, returning how many
    /// there were. Their slots are free for the next pushes.
    pub(crate) fn clear(&mut self, idx: usize) -> usize {
        let Ends { head, tail } = std::mem::replace(&mut self.ends[idx], EMPTY);
        if head == NONE {
            return 0;
        }
        let mut count = 1;
        let mut slot = head;
        while slot != tail {
            count += 1;
            slot = self.next[slot as usize];
        }
        self.next[tail as usize] = self.free;
        self.free = head;
        count
    }

    /// Heap bytes held: the per-node ends and every slot.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ends.capacity() * size_of::<Ends>()
            + self.times.capacity() * size_of::<SimTime>()
            + self.next.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn lists_are_fifo_and_independent() {
        let mut pending = PendingRequests::new(3);
        for (idx, at) in [(0, 1), (1, 2), (0, 3), (2, 4), (0, 5)] {
            pending.push(idx, SimTime::from_ticks(at));
        }
        assert_eq!((pending.len(0), pending.len(1), pending.len(2)), (3, 1, 1));
        assert_eq!(pending.pop(0), Some(SimTime::from_ticks(1)));
        assert_eq!(pending.clear(0), 2);
        assert_eq!(pending.pop(0), None);
        assert_eq!(pending.pop(2), Some(SimTime::from_ticks(4)));
        // Freed slots are reused before the store grows.
        let slots = pending.times.len();
        pending.push(1, SimTime::from_ticks(6));
        pending.push(1, SimTime::from_ticks(7));
        assert_eq!(pending.times.len(), slots);
        let drained: Vec<_> = std::iter::from_fn(|| pending.pop(1)).map(|t| t.ticks()).collect();
        assert_eq!(drained, [2, 6, 7]);
    }

    #[test]
    fn pending_requests_agree_with_per_node_deques() {
        // Model test: random push/pop/clear scripts over interleaved nodes
        // against one `VecDeque` per node, with snapshots restored through
        // `clone_from`.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes = 7usize;
            let mut pending = PendingRequests::new(nodes);
            let mut model: Vec<VecDeque<SimTime>> = vec![VecDeque::new(); nodes];
            let mut snapshot = None;
            for step in 0..800u64 {
                let idx = rng.random_range(0..nodes);
                match rng.random_range(0..12u32) {
                    0..=5 => {
                        let at = SimTime::from_ticks(step);
                        pending.push(idx, at);
                        model[idx].push_back(at);
                    }
                    6..=8 => assert_eq!(pending.pop(idx), model[idx].pop_front(), "step {step}"),
                    9 => {
                        assert_eq!(pending.clear(idx), model[idx].len(), "step {step}");
                        model[idx].clear();
                    }
                    10 => snapshot = Some((pending.clone(), model.clone())),
                    _ => {
                        if let Some((saved, saved_model)) = &snapshot {
                            let buffers = (pending.times.capacity(), pending.next.capacity());
                            pending.clone_from(saved);
                            model.clone_from(saved_model);
                            assert!(
                                pending.times.capacity() >= buffers.0
                                    && pending.next.capacity() >= buffers.1,
                                "clone_from keeps the buffers it had"
                            );
                        }
                    }
                }
                for (idx, queue) in model.iter().enumerate() {
                    assert_eq!(pending.len(idx), queue.len(), "seed {seed} step {step}");
                }
                // Slots never outnumber the peak of what was pending.
                let live: usize = model.iter().map(VecDeque::len).sum();
                let free = std::iter::successors(Some(pending.free), |slot| {
                    (*slot != NONE).then(|| pending.next[*slot as usize])
                })
                .take_while(|slot| *slot != NONE)
                .count();
                assert_eq!(live + free, pending.times.len(), "seed {seed} step {step}");
            }
            for (idx, queue) in model.iter_mut().enumerate() {
                let drained: Vec<_> = std::iter::from_fn(|| pending.pop(idx)).collect();
                assert_eq!(drained, Vec::from(std::mem::take(queue)));
            }
        }
    }
}
