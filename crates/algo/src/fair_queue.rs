//! The paper's fair waiting queue (Section 3, guarded by
//! `wait (not asking)`), stored as what it orders: remote claims.
//!
//! A local application's `enter_cs` call carries no data, so a run of
//! queued local calls is a count, not a slot per call. Each queued claim
//! records how many local calls were queued before it, and one count holds
//! the local calls queued after the last claim. The queue therefore costs
//! one entry per queued claim — at most one per peer, since a node
//! suppresses a claimant already queued — and nothing for local calls.

use oc_topology::NodeId;

/// A unit of pending work in the fair queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// The local application's `enter_cs` call.
    Local,
    /// A received `request` message.
    Remote { claimant: NodeId, source: NodeId, source_seq: u32 },
}

/// A queued remote claim, with the local calls queued just before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    claimant: NodeId,
    source: NodeId,
    source_seq: u32,
    /// Local calls queued after the previous claim (or the front) and
    /// before this one.
    locals_before: u32,
}

impl Claim {
    /// What a slot past the queued claims holds; never read.
    const VACANT: Claim =
        Claim { claimant: NodeId::new(1), source: NodeId::new(1), source_seq: 0, locals_before: 0 };
}

/// Claim slots the first claim allocates. Of the nodes of a 2^20-node
/// uniform run that ever queue a claim, 41 % never hold more than one at
/// once, and one 16-byte slot is the smallest block the allocator hands
/// out: starting at two would give each of them a block 16 B larger,
/// where starting at one costs the others one early regrowth (1 → 2).
const FIRST_CAPACITY: usize = 1;

/// The fair queue: [`Work`] served oldest first, as a deque of it would
/// serve it.
///
/// The claims sit at the front of a boxed slice of slots, and the queue
/// counts them itself: 24 bytes in the node, where a `Vec` header beside
/// the local count would take 32. A full buffer grows to twice its slots
/// (from [`FIRST_CAPACITY`]), exactly, so a node pays for the most claims
/// it ever held at once, rounded up to a power of two. The buffer is kept
/// when the queue drains (and across `clear`): capacity reserved with
/// [`FairQueue::reserve`] makes every later enqueue allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct FairQueue {
    /// The queued remote claims, oldest first, in `slots[..len]`.
    slots: Box<[Claim]>,
    len: u32,
    /// Local calls queued after the last claim.
    locals_after: u32,
}

// The slots' pointer and length, the claim count and the local count.
const _: () = assert!(size_of::<FairQueue>() <= 24);

impl FairQueue {
    /// Appends `work` at the back.
    pub(crate) fn push_back(&mut self, work: Work) {
        match work {
            Work::Local => self.locals_after += 1,
            Work::Remote { claimant, source, source_seq } => {
                let locals_before = std::mem::take(&mut self.locals_after);
                self.make_room();
                self.slots[self.len as usize] =
                    Claim { claimant, source, source_seq, locals_before };
                self.len += 1;
            }
        }
    }

    /// Puts `work` back at the front (it is served next).
    pub(crate) fn push_front(&mut self, work: Work) {
        match work {
            Work::Local => match self.slots[..self.len as usize].first_mut() {
                Some(first) => first.locals_before += 1,
                None => self.locals_after += 1,
            },
            Work::Remote { claimant, source, source_seq } => {
                self.make_room();
                self.slots.copy_within(..self.len as usize, 1);
                self.slots[0] = Claim { claimant, source, source_seq, locals_before: 0 };
                self.len += 1;
            }
        }
    }

    /// Removes and returns the oldest work.
    pub(crate) fn pop_front(&mut self) -> Option<Work> {
        let locals = match self.slots[..self.len as usize].first_mut() {
            Some(first) if first.locals_before == 0 => {
                let Claim { claimant, source, source_seq, .. } = *first;
                self.slots.copy_within(1..self.len as usize, 0);
                self.len -= 1;
                return Some(Work::Remote { claimant, source, source_seq });
            }
            Some(first) => &mut first.locals_before,
            None if self.locals_after == 0 => return None,
            None => &mut self.locals_after,
        };
        *locals -= 1;
        Some(Work::Local)
    }

    /// `true` if a claim by `claimant` is queued.
    pub(crate) fn has_claimant(&self, claimant: NodeId) -> bool {
        self.claims().iter().any(|claim| claim.claimant == claimant)
    }

    /// Empties the queue, keeping the claim buffer.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.locals_after = 0;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0 && self.locals_after == 0
    }

    /// Ensures room for `cap` queued claims.
    pub(crate) fn reserve(&mut self, cap: usize) {
        if self.slots.len() < cap {
            self.grow_to(cap);
        }
    }

    /// Bytes owned on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.len() * size_of::<Claim>()
    }

    fn claims(&self) -> &[Claim] {
        &self.slots[..self.len as usize]
    }

    /// Makes room for one more claim: a full buffer doubles.
    fn make_room(&mut self) {
        if self.len as usize == self.slots.len() {
            self.grow_to((2 * self.slots.len()).max(FIRST_CAPACITY));
        }
    }

    /// Resizes the buffer to exactly `cap` slots, in one reallocation.
    fn grow_to(&mut self, cap: usize) {
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        slots.reserve_exact(cap - slots.len());
        slots.resize(cap, Claim::VACANT);
        self.slots = slots.into_boxed_slice();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use rand::{rngs::StdRng, RngExt, SeedableRng};

    use super::*;

    /// Random scripts over a handful of claimants (so duplicates are
    /// frequent): every operation must leave `FairQueue` answering exactly
    /// as a deque of `Work` — the representation it replaced — does.
    #[test]
    fn fair_queue_serves_like_a_deque_of_work() {
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..200 {
            let mut queue = FairQueue::default();
            let mut reference = VecDeque::new();
            for _ in 0..rng.random_range(1..120usize) {
                let claimant = NodeId::new(rng.random_range(1..=6u32));
                let remote = Work::Remote {
                    claimant,
                    source: NodeId::new(rng.random_range(1..=6u32)),
                    source_seq: rng.random_range(1..4u32),
                };
                match rng.random_range(0..100u32) {
                    0..=29 => {
                        queue.push_back(Work::Local);
                        reference.push_back(Work::Local);
                    }
                    30..=54 => {
                        // `enqueue_remote`'s suppression is a query the
                        // deque answers by scanning.
                        let queued = reference.iter().any(
                            |w| matches!(w, Work::Remote { claimant: c, .. } if *c == claimant),
                        );
                        assert_eq!(queue.has_claimant(claimant), queued);
                        queue.push_back(remote);
                        reference.push_back(remote);
                    }
                    55..=61 => {
                        queue.push_front(Work::Local);
                        reference.push_front(Work::Local);
                    }
                    62..=67 => {
                        queue.push_front(remote);
                        reference.push_front(remote);
                    }
                    68..=97 => assert_eq!(queue.pop_front(), reference.pop_front()),
                    _ => {
                        queue.clear();
                        reference.clear();
                    }
                }
                assert_eq!(queue.is_empty(), reference.is_empty());
            }
            while let Some(work) = reference.pop_front() {
                assert_eq!(queue.pop_front(), Some(work));
            }
            assert_eq!(queue.pop_front(), None);
            assert!(queue.is_empty());
        }

        // Claim by claim through every growth step, 1 → 2 → 4 → 8 → 16 →
        // 32, with a local call after each; whenever the buffer is full the
        // next claim goes in at the front, so a front insert does the
        // growing.
        let mut queue = FairQueue::default();
        let mut reference = VecDeque::new();
        let mut slots = Vec::new();
        for k in 1..=17u32 {
            let id = NodeId::new(k);
            let remote = Work::Remote { claimant: id, source: id, source_seq: k };
            if queue.heap_bytes() == (k as usize - 1) * size_of::<Claim>() {
                queue.push_front(remote);
                reference.push_front(remote);
            } else {
                queue.push_back(remote);
                reference.push_back(remote);
            }
            queue.push_back(Work::Local);
            reference.push_back(Work::Local);
            slots.push(queue.heap_bytes() / size_of::<Claim>());
        }
        assert_eq!(slots, [1, 2, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16, 32]);
        while let Some(work) = reference.pop_front() {
            assert_eq!(queue.pop_front(), Some(work));
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn local_calls_take_no_slot_and_a_drained_queue_keeps_its_buffer() {
        let mut queue = FairQueue::default();
        assert_eq!(queue.heap_bytes(), 0, "an empty queue owns no buffer");
        queue.push_back(Work::Local);
        assert_eq!(queue.heap_bytes(), 0, "a local call takes no slot");
        let id = NodeId::new(9);
        queue.push_back(Work::Remote { claimant: id, source: id, source_seq: 1 });
        assert_eq!(queue.heap_bytes(), FIRST_CAPACITY * size_of::<Claim>());
        queue.clear();
        queue.reserve(4);
        let reserved = queue.heap_bytes();
        assert_eq!(reserved, 4 * size_of::<Claim>());
        for _ in 0..1_000 {
            queue.push_back(Work::Local);
        }
        for k in 1..=4 {
            let id = NodeId::new(k);
            queue.push_back(Work::Remote { claimant: id, source: id, source_seq: 1 });
        }
        assert_eq!(queue.heap_bytes(), reserved, "n claims fit n slots, whatever is local");
        while queue.pop_front().is_some() {}
        queue.clear();
        assert_eq!(queue.heap_bytes(), reserved);
    }
}
