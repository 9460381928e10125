//! A compact bitmask set over one distance ring — the allocation-free
//! replacement for the `BTreeSet`s `search_father` used to track its
//! `pending` and `retry` members.
//!
//! Ring `d` of a node holds exactly the `2^(d-1)` identities `base | low`
//! for `low` in `0..2^(d-1)` (see [`oc_topology::ring_iter`]), so a member
//! is addressed by its low bits alone and the whole ring fits in
//! `2^(d-1)` bits: one `u64` word covers every ring up to `d = 7`, and a
//! phase-`d` probe round at production scale (`n = 2^20`, `d = 20`) needs
//! 8 KiB of words instead of half a million `BTreeSet` tree nodes. All
//! operations after [`RingSet::assign_ring`] are allocation-free; the word
//! buffer is retained across phases and across searches (the node keeps
//! its ended search), so steady-state *and* failure-recovery events allocate
//! nothing.

use oc_topology::NodeId;

/// A set of nodes drawn from a single distance ring, stored as a bitmask
/// indexed by the members' free low bits.
///
/// ```
/// use oc_algo::RingSet;
/// use oc_topology::NodeId;
///
/// let mut set = RingSet::default();
/// set.assign_ring(16, NodeId::new(10), 3); // ring {13, 14, 15, 16}
/// set.fill();
/// assert_eq!(set.len(), 4);
/// assert!(set.remove(NodeId::new(14)));
/// assert!(!set.contains(NodeId::new(14)));
/// let left: Vec<u32> = set.iter().map(NodeId::get).collect();
/// assert_eq!(left, vec![13, 15, 16]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingSet {
    /// Presence bits, one per ring member, indexed by the member's low
    /// bits. Bits at positions `>= ring_size` are always zero.
    words: Vec<u64>,
    /// Zero-based identity prefix shared by every ring member.
    base: u32,
    /// `ring_size - 1`: masks a zero-based identity down to its ring index.
    low_mask: u32,
    /// Number of members of the assigned ring (`0` until `assign_ring`).
    ring_size: u32,
    /// Members currently present.
    len: u32,
}

impl RingSet {
    /// Points the set at the distance-`d` ring of `from` in an `n`-node
    /// system and empties it. The word buffer is reused — this only
    /// allocates when the new ring needs more words than any ring this set
    /// has held before.
    ///
    /// # Panics
    ///
    /// Panics on the same contract violations as
    /// [`oc_topology::ring_iter`]: `n` not a power of two, `from > n`, or
    /// `d` outside `1..=log2 n`.
    pub fn assign_ring(&mut self, n: usize, from: NodeId, d: u32) {
        // Delegate the contract checks (and the base computation) to the
        // iterator constructor so the two stay in lockstep.
        let mut ring = oc_topology::ring_iter(n, from, d);
        let first = ring.next().expect("rings are never empty");
        self.ring_size = 1u32 << (d - 1);
        self.base = first.zero_based();
        self.low_mask = self.ring_size - 1;
        let words = (self.ring_size as usize).div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = 0;
    }

    /// Inserts every member of the assigned ring.
    pub fn fill(&mut self) {
        let Some((last, full)) = self.words.split_last_mut() else {
            return; // no ring assigned: stays empty
        };
        let full_words = full.len();
        for word in full {
            *word = u64::MAX;
        }
        let tail_bits = self.ring_size as usize - full_words * 64;
        *last = if tail_bits == 64 { u64::MAX } else { (1u64 << tail_bits) - 1 };
        self.len = self.ring_size;
    }

    /// Removes every member; the ring assignment is kept.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Number of members present.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` when no members are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit address of `id` within this ring, or `None` when `id` is
    /// not a member of the assigned ring at all.
    fn index_of(&self, id: NodeId) -> Option<(usize, u64)> {
        if self.ring_size == 0 {
            return None;
        }
        let z = id.zero_based();
        if (z & !self.low_mask) != self.base {
            return None;
        }
        let low = z & self.low_mask;
        Some(((low / 64) as usize, 1u64 << (low % 64)))
    }

    /// `true` when `id` is present.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        match self.index_of(id) {
            Some((word, bit)) => self.words[word] & bit != 0,
            None => false,
        }
    }

    /// Inserts `id`; returns `true` if it was newly added. Identities
    /// outside the assigned ring are rejected (returns `false`).
    pub fn insert(&mut self, id: NodeId) -> bool {
        let Some((word, bit)) = self.index_of(id) else {
            return false;
        };
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.len += 1;
        true
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Some((word, bit)) = self.index_of(id) else {
            return false;
        };
        if self.words[word] & bit == 0 {
            return false;
        }
        self.words[word] &= !bit;
        self.len -= 1;
        true
    }

    /// Heap bytes held by the bitmask buffer (capacity, not length) — for
    /// the memory-footprint report.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * core::mem::size_of::<u64>()
    }

    /// Iterates the members in increasing identity order (the same order
    /// as [`oc_topology::ring_iter`] over the assigned ring).
    pub fn iter(&self) -> RingSetIter<'_> {
        RingSetIter {
            words: &self.words,
            base: self.base,
            word_index: 0,
            current: 0,
            primed: false,
        }
    }
}

impl<'a> IntoIterator for &'a RingSet {
    type Item = NodeId;
    type IntoIter = RingSetIter<'a>;

    fn into_iter(self) -> RingSetIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`RingSet`]'s members, ascending by identity.
#[derive(Debug, Clone)]
pub struct RingSetIter<'a> {
    words: &'a [u64],
    base: u32,
    word_index: usize,
    current: u64,
    primed: bool,
}

impl Iterator for RingSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if !self.primed {
                let word = *self.words.get(self.word_index)?;
                self.current = word;
                self.primed = true;
            }
            if self.current == 0 {
                self.word_index += 1;
                self.primed = false;
                continue;
            }
            let bit = self.current.trailing_zeros();
            self.current &= self.current - 1; // clear lowest set bit
            let low = self.word_index as u32 * 64 + bit;
            return Some(NodeId::from_zero_based(self.base | low));
        }
    }
}

impl core::iter::FusedIterator for RingSetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_topology::ring_iter;
    use std::collections::BTreeSet;

    #[test]
    fn default_set_is_inert() {
        let mut set = RingSet::default();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(NodeId::new(1)));
        assert!(!set.insert(NodeId::new(1)));
        assert!(!set.remove(NodeId::new(1)));
        set.fill();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn fill_covers_exactly_the_ring() {
        for (n, d) in [(16usize, 1u32), (16, 4), (256, 5), (256, 8), (1024, 7)] {
            let from = NodeId::new((n / 3) as u32 + 1);
            let mut set = RingSet::default();
            set.assign_ring(n, from, d);
            set.fill();
            let members: Vec<NodeId> = set.iter().collect();
            let expected: Vec<NodeId> = ring_iter(n, from, d).collect();
            assert_eq!(members, expected, "n={n} d={d}");
            assert_eq!(set.len() as usize, expected.len());
            // Non-members are rejected outright.
            for other in NodeId::all(n) {
                assert_eq!(set.contains(other), expected.contains(&other));
            }
        }
    }

    #[test]
    fn reassignment_reuses_the_buffer_and_resets() {
        let mut set = RingSet::default();
        set.assign_ring(1024, NodeId::new(5), 10); // 512 members: 8 words
        set.fill();
        assert_eq!(set.len(), 512);
        set.assign_ring(1024, NodeId::new(5), 2); // 2 members: 1 word
        assert!(set.is_empty(), "assign_ring empties the set");
        set.fill();
        assert_eq!(set.len(), 2);
        // Members of the old, wider ring are no longer addressable.
        let stale: Vec<NodeId> = ring_iter(1024, NodeId::new(5), 10).collect();
        assert!(!set.contains(stale[100]));
        assert!(!set.insert(stale[100]));
    }

    /// Conformance against `BTreeSet` under a deterministic pseudo-random
    /// op stream: insert / remove / contains / len / iteration order all
    /// agree, on every ring of several sizes.
    #[test]
    fn conforms_to_btreeset_under_random_ops() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // xorshift64* — self-contained, deterministic.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for (n, d) in [(8usize, 2u32), (64, 3), (64, 6), (1024, 9)] {
            let from = NodeId::new((next() % n as u64) as u32 + 1);
            let ring: Vec<NodeId> = ring_iter(n, from, d).collect();
            let mut set = RingSet::default();
            set.assign_ring(n, from, d);
            let mut reference: BTreeSet<NodeId> = BTreeSet::new();
            for _ in 0..2_000 {
                let member = ring[(next() % ring.len() as u64) as usize];
                match next() % 16 {
                    0..=5 => assert_eq!(set.insert(member), reference.insert(member)),
                    6..=11 => assert_eq!(set.remove(member), reference.remove(&member)),
                    12 | 13 => assert_eq!(set.contains(member), reference.contains(&member)),
                    14 => {
                        set.fill();
                        reference.extend(ring.iter().copied());
                    }
                    _ => {
                        set.clear();
                        reference.clear();
                    }
                }
                assert_eq!(set.len() as usize, reference.len());
                assert_eq!(set.is_empty(), reference.is_empty());
            }
            let members: Vec<NodeId> = set.iter().collect();
            let expected: Vec<NodeId> = reference.iter().copied().collect();
            assert_eq!(members, expected, "iteration order diverged at n={n} d={d}");
        }
    }
}
