//! Distances between nodes (Definition 2.2) and distance rings.
//!
//! `dist(i, j)` is the smallest `d` such that `i` and `j` belong to the same
//! d-group. Because b-transformations never change p-group membership
//! (Cor. 2.2), distances are **invariant** over the whole life of the system
//! — the paper stores them in a per-node constant array `dist_i`. We compute
//! them on the fly: with `zi = i - 1`, `zj = j - 1`,
//! `dist(i, j) = bit_length(zi XOR zj)`, because the smallest enclosing
//! d-group of a node is exactly its aligned block of `2^d` indices.

use crate::NodeId;

/// Distance between two nodes (Definition 2.2): the smallest `d` such that
/// both belong to the same d-group. `dist(i, i) = 0`.
///
/// This value is invariant under b-transformations (Cor. 2.3), so it never
/// depends on the current tree — only on the identities.
///
/// ```
/// use oc_topology::{dist, NodeId};
/// // Paper, after Definition 2.2 (16-open-cube):
/// // dist(1,2)=1, dist(1,3)=dist(1,4)=2, dist(1,5..8)=3, dist(1,9..16)=4.
/// let n1 = NodeId::new(1);
/// assert_eq!(dist(n1, NodeId::new(2)), 1);
/// assert_eq!(dist(n1, NodeId::new(3)), 2);
/// assert_eq!(dist(n1, NodeId::new(4)), 2);
/// assert_eq!(dist(n1, NodeId::new(7)), 3);
/// assert_eq!(dist(n1, NodeId::new(16)), 4);
/// assert_eq!(dist(n1, n1), 0);
/// ```
#[must_use]
pub fn dist(i: NodeId, j: NodeId) -> u32 {
    let x = i.zero_based() ^ j.zero_based();
    32 - x.leading_zeros()
}

/// All nodes at distance exactly `d` from `from` in an `n`-node system,
/// in increasing identity order, as an allocation-free iterator.
///
/// There are exactly `2^(d-1)` such nodes for `1 ≤ d ≤ log2 n`
/// (paper, Section 5): the other half of `from`'s d-group. This is the
/// *ring* probed by phase `d` of the `search_father` procedure, computed
/// lazily from three integers: every probe phase walks one ring, and at
/// production sizes the outer rings hold up to `n/2` members. Collect
/// explicitly if a materialized ring is wanted.
///
/// # Panics
///
/// Panics if `n` is not a power of two, `from > n`, or `d` is outside
/// `1..=log2 n`.
///
/// ```
/// use oc_topology::{ring_iter, NodeId};
/// let ring: Vec<u32> = ring_iter(16, NodeId::new(10), 2).map(NodeId::get).collect();
/// assert_eq!(ring, vec![11, 12]);
/// assert_eq!(ring_iter(16, NodeId::new(10), 4).len(), 8);
/// ```
#[must_use]
pub fn ring_iter(n: usize, from: NodeId, d: u32) -> RingIter {
    let p = crate::dimension(n);
    assert!((from.get() as usize) <= n, "node {from} outside 1..={n}");
    assert!(d >= 1 && d <= p, "distance {d} outside 1..={p}");
    RingIter { base: ring_base(from, d), next: 0, end: 1u32 << (d - 1) }
}

/// The common zero-based prefix of every member of `from`'s distance-`d`
/// ring: bits above position `d-1` agree with `from`, bit `d-1` differs,
/// and bits below `d-1` are free (those free bits index the ring).
pub(crate) fn ring_base(from: NodeId, d: u32) -> u32 {
    let z = from.zero_based();
    (z & !((1u32 << d) - 1)) | ((z ^ (1 << (d - 1))) & (1 << (d - 1)))
}

/// Iterator of [`ring_iter`]: yields `base | low` for `low` in
/// `0..2^(d-1)`, as [`NodeId`]s in increasing identity order.
#[derive(Debug, Clone)]
pub struct RingIter {
    base: u32,
    next: u32,
    end: u32,
}

impl Iterator for RingIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == self.end {
            return None;
        }
        let low = self.next;
        self.next += 1;
        Some(NodeId::from_zero_based(self.base | low))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RingIter {}

impl DoubleEndedIterator for RingIter {
    fn next_back(&mut self) -> Option<NodeId> {
        if self.next == self.end {
            return None;
        }
        self.end -= 1;
        Some(NodeId::from_zero_based(self.base | self.end))
    }
}

impl core::iter::FusedIterator for RingIter {}

/// Size of the distance-`d` ring: `2^(d-1)` nodes for `d ≥ 1`
/// (independent of the node, paper Section 5).
///
/// ```
/// assert_eq!(oc_topology::ring_size(1), 1);
/// assert_eq!(oc_topology::ring_size(4), 8);
/// ```
#[must_use]
pub fn ring_size(d: u32) -> usize {
    assert!(d >= 1, "rings are defined for d >= 1");
    1usize << (d - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation straight from Definition 2.2: the smallest
    /// `d` whose aligned `2^d` block contains both indices.
    fn dist_reference(i: NodeId, j: NodeId, n: usize) -> u32 {
        let p = crate::dimension(n);
        for d in 0..=p {
            let block = 1u32 << d;
            if i.zero_based() / block == j.zero_based() / block {
                return d;
            }
        }
        unreachable!("the whole cube is a {p}-group");
    }

    #[test]
    fn closed_form_matches_definition() {
        let n = 64;
        for i in NodeId::all(n) {
            for j in NodeId::all(n) {
                assert_eq!(dist(i, j), dist_reference(i, j, n), "dist({i},{j})");
            }
        }
    }

    #[test]
    fn dist_is_a_symmetric_ultrametric() {
        let n = 32;
        for i in NodeId::all(n) {
            assert_eq!(dist(i, i), 0);
            for j in NodeId::all(n) {
                assert_eq!(dist(i, j), dist(j, i));
                for k in NodeId::all(n) {
                    // Strong triangle inequality: p-groups nest.
                    assert!(dist(i, k) <= dist(i, j).max(dist(j, k)));
                }
            }
        }
    }

    #[test]
    fn ring_sizes_match_paper() {
        let n = 64;
        for from in NodeId::all(n) {
            for d in 1..=6 {
                let ring = ring_iter(n, from, d);
                assert_eq!(ring.len(), ring_size(d), "ring({from}, {d})");
                for member in ring {
                    assert_eq!(dist(from, member), d);
                }
            }
        }
    }

    #[test]
    fn rings_partition_the_cube() {
        let n = 32;
        let from = NodeId::new(13);
        let mut seen = vec![from];
        for d in 1..=5 {
            seen.extend(ring_iter(n, from, d));
        }
        seen.sort();
        let all: Vec<NodeId> = NodeId::all(n).collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn paper_distances_from_node_1() {
        // Checks the exact enumeration the paper gives after Definition 2.2.
        let n1 = NodeId::new(1);
        for j in 9..=16 {
            assert_eq!(dist(n1, NodeId::new(j)), 4);
        }
        for j in 5..=8 {
            assert_eq!(dist(n1, NodeId::new(j)), 3);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn ring_rejects_excessive_distance() {
        let _ = ring_iter(16, NodeId::new(10), 5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn ring_iter_rejects_excessive_distance() {
        let _ = ring_iter(8, NodeId::new(1), 4);
    }

    #[test]
    fn ring_iter_is_exact_sized_and_fused() {
        let mut it = ring_iter(64, NodeId::new(7), 4);
        assert_eq!(it.len(), 8);
        assert_eq!(it.size_hint(), (8, Some(8)));
        let _ = it.next();
        assert_eq!(it.len(), 7);
        for _ in it.by_ref() {}
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn ring_iter_reverses_cleanly() {
        let forward: Vec<NodeId> = ring_iter(64, NodeId::new(21), 5).collect();
        let mut backward: Vec<NodeId> = ring_iter(64, NodeId::new(21), 5).rev().collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn ring_iter_matches_membership_by_distance() {
        // Every member the iterator yields is at distance exactly d, and
        // every node at distance d is yielded (checked by counting).
        let n = 128;
        for from in NodeId::all(n) {
            for d in 1..=7 {
                let members: Vec<NodeId> = ring_iter(n, from, d).collect();
                assert_eq!(members.len(), ring_size(d));
                for m in &members {
                    assert_eq!(dist(from, *m), d);
                }
            }
        }
    }
}
