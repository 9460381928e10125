//! Workload generators — the request patterns of the paper's experiments.
//!
//! # What a schedule stores
//!
//! Every generator spaces its arrivals `gap` apart from time zero, so a
//! generated schedule stores only its nodes — 4 bytes an arrival — and
//! computes arrival `i`'s time as `i · gap`. Only a schedule built by
//! [`ArrivalSchedule::then`] or `collect` keeps an explicit time per
//! arrival (16 bytes each); those come from scenario ids and tests and
//! hold a few thousand arrivals at most. Both forms are read through one
//! accessor, [`Arrivals::get`], which yields `(time, node)` pairs; no
//! other module knows how they are stored.

use std::sync::Arc;

use oc_topology::NodeId;
use rand::{Rng, RngExt};

use crate::time::{SimDuration, SimTime};

/// A concrete, time-stamped arrival schedule: which node calls `enter_cs`
/// when.
///
/// The arrivals sit behind an `Arc`: a cloned schedule, and a world that
/// [filed](crate::World::schedule_workload) it, share them instead of
/// copying them. Two schedules are equal when they list the same
/// arrivals, however each stores them.
#[derive(Debug, Clone, Default)]
pub struct ArrivalSchedule {
    stored: Arc<Stored>,
}

/// How a schedule's arrivals are stored (see the module docs).
#[derive(Debug, Clone)]
enum Stored {
    /// Arrival `i` is `nodes[i]` at `i · gap`: what every generator makes.
    Spaced { gap: SimDuration, nodes: Vec<NodeId> },
    /// An explicit time per arrival, in insertion order.
    Timed(Vec<(SimTime, NodeId)>),
}

impl Default for Stored {
    fn default() -> Self {
        Stored::Timed(Vec::new())
    }
}

impl PartialEq for ArrivalSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.arrivals().iter().eq(other.arrivals().iter())
    }
}

impl Eq for ArrivalSchedule {}

impl FromIterator<(SimTime, NodeId)> for ArrivalSchedule {
    fn from_iter<T: IntoIterator<Item = (SimTime, NodeId)>>(arrivals: T) -> Self {
        ArrivalSchedule { stored: Arc::new(Stored::Timed(arrivals.into_iter().collect())) }
    }
}

impl ArrivalSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        ArrivalSchedule::default()
    }

    /// Adds one arrival. A generated schedule extended this way keeps an
    /// explicit time per arrival from then on.
    #[must_use]
    pub fn then(mut self, at: SimTime, node: NodeId) -> Self {
        if let Stored::Spaced { .. } = *self.stored {
            self = self.arrivals().iter().collect();
        }
        if let Stored::Timed(list) = Arc::make_mut(&mut self.stored) {
            list.push((at, node));
        }
        self
    }

    /// Every node requests once, in a random order, spaced `gap` apart
    /// (choose `gap` larger than a request's round-trip to make requests
    /// effectively sequential, as in the Section 4 analysis).
    pub fn every_node_once<R: Rng + ?Sized>(rng: &mut R, n: usize, gap: SimDuration) -> Self {
        let mut order: Vec<NodeId> = NodeId::all(n).collect();
        // Fisher-Yates.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        spaced(gap, order)
    }

    /// `count` arrivals at uniformly random nodes, spaced `gap` apart.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, count: usize, gap: SimDuration) -> Self {
        spaced(gap, (0..count).map(|_| NodeId::new(rng.random_range(1..=n as u32))))
    }

    /// `count` arrivals where each comes from the `hot` set with probability
    /// `hot_fraction`, otherwise from a uniformly random node.
    pub fn hotspot<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        hot: &[NodeId],
        hot_fraction: f64,
        count: usize,
        gap: SimDuration,
    ) -> Self {
        assert!(!hot.is_empty(), "hotspot workload needs at least one hot node");
        assert!((0.0..=1.0).contains(&hot_fraction), "fraction must be in [0,1]");
        let nodes = (0..count).map(|_| {
            if rng.random_range(0.0..1.0) < hot_fraction {
                hot[rng.random_range(0..hot.len())]
            } else {
                NodeId::new(rng.random_range(1..=n as u32))
            }
        });
        spaced(gap, nodes)
    }

    /// `count` arrivals all from `node`, spaced `gap` apart.
    #[must_use]
    pub fn repeated(node: NodeId, count: usize, gap: SimDuration) -> Self {
        spaced(gap, std::iter::repeat_n(node, count))
    }

    /// The arrivals, in insertion order.
    #[must_use]
    pub fn arrivals(&self) -> Arrivals<'_> {
        Arrivals(&self.stored)
    }

    /// Number of arrivals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals().len()
    }

    /// `true` if the schedule has no arrivals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes of the stored arrivals, averaged over them: 4 for a
    /// generated schedule (a node id each), 16 for one with explicit
    /// times, 0 for an empty one. Reported in the E7 artifact beside the
    /// per-node footprint.
    #[must_use]
    pub fn bytes_per_arrival(&self) -> u64 {
        let (bytes, len) = match &*self.stored {
            Stored::Spaced { nodes, .. } => (nodes.capacity() * size_of::<NodeId>(), nodes.len()),
            Stored::Timed(list) => (list.capacity() * size_of::<(SimTime, NodeId)>(), list.len()),
        };
        bytes.div_ceil(len.max(1)) as u64
    }

    /// `true` if arrival times never go backwards: always, for a
    /// generated schedule.
    #[must_use]
    pub fn is_time_ordered(&self) -> bool {
        match &*self.stored {
            Stored::Spaced { .. } => true,
            Stored::Timed(list) => list.is_sorted_by_key(|(at, _)| *at),
        }
    }
}

/// `nodes` arriving one after another, the first at time zero, `gap`
/// apart.
fn spaced(gap: SimDuration, nodes: impl IntoIterator<Item = NodeId>) -> ArrivalSchedule {
    ArrivalSchedule { stored: Arc::new(Stored::Spaced { gap, nodes: nodes.into_iter().collect() }) }
}

/// A schedule's arrivals as `(time, node)` pairs, read in place.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals<'a>(&'a Stored);

impl<'a> Arrivals<'a> {
    /// Arrival `i`. Its time is computed if the schedule is generated,
    /// read if it is not.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Arrivals::len`].
    #[must_use]
    pub fn get(self, i: usize) -> (SimTime, NodeId) {
        match self.0 {
            Stored::Spaced { gap, nodes } => (SimTime::ZERO + *gap * i as u64, nodes[i]),
            Stored::Timed(list) => list[i],
        }
    }

    /// Number of arrivals.
    #[must_use]
    pub fn len(self) -> usize {
        match self.0 {
            Stored::Spaced { nodes, .. } => nodes.len(),
            Stored::Timed(list) => list.len(),
        }
    }

    /// `true` if there are no arrivals.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The arrivals in insertion order.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = (SimTime, NodeId)> + 'a {
        (0..self.len()).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn every_node_once_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = ArrivalSchedule::every_node_once(&mut rng, 16, SimDuration::from_ticks(100));
        assert_eq!(s.len(), 16);
        let mut nodes: Vec<u32> = s.arrivals().iter().map(|(_, n)| n.get()).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (1..=16).collect::<Vec<u32>>());
        // Spacing is exactly the gap.
        for (i, (at, _)) in s.arrivals().iter().enumerate() {
            assert_eq!(at.ticks(), 100 * i as u64);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = ArrivalSchedule::uniform(&mut rng, 8, 100, SimDuration::from_ticks(5));
        assert_eq!(s.len(), 100);
        assert!(s.arrivals().iter().all(|(_, n)| (1..=8).contains(&n.get())));
    }

    #[test]
    fn hotspot_is_biased() {
        let mut rng = StdRng::seed_from_u64(5);
        let hot = [NodeId::new(7)];
        let s = ArrivalSchedule::hotspot(&mut rng, 64, &hot, 0.9, 500, SimDuration::from_ticks(1));
        let hot_count = s.arrivals().iter().filter(|(_, n)| *n == NodeId::new(7)).count();
        assert!(hot_count > 350, "expected ~450 hot arrivals, got {hot_count}");
    }

    #[test]
    fn repeated_is_evenly_spaced() {
        let s = ArrivalSchedule::repeated(NodeId::new(3), 4, SimDuration::from_ticks(10));
        let times: Vec<u64> = s.arrivals().iter().map(|(t, _)| t.ticks()).collect();
        assert_eq!(times, vec![0, 10, 20, 30]);
        assert!(s.arrivals().iter().all(|(_, node)| node == NodeId::new(3)));
    }

    #[test]
    fn a_generated_schedule_keeps_a_node_id_per_arrival() {
        let mut rng = StdRng::seed_from_u64(6);
        let spaced = ArrivalSchedule::uniform(&mut rng, 8, 1_000, SimDuration::from_ticks(25));
        assert_eq!(spaced.bytes_per_arrival(), 4);
        let timed: ArrivalSchedule = spaced.arrivals().iter().collect();
        assert_eq!(timed.bytes_per_arrival(), 16);
        assert_eq!(spaced, timed);
        assert_eq!(ArrivalSchedule::new().bytes_per_arrival(), 0);
        // Extending a generated schedule keeps its arrivals and adds one.
        let extended = spaced.clone().then(SimTime::from_ticks(7), NodeId::new(2));
        assert_eq!(extended.len(), 1_001);
        assert!(extended.arrivals().iter().take(1_000).eq(spaced.arrivals().iter()));
        assert_eq!(extended.arrivals().get(1_000), (SimTime::from_ticks(7), NodeId::new(2)));
        assert!(!extended.is_time_ordered());
        assert_ne!(extended, spaced);
    }

    // ---- generator properties (seeded, many cases per property) ----

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// `true` if arrival times never go backwards.
        fn monotone(s: &ArrivalSchedule) -> bool {
            s.arrivals().iter().zip(s.arrivals().iter().skip(1)).all(|(a, b)| a.0 <= b.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `hot_fraction = 1.0` forces *every* arrival through the hot
            /// set; `0.0` forces *none*. Using a hot node outside `1..=n`
            /// makes the check exact: the uniform fallback can never
            /// produce it by chance.
            #[test]
            fn hotspot_extreme_fractions_are_exact(
                (p, count, seed) in (1u32..=6, 1usize..80, 0u64..u64::MAX)
            ) {
                let n = 1usize << p;
                let sentinel = NodeId::new(n as u32 + 7);
                let hot = [sentinel];
                let gap = SimDuration::from_ticks(3);

                let mut rng = StdRng::seed_from_u64(seed);
                let all_hot = ArrivalSchedule::hotspot(&mut rng, n, &hot, 1.0, count, gap);
                prop_assert!(all_hot.arrivals().iter().all(|(_, node)| node == sentinel));

                let mut rng = StdRng::seed_from_u64(seed);
                let none_hot = ArrivalSchedule::hotspot(&mut rng, n, &hot, 0.0, count, gap);
                prop_assert!(none_hot.arrivals().iter().all(|(_, node)| node != sentinel));
                prop_assert!(none_hot
                    .arrivals()
                    .iter()
                    .all(|(_, node)| (1..=n as u32).contains(&node.get())));
            }

            /// `uniform` and `every_node_once` produce time-monotone
            /// schedules for any gap (including zero).
            #[test]
            fn generated_arrivals_are_monotone_in_time(
                (p, count, gap, seed) in (1u32..=6, 1usize..80, 0u64..50, 0u64..u64::MAX)
            ) {
                let n = 1usize << p;
                let gap = SimDuration::from_ticks(gap);
                let mut rng = StdRng::seed_from_u64(seed);
                prop_assert!(monotone(&ArrivalSchedule::uniform(&mut rng, n, count, gap)));
                prop_assert!(monotone(&ArrivalSchedule::every_node_once(&mut rng, n, gap)));
                prop_assert!(monotone(&ArrivalSchedule::repeated(NodeId::new(1), count, gap)));
            }
        }
    }
}
