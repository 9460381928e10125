//! Workload generators — the request patterns of the paper's experiments.

use oc_topology::NodeId;
use rand::{Rng, RngExt};

use crate::time::{SimDuration, SimTime};

/// A concrete, time-stamped arrival schedule: which node calls `enter_cs`
/// when.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrivalSchedule {
    arrivals: Vec<(SimTime, NodeId)>,
}

impl ArrivalSchedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        ArrivalSchedule::default()
    }

    /// Adds one arrival.
    #[must_use]
    pub fn then(mut self, at: SimTime, node: NodeId) -> Self {
        self.arrivals.push((at, node));
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
        let mut schedule = ArrivalSchedule::new();
        let mut at = SimTime::ZERO;
        for node in order {
            schedule = schedule.then(at, node);
            at += gap;
        }
        schedule
    }

    /// `count` arrivals at uniformly random nodes, spaced `gap` apart.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, count: usize, gap: SimDuration) -> Self {
        let mut schedule = ArrivalSchedule::new();
        let mut at = SimTime::ZERO;
        for _ in 0..count {
            let node = NodeId::new(rng.random_range(1..=n as u32));
            schedule = schedule.then(at, node);
            at += gap;
        }
        schedule
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
        let mut schedule = ArrivalSchedule::new();
        let mut at = SimTime::ZERO;
        for _ in 0..count {
            let node = if rng.random_range(0.0..1.0) < hot_fraction {
                hot[rng.random_range(0..hot.len())]
            } else {
                NodeId::new(rng.random_range(1..=n as u32))
            };
            schedule = schedule.then(at, node);
            at += gap;
        }
        schedule
    }

    /// `count` arrivals all from `node`, spaced `gap` apart.
    #[must_use]
    pub fn repeated(node: NodeId, count: usize, gap: SimDuration) -> Self {
        let mut schedule = ArrivalSchedule::new();
        let mut at = SimTime::ZERO;
        for _ in 0..count {
            schedule = schedule.then(at, node);
            at += gap;
        }
        schedule
    }

    /// The arrivals, in insertion order.
    #[must_use]
    pub fn arrivals(&self) -> &[(SimTime, NodeId)] {
        &self.arrivals
    }

    /// Number of arrivals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` if the schedule has no arrivals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Shifts every arrival later by `offset`.
    #[must_use]
    pub fn delayed_by(mut self, offset: SimDuration) -> Self {
        for (at, _) in &mut self.arrivals {
            *at += offset;
        }
        self
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
    fn repeated_and_delay() {
        let s = ArrivalSchedule::repeated(NodeId::new(3), 4, SimDuration::from_ticks(10))
            .delayed_by(SimDuration::from_ticks(7));
        let times: Vec<u64> = s.arrivals().iter().map(|(t, _)| t.ticks()).collect();
        assert_eq!(times, vec![7, 17, 27, 37]);
    }

    // ---- generator properties (seeded, many cases per property) ----

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// `true` if arrival times never go backwards.
        fn monotone(s: &ArrivalSchedule) -> bool {
            s.arrivals().windows(2).all(|w| w[0].0 <= w[1].0)
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
                prop_assert!(all_hot.arrivals().iter().all(|(_, node)| *node == sentinel));

                let mut rng = StdRng::seed_from_u64(seed);
                let none_hot = ArrivalSchedule::hotspot(&mut rng, n, &hot, 0.0, count, gap);
                prop_assert!(none_hot.arrivals().iter().all(|(_, node)| *node != sentinel));
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

            /// Shifting twice equals shifting once by the sum — and the
            /// shift moves every arrival by exactly the offset.
            #[test]
            fn delayed_by_composes(
                (p, count, a, b, seed) in
                    (1u32..=5, 1usize..40, 0u64..1_000, 0u64..1_000, 0u64..u64::MAX)
            ) {
                let n = 1usize << p;
                let mut rng = StdRng::seed_from_u64(seed);
                let base =
                    ArrivalSchedule::uniform(&mut rng, n, count, SimDuration::from_ticks(7));
                let twice = base
                    .clone()
                    .delayed_by(SimDuration::from_ticks(a))
                    .delayed_by(SimDuration::from_ticks(b));
                let once = base.clone().delayed_by(SimDuration::from_ticks(a + b));
                prop_assert_eq!(&twice, &once);
                for ((t0, n0), (t1, n1)) in base.arrivals().iter().zip(once.arrivals()) {
                    prop_assert_eq!(n0, n1);
                    prop_assert_eq!(t0.ticks() + a + b, t1.ticks());
                }
            }
        }
    }
}
