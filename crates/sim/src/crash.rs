//! Failure-injection plans.
//!
//! The paper's model is fail-stop: a crashed node does nothing, its local
//! state is lost (except the stable constants `pmax` and `dist`), and all
//! in-transit messages toward it are lost. A node may later recover and
//! re-join via `search_father`.

use oc_topology::NodeId;
use rand::{Rng, RngExt};

use crate::time::{SimDuration, SimTime};

/// One scheduled crash, with an optional recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Which node fails.
    pub node: NodeId,
    /// When it fails.
    pub at: SimTime,
    /// When it recovers, if ever.
    pub recover_at: Option<SimTime>,
}

/// A schedule of crashes and recoveries to inject into a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    events: Vec<CrashEvent>,
}

impl FailurePlan {
    /// An empty plan (no failures).
    #[must_use]
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Adds a crash at `at`, never recovering.
    #[must_use]
    pub fn crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.push(CrashEvent { node, at, recover_at: None });
        self
    }

    /// Adds a crash at `at` with recovery at `recover_at`.
    ///
    /// # Panics
    ///
    /// Panics if `recover_at <= at`.
    #[must_use]
    pub fn crash_and_recover(mut self, node: NodeId, at: SimTime, recover_at: SimTime) -> Self {
        assert!(recover_at > at, "recovery must come after the crash");
        self.events.push(CrashEvent { node, at, recover_at: Some(recover_at) });
        self
    }

    /// Generates `count` random crash/recovery pairs on nodes other than
    /// `spare`, spaced `period` apart, each down for `downtime`.
    ///
    /// This is the shape of the paper's iPSC/2 experiment: repeated single
    /// failures under load (300 failures at N=32, 200 at N=64). Keeping one
    /// `spare` node alive guarantees the system never loses all nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: with a single node the spare is the only
    /// candidate, so the rejection loop could never pick a victim.
    pub fn random_singles<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        spare: NodeId,
        count: usize,
        start: SimTime,
        period: SimDuration,
        downtime: SimDuration,
    ) -> Self {
        assert!(downtime < period, "downtime must fit within the period");
        assert!(
            n >= 2,
            "random_singles needs n >= 2: with n = 1 every candidate is the \
             spare and the rejection loop would never terminate"
        );
        let mut plan = FailurePlan::none();
        let mut at = start;
        for _ in 0..count {
            let node = loop {
                let candidate = NodeId::new(rng.random_range(1..=n as u32));
                if candidate != spare {
                    break candidate;
                }
            };
            plan = plan.crash_and_recover(node, at, at + downtime);
            at += period;
        }
        plan
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Number of crashes in the plan.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn builder_accumulates() {
        let plan = FailurePlan::none()
            .crash(NodeId::new(3), SimTime::from_ticks(100))
            .crash_and_recover(NodeId::new(5), SimTime::from_ticks(200), SimTime::from_ticks(300));
        assert_eq!(plan.crash_count(), 2);
        assert_eq!(plan.events()[0].recover_at, None);
        assert_eq!(plan.events()[1].recover_at, Some(SimTime::from_ticks(300)));
    }

    #[test]
    #[should_panic(expected = "after the crash")]
    fn rejects_recovery_before_crash() {
        let _ = FailurePlan::none().crash_and_recover(
            NodeId::new(1),
            SimTime::from_ticks(10),
            SimTime::from_ticks(10),
        );
    }

    #[test]
    fn random_singles_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = FailurePlan::random_singles(
            &mut rng,
            32,
            NodeId::new(1),
            50,
            SimTime::from_ticks(1_000),
            SimDuration::from_ticks(10_000),
            SimDuration::from_ticks(2_000),
        );
        assert_eq!(plan.crash_count(), 50);
        for (i, ev) in plan.events().iter().enumerate() {
            assert_ne!(ev.node, NodeId::new(1), "spare never crashes");
            assert_eq!(ev.at, SimTime::from_ticks(1_000 + 10_000 * i as u64));
            assert_eq!(ev.recover_at, Some(ev.at + SimDuration::from_ticks(2_000)));
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn random_singles_rejects_single_node_systems() {
        // With n = 1 the only candidate is the spare: before the assert,
        // the rejection loop span forever instead of failing loudly.
        let mut rng = StdRng::seed_from_u64(1);
        let _ = FailurePlan::random_singles(
            &mut rng,
            1,
            NodeId::new(1),
            1,
            SimTime::ZERO,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(10),
        );
    }

    #[test]
    fn random_singles_deterministic() {
        let make = || {
            let mut rng = StdRng::seed_from_u64(9);
            FailurePlan::random_singles(
                &mut rng,
                16,
                NodeId::new(2),
                20,
                SimTime::ZERO,
                SimDuration::from_ticks(100),
                SimDuration::from_ticks(10),
            )
        };
        assert_eq!(make(), make());
    }
}
