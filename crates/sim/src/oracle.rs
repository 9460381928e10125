//! Safety oracles: mutual exclusion and token uniqueness.
//!
//! The oracle observes every state change the simulator makes and records
//! violations instead of panicking, so that experiments under aggressive
//! failure injection can complete and *report*; tests then assert the
//! report is clean.

use oc_topology::NodeId;

use crate::time::SimTime;

/// One observed violation of a safety property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two nodes were inside the critical section simultaneously.
    MutualExclusion {
        /// When the second entry happened.
        at: SimTime,
        /// The node already in the critical section.
        occupant: NodeId,
        /// The node that entered concurrently.
        intruder: NodeId,
    },
    /// More than one live token existed (held by live nodes or in flight to
    /// live nodes) outside a regeneration window.
    TokenDuplication {
        /// When the duplication was observed.
        at: SimTime,
        /// Number of live tokens counted.
        count: usize,
    },
}

/// The oracle's final report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    violations: Vec<Violation>,
}

impl OracleReport {
    /// All recorded violations, in observation order.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` if no safety property was ever violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one, preserving each report's
    /// internal observation order. A multi-tenant substrate judges every
    /// namespace with its own [`Oracle`] (mutual exclusion and token
    /// uniqueness are per-lock-instance properties) and absorbs the
    /// per-namespace reports into one service-wide verdict.
    pub fn absorb(&mut self, other: OracleReport) {
        self.violations.extend(other.violations);
    }
}

/// Tracks CS occupancy and live-token counts across a run.
///
/// Public so that *any* substrate can be judged by the same code: the
/// simulator feeds it from virtual-time state changes, and the threaded
/// runtime (`oc-runtime`) feeds it the linearized records of its monitor
/// (the monitor lock's acquisition order is the linearization). The
/// oracle itself never cares which substrate produced an event.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Every node currently inside the CS with the token epoch it entered
    /// under, in entry order. Normally empty or a single element; a
    /// *same-epoch* overlap is a violation, and keeping the whole set
    /// (rather than only the first occupant) means every overlapping entry
    /// after the first is reported and every occupant's exit — intruders
    /// included — is honored, so a third concurrent entry after the
    /// original occupant left cannot slip past unreported.
    ///
    /// Epochs exist for the hardened protocol mode: after a healed
    /// partition, a fenced-out stale token (lower epoch) can still admit
    /// its holder to the CS until the fence reaches it — that overlap is
    /// the *defined* semantics of epoch fencing (the resource guard
    /// compares epochs), not a mutual-exclusion failure. The invariant is
    /// per-epoch: no two nodes in the CS under the *same* epoch. Baseline
    /// runs put every entry at epoch 0, which degenerates to the plain
    /// mutual-exclusion check.
    occupants: Vec<(NodeId, u64)>,
    report: OracleReport,
}

impl Oracle {
    /// A fresh oracle with no observations.
    #[must_use]
    pub fn new() -> Self {
        Oracle { occupants: Vec::new(), report: OracleReport::default() }
    }

    /// Forgets every observation, as [`Oracle::new`] would, keeping the
    /// vectors' capacity.
    pub(crate) fn reset(&mut self) {
        let Oracle { occupants, report: OracleReport { violations } } = self;
        occupants.clear();
        violations.clear();
    }

    /// A node enters the critical section under token epoch `epoch`
    /// (always 0 outside the hardened mode).
    pub fn enter_cs(&mut self, at: SimTime, node: NodeId, epoch: u64) {
        if let Some(&(occupant, _)) =
            self.occupants.iter().find(|(_, held_epoch)| *held_epoch == epoch)
        {
            self.report.violations.push(Violation::MutualExclusion {
                at,
                occupant,
                intruder: node,
            });
        }
        self.occupants.push((node, epoch));
    }

    /// A node leaves the critical section (or crashes inside it).
    pub fn exit_cs(&mut self, node: NodeId) {
        self.occupants.retain(|(occupant, _)| *occupant != node);
    }

    /// Periodic token census: `count` live tokens exist right now. The
    /// hardened caller counts only tokens at the highest witnessed epoch —
    /// fenced-out stale tokens awaiting discard are not duplicates of the
    /// current token, they are its predecessors. Baseline callers count
    /// every live token (all at epoch 0), exactly as before.
    pub fn token_census(&mut self, at: SimTime, count: usize) {
        if count > 1 {
            self.report.violations.push(Violation::TokenDuplication { at, count });
        }
    }

    /// The report accumulated so far.
    #[must_use]
    pub fn report(&self) -> &OracleReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_reports_clean() {
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.exit_cs(NodeId::new(1));
        o.enter_cs(SimTime::from_ticks(2), NodeId::new(2), 0);
        o.exit_cs(NodeId::new(2));
        o.token_census(SimTime::from_ticks(3), 1);
        o.token_census(SimTime::from_ticks(4), 0);
        assert!(o.report().is_clean());
    }

    #[test]
    fn detects_mutual_exclusion_violation() {
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.enter_cs(SimTime::from_ticks(2), NodeId::new(2), 0);
        assert_eq!(o.report().violations().len(), 1);
        assert!(matches!(
            o.report().violations()[0],
            Violation::MutualExclusion { occupant, intruder, .. }
                if occupant == NodeId::new(1) && intruder == NodeId::new(2)
        ));
    }

    #[test]
    fn detects_token_duplication() {
        let mut o = Oracle::new();
        o.token_census(SimTime::from_ticks(9), 2);
        assert!(!o.report().is_clean());
    }

    #[test]
    fn intruder_is_tracked_after_a_violation() {
        // The regression the occupant-set fixes: node 1 enters, node 2
        // intrudes (violation), node 1 leaves — node 2 is *still inside*,
        // so node 3's entry must be reported as a second violation.
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.enter_cs(SimTime::from_ticks(2), NodeId::new(2), 0);
        o.exit_cs(NodeId::new(1));
        o.enter_cs(SimTime::from_ticks(3), NodeId::new(3), 0);
        assert_eq!(o.report().violations().len(), 2);
        assert!(matches!(
            o.report().violations()[1],
            Violation::MutualExclusion { occupant, intruder, .. }
                if occupant == NodeId::new(2) && intruder == NodeId::new(3)
        ));
        // Once both leave, a fresh entry is clean again.
        o.exit_cs(NodeId::new(2));
        o.exit_cs(NodeId::new(3));
        o.enter_cs(SimTime::from_ticks(4), NodeId::new(4), 0);
        assert_eq!(o.report().violations().len(), 2);
    }

    #[test]
    fn intruder_exit_is_honored() {
        // The intruder leaving must clear *its* occupancy, not the
        // original occupant's.
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.enter_cs(SimTime::from_ticks(2), NodeId::new(2), 0);
        o.exit_cs(NodeId::new(2));
        // Node 1 is still inside: a new entry is a violation.
        o.enter_cs(SimTime::from_ticks(3), NodeId::new(3), 0);
        assert_eq!(o.report().violations().len(), 2);
    }

    #[test]
    fn cross_epoch_overlap_is_fencing_not_a_violation() {
        // Hardened semantics: a stale-epoch holder still inside the CS
        // while the new-epoch holder enters is the *defined* behavior of
        // epoch fencing, not a mutual-exclusion failure.
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.enter_cs(SimTime::from_ticks(2), NodeId::new(2), 1);
        assert!(o.report().is_clean(), "different epochs may overlap");
        // A same-epoch intruder on either occupant is still a violation.
        o.enter_cs(SimTime::from_ticks(3), NodeId::new(3), 1);
        assert_eq!(o.report().violations().len(), 1);
        assert!(matches!(
            o.report().violations()[0],
            Violation::MutualExclusion { occupant, intruder, .. }
                if occupant == NodeId::new(2) && intruder == NodeId::new(3)
        ));
        // Exits clear per-node occupancy across epochs.
        o.exit_cs(NodeId::new(2));
        o.exit_cs(NodeId::new(3));
        o.enter_cs(SimTime::from_ticks(4), NodeId::new(4), 0);
        assert_eq!(o.report().violations().len(), 2, "epoch 0 is still occupied by node 1");
    }

    #[test]
    fn exit_by_non_occupant_is_ignored() {
        let mut o = Oracle::new();
        o.enter_cs(SimTime::from_ticks(1), NodeId::new(1), 0);
        o.exit_cs(NodeId::new(2));
        o.exit_cs(NodeId::new(1));
        o.enter_cs(SimTime::from_ticks(3), NodeId::new(3), 0);
        assert!(o.report().is_clean());
    }
}
