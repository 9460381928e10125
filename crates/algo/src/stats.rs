//! Per-node instrumentation counters, consumed by the experiment harness
//! (notably E4: `search_father` cost).

/// Counters a node maintains about its own protocol activity.
///
/// These are measurement aids, not protocol state: the algorithm never
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// `search_father` procedures started.
    pub searches_started: u32,
    /// Search phases run (including try-later re-probe rounds).
    pub search_phases: u32,
    /// `test` probes sent (the paper's "number of tested nodes").
    pub nodes_tested: u32,
    /// Searches restarted from ring 1 after a partial sweep (one that
    /// began above ring 1) exhausted ring `pmax` without finding a father
    /// — the full-sweep guard that keeps false root conclusions (and thus
    /// false regenerations) out of regeneration races.
    pub search_restarts: u32,
    /// Tokens regenerated by this node (as root or search conclusion).
    pub tokens_regenerated: u32,
    /// Requests re-sent after a search concluded with a new father.
    pub requests_regenerated: u32,
    /// Enquiries sent while supervising a loan.
    pub enquiries_sent: u32,
    /// Anomaly bounces sent (as a recovered, shrunken node).
    pub anomalies_sent: u32,
    /// Anomaly bounces received (triggering a search).
    pub anomalies_received: u32,
    /// Mint ballots this node sent ([`crate::Hardening::Quorum`] only):
    /// initial ballots, timeout retries, and post-park re-ballots.
    pub mint_ballots: u32,
    /// Mints completed with a full quorum of grants (hardened
    /// regenerations; always 0 under [`crate::Hardening::None`]).
    pub mints_completed: u32,
    /// Ballots that exhausted their retry budget without a quorum and
    /// parked — the minter concluded it is (for now) on the minority side
    /// of a cut and backed off.
    pub mints_parked: u32,
    /// Stale tokens discarded through epoch fencing: held tokens voided by
    /// higher-epoch evidence plus trailing-epoch tokens dropped on receipt.
    pub epoch_discards: u64,
}

impl NodeStats {
    /// Component-wise sum, for aggregating across nodes.
    #[must_use]
    pub fn merged(self, other: NodeStats) -> NodeStats {
        NodeStats {
            searches_started: self.searches_started + other.searches_started,
            search_phases: self.search_phases + other.search_phases,
            nodes_tested: self.nodes_tested + other.nodes_tested,
            search_restarts: self.search_restarts + other.search_restarts,
            tokens_regenerated: self.tokens_regenerated + other.tokens_regenerated,
            requests_regenerated: self.requests_regenerated + other.requests_regenerated,
            enquiries_sent: self.enquiries_sent + other.enquiries_sent,
            anomalies_sent: self.anomalies_sent + other.anomalies_sent,
            anomalies_received: self.anomalies_received + other.anomalies_received,
            mint_ballots: self.mint_ballots + other.mint_ballots,
            mints_completed: self.mints_completed + other.mints_completed,
            mints_parked: self.mints_parked + other.mints_parked,
            epoch_discards: self.epoch_discards + other.epoch_discards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_componentwise() {
        let a = NodeStats { searches_started: 1, nodes_tested: 5, ..NodeStats::default() };
        let b = NodeStats { searches_started: 2, enquiries_sent: 3, ..NodeStats::default() };
        let m = a.merged(b);
        assert_eq!(m.searches_started, 3);
        assert_eq!(m.enquiries_sent, 3);
        assert_eq!(m.nodes_tested, 5);
    }
}
