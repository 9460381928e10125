//! Message accounting — the raw material of every experiment in the paper.

/// Classification of protocol traffic.
///
/// `Request` and `Token` are the base algorithm of Section 3; the remaining
/// kinds only appear in the fault-tolerance machinery of Section 5 and are
/// what the paper counts as *overhead messages per failure*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// `request(j)` — a claim for the token travelling toward the root.
    Request,
    /// `token(j)` — the token itself (lender identity inside).
    Token,
    /// The root's enquiry to the source of a pending loan (Section 5).
    Enquiry,
    /// Answer to an enquiry.
    EnquiryReply,
    /// `test(d)` — a `search_father` ring probe (Section 5).
    Test,
    /// `answer(ok | try-later)` — reply to a `test` probe.
    Answer,
    /// The anomaly notification sent by a recovered node (Section 5).
    Anomaly,
    /// A hardened-mode mint ballot: a node asking for quorum permission to
    /// regenerate the token at a proposed epoch (never sent by the paper
    /// protocol — `Hardening::None` runs count zero of these).
    MintRequest,
    /// Grant/refusal reply to a mint ballot (hardened mode only).
    MintAck,
}

impl MsgKind {
    /// `true` for kinds that exist only to handle failures; the paper's
    /// "overhead messages per failure" metric counts these. The hardened
    /// mint traffic counts as overhead too: it exists only on the
    /// regeneration path.
    #[must_use]
    pub fn is_failure_overhead(self) -> bool {
        !matches!(self, MsgKind::Request | MsgKind::Token)
    }

    /// All kinds, for table headers.
    #[must_use]
    pub fn all() -> [MsgKind; 9] {
        [
            MsgKind::Request,
            MsgKind::Token,
            MsgKind::Enquiry,
            MsgKind::EnquiryReply,
            MsgKind::Test,
            MsgKind::Answer,
            MsgKind::Anomaly,
            MsgKind::MintRequest,
            MsgKind::MintAck,
        ]
    }

    /// Dense index of this kind into a `[_; 9]` counter array.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Protocol acts the substrate counts that no message kind already gives:
/// a protocol reports one with [`crate::Outbox::count`], and the
/// simulator adds it to [`Metrics`]. These are the paper's Section 5
/// counts (probes per `search_father` are [`MsgKind::Test`] sends;
/// enquiries and anomaly bounces are their kinds' sends too).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// `search_father` procedures started.
    SearchesStarted,
    /// Search phases run, try-later re-probe rounds included.
    SearchPhases,
    /// Searches restarted from ring 1 after a sweep that began above
    /// ring 1 exhausted ring `pmax` without finding a father.
    SearchRestarts,
    /// Tokens regenerated (as root, as lender, or by a quorum mint).
    TokensRegenerated,
    /// Pending claims re-sent after a search concluded with a new father.
    RequestsRegenerated,
    /// Anomaly bounces received while a claim was pending (each starts a
    /// search).
    AnomaliesReceived,
    /// Hardened-mode mint ballots: initial ballots, timeout retries and
    /// post-park re-ballots.
    MintBallots,
    /// Hardened-mode mints completed with a quorum of grants.
    MintsCompleted,
    /// Hardened-mode ballots that ran out of attempts and parked.
    MintsParked,
    /// Stale tokens discarded by hardened-mode epoch fencing: a held
    /// token voided by higher-epoch evidence, or a token whose epoch
    /// trailed the receiver's on arrival. Always 0 under
    /// `Hardening::None`.
    EpochDiscards,
}

impl Counter {
    /// How many counters there are: the last one's index plus one.
    const COUNT: usize = Counter::EpochDiscards as usize + 1;

    /// Dense index of this counter into a `[_; Counter::COUNT]` array.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated counters collected by a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages sent, indexed by [`MsgKind`] discriminant. A fixed array
    /// instead of a map: `record_send` sits on the per-send hot path, and
    /// an indexed add is both branch-free and allocation-free.
    sends_by_kind: [u64; 9],
    /// Protocol counts, indexed by [`Counter`] discriminant.
    counts: [u64; Counter::COUNT],
    /// Messages destroyed because the destination had crashed.
    pub lost_to_crashes: u64,
    /// Messages dropped on links to *live* nodes by scripted
    /// degradation/loss phases ([`crate::channel::FaultScript`]).
    pub lost_to_faults: u64,
    /// Messages destroyed at a scripted partition boundary
    /// ([`crate::channel::FaultScript`]). Counted apart from
    /// `lost_to_faults` so a partition battery can see exactly how much
    /// traffic the cut ate.
    pub lost_to_partition: u64,
    /// Extra deliveries injected by the duplicate-delivery link fault.
    /// These are not counted as sends (`total_sent` is unchanged): one
    /// logical send, two deliveries.
    pub duplicated_deliveries: u64,
    /// `RequestCs` injections that can never be served: issued to a node
    /// that was already crashed, or wiped while pending when their node
    /// crashed. The liveness oracle expects
    /// `cs_entries + requests_abandoned` to account for every injection.
    pub requests_abandoned: u64,
    /// Completed critical sections.
    pub cs_entries: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Recoveries injected.
    pub recoveries: u64,
    /// Total virtual time spent waiting between a `RequestCs` and the
    /// matching CS entry, summed over requests (ticks).
    pub total_waiting_ticks: u64,
    /// Events processed by the simulator.
    pub events_processed: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one message send of the given kind.
    #[inline]
    pub fn record_send(&mut self, kind: MsgKind) {
        self.sends_by_kind[kind.index()] += 1;
    }

    /// Messages sent of one kind.
    #[must_use]
    pub fn sent(&self, kind: MsgKind) -> u64 {
        self.sends_by_kind[kind.index()]
    }

    /// Records one protocol count.
    #[inline]
    pub fn record_count(&mut self, counter: Counter) {
        self.counts[counter.index()] += 1;
    }

    /// How often the protocol reported `counter`.
    #[must_use]
    pub fn counted(&self, counter: Counter) -> u64 {
        self.counts[counter.index()]
    }

    /// Total messages sent, all kinds.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.sends_by_kind.iter().sum()
    }

    /// Messages of the failure-handling machinery only.
    #[must_use]
    pub fn overhead_messages(&self) -> u64 {
        MsgKind::all().into_iter().filter(|k| k.is_failure_overhead()).map(|k| self.sent(k)).sum()
    }

    /// Average messages per completed critical section.
    #[must_use]
    pub fn messages_per_cs(&self) -> f64 {
        if self.cs_entries == 0 {
            0.0
        } else {
            self.total_sent() as f64 / self.cs_entries as f64
        }
    }

    /// Average waiting time (ticks) per completed critical section.
    #[must_use]
    pub fn mean_waiting_ticks(&self) -> f64 {
        if self.cs_entries == 0 {
            0.0
        } else {
            self.total_waiting_ticks as f64 / self.cs_entries as f64
        }
    }

    /// Difference of total message counts against a baseline run — used to
    /// attribute "extra messages" to injected failures.
    #[must_use]
    pub fn extra_messages_vs(&self, baseline: &Metrics) -> i64 {
        self.total_sent() as i64 - baseline.total_sent() as i64
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// The reduction step for experiments that aggregate over many
    /// independent `World`s (e.g. E2's canonical-configuration totals in
    /// `oc-bench`, and any sweep cell that folds several runs). Merging is
    /// associative and `Metrics::default()` is its identity (unit-tested
    /// below), so an aggregate is independent of how the runs were
    /// sharded or ordered.
    pub fn merge(&mut self, other: &Metrics) {
        for (mine, theirs) in self.sends_by_kind.iter_mut().zip(&other.sends_by_kind) {
            *mine += theirs;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.lost_to_crashes += other.lost_to_crashes;
        self.lost_to_faults += other.lost_to_faults;
        self.lost_to_partition += other.lost_to_partition;
        self.duplicated_deliveries += other.duplicated_deliveries;
        self.requests_abandoned += other.requests_abandoned;
        self.cs_entries += other.cs_entries;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.total_waiting_ticks += other.total_waiting_ticks;
        self.events_processed += other.events_processed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting() {
        let mut m = Metrics::new();
        m.record_send(MsgKind::Request);
        m.record_send(MsgKind::Request);
        m.record_send(MsgKind::Token);
        m.record_send(MsgKind::Test);
        assert_eq!(m.sent(MsgKind::Request), 2);
        assert_eq!(m.total_sent(), 4);
        assert_eq!(m.overhead_messages(), 1);
    }

    #[test]
    fn overhead_classification_matches_paper() {
        // Request/token are the base protocol; everything else is Section 5.
        assert!(!MsgKind::Request.is_failure_overhead());
        assert!(!MsgKind::Token.is_failure_overhead());
        for k in [
            MsgKind::Enquiry,
            MsgKind::EnquiryReply,
            MsgKind::Test,
            MsgKind::Answer,
            MsgKind::Anomaly,
            MsgKind::MintRequest,
            MsgKind::MintAck,
        ] {
            assert!(k.is_failure_overhead(), "{k:?}");
        }
    }

    #[test]
    fn all_kinds_have_distinct_indices() {
        let kinds = MsgKind::all();
        for (i, k) in kinds.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
    }

    #[test]
    fn per_cs_averages() {
        let mut m = Metrics::new();
        assert_eq!(m.messages_per_cs(), 0.0);
        m.record_send(MsgKind::Request);
        m.record_send(MsgKind::Token);
        m.cs_entries = 2;
        assert!((m.messages_per_cs() - 1.0).abs() < f64::EPSILON);
        m.total_waiting_ticks = 10;
        assert!((m.mean_waiting_ticks() - 5.0).abs() < f64::EPSILON);
    }

    /// Builds a metrics value with distinctive counters for merge tests.
    fn sample(salt: u64) -> Metrics {
        let mut m = Metrics::new();
        for _ in 0..salt {
            m.record_send(MsgKind::Request);
        }
        m.record_send(MsgKind::Test);
        m.lost_to_crashes = salt;
        m.lost_to_faults = salt + 1;
        m.lost_to_partition = salt + 4;
        m.duplicated_deliveries = salt + 2;
        m.requests_abandoned = salt + 3;
        m.cs_entries = 2 * salt;
        m.crashes = salt % 3;
        m.recoveries = salt % 2;
        m.total_waiting_ticks = 10 * salt;
        m.events_processed = 100 + salt;
        for _ in 0..salt + 5 {
            m.record_count(Counter::EpochDiscards);
        }
        m.record_count(Counter::SearchPhases);
        m
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = sample(3);
        a.merge(&sample(5));
        assert_eq!(a.sent(MsgKind::Request), 8);
        assert_eq!(a.sent(MsgKind::Test), 2);
        assert_eq!(a.lost_to_crashes, 8);
        assert_eq!(a.lost_to_faults, 10);
        assert_eq!(a.lost_to_partition, 16);
        assert_eq!(a.duplicated_deliveries, 12);
        assert_eq!(a.requests_abandoned, 14);
        assert_eq!(a.cs_entries, 16);
        assert_eq!(a.total_waiting_ticks, 80);
        assert_eq!(a.events_processed, 208);
        assert_eq!(a.counted(Counter::EpochDiscards), 18);
        assert_eq!(a.counted(Counter::SearchPhases), 2);
    }

    #[test]
    fn merge_identity_is_default() {
        let mut left = sample(7);
        left.merge(&Metrics::default());
        assert_eq!(left, sample(7));

        let mut right = Metrics::default();
        right.merge(&sample(7));
        assert_eq!(right, sample(7));
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (sample(1), sample(4), sample(9));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn extra_messages_diff() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.record_send(MsgKind::Request);
        a.record_send(MsgKind::Test);
        b.record_send(MsgKind::Request);
        assert_eq!(a.extra_messages_vs(&b), 1);
        assert_eq!(b.extra_messages_vs(&a), -1);
    }
}
