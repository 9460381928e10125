//! Algorithm configuration: system size, the delay bound δ, and every
//! timeout of Section 5 derived from it.

use oc_sim::SimDuration;

/// A deliberately disabled protocol obligation, for oracle self-tests.
///
/// The adversarial explorer (`oc-check`) must *prove* its oracle suite can
/// catch real protocol bugs, not just pass clean runs. Each non-`None`
/// variant switches off exactly one obligation of the Section 5 machinery;
/// the explorer's self-check asserts that a bounded seed budget finds a
/// scenario whose oracle verdict exposes the mutation, then shrinks it to
/// a minimal replayable counterexample. Every real configuration uses
/// [`Mutation::None`]; the others exist only to be caught.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful protocol.
    #[default]
    None,
    /// The lending root concludes its loaned token is lost (enquiry
    /// timeout, "token lost" reply, or a doubly-confirmed return) but
    /// never regenerates it: the loan stays open forever, wedging the
    /// lender and starving every queued request — a *liveness* bug the
    /// stuck-node and starvation oracles must flag.
    SkipTokenRegeneration,
    /// A transit node hands the token to its last son but forgets to give
    /// it up locally: two live tokens exist at once — a *safety* bug the
    /// token-uniqueness oracle must flag.
    KeepTokenOnTransit,
}

/// Protocol hardening level: how far beyond the paper's reliable-channel
/// model the node defends itself.
///
/// The paper's Section 5 machinery regenerates the token from *local*
/// deductions (timeouts, enquiry replies). Outside the paper's model —
/// network partitions that later heal — those deductions are honestly
/// wrong: both sides of a cut can conclude "the token is lost" and mint,
/// and the healed system carries two live tokens (the double-mints pinned
/// in oc-check's partition tests). [`Hardening::Quorum`] closes that hole
/// with Chubby-style fencing epochs plus majority-gated regeneration; see
/// the `mint` module. [`Hardening::None`] is byte-for-byte the paper
/// protocol — every hardened branch is gated on this knob, all epochs stay
/// 0, and traces are bit-identical to a build without the feature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Hardening {
    /// The paper protocol, unchanged (the default).
    #[default]
    None,
    /// Fencing epochs on token-bearing messages plus quorum-gated
    /// regeneration: before minting, a node must collect grants from a
    /// strict majority of all `n` nodes, so a minority partition can never
    /// mint — safety over availability, exactly where CAP forces the
    /// choice.
    Quorum,
}

/// Margin added to every timeout so that an event taking *exactly* its
/// worst-case time still beats the timer. The paper treats δ as a strict
/// bound; with δ attainable (as in our simulator), a `test` round trip
/// can take exactly `2δ` and must not lose the race against a `2δ` timer.
const TIMEOUT_MARGIN: SimDuration = SimDuration::from_ticks(1);

/// Configuration shared by all nodes of one open-cube system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of nodes; must be a power of two.
    pub n: usize,
    /// The network's maximum message delay — the paper's δ. Must be an
    /// upper bound on the delay model the substrate actually uses.
    pub delta: SimDuration,
    /// The estimate `e` of a critical-section duration used by the root's
    /// loan timeout. Must upper-bound the real CS duration.
    pub cs_estimate: SimDuration,
    /// Enables the Section 5 machinery (timeouts, enquiry, search_father).
    /// Disabled, the node runs the pure Section 3 algorithm — useful for
    /// the failure-free complexity experiments.
    pub fault_tolerance: bool,
    /// Extra slack added to the asking-node timeout to absorb queueing
    /// delay under contention. The paper's `2·pmax·δ` covers the message
    /// path but not time spent waiting behind other critical sections;
    /// real deployments must budget for the expected backlog. Expressed as
    /// a duration added on top of `2·pmax·δ`.
    pub contention_slack: SimDuration,
    /// Oracle self-test knob: a deliberately disabled protocol obligation
    /// (see [`Mutation`]). Always [`Mutation::None`] outside explorer
    /// self-checks.
    pub mutation: Mutation,
    /// Protocol hardening level (see [`Hardening`]). The builders default
    /// to [`Hardening::None`] — the paper protocol.
    pub hardening: Hardening,
}

impl Config {
    /// A configuration with the paper's minimal timeouts and fault
    /// tolerance enabled.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn new(n: usize, delta: SimDuration, cs_estimate: SimDuration) -> Self {
        assert!(oc_topology::is_valid_size(n), "n must be a power of two, got {n}");
        Config {
            n,
            delta,
            cs_estimate,
            fault_tolerance: true,
            contention_slack: SimDuration::ZERO,
            mutation: Mutation::None,
            hardening: Hardening::None,
        }
    }

    /// Same, with the Section 5 machinery switched off.
    #[must_use]
    pub fn without_fault_tolerance(n: usize, delta: SimDuration, cs_estimate: SimDuration) -> Self {
        Config { fault_tolerance: false, ..Config::new(n, delta, cs_estimate) }
    }

    /// Sets the contention slack (builder style).
    #[must_use]
    pub fn with_contention_slack(mut self, slack: SimDuration) -> Self {
        self.contention_slack = slack;
        self
    }

    /// Plants a deliberate protocol bug for oracle self-tests (builder
    /// style). See [`Mutation`].
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Selects the protocol hardening level (builder style). See
    /// [`Hardening`].
    #[must_use]
    pub fn with_hardening(mut self, hardening: Hardening) -> Self {
        self.hardening = hardening;
        self
    }

    /// `true` when the Quorum hardening is active — the gate every
    /// epoch/mint branch checks.
    #[must_use]
    pub fn hardened(&self) -> bool {
        self.hardening == Hardening::Quorum
    }

    /// `pmax = log2 n`, the dimension of the cube.
    #[must_use]
    pub fn pmax(&self) -> u32 {
        oc_topology::dimension(self.n)
    }

    /// The asking-node suspicion timeout: the paper's `2·pmax·δ`, plus the
    /// configured contention slack.
    #[must_use]
    pub fn token_wait_timeout(&self) -> SimDuration {
        self.delta * (2 * u64::from(self.pmax())) + self.contention_slack + TIMEOUT_MARGIN
    }

    /// The root's loan timeout when the token went directly to the source:
    /// `2δ + e` (Section 5, case j = s), plus contention slack.
    #[must_use]
    pub fn loan_timeout_direct(&self) -> SimDuration {
        self.delta * 2 + self.cs_estimate + self.contention_slack + TIMEOUT_MARGIN
    }

    /// The root's loan timeout when the token travels through proxies:
    /// `(pmax + 1)·δ + e` (Section 5, case j ≠ s), plus contention slack.
    #[must_use]
    pub fn loan_timeout_via_proxies(&self) -> SimDuration {
        self.delta * (u64::from(self.pmax()) + 1)
            + self.cs_estimate
            + self.contention_slack
            + TIMEOUT_MARGIN
    }

    /// How long to wait for an enquiry reply before concluding the source
    /// is down: `2δ`.
    #[must_use]
    pub fn enquiry_timeout(&self) -> SimDuration {
        self.delta * 2 + TIMEOUT_MARGIN
    }

    /// How long each `search_father` phase waits for answers: `2δ`.
    #[must_use]
    pub fn search_phase_timeout(&self) -> SimDuration {
        self.delta * 2 + TIMEOUT_MARGIN
    }

    /// How many try-later re-probe rounds one search phase tolerates
    /// before treating the postponing members as wedged.
    ///
    /// "Try later" promises the answerer's state resolves soon: it is
    /// asking (its claim completes within the backlog the contention
    /// slack budgets for) or briefly holds the token. If a full patience
    /// budget — several suspicion timeouts plus a proxied loan round —
    /// passes with the same members still postponing, no legitimate
    /// backlog is left that could explain them: the system is in a
    /// degraded stand-off (e.g. every claimant waiting on a token that
    /// died with a crashed carrier, a state the adversarial explorer
    /// drove several schedules into, where unbounded patience spins
    /// forever). Discarding the postponers then lets the search make
    /// progress exactly like the paper's silent-node discard after `2δ`.
    #[must_use]
    pub fn search_patience_rounds(&self) -> u32 {
        let budget = (self.token_wait_timeout() * 3 + self.loan_timeout_via_proxies()).ticks();
        let round = self.search_phase_timeout().ticks().max(1);
        u32::try_from(budget / round).unwrap_or(u32::MAX).max(4)
    }

    /// The strict-majority quorum size for hardened regeneration: more
    /// than half of *all* `n` nodes (alive or not). Two sets of this size
    /// over `n` nodes always intersect — the pigeonhole fact the
    /// at-most-one-mint-per-epoch invariant rests on.
    #[must_use]
    pub fn mint_quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// How long one mint ballot waits for its grants: a `2δ` round trip to
    /// the farthest acker, like the enquiry and search-phase timers.
    #[must_use]
    pub fn mint_timeout(&self) -> SimDuration {
        self.delta * 2 + TIMEOUT_MARGIN
    }

    /// Ballot retries within one mint attempt before the minter parks
    /// (concludes it is on the minority side of a cut, for now).
    #[must_use]
    pub fn mint_attempts(&self) -> u32 {
        3
    }

    /// The parked minter's backoff before it retries from scratch: a
    /// couple of full suspicion windows, so a healed cut is retried
    /// promptly but a standing minority does not spam ballots.
    #[must_use]
    pub fn mint_backoff(&self) -> SimDuration {
        self.token_wait_timeout() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::new(32, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
    }

    #[test]
    fn timeouts_match_paper_formulas() {
        let c = cfg();
        assert_eq!(c.pmax(), 5);
        // 2 * pmax * delta = 2 * 5 * 10
        assert_eq!(c.token_wait_timeout(), SimDuration::from_ticks(101));
        // 2*delta + e = 20 + 50
        assert_eq!(c.loan_timeout_direct(), SimDuration::from_ticks(71));
        // (pmax+1)*delta + e = 60 + 50
        assert_eq!(c.loan_timeout_via_proxies(), SimDuration::from_ticks(111));
        assert_eq!(c.enquiry_timeout(), SimDuration::from_ticks(21));
        assert_eq!(c.search_phase_timeout(), SimDuration::from_ticks(21));
    }

    #[test]
    fn contention_slack_extends_suspicion() {
        let c = cfg().with_contention_slack(SimDuration::from_ticks(1_000));
        assert_eq!(c.token_wait_timeout(), SimDuration::from_ticks(1_101));
        assert_eq!(c.loan_timeout_direct(), SimDuration::from_ticks(1_071));
    }

    #[test]
    fn fault_tolerance_toggle() {
        assert!(cfg().fault_tolerance);
        let c = Config::without_fault_tolerance(
            8,
            SimDuration::from_ticks(1),
            SimDuration::from_ticks(1),
        );
        assert!(!c.fault_tolerance);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_size() {
        let _ = Config::new(12, SimDuration::from_ticks(1), SimDuration::from_ticks(1));
    }
}
