//! Quorum-gated token regeneration ([`Hardening::Quorum`]).
//!
//! The paper's Section 5 machinery regenerates the token from *local*
//! deductions: an exhausted `search_father` sweep or a lending root's
//! enquiry round concludes "the token is lost" and mints a new one on the
//! spot. Inside the paper's model (reliable FIFO channels, fail-stop
//! crashes) those deductions are sound. Under network partitions that
//! later heal they are honestly wrong: both sides of a cut can reach the
//! same conclusion, and the healed system carries two live tokens — the
//! double-mint schedules pinned in oc-check's partition tests.
//!
//! This module closes the hole with a ballot protocol in the style of
//! Paxos phase 1:
//!
//! * Every mint happens at an **epoch**. A would-be minter proposes a
//!   fresh epoch (strictly above everything it has witnessed) to all `n`
//!   nodes and needs grants from a strict majority — itself included —
//!   before it may create the token.
//! * A node **grants each epoch at most once** (a promise, kept on stable
//!   storage). Two strict majorities over `n` nodes always intersect, and
//!   the node in the intersection cannot have granted the same epoch
//!   twice: *at most one token is ever minted per epoch*.
//! * The minted epoch is stamped on every token and gossiped on every
//!   request. A token whose epoch trails the highest witnessed epoch is
//!   **fenced**: discarded on receipt, or voided in place when higher
//!   epoch evidence reaches its holder (see
//!   [`OpenCubeNode::witness_epoch`]). So even if a stale token survives
//!   a heal, it can never coexist observably with its successor.
//!
//! A minter that cannot assemble a quorum — the minority side of a cut —
//! retries a bounded number of ballots, then *parks* and backs off:
//! safety over availability, exactly where CAP forces the choice. The
//! liveness oracle excuses parked minters the way it excuses cut-isolated
//! nodes (see `Protocol::quorum_blocked`).
//!
//! Under [`Hardening::None`] none of this code runs: no ballots, every
//! epoch stays 0, and the wire traffic is byte-identical to the paper
//! protocol.
//!
//! [`Hardening::Quorum`]: crate::Hardening::Quorum
//! [`Hardening::None`]: crate::Hardening::None

use oc_sim::{Counter, Outbox};
use oc_topology::NodeId;

use crate::{
    message::Msg,
    node::{OpenCubeNode, TIMER_MINT},
};

/// Why the node wants to mint — decides what happens once the quorum is
/// assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MintPurpose {
    /// A full-sweep `search_father` exhausted ring `pmax`: this node is
    /// the root and the token is gone (`crate::search`).
    Root,
    /// A lending root concluded its loaned token died with its carrier
    /// (`crate::enquiry`). The loan stays open — and the node busy —
    /// while the ballot runs.
    Lender,
}

/// An in-progress mint ballot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MintState {
    /// What to do when the quorum assembles.
    pub purpose: MintPurpose,
    /// The epoch this ballot proposes; a successful mint creates the
    /// token at exactly this epoch.
    pub epoch: u64,
    /// Ballots sent for this mint so far (the current one included).
    /// Monotone across parks: after the first park the mint settles into
    /// one ballot per backoff window.
    pub attempts: u32,
    /// Highest epoch echoed by a refusal — the next ballot must clear it.
    pub ceiling: u64,
    /// `true` while backing off after a ballot exhausted its retries.
    pub parked: bool,
    /// Grant bitmask over node ids, so duplicated ack frames cannot count
    /// twice toward the quorum.
    grant_words: Vec<u64>,
    grant_count: usize,
}

impl MintState {
    fn new(purpose: MintPurpose, epoch: u64, n: usize) -> MintState {
        MintState {
            purpose,
            epoch,
            attempts: 1,
            ceiling: 0,
            parked: false,
            grant_words: vec![0; n.div_ceil(64)],
            grant_count: 0,
        }
    }

    /// Records a grant; `true` if it is from a node not yet counted.
    fn grant(&mut self, from: NodeId) -> bool {
        let bit = (from.get() - 1) as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.grant_words[word] & mask != 0 {
            return false;
        }
        self.grant_words[word] |= mask;
        self.grant_count += 1;
        true
    }

    /// Nodes that granted the current ballot.
    pub(crate) fn grants(&self) -> usize {
        self.grant_count
    }

    /// Re-arms the state for a fresh ballot at `epoch`.
    fn rearm(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.attempts += 1;
        self.parked = false;
        self.ceiling = 0;
        self.grant_words.iter_mut().for_each(|w| *w = 0);
        self.grant_count = 0;
    }

    /// Heap bytes owned by this ballot beyond its own size (for
    /// `Protocol::heap_bytes`): the grant bitmask.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.grant_words.capacity() * 8
    }
}

impl OpenCubeNode {
    /// The next ballot's epoch: strictly above everything this node has
    /// witnessed, promised, or been refused with. Saturating — epochs
    /// never wrap (at `u64::MAX` the node simply can no longer mint,
    /// which is safe; wrapping to 0 would resurrect every fenced token).
    fn next_ballot_epoch(&self, ceiling: u64) -> u64 {
        self.epoch_seen.max(self.epoch_promised()).max(ceiling).saturating_add(1)
    }

    /// Starts a quorum-gated mint: proposes a fresh epoch to every other
    /// node and waits for a strict majority of grants (the proposer's own
    /// grant counts). The caller has already concluded the token is lost.
    pub(crate) fn begin_mint(&mut self, purpose: MintPurpose, out: &mut Outbox<Msg>) {
        debug_assert!(self.config_inner().hardened());
        if self.mint().is_some() {
            return; // a ballot is already running
        }
        let epoch = self.next_ballot_epoch(0);
        let n = self.config_inner().n;
        let mut state = MintState::new(purpose, epoch, n);
        // Self-grant: promise our own ballot.
        state.grant(self.id_inner());
        let fault = self.fault_mut();
        fault.epoch_promised = epoch;
        fault.mint = Some(state);
        out.count(Counter::MintBallots);
        self.broadcast_ballot(out);
        // n = 1: the quorum is 1 and the self-grant already meets it.
        self.conclude_mint_if_quorum(out);
    }

    /// Sends the current ballot to every other node and arms the ballot
    /// timer.
    fn broadcast_ballot(&mut self, out: &mut Outbox<Msg>) {
        let epoch = self.mint().expect("ballot running").epoch;
        let n = self.config_inner().n;
        let me = self.id_inner();
        for id in NodeId::all(n) {
            if id != me {
                out.send(id, Msg::MintRequest { epoch });
            }
        }
        out.set_timer(TIMER_MINT, self.config_inner().mint_timeout());
    }

    /// A peer's mint ballot: grant iff it proposes past everything we
    /// have promised. Each node grants each epoch at most once — the
    /// pigeonhole half of the at-most-one-mint-per-epoch invariant.
    pub(crate) fn on_mint_request(&mut self, from: NodeId, epoch: u64, out: &mut Outbox<Msg>) {
        if !self.config_inner().hardened() {
            return; // not speaking this dialect
        }
        if epoch > self.epoch_promised() {
            self.fault_mut().epoch_promised = epoch;
            out.send(from, Msg::MintAck { epoch, granted: true });
        } else {
            // Refusal: echo our ceiling so the minter's next ballot
            // clears it in one step.
            let ceiling = self.epoch_promised().max(self.epoch_seen);
            out.send(from, Msg::MintAck { epoch: ceiling, granted: false });
        }
    }

    /// A grant or refusal for one of our ballots.
    pub(crate) fn on_mint_ack(
        &mut self,
        from: NodeId,
        epoch: u64,
        granted: bool,
        out: &mut Outbox<Msg>,
    ) {
        let Some(mint) = self.mint_mut() else {
            return; // ballot already concluded or aborted: stale ack
        };
        if mint.parked {
            return; // echo of an abandoned ballot
        }
        if granted {
            // Only grants for exactly the current ballot count; the
            // bitmask keeps duplicated frames from counting twice.
            if epoch == mint.epoch && mint.grant(from) {
                self.conclude_mint_if_quorum(out);
            }
        } else {
            mint.ceiling = mint.ceiling.max(epoch);
        }
    }

    /// Mints the token if the current ballot has a strict majority.
    fn conclude_mint_if_quorum(&mut self, out: &mut Outbox<Msg>) {
        let quorum = self.config_inner().mint_quorum();
        let Some(mint) = self.mint() else { return };
        if mint.grants() < quorum {
            return;
        }
        let (purpose, epoch) = (mint.purpose, mint.epoch);
        out.cancel_timer(TIMER_MINT);
        // A strict majority granted exactly `epoch`, and every grant is
        // single-use: no other node can ever assemble a quorum for it.
        self.epoch_seen = epoch;
        self.fault_mut().mint = None;
        out.count(Counter::MintsCompleted);
        if purpose == MintPurpose::Lender {
            self.loan = None;
            self.cancel_loan_timers(out);
        }
        self.serve_as_root(out);
    }

    /// The ballot timer fired. Running ballot: retry with a strictly
    /// higher one, up to the attempt budget, then park (we are, for now,
    /// on the minority side of a cut) and back off. Parked: the backoff
    /// is over — a Root minter re-earns its conclusion with a fresh full
    /// sweep (the cut may have healed under a live root); a Lender's open
    /// loan can only resolve through a mint, so it ballots again.
    pub(crate) fn on_mint_timer(&mut self, out: &mut Outbox<Msg>) {
        let Some(mint) = self.mint() else {
            return; // stale timer
        };
        let (purpose, attempts, ceiling, parked) =
            (mint.purpose, mint.attempts, mint.ceiling, mint.parked);
        if parked {
            match purpose {
                MintPurpose::Root => {
                    self.take_mint();
                    self.start_search(1, out);
                }
                MintPurpose::Lender => self.reballot(ceiling, out),
            }
        } else if attempts < self.config_inner().mint_attempts() {
            self.reballot(ceiling, out);
        } else {
            // Out of attempts without a quorum: park. A standing minority
            // stays in this park/backoff loop forever — it must (safety
            // over availability); the liveness oracle excuses it via
            // `Protocol::quorum_blocked`.
            out.count(Counter::MintsParked);
            let backoff = self.config_inner().mint_backoff();
            self.mint_mut().expect("ballot running").parked = true;
            out.set_timer(TIMER_MINT, backoff);
        }
    }

    /// Sends a fresh, strictly higher ballot for the running mint.
    fn reballot(&mut self, ceiling: u64, out: &mut Outbox<Msg>) {
        let epoch = self.next_ballot_epoch(ceiling);
        let me = self.id_inner();
        let fault = self.fault_mut();
        fault.epoch_promised = epoch; // self-grant
        let mint = fault.mint.as_mut().expect("ballot running");
        mint.rearm(epoch);
        mint.grant(me);
        out.count(Counter::MintBallots);
        self.broadcast_ballot(out);
    }

    /// The token arrived while a ballot was running: the loss conclusion
    /// was wrong, or another minter resolved it — abandon the ballot. The
    /// promises it collected stay in force elsewhere; they only raise the
    /// floor of future ballots, never block the live token.
    pub(crate) fn abort_mint_for_token(&mut self, out: &mut Outbox<Msg>) {
        if self.take_mint().is_some() {
            out.cancel_timer(TIMER_MINT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, Hardening};
    use crate::node::counted;
    use oc_sim::{Action, NodeEvent, Protocol, SimDuration};

    fn hardened_cfg(n: usize) -> Config {
        Config::new(n, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
            .with_hardening(Hardening::Quorum)
    }

    fn drain(node: &mut OpenCubeNode, ev: NodeEvent<Msg>) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(ev, &mut out);
        out.drain()
    }

    fn deliver(node: &mut OpenCubeNode, from: u32, msg: Msg) -> Vec<Action<Msg>> {
        drain(node, NodeEvent::Deliver { from: NodeId::new(from), msg })
    }

    fn ballots(actions: &[Action<Msg>]) -> Vec<(u32, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg: Msg::MintRequest { epoch } } => Some((to.get(), *epoch)),
                _ => None,
            })
            .collect()
    }

    /// Drives node 10 of a hardened 16-cube into a Root-purpose mint:
    /// request, suspicion timeout, then every search phase times out.
    /// Returns the node and every action the drive emitted.
    fn minting_root_10_actions() -> (OpenCubeNode, Vec<Action<Msg>>) {
        let mut node = OpenCubeNode::new(NodeId::new(10), hardened_cfg(16));
        let mut actions = drain(&mut node, NodeEvent::RequestCs);
        actions.extend(drain(&mut node, NodeEvent::Timer(crate::node::TIMER_TOKEN_WAIT)));
        for _ in 0..4 {
            actions.extend(drain(&mut node, NodeEvent::Timer(crate::node::TIMER_SEARCH_PHASE)));
        }
        assert!(node.mint().is_some(), "exhausted hardened search must open a ballot");
        assert!(!node.holds_token(), "no token before the quorum grants");
        (node, actions)
    }

    fn minting_root_10() -> OpenCubeNode {
        minting_root_10_actions().0
    }

    #[test]
    fn exhausted_hardened_search_ballots_instead_of_minting() {
        let (node, actions) = minting_root_10_actions();
        let mint = node.mint().unwrap();
        assert_eq!(mint.purpose, MintPurpose::Root);
        assert_eq!(mint.epoch, 1);
        assert_eq!(mint.grants(), 1, "self-grant only");
        assert_eq!(counted(&actions, Counter::TokensRegenerated), 0);
        assert_eq!(counted(&actions, Counter::MintBallots), 1);
        assert!(!node.is_idle(), "a minting node is busy");
    }

    #[test]
    fn quorum_of_grants_mints_and_honors_the_claim() {
        let mut node = minting_root_10();
        // Quorum for n = 16 is 9: the self-grant plus 8 peers.
        for peer in 1..=7 {
            let actions = deliver(&mut node, peer, Msg::MintAck { epoch: 1, granted: true });
            assert!(actions.is_empty(), "below quorum nothing happens");
        }
        let actions = deliver(&mut node, 8, Msg::MintAck { epoch: 1, granted: true });
        assert!(node.mint().is_none());
        assert!(node.holds_token());
        assert_eq!(node.token_epoch(), 1, "minted at the ballot epoch");
        assert_eq!(counted(&actions, Counter::MintsCompleted), 1);
        assert!(node.in_cs(), "the pending claim is honored with the minted token");
        assert!(actions.iter().any(|a| matches!(a, Action::EnterCs)));
    }

    #[test]
    fn duplicated_grant_frames_do_not_stack() {
        let mut node = minting_root_10();
        for _ in 0..20 {
            let _ = deliver(&mut node, 2, Msg::MintAck { epoch: 1, granted: true });
        }
        let mint = node.mint().expect("20 copies of one grant are one grant");
        assert_eq!(mint.grants(), 2);
    }

    #[test]
    fn equal_epoch_is_refused_granting_is_strictly_monotone() {
        // A node grants each epoch at most once: a second ballot at the
        // same epoch — even from the same proposer — is refused.
        let mut node = OpenCubeNode::new(NodeId::new(2), hardened_cfg(4));
        let actions = deliver(&mut node, 3, Msg::MintRequest { epoch: 5 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::MintAck { epoch: 5, granted: true }, .. }]
        ));
        let actions = deliver(&mut node, 4, Msg::MintRequest { epoch: 5 });
        assert!(
            matches!(actions[..], [Action::Send {
                to,
                msg: Msg::MintAck { epoch: 5, granted: false },
            }] if to == NodeId::new(4)),
            "the same epoch is never granted twice"
        );
        // A strictly higher ballot is granted again.
        let actions = deliver(&mut node, 4, Msg::MintRequest { epoch: 6 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::MintAck { epoch: 6, granted: true }, .. }]
        ));
    }

    #[test]
    fn refusals_teach_the_next_ballot_its_floor() {
        let mut node = minting_root_10();
        // A refusal echoing epoch 7 (some peer already promised higher).
        let _ = deliver(&mut node, 2, Msg::MintAck { epoch: 7, granted: false });
        let actions = drain(&mut node, NodeEvent::Timer(TIMER_MINT));
        let sent = ballots(&actions);
        assert_eq!(sent.len(), 15, "a retry re-broadcasts to all peers");
        assert!(sent.iter().all(|&(_, e)| e == 8), "next ballot clears the echoed ceiling");
        assert_eq!(node.mint().unwrap().attempts, 2);
    }

    #[test]
    fn exhausted_attempts_park_and_back_off() {
        let mut node = minting_root_10();
        assert!(!node.quorum_blocked(), "a first ballot inside its 2δ window is not excused");
        let _ = drain(&mut node, NodeEvent::Timer(TIMER_MINT)); // attempt 2
        assert!(node.quorum_blocked(), "a timed-out ballot is quorum-blocked");
        let _ = drain(&mut node, NodeEvent::Timer(TIMER_MINT)); // attempt 3
        let actions = drain(&mut node, NodeEvent::Timer(TIMER_MINT)); // park
        assert!(node.mint().unwrap().parked);
        assert!(node.quorum_blocked(), "a parked minter is quorum-blocked");
        assert_eq!(counted(&actions, Counter::MintsParked), 1);
        assert!(ballots(&actions).is_empty(), "parking sends nothing");
        assert!(
            actions.iter().any(|a| matches!(a, Action::SetTimer { id: TIMER_MINT, .. })),
            "the backoff timer is armed"
        );
        // Backoff over: a Root minter re-earns its conclusion by sweeping
        // again from ring 1 (the cut may have healed under a live root).
        let actions = drain(&mut node, NodeEvent::Timer(TIMER_MINT));
        assert!(node.mint().is_none());
        assert!(node.search.is_some(), "post-park the Root minter searches again");
        assert!(actions.iter().any(|a| matches!(a, Action::Send { msg: Msg::Test { d: 1 }, .. })));
    }

    #[test]
    fn token_arrival_aborts_the_ballot() {
        let mut node = minting_root_10();
        let actions = deliver(&mut node, 9, Msg::Token { lender: None, epoch: 0 });
        assert!(node.mint().is_none(), "the live token refutes the loss conclusion");
        assert!(node.holds_token());
        assert!(actions.iter().any(|a| matches!(a, Action::CancelTimer { id: TIMER_MINT })));
        // Late acks for the dead ballot are ignored.
        let actions = deliver(&mut node, 2, Msg::MintAck { epoch: 1, granted: true });
        assert_eq!(counted(&actions, Counter::MintsCompleted), 0);
    }

    #[test]
    fn single_node_system_mints_from_its_own_grant() {
        let mut node = OpenCubeNode::new(NodeId::new(1), hardened_cfg(1));
        // Wipe the initial token, then drive a request: the 1-node search
        // degenerates straight to the root conclusion and the quorum of 1
        // is met by the self-grant.
        node.on_crash();
        let mut out = Outbox::new();
        node.on_recover(&mut out);
        assert!(node.holds_token(), "n = 1: quorum is the self-grant");
        assert_eq!(node.token_epoch(), 1);
    }

    #[test]
    fn ballot_epochs_never_wrap() {
        let mut node = OpenCubeNode::new(NodeId::new(2), hardened_cfg(4));
        node.epoch_seen = u64::MAX;
        node.fault_mut().epoch_promised = u64::MAX;
        assert_eq!(node.next_ballot_epoch(0), u64::MAX, "saturates instead of wrapping to 0");
        // And witnessing at the ceiling keeps fencing coherent: a token at
        // epoch MAX is current, anything below stays stale.
        let actions = deliver(&mut node, 3, Msg::Token { lender: None, epoch: 3 });
        assert!(!node.holds_token(), "a trailing-epoch token is discarded");
        assert_eq!(counted(&actions, Counter::EpochDiscards), 1);
    }

    #[test]
    fn unhardened_nodes_ignore_mint_traffic() {
        let cfg = Config::new(4, SimDuration::from_ticks(10), SimDuration::from_ticks(50));
        let mut node = OpenCubeNode::new(NodeId::new(2), cfg);
        let actions = deliver(&mut node, 3, Msg::MintRequest { epoch: 5 });
        assert!(actions.is_empty());
        assert_eq!(node.epoch_promised(), 0, "no promise state under Hardening::None");
    }
}
