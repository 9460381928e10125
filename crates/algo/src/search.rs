//! The `search_father` procedure (Section 5).
//!
//! An asking node that suspects a failure — or a node re-joining after
//! recovery, or one bounced by an anomaly — probes distance rings outward:
//! phase `d` sends `test(d)` to all `2^(d-1)` nodes at distance `d` and
//! waits `2δ` for answers. A node answers `ok` when its power qualifies it
//! as the searcher's father (Cor. 2.1), `try later` when it is busy and its
//! power might still grow, and stays silent otherwise. If even phase
//! `pmax` fails, the searcher concludes it must be the root (and
//! regenerates the token if it does not hold it).
//!
//! Concurrent searches are resolved by the phase comparison and the
//! identity tie-break of Section 5 ("Concurrent suspicions of failure").

use oc_sim::{Counter, Outbox};
use oc_topology::{ring_iter, NodeId};

use crate::{
    message::{AnswerKind, Msg},
    mint::MintPurpose,
    node::{OpenCubeNode, TIMER_SEARCH_PHASE, TIMER_TOKEN_WAIT},
    ringset::RingSet,
};

/// In-progress `search_father` state.
///
/// `pending` and `retry` are [`RingSet`] bitmasks over the phase's ring:
/// after the sets are pointed at a ring, every probe round — including the
/// try-later re-probe rounds — runs without allocating. The node keeps the
/// whole `SearchState` (word buffers included) in its fault box when the
/// search ends, so repeated searches allocate nothing once the buffers
/// have grown to the widest ring ever probed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SearchState {
    /// Current phase = distance of the probed ring; 0 once the search has
    /// ended (phases count from 1).
    pub d: u32,
    /// The phase this sweep began at. A search may only conclude "I am
    /// the root" from a sweep that started at ring 1 (see
    /// [`OpenCubeNode::on_search_phase_timeout`]).
    pub start: u32,
    /// Try-later re-probe rounds left at the current phase before the
    /// postponing members are treated as wedged
    /// ([`crate::Config::search_patience_rounds`]).
    pub patience: u32,
    /// Ring members probed and not yet concluded this round.
    pub pending: RingSet,
    /// Ring members that answered "try later" — re-probed next round.
    pub retry: RingSet,
    /// Set on the ended search when it ended by re-sending the node's
    /// pending claim to the father it found
    /// ([`OpenCubeNode::conclude_search_with_father`]); read by
    /// [`OpenCubeNode::on_test`]. The next search's start and end clear
    /// it, and so do the node's next claim start and a crash. It sits in
    /// the padding after the three phase counters, so the state does not
    /// grow.
    pub claim_resent: bool,
}

// Three phase counters, the flag in their padding, two ring sets.
const _: () = assert!(size_of::<SearchState>() <= 96);

impl SearchState {
    /// `true` from the search's start to its end.
    pub(crate) fn running(&self) -> bool {
        self.d != 0
    }
}

impl OpenCubeNode {
    /// Begins `search_father` at phase `start_d` (clamped to `1..=pmax`).
    /// No-op if a search is already running or fault tolerance is off.
    pub(crate) fn start_search(&mut self, start_d: u32, out: &mut Outbox<Msg>) {
        if !self.fault_tolerant() || self.search().is_some() {
            return;
        }
        if self.token_here_inner() || self.loan.is_some() {
            // A node holding or lending the token *is* the root: there is
            // no father to search for. (Reachable only through stale
            // triggers, e.g. an anomaly bounce of an old duplicate claim.)
            return;
        }
        let pmax = self.config_inner().pmax();
        if pmax == 0 {
            // A 1-node system: this node is trivially the root.
            self.conclude_search_as_root(out);
            return;
        }
        let d = start_d.clamp(1, pmax);
        out.count(Counter::SearchesStarted);
        // Reuse the last search's ring buffers instead of allocating.
        let state = &mut self.fault_mut().search;
        state.d = d;
        state.start = d;
        state.claim_resent = false;
        self.run_search_phase(out);
    }

    /// Ends the search, if one runs, and forgets a re-sent claim; the ring
    /// buffers stay for the next search.
    pub(crate) fn end_search(&mut self) {
        if let Some(state) = self.search_slot_mut() {
            state.d = 0;
            state.claim_resent = false;
        }
    }

    /// Sends the `test(d)` probes of the current phase and arms the phase
    /// timer.
    fn run_search_phase(&mut self, out: &mut Outbox<Msg>) {
        let id = self.id_inner();
        let n = self.config_inner().n;
        let timeout = self.config_inner().search_phase_timeout();
        let patience = self.config_inner().search_patience_rounds();
        let search = self.search_mut().expect("phase run requires a search");
        let d = search.d;
        search.patience = patience;
        search.pending.assign_ring(n, id, d);
        search.pending.fill();
        search.retry.assign_ring(n, id, d);
        out.count(Counter::SearchPhases);
        for member in ring_iter(n, id, d) {
            out.send(member, Msg::Test { d });
        }
        out.set_timer(TIMER_SEARCH_PHASE, timeout);
    }

    /// The `2δ` phase timer fired: discard silent ring members, re-probe
    /// "try later" members, or advance to the next phase — concluding as
    /// root after phase `pmax`.
    pub(crate) fn on_search_phase_timeout(&mut self, out: &mut Outbox<Msg>) {
        let pmax = self.config_inner().pmax();
        let timeout = self.config_inner().search_phase_timeout();
        let Some(search) = self.search_mut() else {
            return; // stale timer
        };
        if !search.retry.is_empty() && search.patience > 0 {
            // Re-probe postponed nodes at the same phase: the retry set
            // becomes the new pending set (same ring, so the buffers just
            // swap) — no allocation, unlike the old BTreeSet drain. The
            // patience budget bounds these rounds: members still
            // postponing after every legitimate backlog would have
            // drained are treated as wedged and discarded, exactly like
            // silent members (see `Config::search_patience_rounds`).
            search.patience -= 1;
            std::mem::swap(&mut search.pending, &mut search.retry);
            search.retry.clear();
            let d = search.d;
            // A re-probe round is a search phase too (it sends tests and
            // waits the same 2δ); count it so phases × probes reconcile.
            out.count(Counter::SearchPhases);
            for member in search.pending.iter() {
                out.send(member, Msg::Test { d });
            }
            out.set_timer(TIMER_SEARCH_PHASE, timeout);
            return;
        }
        search.retry.clear();
        if search.d < pmax {
            search.d += 1;
            self.run_search_phase(out);
        } else if search.start > 1 {
            // Phase pmax failed, but this sweep began above ring 1, so it
            // never probed the lower rings — and "everything closer is my
            // subtree, so it cannot hold my father or the token" is a
            // *belief*, not knowledge. Concurrent searches and
            // b-transformations during crash healing can rotate the live
            // root into those skipped rings; concluding "root" from a
            // partial sweep then regenerates a second token while the
            // real one is alive a ring or two below. The adversarial
            // explorer found two distinct schedules doing exactly that
            // (pinned in oc-check's regression tests), so the root
            // conclusion must be earned with a full sweep: restart from
            // ring 1. The paper's partial-sweep conclusion (Figures
            // 13-14) is sound only while power claims are consistent,
            // which is precisely what degraded regimes violate.
            out.count(Counter::SearchRestarts);
            let search = self.search_mut().expect("search still running");
            search.start = 1;
            search.d = 1;
            self.run_search_phase(out);
        } else {
            // Ring pmax failed after a full sweep from ring 1: we probed
            // every node in the system and nobody can be our father —
            // become the root.
            self.end_search();
            self.conclude_search_as_root(out);
        }
    }

    /// Concludes the search with `father := k` and regenerates the pending
    /// request, if any.
    pub(crate) fn conclude_search_with_father(&mut self, k: NodeId, out: &mut Outbox<Msg>) {
        self.end_search();
        out.cancel_timer(TIMER_SEARCH_PHASE);
        self.set_father(Some(k));
        if self.mandator_inner().is_some() {
            let (source, seq) =
                self.current_claim_inner().expect("a mandate has claim bookkeeping");
            let claimant = self.id_inner();
            out.count(Counter::RequestsRegenerated);
            let epoch = self.epoch_seen();
            out.send(k, Msg::Request { claimant, source, source_seq: seq, epoch });
            self.arm_token_wait(out);
            if let Some(ended) = self.search_slot_mut() {
                ended.claim_resent = true;
            }
        } else {
            // Recovery / anomaly reattachment with no pending claim.
            self.process_queue(out);
        }
    }

    /// Concludes the search with this node as root, regenerating the token
    /// if it is not already here, then honoring any pending claim. Under
    /// [`crate::Hardening::Quorum`] the regeneration is not local: the
    /// node opens a mint ballot and the claim is honored only once a
    /// strict majority grants it (see `crate::mint`).
    fn conclude_search_as_root(&mut self, out: &mut Outbox<Msg>) {
        out.cancel_timer(TIMER_SEARCH_PHASE);
        out.cancel_timer(TIMER_TOKEN_WAIT);
        if !self.token_here_inner() && self.config_inner().hardened() {
            self.set_father(None);
            self.begin_mint(MintPurpose::Root, out);
            return;
        }
        self.serve_as_root(out);
    }

    /// The asking-node suspicion timer (`2·pmax·δ` plus slack) fired
    /// without the token arriving: start searching above our current
    /// position (Cor. 2.1: the father sits at distance `power + 1`).
    pub(crate) fn on_token_wait_timeout(&mut self, out: &mut Outbox<Msg>) {
        if self.mandator_inner().is_none() || self.token_here_inner() {
            return; // stale: the claim has been satisfied meanwhile
        }
        let start = self.power() + 1;
        self.start_search(start, out);
    }

    /// An `anomaly` bounce: a node our claim reached cannot serve us;
    /// search for the true father starting above our own position.
    ///
    /// In the paper's Section 5 scenario the bouncer is our (recovered)
    /// stale father, sitting at distance `power + 1` — so starting at its
    /// distance and starting at `power + 1` coincide (Figure 17 is
    /// unchanged). But a claim that traveled through proxies can be
    /// bounced by a *distant non-father*: starting at `dist(self, from)`
    /// then overshoots, skips the rings between our power and the
    /// bouncer, and — if those skipped rings held the live root — ends in
    /// a false root conclusion that mints a duplicate token. The
    /// adversarial explorer found that schedule; the counterexample is
    /// pinned in oc-check's regression tests. `power + 1` is the start
    /// our own (ratified) position justifies.
    pub(crate) fn on_anomaly(&mut self, _from: NodeId, out: &mut Outbox<Msg>) {
        if !self.fault_tolerant() {
            return;
        }
        if self.mandator_inner().is_none() {
            // No claim is pending: the bounced request was a stale
            // duplicate (regeneration race) — nothing to repair.
            return;
        }
        out.count(Counter::AnomaliesReceived);
        out.cancel_timer(TIMER_TOKEN_WAIT);
        let start = self.power() + 1;
        self.start_search(start, out);
    }

    /// Handles an incoming `test(d)` probe (Section 5, including the
    /// concurrent-suspicion rules).
    pub(crate) fn on_test(&mut self, from: NodeId, d: u32, out: &mut Outbox<Msg>) {
        if !self.fault_tolerant() {
            return;
        }
        if let Some(search) = self.search() {
            let di = search.d;
            if di < d {
                // Case di < dj: the paper's optimization — we will
                // necessarily conclude father := from; do it now.
                // Identity-ordered like every searcher-to-searcher
                // resolution below: only a smaller prober may absorb us;
                // towards a larger one we stay in charge of our own
                // sweep and just keep it patient (we cannot promise ok —
                // our phase does not back power dj - 1 yet).
                if from < self.id_inner() {
                    self.conclude_search_with_father(from, out);
                } else {
                    out.send(from, Msg::Answer { kind: AnswerKind::TryLater, d });
                }
                return;
            }
            // Case di >= dj: the paper answers ok whenever di > dj (our
            // power di-1 already qualifies and "can only grow") and
            // tie-breaks equal phases by identity. We tighten the
            // identity order to *every* searcher-to-searcher answer: ok
            // promises flow only from smaller to larger. The promise "my
            // power will be di - 1" is only as good as our own search
            // concluding; under crash healing with several claimants the
            // explorer drove unrestricted promises into a stable
            // merry-go-round (every sweep absorbed by another searcher's
            // promise, nobody ever completing a sweep, the lost token
            // never regenerated). With promises ordered by identity the
            // smallest active searcher can never be absorbed: it is the
            // unique node whose sweep must run to completion, so exactly
            // one node concludes root and mints. The try-later branch
            // keeps the larger prober patient instead of silent —
            // bounded by its patience budget, so stand-offs still break.
            if self.id_inner() < from {
                out.send(from, Msg::Answer { kind: AnswerKind::Ok, d });
            } else {
                out.send(from, Msg::Answer { kind: AnswerKind::TryLater, d });
            }
            return;
        }
        if self.mint().is_some() {
            // Mid-mint we believe we are the root (father = nil, so our
            // power reads pmax) but have not earned the position yet.
            // Promising fatherhood now could absorb the searcher into a
            // minority that can never mint; keep it patient instead.
            out.send(from, Msg::Answer { kind: AnswerKind::TryLater, d });
            return;
        }
        let p = self.power();
        if p >= d {
            // We meet Cor. 2.1's requirements — even while asking, our
            // power cannot decrease upon receiving the token.
            out.send(from, Msg::Answer { kind: AnswerKind::Ok, d });
        } else if self.waits_on(from) {
            // Our claim, re-sent after our own search, sits in the
            // prober's queue, and our power can only grow through the
            // token that claim asks for. The prober serves its queue only
            // once its search ends, so "try later" would keep it
            // re-probing a son that is waiting for it — a wait-for cycle
            // that nothing but its patience budget breaks. A son can never
            // be its father's father: stay silent, as the paper prescribes
            // for a node that cannot qualify.
        } else if self.is_asking() || self.token_here_inner() {
            // Busy: our power could still increase before this request
            // completes; tell the prober to try again. Token custody
            // counts as busy even when we are not asking (a degraded-
            // regime state): a probed node *holding the token* must never
            // be discarded as silent, or the searcher concludes the token
            // is lost and mints a duplicate — the adversarial explorer
            // caught exactly that silent-holder schedule.
            out.send(from, Msg::Answer { kind: AnswerKind::TryLater, d });
        }
        // Otherwise: stay silent; the prober discards us after 2δ.
    }

    /// `true` when this node waits on `prober`: it is waiting for the
    /// token without holding it, `prober` is its father, and its pending
    /// claim is the one its last search re-sent to that father.
    fn waits_on(&self, prober: NodeId) -> bool {
        self.mandator_inner().is_some()
            && !self.token_here_inner()
            && self.father() == Some(prober)
            && self.claim_resent()
    }

    /// Handles an `answer` to one of our probes.
    pub(crate) fn on_answer(
        &mut self,
        from: NodeId,
        kind: AnswerKind,
        d: u32,
        out: &mut Outbox<Msg>,
    ) {
        let Some(search) = self.search_mut() else {
            return; // search already concluded; stale answer
        };
        match kind {
            AnswerKind::Ok => {
                // Any positive answer concludes the search: the answerer
                // qualifies as our father (possibly from an earlier phase's
                // late reply — accepting it only shortens the search).
                self.conclude_search_with_father(from, out);
            }
            AnswerKind::TryLater => {
                if search.d == d && search.pending.remove(from) {
                    search.retry.insert(from);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::node::counted;
    use oc_sim::{Action, NodeEvent, Protocol, SimDuration};

    fn ft_cfg(n: usize) -> Config {
        Config::new(n, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
    }

    fn drain(node: &mut OpenCubeNode, ev: NodeEvent<Msg>) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(ev, &mut out);
        out.drain()
    }

    fn timer(node: &mut OpenCubeNode, id: u64) -> Vec<Action<Msg>> {
        drain(node, NodeEvent::Timer(id))
    }

    fn deliver(node: &mut OpenCubeNode, from: u32, msg: Msg) -> Vec<Action<Msg>> {
        drain(node, NodeEvent::Deliver { from: NodeId::new(from), msg })
    }

    fn sent_tests(actions: &[Action<Msg>]) -> Vec<(u32, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg: Msg::Test { d } } => Some((to.get(), *d)),
                _ => None,
            })
            .collect()
    }

    /// Puts node 10 (16-cube) into the asking state with a pending claim,
    /// then fires its suspicion timer; returns the node mid-search.
    fn searching_node_10() -> OpenCubeNode {
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let _ = drain(&mut node, NodeEvent::RequestCs);
        assert!(node.is_asking());
        let actions = timer(&mut node, TIMER_TOKEN_WAIT);
        // power(10) = 0, so the search starts at phase 1: test(1) to node 9.
        assert_eq!(sent_tests(&actions), vec![(9, 1)]);
        node
    }

    #[test]
    fn suspicion_starts_search_at_power_plus_one() {
        let node = searching_node_10();
        assert_eq!(node.search().unwrap().d, 1);
        assert_eq!(node.power(), 0, "searching at phase d evaluates power as d-1");
    }

    #[test]
    fn phases_widen_through_the_rings() {
        let mut node = searching_node_10();
        // Phase 1 times out (node 9 is down, silent).
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(sent_tests(&actions), vec![(11, 2), (12, 2)]);
        // Phase 2 times out.
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(sent_tests(&actions), vec![(13, 3), (14, 3), (15, 3), (16, 3)]);
        // Phase 3 times out: ring 4 is nodes 1..8.
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(sent_tests(&actions), (1..=8).map(|i| (i, 4)).collect::<Vec<_>>());
    }

    #[test]
    fn ok_answer_concludes_and_regenerates_request() {
        let mut node = searching_node_10();
        let actions = deliver(&mut node, 1, Msg::Answer { kind: AnswerKind::Ok, d: 1 });
        assert!(node.search().is_none());
        assert_eq!(node.father(), Some(NodeId::new(1)));
        // The pending claim is re-sent to the new father.
        let resent: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg: Msg::Request { claimant, .. } } => {
                    Some((to.get(), claimant.get()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(resent, vec![(1, 10)]);
        assert_eq!(counted(&actions, Counter::RequestsRegenerated), 1);
    }

    #[test]
    fn reprobe_rounds_count_as_search_phases() {
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let _ = drain(&mut node, NodeEvent::RequestCs);
        let actions = timer(&mut node, TIMER_TOKEN_WAIT);
        assert_eq!(counted(&actions, Counter::SearchPhases), 1);
        assert_eq!(sent_tests(&actions), vec![(9, 1)]);
        // Node 9 postpones us; recording the postponement is not a phase.
        let actions = deliver(&mut node, 9, Msg::Answer { kind: AnswerKind::TryLater, d: 1 });
        assert_eq!(counted(&actions, Counter::SearchPhases), 0);
        // The timer fires and re-probes node 9 at the same distance: that
        // re-probe round sends tests and waits a fresh 2δ, so it counts as
        // a phase — phases and probes stay reconcilable.
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(sent_tests(&actions), vec![(9, 1)]);
        assert_eq!(counted(&actions, Counter::SearchPhases), 1, "re-probe rounds are phases");
        // A silent round then advances to ring 2: one more phase.
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(counted(&actions, Counter::SearchPhases), 1);
        assert_eq!(node.search().unwrap().d, 2);
    }

    #[test]
    fn try_later_members_are_reprobed() {
        let mut node = searching_node_10();
        let actions = deliver(&mut node, 9, Msg::Answer { kind: AnswerKind::TryLater, d: 1 });
        assert!(actions.is_empty());
        // The phase timer re-probes node 9 instead of advancing.
        let actions = timer(&mut node, TIMER_SEARCH_PHASE);
        assert_eq!(sent_tests(&actions), vec![(9, 1)]);
        assert_eq!(node.search().unwrap().d, 1);
    }

    #[test]
    fn exhausted_search_becomes_root_and_regenerates_token() {
        let mut node = searching_node_10();
        // Let every phase time out.
        let regenerated: usize = (0..4)
            .map(|_| counted(&timer(&mut node, TIMER_SEARCH_PHASE), Counter::TokensRegenerated))
            .sum();
        assert!(node.search().is_none());
        assert!(node.believes_root());
        assert!(node.in_cs(), "the pending local claim is honored with the regenerated token");
        assert_eq!(regenerated, 1);
    }

    #[test]
    fn normal_node_answers_ok_when_power_qualifies() {
        // Node 1 (root of the 16-cube, power 4) answers ok to any test.
        let mut root = OpenCubeNode::new(NodeId::new(1), ft_cfg(16));
        let actions = deliver(&mut root, 10, Msg::Test { d: 4 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::Answer { kind: AnswerKind::Ok, d: 4 }, .. }]
        ));
    }

    #[test]
    fn busy_low_power_node_answers_try_later() {
        // Node 10 (power 0) asking: answers try-later to test(1).
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let _ = drain(&mut node, NodeEvent::RequestCs);
        let actions = deliver(&mut node, 9, Msg::Test { d: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::Answer { kind: AnswerKind::TryLater, d: 1 }, .. }]
        ));
    }

    #[test]
    fn idle_low_power_node_stays_silent() {
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let actions = deliver(&mut node, 9, Msg::Test { d: 1 });
        assert!(actions.is_empty());
    }

    #[test]
    fn concurrent_search_higher_phase_answers_ok() {
        // Paper's example (Figure 13-14): c waiting in phase 2 receives
        // test(1) from b and answers ok.
        let mut c = OpenCubeNode::new(NodeId::new(3), ft_cfg(4));
        let _ = drain(&mut c, NodeEvent::RequestCs); // father 1 (down)
        let _ = timer(&mut c, TIMER_TOKEN_WAIT); // search at phase 2 (power 1)
        assert_eq!(c.search().unwrap().d, 2);
        let actions = deliver(&mut c, 4, Msg::Test { d: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { to, msg: Msg::Answer { kind: AnswerKind::Ok, d: 1 } }]
                if to == NodeId::new(4)
        ));
    }

    #[test]
    fn concurrent_search_lower_phase_concludes_for_smaller_prober() {
        // Paper's optimization, identity-ordered: a lower-phase searcher
        // concludes father := prober at once — but only a *smaller*
        // prober may absorb it. Node 3 in phase 1 receiving test(2) from
        // node 2 concludes father_3 := 2 immediately.
        let cfg = ft_cfg(4);
        let mut c = OpenCubeNode::new(NodeId::new(3), cfg);
        c.set_father(Some(NodeId::new(4))); // power 0
        let _ = drain(&mut c, NodeEvent::RequestCs);
        let _ = timer(&mut c, TIMER_TOKEN_WAIT); // phase 1
        assert_eq!(c.search().unwrap().d, 1);
        let actions = deliver(&mut c, 2, Msg::Test { d: 2 });
        assert!(c.search().is_none());
        assert_eq!(c.father(), Some(NodeId::new(2)));
        // And the pending request is regenerated toward the new father.
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Send { to, msg: Msg::Request { .. } } if *to == NodeId::new(2)
        )));

        // The mirror case: node 2 in phase 1 probed by the *larger* node
        // 3 at phase 2 is NOT absorbed — the smallest active searcher
        // must stay in charge of its own sweep (otherwise the explorer's
        // merry-go-round wedges regeneration); it answers try-later so
        // the larger sweep stays patient.
        let mut b = OpenCubeNode::new(NodeId::new(2), cfg);
        let _ = drain(&mut b, NodeEvent::RequestCs);
        let _ = timer(&mut b, TIMER_TOKEN_WAIT); // phase 1 (power 0)
        assert_eq!(b.search().unwrap().d, 1);
        let actions = deliver(&mut b, 3, Msg::Test { d: 2 });
        assert!(b.search().is_some(), "the smaller searcher keeps searching");
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::Answer { kind: AnswerKind::TryLater, d: 2 }, .. }]
        ));
    }

    #[test]
    fn concurrent_search_tie_breaks_by_identity() {
        // Two searchers at the same phase: the smaller identity claims
        // fatherhood (Section 5, case di = dj); the larger answers
        // try-later (not ok — and not silence, which the prober could
        // not tell from a crash).
        let cfg = ft_cfg(4);
        let mut larger = OpenCubeNode::new(NodeId::new(2), cfg);
        let _ = drain(&mut larger, NodeEvent::RequestCs);
        let _ = timer(&mut larger, TIMER_TOKEN_WAIT); // phase 1 (power 0)
        assert_eq!(larger.search().unwrap().d, 1);
        let actions = deliver(&mut larger, 1, Msg::Test { d: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::Answer { kind: AnswerKind::TryLater, d: 1 }, .. }]
        ));

        // Node 3 forced to power 0 (father := 4), searching at phase 1,
        // receives test(1) from node 4: 3 < 4, so node 3 answers ok.
        let mut smaller = OpenCubeNode::new(NodeId::new(3), cfg);
        smaller.set_father(Some(NodeId::new(4)));
        let _ = drain(&mut smaller, NodeEvent::RequestCs);
        let _ = timer(&mut smaller, TIMER_TOKEN_WAIT); // phase 1 (power 0)
        assert_eq!(smaller.search().unwrap().d, 1);
        let actions = deliver(&mut smaller, 4, Msg::Test { d: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { to, msg: Msg::Answer { kind: AnswerKind::Ok, d: 1 } }]
                if to == NodeId::new(4)
        ));
    }

    #[test]
    fn anomaly_starts_search_at_father_distance() {
        // Paper's example: node 13 bounced by recovered node 9 searches
        // from phase dist(13,9) = 3.
        let mut node13 = OpenCubeNode::new(NodeId::new(13), ft_cfg(16));
        let _ = drain(&mut node13, NodeEvent::RequestCs); // asks father 9
        let actions = deliver(&mut node13, 9, Msg::Anomaly);
        let tests = sent_tests(&actions);
        assert_eq!(tests, vec![(9, 3), (10, 3), (11, 3), (12, 3)]);
        assert_eq!(node13.search().unwrap().d, 3);
    }

    #[test]
    fn recovery_searches_from_phase_one() {
        let mut node9 = OpenCubeNode::new(NodeId::new(9), ft_cfg(16));
        node9.on_crash();
        let mut out = Outbox::new();
        node9.on_recover(&mut out);
        let actions = out.drain();
        assert_eq!(sent_tests(&actions), vec![(10, 1)]);
    }

    /// Node 10 (16-cube, father 9) asks, suspects, finds node 9 again in
    /// phase 1 and re-sends its claim there: a son waiting on its father.
    fn son_with_claim_resent_to_9() -> OpenCubeNode {
        let mut node = searching_node_10();
        let _ = deliver(&mut node, 9, Msg::Answer { kind: AnswerKind::Ok, d: 1 });
        assert_eq!(node.father(), Some(NodeId::new(9)));
        assert!(node.claim_resent());
        node
    }

    fn answer_to_test(node: &mut OpenCubeNode, from: u32, d: u32) -> Option<AnswerKind> {
        let actions = deliver(node, from, Msg::Test { d });
        match actions[..] {
            [] => None,
            [Action::Send { to, msg: Msg::Answer { kind, d: echoed } }]
                if to.get() == from && echoed == d =>
            {
                Some(kind)
            }
            _ => panic!("unexpected reply to test({d}): {actions:?}"),
        }
    }

    #[test]
    fn son_whose_claim_was_resent_to_the_prober_is_silent() {
        let mut node = son_with_claim_resent_to_9();
        // Its father probes it: the claim waits in the prober's queue, so
        // try-later would only keep the prober re-probing. Silence.
        assert_eq!(answer_to_test(&mut node, 9, 1), None);
        // Any other prober still hears try-later: only the father is the
        // other end of the cycle.
        assert_eq!(answer_to_test(&mut node, 11, 2), Some(AnswerKind::TryLater));
    }

    #[test]
    fn son_on_its_first_claim_answers_try_later() {
        // The claim went to the father by the ordinary request path, not
        // after a search: the father's probe is answered try-later.
        let mut node = OpenCubeNode::new(NodeId::new(10), ft_cfg(16));
        let _ = drain(&mut node, NodeEvent::RequestCs);
        assert_eq!(node.father(), Some(NodeId::new(9)));
        assert!(!node.claim_resent());
        assert_eq!(answer_to_test(&mut node, 9, 1), Some(AnswerKind::TryLater));
    }

    #[test]
    fn son_holding_the_token_in_cs_answers_try_later() {
        let mut node = son_with_claim_resent_to_9();
        let _ = deliver(&mut node, 9, Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 });
        assert!(node.in_cs() && node.holds_token());
        assert_eq!(node.father(), Some(NodeId::new(9)));
        assert_eq!(answer_to_test(&mut node, 9, 1), Some(AnswerKind::TryLater));
    }

    #[test]
    fn the_resent_mark_clears_at_the_next_claim_start() {
        let mut node = son_with_claim_resent_to_9();
        let _ = deliver(&mut node, 9, Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 });
        let _ = drain(&mut node, NodeEvent::ExitCs);
        // A fresh claim to the same father is a first claim again.
        let _ = drain(&mut node, NodeEvent::RequestCs);
        assert!(node.is_asking() && !node.in_cs());
        assert!(!node.claim_resent());
        assert_eq!(answer_to_test(&mut node, 9, 1), Some(AnswerKind::TryLater));
    }

    #[test]
    fn the_resent_mark_clears_on_a_crash() {
        let mut node = son_with_claim_resent_to_9();
        node.on_crash();
        assert!(!node.claim_resent());
        let mut out = Outbox::new();
        node.on_recover(&mut out);
        assert!(!node.claim_resent(), "the recovery search starts unmarked");
    }

    #[test]
    fn token_arrival_aborts_search() {
        let mut node = searching_node_10();
        let actions = deliver(&mut node, 9, Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 });
        assert!(node.search().is_none());
        assert!(node.in_cs());
        assert!(actions.iter().any(|a| matches!(a, Action::EnterCs)));
    }
}
