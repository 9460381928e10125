//! The root's loan supervision (Section 5, "Root").
//!
//! When the root lends the token it expects it back within a bounded time
//! (`2δ + e` when lent directly to the source, `(pmax + 1)δ + e` when the
//! token travels through proxies). Past that, the root *enquires* with the
//! source `s` of the request:
//!
//! * `s` is still in the critical section → keep waiting;
//! * `s` says it already sent the token back → it arrives within δ; if a
//!   second enquiry says the same, the return was lost with a crashed
//!   carrier and the root regenerates;
//! * `s` says it never received the token → the token was lost on the way
//!   down: regenerate;
//! * `s` does not answer within `2δ` → `s` is down: regenerate.

use oc_sim::Outbox;
use oc_topology::NodeId;

use crate::{
    message::{EnquiryStatus, Msg},
    mint::MintPurpose,
    node::{OpenCubeNode, TIMER_ENQUIRY, TIMER_ROOT_LOAN},
};

impl OpenCubeNode {
    /// The loan timer fired: the token is overdue — enquire with the
    /// source.
    pub(crate) fn on_loan_timeout(&mut self, out: &mut Outbox<Msg>) {
        let Some(loan) = self.loan.as_mut() else {
            return; // stale: the token came back
        };
        loan.enquiry_outstanding = true;
        let (source, source_seq) = (loan.source, loan.source_seq);
        out.send(source, Msg::Enquiry { source_seq });
        out.set_timer(TIMER_ENQUIRY, self.config_inner().enquiry_timeout());
    }

    /// No reply to our enquiry within `2δ`: the source is down and the
    /// token cannot come back — regenerate it.
    pub(crate) fn on_enquiry_timeout(&mut self, out: &mut Outbox<Msg>) {
        if self.loan.is_none() {
            return; // stale
        }
        self.regenerate_as_lender(out);
    }

    /// An enquiry arrived: report the status of the claim `source_seq`
    /// from this node's perspective.
    pub(crate) fn on_enquiry(&mut self, from: NodeId, source_seq: u32, out: &mut Outbox<Msg>) {
        let status = self.local_claim_status(source_seq);
        out.send(from, Msg::EnquiryReply { source_seq, status });
    }

    /// The source's reply to our enquiry.
    pub(crate) fn on_enquiry_reply(
        &mut self,
        source_seq: u32,
        status: EnquiryStatus,
        out: &mut Outbox<Msg>,
    ) {
        let Some(loan) = self.loan.as_mut() else {
            return; // the token already came back
        };
        if loan.source_seq != source_seq {
            return; // about an older loan
        }
        if !loan.enquiry_outstanding {
            // No enquiry is waiting for an answer: this reply is a wire
            // duplicate (or a stale echo). Consuming it would let one
            // enquiry round count twice — e.g. a doubled "returned" reply
            // regenerating the token while the real one is in flight.
            return;
        }
        loan.enquiry_outstanding = false;
        out.cancel_timer(TIMER_ENQUIRY);
        match status {
            EnquiryStatus::StillInCs => {
                // Ill-founded suspicion: wait one more CS worth of time.
                out.set_timer(TIMER_ROOT_LOAN, self.config_inner().loan_timeout_direct());
            }
            EnquiryStatus::TokenReturned => {
                if loan.returned_once {
                    // Second "returned" without the token arriving: the
                    // return message itself was lost (its carrier crashed).
                    self.regenerate_as_lender(out);
                } else {
                    // The return is in flight: it arrives within δ < 2δ.
                    loan.returned_once = true;
                    out.set_timer(TIMER_ROOT_LOAN, self.config_inner().enquiry_timeout());
                }
            }
            EnquiryStatus::TokenLost => {
                // The source never received the token: a node on the path
                // crashed with it.
                self.regenerate_as_lender(out);
            }
        }
    }

    /// Regenerates the token as the (still) root lender and resumes
    /// serving the queue. Under [`crate::Hardening::Quorum`] the
    /// regeneration is not local: the loan stays open (keeping the node
    /// busy) while a mint ballot runs, and resolves only once a strict
    /// majority grants it (see `crate::mint`).
    fn regenerate_as_lender(&mut self, out: &mut Outbox<Msg>) {
        if self.config_inner().mutation == crate::config::Mutation::SkipTokenRegeneration {
            // Planted bug (oracle self-test): the loss is concluded but
            // never repaired. The timers are disarmed and the loan kept
            // open, so the lender is wedged forever — the liveness oracle
            // must see a stuck node and starved requests.
            self.cancel_loan_timers(out);
            return;
        }
        if self.config_inner().hardened() {
            self.cancel_loan_timers(out);
            self.begin_mint(MintPurpose::Lender, out);
            return;
        }
        self.loan = None;
        self.cancel_loan_timers(out);
        self.regenerate_token_here(out);
        self.finish_loan_locally(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::node::{counted, TIMER_ENQUIRY, TIMER_ROOT_LOAN};
    use oc_sim::{Action, Counter, NodeEvent, Protocol, SimDuration};

    fn ft_cfg(n: usize) -> Config {
        Config::new(n, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
    }

    fn drain(node: &mut OpenCubeNode, ev: NodeEvent<Msg>) -> Vec<Action<Msg>> {
        let mut out = Outbox::new();
        node.on_event(ev, &mut out);
        out.drain()
    }

    fn deliver(node: &mut OpenCubeNode, from: u32, msg: Msg) -> Vec<Action<Msg>> {
        drain(node, NodeEvent::Deliver { from: NodeId::new(from), msg })
    }

    /// Root 1 of the 4-cube lends the token to source 2 (proxy case is
    /// covered by integration tests).
    fn lending_root() -> OpenCubeNode {
        let mut root = OpenCubeNode::new(NodeId::new(1), ft_cfg(4));
        let actions = deliver(
            &mut root,
            2,
            Msg::Request {
                claimant: NodeId::new(2),
                source: NodeId::new(2),
                source_seq: 7,
                epoch: 0,
            },
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Send { msg: Msg::Token { lender: Some(_), .. }, .. })));
        assert!(root.loan.is_some());
        root
    }

    #[test]
    fn loan_timeout_sends_enquiry_to_source() {
        let mut root = lending_root();
        let actions = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        assert!(matches!(
            actions[..],
            [
                Action::Send { to, msg: Msg::Enquiry { source_seq: 7 } },
                Action::SetTimer { id: TIMER_ENQUIRY, .. }
            ] if to == NodeId::new(2)
        ));
    }

    #[test]
    fn silent_source_triggers_regeneration() {
        let mut root = lending_root();
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let actions = drain(&mut root, NodeEvent::Timer(TIMER_ENQUIRY));
        assert!(root.holds_token(), "token regenerated after the source stayed silent");
        assert!(!root.is_asking());
        assert!(root.loan.is_none());
        assert_eq!(counted(&actions, Counter::TokensRegenerated), 1);
    }

    #[test]
    fn token_lost_reply_triggers_regeneration() {
        let mut root = lending_root();
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let actions = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::TokenLost },
        );
        assert!(root.holds_token());
        assert_eq!(counted(&actions, Counter::TokensRegenerated), 1);
    }

    #[test]
    fn still_in_cs_reply_keeps_waiting() {
        let mut root = lending_root();
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let actions = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::StillInCs },
        );
        assert!(!root.holds_token());
        assert!(root.loan.is_some());
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { id: TIMER_ROOT_LOAN, .. })));
    }

    #[test]
    fn double_returned_reply_regenerates() {
        let mut root = lending_root();
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let _ = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::TokenReturned },
        );
        assert!(!root.holds_token(), "first 'returned': wait for the token");
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let _ = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::TokenReturned },
        );
        assert!(root.holds_token(), "second 'returned': the return was lost");
    }

    #[test]
    fn duplicated_reply_frames_are_ignored() {
        // One enquiry round must consume at most one reply: a wire
        // duplicate of a "returned" answer must not fast-forward the
        // two-confirmation deduction and regenerate a live token.
        let mut root = lending_root();
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let reply = Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::TokenReturned };
        let _ = deliver(&mut root, 2, reply.clone());
        assert!(!root.holds_token(), "first 'returned': wait for the token");
        // The duplicated frame of the same reply arrives: ignored.
        let actions = deliver(&mut root, 2, reply);
        assert!(!root.holds_token(), "a duplicate reply must not count as a second round");
        assert!(root.loan.is_some());
        assert_eq!(counted(&actions, Counter::TokensRegenerated), 0);
        // The genuine second round (new enquiry, new reply) still works.
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let _ = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 7, status: EnquiryStatus::TokenReturned },
        );
        assert!(root.holds_token());
    }

    #[test]
    fn skip_regeneration_mutation_wedges_the_lender() {
        // The planted liveness bug: the lender concludes the token is lost
        // but never regenerates — it stays busy forever.
        let cfg = ft_cfg(4).with_mutation(crate::config::Mutation::SkipTokenRegeneration);
        let mut root = OpenCubeNode::new(NodeId::new(1), cfg);
        let _ = deliver(
            &mut root,
            2,
            Msg::Request {
                claimant: NodeId::new(2),
                source: NodeId::new(2),
                source_seq: 7,
                epoch: 0,
            },
        );
        let _ = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        let actions = drain(&mut root, NodeEvent::Timer(TIMER_ENQUIRY));
        assert!(!root.holds_token(), "mutation: no token regenerated");
        assert!(root.loan.is_some(), "the open loan wedges the lender");
        assert!(!root.is_idle());
        assert_eq!(counted(&actions, Counter::TokensRegenerated), 0);
    }

    #[test]
    fn stale_reply_is_ignored() {
        let mut root = lending_root();
        let _ = deliver(
            &mut root,
            2,
            Msg::EnquiryReply { source_seq: 99, status: EnquiryStatus::TokenLost },
        );
        assert!(!root.holds_token());
        assert!(root.loan.is_some());
    }

    #[test]
    fn return_clears_loan_so_timers_go_stale() {
        let mut root = lending_root();
        let _ = deliver(&mut root, 2, Msg::Token { lender: None, epoch: 0 });
        assert!(root.holds_token());
        assert!(root.loan.is_none());
        // Stale timers are no-ops.
        let actions = drain(&mut root, NodeEvent::Timer(TIMER_ROOT_LOAN));
        assert!(actions.is_empty());
        let actions = drain(&mut root, NodeEvent::Timer(TIMER_ENQUIRY));
        assert!(actions.is_empty());
    }

    #[test]
    fn enquiry_answers_reflect_claim_state() {
        // Source waiting for the token answers "lost"; in CS answers
        // "in cs"; after completion answers "returned".
        let mut source = OpenCubeNode::new(NodeId::new(2), ft_cfg(4));
        let _ = drain(&mut source, NodeEvent::RequestCs); // seq 1, waiting
        let actions = deliver(&mut source, 1, Msg::Enquiry { source_seq: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::EnquiryReply { status: EnquiryStatus::TokenLost, .. }, .. }]
        ));
        let _ = deliver(&mut source, 1, Msg::Token { lender: Some(NodeId::new(1)), epoch: 0 });
        let actions = deliver(&mut source, 1, Msg::Enquiry { source_seq: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send { msg: Msg::EnquiryReply { status: EnquiryStatus::StillInCs, .. }, .. }]
        ));
        let _ = drain(&mut source, NodeEvent::ExitCs);
        let actions = deliver(&mut source, 1, Msg::Enquiry { source_seq: 1 });
        assert!(matches!(
            actions[..],
            [Action::Send {
                msg: Msg::EnquiryReply { status: EnquiryStatus::TokenReturned, .. },
                ..
            }]
        ));
    }

    #[test]
    fn enquiry_answers_follow_the_claim_record_for_current_and_stale_sequence_numbers() {
        // The reference is the record the node's one-byte state replaced:
        // `Some((seq, in_cs))` while a local claim is outstanding.
        type Record = Option<(u32, bool)>;
        fn expected(record: Record, asked: u32) -> EnquiryStatus {
            match record {
                Some((seq, true)) if seq == asked => EnquiryStatus::StillInCs,
                Some((seq, false)) if seq == asked => EnquiryStatus::TokenLost,
                _ => EnquiryStatus::TokenReturned,
            }
        }
        let mut source = OpenCubeNode::new(NodeId::new(2), ft_cfg(4));
        let loaned = || Msg::Token { lender: Some(NodeId::new(1)), epoch: 0 };
        let steps: [(NodeEvent<Msg>, Record); 7] = [
            (NodeEvent::RequestCs, Some((1, false))),
            (NodeEvent::Deliver { from: NodeId::new(1), msg: loaned() }, Some((1, true))),
            (NodeEvent::ExitCs, None),
            (NodeEvent::RequestCs, Some((2, false))),
            (NodeEvent::Deliver { from: NodeId::new(1), msg: loaned() }, Some((2, true))),
            (NodeEvent::RequestCs, Some((2, true))), // queued behind the CS
            (NodeEvent::ExitCs, Some((3, false))),   // served from the queue
        ];
        let ask_all = |source: &mut OpenCubeNode, record| {
            for asked in 0..=4 {
                let actions = deliver(source, 1, Msg::Enquiry { source_seq: asked });
                let want = expected(record, asked);
                assert!(
                    matches!(
                        actions[..],
                        [Action::Send { msg: Msg::EnquiryReply { status, source_seq }, .. }]
                            if status == want && source_seq == asked
                    ),
                    "seq {asked} under {record:?}: {actions:?}"
                );
            }
        };
        ask_all(&mut source, None);
        for (event, record) in steps {
            let _ = drain(&mut source, event);
            ask_all(&mut source, record);
        }
        source.on_crash();
        ask_all(&mut source, None);
    }
}
