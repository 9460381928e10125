//! Wire messages of the open-cube algorithm.
//!
//! `Request` and `Token` are the Section 3 base protocol; the rest is the
//! Section 5 fault-tolerance machinery. Two fields go beyond the paper's
//! pseudo-code and implement details it prescribes in prose:
//!
//! * `Request::source` — Section 5: *"the root has to be aware of the
//!   identity s of the source of the request. This information can be added
//!   in the request message."*
//! * `source_seq` — a per-source claim sequence number, so an enquiry about
//!   an *old* loan is never confused with the source's *current* claim. The
//!   paper's enquiry is described at this level of intent ("live and safe")
//!   without fixing an encoding; the sequence number is our encoding.

use core::fmt;

use oc_sim::{MessageKind, MsgKind};
use oc_topology::NodeId;

/// Status carried by an enquiry reply (Section 5, "Root" cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnquiryStatus {
    /// "wait, I'm still in the critical section"
    StillInCs,
    /// "I've already sent back the token"
    TokenReturned,
    /// The source never received the token: it was lost on the way.
    TokenLost,
}

/// Verdict carried by an `answer` to a `test(d)` probe (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerKind {
    /// "ok" — the answering node qualifies as the prober's father.
    Ok,
    /// "try later" — the answering node is busy (asking) and its power may
    /// still grow; probe again.
    TryLater,
}

/// A message of the open-cube mutual exclusion protocol.
#[derive(Clone, PartialEq, Eq)]
pub enum Msg {
    /// `request(claimant)`: the claim of `claimant` for the token, moving
    /// toward the root. `source`/`source_seq` identify the CS request that
    /// ultimately triggered it (Section 5 needs them for the root enquiry).
    Request {
        /// The node that will receive the token for this claim.
        claimant: NodeId,
        /// The node whose `enter_cs` call started the claim chain.
        source: NodeId,
        /// The source's claim sequence number.
        source_seq: u32,
        /// The sender's highest witnessed token epoch
        /// ([`crate::Hardening::Quorum`] fencing; always 0 under
        /// [`crate::Hardening::None`]). Requests gossip the current epoch
        /// toward stale holders so fenced-out tokens get discarded.
        epoch: u64,
    },
    /// `token(lender)`: the token itself. `lender = None` is the paper's
    /// `token(nil)` — ownership transfers; `Some(j)` means the token must
    /// eventually return to `j`.
    Token {
        /// The lender, or `None` for an ownership transfer.
        lender: Option<NodeId>,
        /// The epoch this token was minted at (0 = the original token, and
        /// always 0 under [`crate::Hardening::None`]). A token whose epoch
        /// trails the receiver's highest witnessed epoch is stale and is
        /// discarded on receipt.
        epoch: u64,
    },
    /// The root's enquiry to the source of an outstanding loan.
    Enquiry {
        /// The claim sequence number the enquiry is about.
        source_seq: u32,
    },
    /// The source's reply to an enquiry.
    EnquiryReply {
        /// Echo of the enquiry's sequence number.
        source_seq: u32,
        /// Status of that claim at the source.
        status: EnquiryStatus,
    },
    /// `test(d)`: a `search_father` probe to the ring at distance `d`.
    Test {
        /// The probing phase (= distance of the probed ring).
        d: u32,
    },
    /// `answer(ok | try later)`: reply to a `test`.
    Answer {
        /// The verdict.
        kind: AnswerKind,
        /// Echo of the probed phase, so stale answers can be recognized.
        d: u32,
    },
    /// Anomaly notification: the sender, processing the receiver's request,
    /// found `power(sender) < dist(sender, receiver)` — the receiver must
    /// search for a new father (Section 5, node recovery).
    Anomaly,
    /// A mint ballot ([`crate::Hardening::Quorum`] only): the sender wants
    /// to regenerate the token at `epoch` and asks the receiver to grant
    /// that epoch. A node grants each epoch at most once (Paxos-style
    /// promise), which is what makes two same-epoch mints impossible.
    MintRequest {
        /// The proposed epoch for the regenerated token.
        epoch: u64,
    },
    /// Reply to a [`Msg::MintRequest`].
    MintAck {
        /// On a grant: echo of the proposed epoch. On a refusal: the
        /// acker's highest promised/witnessed epoch, teaching the minter
        /// what its next ballot must exceed.
        epoch: u64,
        /// `true` if the acker granted exactly the proposed epoch.
        granted: bool,
    },
}

impl MessageKind for Msg {
    fn kind(&self) -> MsgKind {
        match self {
            Msg::Request { .. } => MsgKind::Request,
            Msg::Token { .. } => MsgKind::Token,
            Msg::Enquiry { .. } => MsgKind::Enquiry,
            Msg::EnquiryReply { .. } => MsgKind::EnquiryReply,
            Msg::Test { .. } => MsgKind::Test,
            Msg::Answer { .. } => MsgKind::Answer,
            Msg::Anomaly => MsgKind::Anomaly,
            Msg::MintRequest { .. } => MsgKind::MintRequest,
            Msg::MintAck { .. } => MsgKind::MintAck,
        }
    }

    fn token_epoch(&self) -> u64 {
        match self {
            Msg::Token { epoch, .. } => *epoch,
            _ => 0,
        }
    }
}

impl fmt::Debug for Msg {
    /// Renders messages in the paper's notation — `request(8)`,
    /// `token(nil)`, `token(9)`, `test(3)` — so traces read like Section
    /// 3.2's worked example.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Epoch suffixes appear only at epoch > 0, so baseline traces (all
        // epochs 0) render — and therefore hash — exactly as before the
        // hardened mode existed.
        match self {
            Msg::Request { claimant, epoch: 0, .. } => write!(f, "request({claimant})"),
            Msg::Request { claimant, epoch, .. } => write!(f, "request({claimant}@e{epoch})"),
            Msg::Token { lender: None, epoch: 0 } => write!(f, "token(nil)"),
            Msg::Token { lender: Some(j), epoch: 0 } => write!(f, "token({j})"),
            Msg::Token { lender: None, epoch } => write!(f, "token(nil@e{epoch})"),
            Msg::Token { lender: Some(j), epoch } => write!(f, "token({j}@e{epoch})"),
            Msg::Enquiry { source_seq } => write!(f, "enquiry(#{source_seq})"),
            Msg::EnquiryReply { source_seq, status } => {
                let s = match status {
                    EnquiryStatus::StillInCs => "in-cs",
                    EnquiryStatus::TokenReturned => "returned",
                    EnquiryStatus::TokenLost => "lost",
                };
                write!(f, "enquiry-reply({s}#{source_seq})")
            }
            Msg::Test { d } => write!(f, "test({d})"),
            Msg::Answer { kind: AnswerKind::Ok, d } => write!(f, "answer(ok,{d})"),
            Msg::Answer { kind: AnswerKind::TryLater, d } => write!(f, "answer(try-later,{d})"),
            Msg::Anomaly => write!(f, "anomaly"),
            Msg::MintRequest { epoch } => write!(f, "mint-request(e{epoch})"),
            Msg::MintAck { epoch, granted: true } => write!(f, "mint-ack(grant,e{epoch})"),
            Msg::MintAck { epoch, granted: false } => write!(f, "mint-ack(refuse,e{epoch})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_uses_paper_notation() {
        let req = Msg::Request {
            claimant: NodeId::new(8),
            source: NodeId::new(8),
            source_seq: 1,
            epoch: 0,
        };
        assert_eq!(format!("{req:?}"), "request(8)");
        assert_eq!(format!("{:?}", Msg::Token { lender: None, epoch: 0 }), "token(nil)");
        assert_eq!(
            format!("{:?}", Msg::Token { lender: Some(NodeId::new(9)), epoch: 0 }),
            "token(9)"
        );
        assert_eq!(format!("{:?}", Msg::Test { d: 3 }), "test(3)");
        assert_eq!(format!("{:?}", Msg::Answer { kind: AnswerKind::Ok, d: 2 }), "answer(ok,2)");
        assert_eq!(format!("{:?}", Msg::Anomaly), "anomaly");
    }

    #[test]
    fn hardened_messages_render_their_epoch() {
        let req = Msg::Request {
            claimant: NodeId::new(8),
            source: NodeId::new(8),
            source_seq: 1,
            epoch: 3,
        };
        assert_eq!(format!("{req:?}"), "request(8@e3)");
        assert_eq!(format!("{:?}", Msg::Token { lender: None, epoch: 2 }), "token(nil@e2)");
        assert_eq!(
            format!("{:?}", Msg::Token { lender: Some(NodeId::new(9)), epoch: 1 }),
            "token(9@e1)"
        );
        assert_eq!(format!("{:?}", Msg::MintRequest { epoch: 4 }), "mint-request(e4)");
        assert_eq!(format!("{:?}", Msg::MintAck { epoch: 4, granted: true }), "mint-ack(grant,e4)");
        assert_eq!(
            format!("{:?}", Msg::MintAck { epoch: 7, granted: false }),
            "mint-ack(refuse,e7)"
        );
    }

    #[test]
    fn kinds_are_mapped() {
        assert_eq!(
            Msg::Request {
                claimant: NodeId::new(1),
                source: NodeId::new(1),
                source_seq: 0,
                epoch: 0
            }
            .kind(),
            MsgKind::Request
        );
        assert_eq!(Msg::Token { lender: None, epoch: 0 }.kind(), MsgKind::Token);
        assert!(Msg::Token { lender: None, epoch: 0 }.carries_token());
        assert!(!Msg::Anomaly.carries_token());
        assert_eq!(Msg::MintRequest { epoch: 1 }.kind(), MsgKind::MintRequest);
        assert_eq!(Msg::MintAck { epoch: 1, granted: true }.kind(), MsgKind::MintAck);
        assert!(!Msg::MintRequest { epoch: 1 }.carries_token());
        assert_eq!(Msg::Enquiry { source_seq: 0 }.kind(), MsgKind::Enquiry);
        assert_eq!(
            Msg::EnquiryReply { source_seq: 0, status: EnquiryStatus::TokenLost }.kind(),
            MsgKind::EnquiryReply
        );
        assert_eq!(Msg::Test { d: 1 }.kind(), MsgKind::Test);
        assert_eq!(Msg::Answer { kind: AnswerKind::TryLater, d: 1 }.kind(), MsgKind::Answer);
        assert_eq!(Msg::Anomaly.kind(), MsgKind::Anomaly);
    }
}
