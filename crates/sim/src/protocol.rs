//! The sans-io protocol interface shared by the simulator, the threaded
//! runtime, and hand-driven unit tests.

use core::fmt;

use oc_topology::NodeId;

use crate::{metrics::MsgKind, outbox::Outbox, time::SimDuration};

/// An input consumed by a protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent<M> {
    /// The local application wants to enter the critical section
    /// (the paper's `enter_cs` call).
    RequestCs,
    /// The local application leaves the critical section
    /// (the paper's `exit_cs` call).
    ExitCs,
    /// A message arrived from another node.
    Deliver {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
    /// A timer previously armed with [`Action::SetTimer`] fired.
    Timer(u64),
}

/// An output emitted by a protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `msg` to `to` over the asynchronous network.
    Send {
        /// The destination.
        to: NodeId,
        /// The payload.
        msg: M,
    },
    /// The node enters the critical section *now*. The substrate will
    /// deliver [`NodeEvent::ExitCs`] after the configured CS duration (or
    /// when the driving application decides).
    EnterCs,
    /// Arm (or re-arm) the node-local timer `id` to fire after `delay`.
    SetTimer {
        /// Node-local timer identity; re-arming an armed id replaces it.
        id: u64,
        /// Delay until the timer fires.
        delay: SimDuration,
    },
    /// Disarm the node-local timer `id` (no-op if not armed).
    CancelTimer {
        /// Node-local timer identity.
        id: u64,
    },
}

/// Classification of protocol messages, used by metrics and oracles.
///
/// Implemented by every protocol's message type so the substrate can count
/// traffic by kind without understanding the payload.
pub trait MessageKind {
    /// The kind of this message.
    fn kind(&self) -> MsgKind;

    /// `true` if this message transfers the token. Used by the token-
    /// uniqueness oracle. Defaults to `kind() == MsgKind::Token`.
    fn carries_token(&self) -> bool {
        self.kind() == MsgKind::Token
    }

    /// The mint epoch of the token this message carries (meaningful only
    /// when [`MessageKind::carries_token`]). The census counts in-flight
    /// tokens per epoch so a fenced-out stale token is not mistaken for a
    /// duplicate of its successor. Default: 0 — non-hardened protocols
    /// live entirely in epoch 0.
    fn token_epoch(&self) -> u64 {
        0
    }
}

/// A distributed-protocol node as a pure state machine.
///
/// Implementations must be deterministic functions of the event sequence:
/// no clocks, no randomness, no I/O. All effects go through the
/// [`Outbox`]. This is what lets the same implementation run under the
/// deterministic simulator, the threaded runtime, and scripted unit tests.
pub trait Protocol {
    /// The protocol's wire message type.
    type Msg: Clone + fmt::Debug + MessageKind + Send + Sync + 'static;

    /// This node's identity.
    fn id(&self) -> NodeId;

    /// Consumes one event, emitting any number of actions.
    fn on_event(&mut self, event: NodeEvent<Self::Msg>, out: &mut Outbox<Self::Msg>);

    /// Fail-stop: wipe all volatile state. Constants the paper allows on
    /// stable storage (`pmax`, the `dist` array) may be retained.
    fn on_crash(&mut self);

    /// The node restarts after a crash and re-joins the system.
    fn on_recover(&mut self, out: &mut Outbox<Self::Msg>);

    /// `true` while the node is inside the critical section.
    fn in_cs(&self) -> bool;

    /// `true` while the node holds the token (or, for non-token protocols,
    /// the exclusive privilege).
    fn holds_token(&self) -> bool;

    /// `true` if the node currently has nothing pending: not asking, not in
    /// CS, no queued local work. Used by the simulator to decide quiescence
    /// for closed-loop experiments. Default: not in CS.
    fn is_idle(&self) -> bool {
        !self.in_cs()
    }

    /// Bytes this node owns on the heap *beyond* `size_of::<Self>()` —
    /// queue capacities, boxed search state, bitmask words. Used by the
    /// memory-footprint report ([`crate::World::mem_bytes_per_node`]); an
    /// estimate, not an exact malloc census. Default: 0 (inline-only
    /// state).
    fn heap_bytes(&self) -> usize {
        0
    }

    /// The epoch of the token this node currently holds (meaningful only
    /// while [`Protocol::holds_token`]); epoch-fenced hardened protocols
    /// override this. The oracle records CS entries under this epoch, and
    /// the token census counts only highest-epoch tokens. Default: 0 —
    /// protocols without fencing live entirely in epoch 0, which keeps
    /// every oracle check exactly as strict as before.
    fn token_epoch(&self) -> u64 {
        0
    }

    /// `true` while the node wants to regenerate the token but cannot
    /// assemble the required quorum (hardened mode on the minority side of
    /// a partition). The liveness oracle excuses such nodes the way it
    /// excuses cut-isolated ones: their starvation is the environment's
    /// fault, chosen deliberately (safety over availability). Default:
    /// `false`.
    fn quorum_blocked(&self) -> bool {
        false
    }

    /// Stale tokens this node has discarded through epoch fencing: a
    /// count that only grows. The world reads it before and after every
    /// event it hands the node and folds the difference into
    /// [`crate::Metrics::epoch_discards`], so the metric is current after
    /// every step. Default: 0.
    fn epoch_discards(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping;
    impl MessageKind for Ping {
        fn kind(&self) -> MsgKind {
            MsgKind::Request
        }
    }

    #[test]
    fn default_carries_token_follows_kind() {
        assert!(!Ping.carries_token());
        struct Tok;
        impl MessageKind for Tok {
            fn kind(&self) -> MsgKind {
                MsgKind::Token
            }
        }
        assert!(Tok.carries_token());
    }

    #[test]
    fn node_event_is_cloneable_and_comparable() {
        let ev: NodeEvent<Ping> = NodeEvent::Deliver { from: NodeId::new(1), msg: Ping };
        assert_eq!(ev.clone(), ev);
    }
}
