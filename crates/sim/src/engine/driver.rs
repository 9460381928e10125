//! The one deliver→step→collect-actions loop shared by every substrate.
//!
//! A [`Protocol`] only ever talks to the outside world
//! through its outbox; the substrate then executes the recorded actions in
//! order. The seed duplicated that execution loop in `World` and in
//! `oc-runtime`'s node threads, which let the two substrates drift (and
//! each re-allocated an action vec per event). [`drive`] is now the single
//! enforcement point: it feeds the event to the state machine and streams
//! the resulting actions — without allocating — into an [`ActionSink`],
//! which is the only thing a substrate still implements itself.

use oc_topology::NodeId;

use crate::{
    metrics::Counter,
    outbox::Outbox,
    protocol::{Action, NodeEvent, Protocol},
    time::SimDuration,
};

/// A substrate's effect handlers, one per [`Action`] kind.
///
/// Implementations decide what "send" or "arm a timer" physically means:
/// the simulator files events into its event queue at virtual
/// timestamps; the threaded runtime files them with the destination
/// node's worker under real-time deadlines.
pub trait ActionSink<M> {
    /// `from` sends `msg` to `to` over the (unreliable-to-crashes,
    /// bounded-delay) network.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M);

    /// `node` enters the critical section now, holding a token of epoch
    /// `token_epoch` (always 0 outside hardened protocol modes; see
    /// [`Protocol::token_epoch`]). The epoch reaches the oracle so it can
    /// judge mutual exclusion per epoch.
    fn enter_cs(&mut self, node: NodeId, token_epoch: u64);

    /// `node` arms (or re-arms) its local timer `id` to fire after
    /// `delay`.
    fn set_timer(&mut self, node: NodeId, id: u64, delay: SimDuration);

    /// `node` disarms its local timer `id`.
    fn cancel_timer(&mut self, node: NodeId, id: u64);

    /// `node` counts one protocol act. Only the simulator keeps these
    /// (in its [`crate::Metrics`]); by default a substrate ignores them.
    fn count(&mut self, _node: NodeId, _counter: Counter) {}
}

/// Feeds one event to `node` and executes every resulting action through
/// `sink`, in emission order.
///
/// `out` is a scratch buffer owned by the caller; it is drained in place,
/// so its capacity is reused across events and the hot path performs no
/// per-event allocation.
pub fn drive<P: Protocol, S: ActionSink<P::Msg>>(
    node: &mut P,
    event: NodeEvent<P::Msg>,
    out: &mut Outbox<P::Msg>,
    sink: &mut S,
) {
    debug_assert!(out.is_empty(), "outbox not drained after the previous event");
    let id = node.id();
    node.on_event(event, out);
    execute(id, node.token_epoch(), out, sink);
}

/// Runs `node`'s recovery hook and executes the resulting actions, same
/// contract as [`drive`].
pub fn drive_recovery<P: Protocol, S: ActionSink<P::Msg>>(
    node: &mut P,
    out: &mut Outbox<P::Msg>,
    sink: &mut S,
) {
    debug_assert!(out.is_empty(), "outbox not drained after the previous event");
    let id = node.id();
    node.on_recover(out);
    execute(id, node.token_epoch(), out, sink);
}

fn execute<M, S: ActionSink<M>>(node: NodeId, token_epoch: u64, out: &mut Outbox<M>, sink: &mut S) {
    for action in out.drain_actions() {
        match action {
            Action::Send { to, msg } => sink.send(node, to, msg),
            Action::EnterCs => sink.enter_cs(node, token_epoch),
            Action::SetTimer { id, delay } => sink.set_timer(node, id, delay),
            Action::CancelTimer { id } => sink.cancel_timer(node, id),
            Action::Count(counter) => sink.count(node, counter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MsgKind;
    use crate::protocol::MessageKind;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping;
    impl MessageKind for Ping {
        fn kind(&self) -> MsgKind {
            MsgKind::Request
        }
    }

    /// Emits one of everything on any event.
    #[derive(Debug)]
    struct Emitter(NodeId);
    impl Protocol for Emitter {
        type Msg = Ping;
        fn id(&self) -> NodeId {
            self.0
        }
        fn on_event(&mut self, _ev: NodeEvent<Ping>, out: &mut Outbox<Ping>) {
            out.send(NodeId::new(2), Ping);
            out.enter_cs();
            out.set_timer(4, SimDuration::from_ticks(9));
            out.cancel_timer(4);
            out.count(Counter::SearchPhases);
        }
        fn on_crash(&mut self) {}
        fn on_recover(&mut self, out: &mut Outbox<Ping>) {
            out.send(NodeId::new(3), Ping);
        }
        fn in_cs(&self) -> bool {
            false
        }
        fn holds_token(&self) -> bool {
            false
        }
    }

    #[derive(Debug, Default, PartialEq)]
    struct Log(Vec<String>);
    impl ActionSink<Ping> for Log {
        fn send(&mut self, from: NodeId, to: NodeId, _msg: Ping) {
            self.0.push(format!("send {from}->{to}"));
        }
        fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
            self.0.push(format!("cs {node} e{token_epoch}"));
        }
        fn set_timer(&mut self, node: NodeId, id: u64, delay: SimDuration) {
            self.0.push(format!("set {node} {id} {delay}"));
        }
        fn cancel_timer(&mut self, node: NodeId, id: u64) {
            self.0.push(format!("cancel {node} {id}"));
        }
        fn count(&mut self, node: NodeId, counter: Counter) {
            self.0.push(format!("count {node} {counter:?}"));
        }
    }

    #[test]
    fn actions_reach_the_sink_in_order() {
        let mut node = Emitter(NodeId::new(1));
        let mut out = Outbox::new();
        let mut sink = Log::default();
        drive(&mut node, NodeEvent::RequestCs, &mut out, &mut sink);
        assert_eq!(
            sink.0,
            vec!["send 1->2", "cs 1 e0", "set 1 4 9", "cancel 1 4", "count 1 SearchPhases"]
        );
        assert!(out.is_empty());

        let mut sink = Log::default();
        drive_recovery(&mut node, &mut out, &mut sink);
        assert_eq!(sink.0, vec!["send 1->3"]);
    }
}
