use oc_topology::NodeId;

use crate::{metrics::Counter, protocol::Action, time::SimDuration};

/// Collects the actions a protocol emits while handling one event.
///
/// The substrate hands a fresh (or drained) `Outbox` to
/// [`crate::Protocol::on_event`] and executes the recorded actions
/// afterwards, in order.
#[derive(Debug)]
pub struct Outbox<M> {
    actions: Vec<Action<M>>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    #[must_use]
    pub fn new() -> Self {
        Outbox { actions: Vec::new() }
    }

    /// Records a message send.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Records entry into the critical section.
    pub fn enter_cs(&mut self) {
        self.actions.push(Action::EnterCs);
    }

    /// Records (re-)arming of the node-local timer `id`.
    pub fn set_timer(&mut self, id: u64, delay: SimDuration) {
        self.actions.push(Action::SetTimer { id, delay });
    }

    /// Records disarming of the node-local timer `id`.
    pub fn cancel_timer(&mut self, id: u64) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Records one protocol count.
    pub fn count(&mut self, counter: Counter) {
        self.actions.push(Action::Count(counter));
    }

    /// Removes and returns all recorded actions, leaving the outbox empty.
    ///
    /// Gives the backing buffer away; prefer [`Outbox::drain_actions`] on
    /// hot paths, which keeps the capacity for the next event.
    pub fn drain(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }

    /// Streams out all recorded actions, retaining the buffer's capacity —
    /// the engine's allocation-free per-event path.
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }

    /// Drops every recorded action, keeping the buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.actions.clear();
    }

    /// The actions recorded so far.
    #[must_use]
    pub fn actions(&self) -> &[Action<M>] {
        &self.actions
    }

    /// `true` if no actions are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut out: Outbox<&'static str> = Outbox::new();
        out.send(NodeId::new(2), "req");
        out.enter_cs();
        out.set_timer(7, SimDuration::from_ticks(10));
        out.cancel_timer(7);
        let actions = out.drain();
        assert_eq!(actions.len(), 4);
        assert!(matches!(actions[0], Action::Send { .. }));
        assert!(matches!(actions[1], Action::EnterCs));
        assert!(matches!(actions[2], Action::SetTimer { id: 7, .. }));
        assert!(matches!(actions[3], Action::CancelTimer { id: 7 }));
        assert!(out.is_empty());
    }
}
