//! A centralized coordinator — the classic strawman: node 1 owns the lock
//! and serializes all grants. Three messages per remote critical section
//! (request, grant, release), zero for the coordinator's own, but every
//! request hits the same node, and losing the coordinator loses
//! everything.

use std::collections::VecDeque;

use oc_sim::{MessageKind, MsgKind, NodeEvent, Outbox, Protocol};
use oc_topology::NodeId;

/// The coordinator's node identity.
pub const COORDINATOR: NodeId = NodeId::new(1);

/// Messages of the centralized protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralMsg {
    /// Ask the coordinator for the lock.
    Request,
    /// The coordinator grants the lock.
    Grant,
    /// The user returns the lock.
    Release,
}

impl MessageKind for CentralMsg {
    fn kind(&self) -> MsgKind {
        match self {
            CentralMsg::Request => MsgKind::Request,
            CentralMsg::Grant | CentralMsg::Release => MsgKind::Token,
        }
    }
}

/// One node of the centralized protocol (node 1 doubles as coordinator).
#[derive(Debug)]
pub struct CentralNode {
    id: NodeId,
    /// Coordinator state: lock at home and FIFO of waiters.
    lock_home: bool,
    lock_busy: bool,
    waiters: VecDeque<NodeId>,
    /// User state.
    in_cs: bool,
    pending_local: u32,
    inert: bool,
}

impl CentralNode {
    /// Creates node `id` of an `n`-node system.
    #[must_use]
    pub fn new(id: NodeId, n: usize) -> Self {
        assert!((id.get() as usize) <= n, "node {id} outside 1..={n}");
        CentralNode {
            id,
            lock_home: id == COORDINATOR,
            lock_busy: false,
            waiters: VecDeque::new(),
            in_cs: false,
            pending_local: 0,
            inert: false,
        }
    }

    /// Builds all nodes of an `n`-node system.
    #[must_use]
    pub fn build_all(n: usize) -> Vec<CentralNode> {
        NodeId::all(n).map(|id| CentralNode::new(id, n)).collect()
    }

    fn grant_next(&mut self, out: &mut Outbox<CentralMsg>) {
        debug_assert_eq!(self.id, COORDINATOR);
        if self.lock_home && !self.lock_busy {
            if let Some(next) = self.waiters.pop_front() {
                self.lock_busy = true;
                if next == self.id {
                    self.in_cs = true;
                    out.enter_cs();
                } else {
                    self.lock_home = false;
                    out.send(next, CentralMsg::Grant);
                }
            }
        }
    }
}

impl Protocol for CentralNode {
    type Msg = CentralMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_event(&mut self, event: NodeEvent<CentralMsg>, out: &mut Outbox<CentralMsg>) {
        if self.inert {
            return;
        }
        match event {
            NodeEvent::RequestCs => {
                if self.id == COORDINATOR {
                    self.waiters.push_back(self.id);
                    self.grant_next(out);
                } else if self.in_cs || self.pending_local > 0 {
                    self.pending_local += 1;
                } else {
                    out.send(COORDINATOR, CentralMsg::Request);
                }
            }
            NodeEvent::ExitCs => {
                self.in_cs = false;
                if self.id == COORDINATOR {
                    self.lock_busy = false;
                    self.grant_next(out);
                } else {
                    out.send(COORDINATOR, CentralMsg::Release);
                    if self.pending_local > 0 {
                        self.pending_local -= 1;
                        out.send(COORDINATOR, CentralMsg::Request);
                    }
                }
            }
            NodeEvent::Deliver { from, msg } => match msg {
                CentralMsg::Request => {
                    self.waiters.push_back(from);
                    self.grant_next(out);
                }
                CentralMsg::Grant => {
                    self.in_cs = true;
                    out.enter_cs();
                }
                CentralMsg::Release => {
                    self.lock_home = true;
                    self.lock_busy = false;
                    self.grant_next(out);
                }
            },
            NodeEvent::Timer(_) => {}
        }
    }

    fn on_crash(&mut self) {
        self.lock_home = false;
        self.lock_busy = false;
        self.waiters.clear();
        self.in_cs = false;
        self.pending_local = 0;
    }

    fn on_recover(&mut self, _out: &mut Outbox<CentralMsg>) {
        self.inert = true;
    }

    fn in_cs(&self) -> bool {
        self.in_cs
    }

    fn holds_token(&self) -> bool {
        if self.id == COORDINATOR {
            self.lock_home && !self.inert
        } else {
            self.in_cs
        }
    }

    fn is_idle(&self) -> bool {
        !self.in_cs && self.waiters.is_empty() && self.pending_local == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_sim::{SimConfig, SimTime, World};

    fn world(n: usize, seed: u64) -> World<CentralNode> {
        World::new(
            SimConfig { seed, max_events: 5_000_000, ..SimConfig::default() },
            CentralNode::build_all(n),
        )
    }

    #[test]
    fn remote_request_costs_three_messages() {
        let mut w = world(8, 1);
        w.schedule_request(SimTime::from_ticks(1), NodeId::new(5));
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().cs_entries, 1);
        assert_eq!(w.metrics().total_sent(), 3);
    }

    #[test]
    fn coordinator_request_is_free() {
        let mut w = world(8, 2);
        w.schedule_request(SimTime::from_ticks(1), NodeId::new(1));
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().total_sent(), 0);
        assert_eq!(w.metrics().cs_entries, 1);
    }

    #[test]
    fn concurrent_requests_serialize() {
        let mut w = world(16, 3);
        for i in 1..=16u32 {
            w.schedule_request(SimTime::from_ticks(u64::from(i)), NodeId::new(i));
        }
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().cs_entries, 16);
        assert!(w.oracle_report().is_clean(), "{:?}", w.oracle_report());
    }

    #[test]
    fn repeated_local_requests_queue() {
        let mut w = world(4, 4);
        for t in [1u64, 2, 3] {
            w.schedule_request(SimTime::from_ticks(t), NodeId::new(3));
        }
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().cs_entries, 3);
        assert!(w.oracle_report().is_clean());
    }
}
