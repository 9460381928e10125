//! Raymond's tree-based algorithm (ACM TOCS 1989), as summarized in the
//! paper's introduction: a static tree; each node's `holder` pointer
//! orients its edge toward the subtree containing the token; requests and
//! the privilege travel along tree edges only.
//!
//! The static tree used here is the canonical open-cube (same shape, hence
//! the same `log2 n` diameter), which makes comparisons against the
//! open-cube algorithm apples-to-apples.

use std::collections::VecDeque;

use oc_sim::{MessageKind, MsgKind, NodeEvent, Outbox, Protocol};
use oc_topology::{canonical_father, NodeId};

/// Raymond's two message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaymondMsg {
    /// A request for the privilege from a neighboring subtree.
    Request,
    /// The privilege (token) moving across one tree edge.
    Privilege,
}

impl MessageKind for RaymondMsg {
    fn kind(&self) -> MsgKind {
        match self {
            RaymondMsg::Request => MsgKind::Request,
            RaymondMsg::Privilege => MsgKind::Token,
        }
    }
}

/// One node of Raymond's algorithm.
#[derive(Debug)]
pub struct RaymondNode {
    id: NodeId,
    /// Which neighbor leads to the token (`id` itself when we hold it).
    holder: NodeId,
    /// FIFO of neighbors (and possibly `id` itself) whose subtree wants
    /// the privilege.
    request_q: VecDeque<NodeId>,
    /// Whether we already asked `holder` on behalf of the queue head.
    asked: bool,
    using: bool,
    inert: bool,
}

impl RaymondNode {
    /// Creates node `id` of an `n`-node system on the canonical open-cube
    /// shape, with the privilege initially at node 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `id` out of range.
    #[must_use]
    pub fn new(id: NodeId, n: usize) -> Self {
        assert!((id.get() as usize) <= n, "node {id} outside 1..={n}");
        // The holder pointer runs along the unique path toward node 1.
        let holder = canonical_father(n, id).unwrap_or(id);
        RaymondNode {
            id,
            holder,
            request_q: VecDeque::new(),
            asked: false,
            using: false,
            inert: false,
        }
    }

    /// Builds all nodes of an `n`-node system.
    #[must_use]
    pub fn build_all(n: usize) -> Vec<RaymondNode> {
        NodeId::all(n).map(|id| RaymondNode::new(id, n)).collect()
    }

    /// Raymond's ASSIGN_PRIVILEGE: if we hold an idle privilege and the
    /// queue is non-empty, grant it to the head.
    fn assign_privilege(&mut self, out: &mut Outbox<RaymondMsg>) {
        if self.holder == self.id && !self.using {
            if let Some(head) = self.request_q.pop_front() {
                self.asked = false;
                if head == self.id {
                    self.using = true;
                    out.enter_cs();
                } else {
                    self.holder = head;
                    out.send(head, RaymondMsg::Privilege);
                }
            }
        }
    }

    /// Raymond's MAKE_REQUEST: if the privilege is elsewhere and someone
    /// (possibly us) is queued, ask the holder once.
    fn make_request(&mut self, out: &mut Outbox<RaymondMsg>) {
        if self.holder != self.id && !self.request_q.is_empty() && !self.asked {
            self.asked = true;
            out.send(self.holder, RaymondMsg::Request);
        }
    }

    fn step(&mut self, out: &mut Outbox<RaymondMsg>) {
        self.assign_privilege(out);
        self.make_request(out);
    }
}

impl Protocol for RaymondNode {
    type Msg = RaymondMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_event(&mut self, event: NodeEvent<RaymondMsg>, out: &mut Outbox<RaymondMsg>) {
        if self.inert {
            return;
        }
        match event {
            NodeEvent::RequestCs => {
                self.request_q.push_back(self.id);
                self.step(out);
            }
            NodeEvent::ExitCs => {
                self.using = false;
                self.step(out);
            }
            NodeEvent::Deliver { from, msg } => match msg {
                RaymondMsg::Request => {
                    self.request_q.push_back(from);
                    self.step(out);
                }
                RaymondMsg::Privilege => {
                    self.holder = self.id;
                    self.step(out);
                }
            },
            NodeEvent::Timer(_) => {}
        }
    }

    fn on_crash(&mut self) {
        self.request_q.clear();
        self.using = false;
        self.asked = false;
    }

    fn on_recover(&mut self, _out: &mut Outbox<RaymondMsg>) {
        // Raymond's algorithm is not fault-tolerant (the paper's point):
        // a crashed node cannot re-join without a global tree rebuild.
        self.inert = true;
    }

    fn in_cs(&self) -> bool {
        self.using
    }

    fn holds_token(&self) -> bool {
        self.holder == self.id && !self.inert
    }

    fn is_idle(&self) -> bool {
        self.request_q.is_empty() && !self.using
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_sim::{SimConfig, SimTime, World};

    fn world(n: usize, seed: u64) -> World<RaymondNode> {
        World::new(
            SimConfig { seed, max_events: 5_000_000, ..SimConfig::default() },
            RaymondNode::build_all(n),
        )
    }

    #[test]
    fn initial_holder_chain_points_to_node_1() {
        let nodes = RaymondNode::build_all(8);
        assert!(nodes[0].holds_token());
        for node in &nodes[1..] {
            assert!(!node.holds_token());
        }
    }

    #[test]
    fn single_remote_request_round_trip() {
        let mut w = world(4, 1);
        w.schedule_request(SimTime::from_ticks(1), NodeId::new(4));
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().cs_entries, 1);
        assert!(w.oracle_report().is_clean());
        // 4 -> 3 -> 1 requests, privilege 1 -> 3 -> 4: two hops each way.
        assert_eq!(w.metrics().total_sent(), 4);
        // The privilege now rests at node 4.
        assert!(w.node(NodeId::new(4)).holds_token());
    }

    #[test]
    fn all_nodes_request_concurrently() {
        for n in [2usize, 8, 32] {
            let mut w = world(n, 3);
            for i in 1..=n as u32 {
                w.schedule_request(SimTime::from_ticks(u64::from(i)), NodeId::new(i));
            }
            assert!(w.run_to_quiescence());
            assert_eq!(w.metrics().cs_entries, n as u64);
            assert!(w.oracle_report().is_clean(), "n={n}: {:?}", w.oracle_report());
        }
    }

    #[test]
    fn worst_case_is_twice_the_diameter() {
        // A request from the deepest leaf costs at most 2·log2(n) messages
        // (requests up, privilege down) in the canonical-cube shaped tree.
        let n = 64;
        let mut w = world(n, 4);
        w.schedule_request(SimTime::from_ticks(1), NodeId::new(64));
        assert!(w.run_to_quiescence());
        assert!(w.metrics().total_sent() <= 2 * 6);
    }

    #[test]
    fn requester_holding_privilege_pays_nothing() {
        let mut w = world(8, 5);
        w.schedule_request(SimTime::from_ticks(1), NodeId::new(1));
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().total_sent(), 0);
        assert_eq!(w.metrics().cs_entries, 1);
    }

    #[test]
    fn fifo_per_node_queue_is_fair() {
        let mut w = World::new(
            SimConfig {
                record_trace: true,
                seed: 6,
                max_events: 5_000_000,
                ..SimConfig::default()
            },
            RaymondNode::build_all(4),
        );
        for i in [2u32, 3, 4] {
            w.schedule_request(SimTime::from_ticks(u64::from(i)), NodeId::new(i));
        }
        assert!(w.run_to_quiescence());
        assert_eq!(w.metrics().cs_entries, 3);
        assert!(w.oracle_report().is_clean());
    }
}
