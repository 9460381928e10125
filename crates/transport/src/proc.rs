//! The socket node's protocol core, without I/O: one `OpenCubeNode`, its
//! hybrid logical clock, the gateway's session queue and the event-log
//! encoder.
//!
//! A [`Proc`] takes [`Input`]s — frames as the bytes that were read, and
//! timer expiries — each with the physical clock reading it is to stamp
//! by, and answers with an [`Output`]: whole encoded log records, and the
//! frames to write and timers to arm as [`Effect`]s in the order the
//! protocol emitted them. It reads no clock, owns no socket and writes no
//! file, so two ends drive the same code:
//!
//! * the OS end, [`crate::run`], reads frames off sockets, hands the host
//!   clock in, and carries the output out: every log record written and
//!   flushed first, then every frame written, then the timers armed on a
//!   wall-clock deadline set. So an `EnterCs` record is on disk before
//!   its grant leaves, and an `ExitCs` record before the token can move;
//! * the virtual-time end, `oc_check::Substrate::Nodeproc`, hands in
//!   the simulator's time and carries frames over `oc_sim::World`'s
//!   channel, its log an in-memory byte vector that outlives a crash.
//!
//! The protocol is advanced only by [`oc_sim::drive`] /
//! [`oc_sim::drive_recovery`] through the [`ActionSink`] every other
//! substrate implements. A peer frame that does not decode, or that names
//! a node outside `1..=n`, is dropped whole: a lost message, which the
//! protocol already tolerates.

use std::collections::VecDeque;

use oc_algo::{Config, Msg, OpenCubeNode};
use oc_sim::{drive, drive_recovery, ActionSink, NodeEvent, Outbox, Protocol, SimDuration};
use oc_topology::NodeId;

use crate::hlc::Hlc;
use crate::log::{encode_record, LogRecord};
use crate::wire::{self, CompletionStatus, Frame, NodeStatus};

/// One input to a [`Proc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input<'a> {
    /// A frame read off a peer link, undecoded.
    Peer(&'a [u8]),
    /// A frame read off session-API connection `client`, undecoded.
    Client(usize, &'a [u8]),
    /// The protocol's timer `id` fell due.
    Timer(u64),
}

/// One effect for the I/O end to carry out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Write the encoded `frame` to peer `to`.
    Peer {
        /// The destination node (1-based, within `1..=n`).
        to: u32,
        /// An encoded [`Frame::Peer`].
        frame: Vec<u8>,
    },
    /// Write the encoded `frame` to session-API connection `client`.
    Client {
        /// The connection the answered frame came in on.
        client: usize,
        /// An encoded [`Frame::Granted`], [`Frame::Completion`] or
        /// [`Frame::Status`].
        frame: Vec<u8>,
    },
    /// Arm (or re-arm) timer `id` to fire `ticks` protocol ticks from now.
    Arm {
        /// The protocol's timer id.
        id: u64,
        /// The delay, in protocol ticks.
        ticks: u64,
    },
    /// Disarm timer `id`.
    Cancel {
        /// The protocol's timer id.
        id: u64,
    },
}

/// What the inputs since it was last emptied asked of the I/O end.
#[derive(Debug, Default)]
pub struct Output {
    /// Whole encoded log records, oldest first ([`crate::log::REC_LEN`]
    /// bytes each). They go to the log before any effect is carried out.
    pub log: Vec<u8>,
    /// Effects, in the order the protocol emitted them.
    pub effects: Vec<Effect>,
}

/// A pending session request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    client: usize,
    req: u64,
    auto_release: bool,
}

/// Everything around the state machine: the [`ActionSink`] a [`Proc`]
/// hands to [`drive`], which borrows the state machine itself mutably.
#[derive(Debug)]
struct NodeIo {
    me: u32,
    n: u32,
    hlc: Hlc,
    /// The physical clock reading of the input being handled.
    now: u64,
    pending: VecDeque<Pending>,
    granted: Option<Pending>,
    cs_entries: u64,
    output: Output,
}

impl NodeIo {
    fn record(&mut self, record: &LogRecord) {
        self.output.log.extend_from_slice(&encode_record(record));
    }

    fn reply(&mut self, client: usize, frame: &Frame) {
        self.output.effects.push(Effect::Client { client, frame: wire::encode(frame) });
    }

    fn member(&self, node: NodeId) -> bool {
        node.get() <= self.n
    }

    /// `true` if every node `msg` names is one of the cluster's. The codec
    /// already refuses node 0 inside a message.
    fn names_members(&self, msg: &Msg) -> bool {
        match *msg {
            Msg::Request { claimant, source, .. } => self.member(claimant) && self.member(source),
            Msg::Token { lender: Some(lender), .. } => self.member(lender),
            _ => true,
        }
    }
}

impl ActionSink<Msg> for NodeIo {
    fn send(&mut self, _from: NodeId, to: NodeId, msg: Msg) {
        let stamp = self.hlc.tick_at(self.now);
        let frame = wire::encode(&Frame::Peer { from: self.me, ns: 0, stamp, msg });
        self.output.effects.push(Effect::Peer { to: to.get(), frame });
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        // Log first, act second: the record precedes the grant in the
        // output, and the OS end writes every record before any frame.
        let stamp = self.hlc.tick_at(self.now);
        self.record(&LogRecord::EnterCs { stamp, node: node.get(), epoch: token_epoch });
        self.cs_entries += 1;
        debug_assert!(self.granted.is_none(), "CS entered while a grant is outstanding");
        if let Some(front) = self.pending.pop_front() {
            self.granted = Some(front);
            self.reply(front.client, &Frame::Granted { req: front.req });
        }
    }

    fn set_timer(&mut self, _node: NodeId, id: u64, delay: SimDuration) {
        self.output.effects.push(Effect::Arm { id, ticks: delay.ticks() });
    }

    fn cancel_timer(&mut self, _node: NodeId, id: u64) {
        self.output.effects.push(Effect::Cancel { id });
    }
}

/// One incarnation of a socket node: the state machine and everything it
/// keeps between inputs, with no I/O.
#[derive(Debug)]
pub struct Proc {
    node: OpenCubeNode,
    out: Outbox<Msg>,
    io: NodeIo,
}

impl Proc {
    /// A fresh incarnation of node `id` of a `config.n`-node cluster.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `1..=config.n`.
    #[must_use]
    pub fn new(id: u32, config: Config) -> Proc {
        let n = u32::try_from(config.n).unwrap_or(u32::MAX);
        Proc {
            node: OpenCubeNode::new(NodeId::new(id), config),
            out: Outbox::new(),
            io: NodeIo {
                me: id,
                n,
                hlc: Hlc::new(id),
                now: 0,
                pending: VecDeque::new(),
                granted: None,
                cs_entries: 0,
                output: Output::default(),
            },
        }
    }

    /// The restart path (`oc-node --recover`): the killed incarnation's
    /// volatile state went with it, so `on_crash` puts this fresh state
    /// machine in the paper's post-crash state, a `Recover` record is
    /// logged, and the recovery protocol re-joins the system.
    pub fn recover(&mut self, now: u64) {
        self.io.now = now;
        self.node.on_crash();
        let stamp = self.io.hlc.tick_at(now);
        self.io.record(&LogRecord::Recover { stamp, node: self.io.me });
        drive_recovery(&mut self.node, &mut self.out, &mut self.io);
    }

    /// Handles one input at physical clock reading `now` (nanoseconds).
    /// Returns `false` once a client's `Shutdown` has been answered: the
    /// process is to carry out the output and exit.
    pub fn handle(&mut self, input: Input<'_>, now: u64) -> bool {
        self.io.now = now;
        match input {
            Input::Peer(bytes) => {
                let Ok(Frame::Peer { from, stamp, msg, .. }) = wire::decode(bytes) else {
                    return true;
                };
                if from == 0 || from > self.io.n || !self.io.names_members(&msg) {
                    return true;
                }
                self.io.hlc.observe_at(stamp, now);
                self.drive_event(NodeEvent::Deliver { from: NodeId::new(from), msg });
            }
            Input::Timer(id) => self.drive_event(NodeEvent::Timer(id)),
            Input::Client(client, bytes) => match wire::decode(bytes) {
                Ok(Frame::Acquire { req, auto_release }) => {
                    self.io.pending.push_back(Pending { client, req, auto_release });
                    self.drive_event(NodeEvent::RequestCs);
                }
                Ok(Frame::Release { req })
                    if self.io.granted.is_some_and(|g| g.req == req) && self.node.in_cs() =>
                {
                    self.exit_cs();
                    self.drain_auto();
                }
                Ok(Frame::StatusQuery) => self.io.reply(client, &Frame::Status(self.status())),
                Ok(Frame::Shutdown) => {
                    // Still-pending requests are abandoned (the service is
                    // going away), mirroring the runtime's shutdown fold;
                    // a granted CS completed its entry already.
                    while let Some(p) = self.io.pending.pop_front() {
                        let status = CompletionStatus::Abandoned;
                        self.io.reply(p.client, &Frame::Completion { req: p.req, status });
                    }
                    self.io.reply(client, &Frame::Status(self.status()));
                    return false;
                }
                _ => (),
            },
        }
        true
    }

    /// What the inputs so far asked of the I/O end; the caller empties it
    /// as it carries it out.
    pub fn output(&mut self) -> &mut Output {
        &mut self.io.output
    }

    /// The state machine.
    #[must_use]
    pub fn node(&self) -> &OpenCubeNode {
        &self.node
    }

    /// The control-plane snapshot a `StatusQuery` is answered with.
    #[must_use]
    pub fn status(&self) -> NodeStatus {
        NodeStatus {
            holds_token: self.node.holds_token(),
            token_epoch: self.node.token_epoch(),
            in_cs: self.node.in_cs(),
            idle: self.node.is_idle(),
            quorum_blocked: self.node.quorum_blocked(),
            cs_entries: self.io.cs_entries,
            pending: u32::try_from(self.io.pending.len() + usize::from(self.io.granted.is_some()))
                .unwrap_or(u32::MAX),
        }
    }

    /// One event, then the auto-release grants it led to: while the CS
    /// is occupied by an auto-release request, exit immediately — the
    /// closed-loop fast path, mirroring the runtime's `drain_auto`.
    fn drive_event(&mut self, event: NodeEvent<Msg>) {
        drive(&mut self.node, event, &mut self.out, &mut self.io);
        self.drain_auto();
    }

    fn drain_auto(&mut self) {
        while self.node.in_cs() && self.io.granted.is_some_and(|g| g.auto_release) {
            self.exit_cs();
        }
    }

    /// The shared CS-exit path (early release and auto-release): log the
    /// exit, step the protocol (which may immediately re-enter for the
    /// next queued request, via the sink), then complete the session.
    fn exit_cs(&mut self) {
        let Some(current) = self.io.granted.take() else { return };
        let stamp = self.io.hlc.tick_at(self.io.now);
        self.io.record(&LogRecord::ExitCs { stamp, node: self.io.me });
        drive(&mut self.node, NodeEvent::ExitCs, &mut self.out, &mut self.io);
        let status = CompletionStatus::Completed;
        self.io.reply(current.client, &Frame::Completion { req: current.req, status });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hlc::Stamp;
    use crate::log::decode_log;

    fn config(n: usize) -> Config {
        Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
    }

    fn peer(from: u32, msg: Msg) -> Vec<u8> {
        let stamp = Stamp { wall_ns: 5, logical: 0, node: from };
        wire::encode(&Frame::Peer { from, ns: 0, stamp, msg })
    }

    fn client(proc: &mut Proc, frame: &Frame, now: u64) -> bool {
        proc.handle(Input::Client(0, &wire::encode(frame)), now)
    }

    #[test]
    fn a_frame_naming_a_node_outside_the_cluster_is_dropped() {
        const N: u32 = 8;
        // Node 1 is the root and holds the token: every hostile frame
        // below would make it answer or forward to the node it names.
        let mut proc = Proc::new(1, config(N as usize));
        let outside = NodeId::new(N + 1);
        let hostile = [
            peer(0, Msg::Test { d: 1 }),
            peer(N + 1, Msg::Test { d: 1 }),
            peer(N + 1, Msg::Anomaly),
            peer(
                2,
                Msg::Request { claimant: outside, source: NodeId::new(2), source_seq: 1, epoch: 0 },
            ),
            peer(
                2,
                Msg::Request { claimant: NodeId::new(2), source: outside, source_seq: 1, epoch: 0 },
            ),
            peer(2, Msg::Token { lender: Some(outside), epoch: 0 }),
            vec![0xff, 1, 2],
        ];
        for (k, frame) in hostile.iter().enumerate() {
            assert!(proc.handle(Input::Peer(frame), 10 + k as u64));
            let output = proc.output();
            assert!(output.effects.is_empty() && output.log.is_empty(), "frame {k}: {output:?}");
        }
        // Still serving: a member's request is answered with the token,
        // and a local acquire is granted once it returns.
        let claim = Msg::Request {
            claimant: NodeId::new(2),
            source: NodeId::new(2),
            source_seq: 1,
            epoch: 0,
        };
        assert!(proc.handle(Input::Peer(&peer(2, claim)), 100));
        let sent = proc.output().effects.drain(..).collect::<Vec<_>>();
        assert!(matches!(sent.as_slice(), [Effect::Peer { to: 2, .. }, ..]), "{sent:?}");
        assert!(client(&mut proc, &Frame::Acquire { req: 7, auto_release: true }, 110));
        proc.output().effects.clear();
        assert!(proc.handle(Input::Peer(&peer(2, Msg::Token { lender: None, epoch: 0 })), 120));
        let granted = wire::encode(&Frame::Granted { req: 7 });
        assert!(proc
            .output()
            .effects
            .iter()
            .any(|e| *e == Effect::Client { client: 0, frame: granted.clone() }));
        let log = decode_log(&std::mem::take(&mut proc.output().log));
        assert!(matches!(log.as_slice(), [LogRecord::EnterCs { .. }, LogRecord::ExitCs { .. }]));
    }

    #[test]
    fn the_enter_record_precedes_the_grant_and_shutdown_abandons_the_queue() {
        let mut proc = Proc::new(1, config(4));
        assert!(client(&mut proc, &Frame::Acquire { req: 1, auto_release: false }, 10));
        let output = std::mem::take(proc.output());
        assert!(matches!(decode_log(&output.log).as_slice(), [LogRecord::EnterCs { node: 1, .. }]));
        assert_eq!(
            output.effects,
            vec![Effect::Client { client: 0, frame: wire::encode(&Frame::Granted { req: 1 }) }]
        );
        // A second request waits behind the first; shutdown abandons it
        // and answers with the status.
        assert!(client(&mut proc, &Frame::Acquire { req: 2, auto_release: false }, 20));
        assert!(!client(&mut proc, &Frame::Shutdown, 30));
        let frames: Vec<Frame> = std::mem::take(proc.output())
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::Client { frame, .. } => wire::decode(frame).ok(),
                _ => None,
            })
            .collect();
        assert_eq!(
            frames[0],
            Frame::Completion { req: 2, status: CompletionStatus::Abandoned },
            "{frames:?}"
        );
        assert!(matches!(frames[1], Frame::Status(NodeStatus { in_cs: true, pending: 1, .. })));
    }
}
