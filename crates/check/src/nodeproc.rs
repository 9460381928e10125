//! The socket node in virtual time: `oc_transport`'s sans-io [`Proc`]
//! stepped by the simulator.
//!
//! [`crate::Substrate::Nodeproc`] plays a [`Scenario`] through n `Proc`s
//! on one thread, each wrapped as an [`oc_sim::Protocol`] whose message is
//! the encoded `Peer` frame the socket node would write. The frames
//! cross `World`'s channel, so every fault phase, delay draw and crash
//! applies exactly as it does to the simulator's bare nodes;
//! the world's `RequestCs`/`ExitCs` reach the `Proc` as the gateway's
//! `Acquire`/`Release` frames, and its `Granted` answer is the world's
//! CS entry. A crash drops the `Proc` and keeps only its log bytes,
//! ending in a torn prefix of a record drawn from the scenario seed (a
//! kill mid-append); recovery cuts the torn tail as
//! [`oc_transport::LogWriter::open`] does and runs the restarted
//! process's `--recover` path, [`Proc::recover`].
//!
//! **Clock.** A `Proc` stamps by the simulator's time: the tick of the
//! event it handles times the deployment's tick, plus the event's
//! ordinal within its tick in nanoseconds — what a host clock of
//! nanosecond resolution reads at successive events. Every event thus
//! has its own reading, and the stamp order of the merged logs is the
//! order the world processed them in. A logical-only clock would not do:
//! Lamport stamps may place two concurrent, overlapping critical
//! sections one after the other, and the log verdict would come back
//! falsely clean.
//!
//! A run is judged by the world's oracles (`Nodeproc`) or post hoc from
//! the nodes' event logs by [`judge_logs`] (`NodeprocLogs`), as
//! `oc_bench::orchestrator::run_scenario_sockets` judges real processes.
//! Under `Hardening::Quorum` a restarted `Proc` starts its epoch
//! promises at zero, as a socket node restarted with `--recover` would.

use std::cell::Cell;
use std::rc::Rc;

use oc_algo::Config;
use oc_sim::{
    check_horizon, Horizon, MessageKind, MsgKind, NodeAtHorizon, NodeEvent, Outbox, Protocol,
    SimDuration, Tape, Trace, World,
};
use oc_topology::NodeId;
use oc_transport::log::REC_LEN;
use oc_transport::{
    decode_log, merge, replay, whole_len, wire, Effect, Frame, Input, LogRecord, Proc, Stamp,
    DEFAULT_TICK,
};

use crate::run::{in_scenario_world, judge_world, Outcome};
use crate::{scenario_seed, Scenario};

/// The post-hoc judgement of a socket deployment: its event logs (one
/// per node process, plus the orchestrator's synthesized `Crash`
/// records) merged by stamp and replayed through a fresh safety oracle,
/// and `horizon` judged by the shared liveness oracle once its `events`
/// and `served` are read off the merged logs. `horizon.live_token_census`
/// is the terminal census the replay judges too.
///
/// The one judgement of both socket-node ends: real processes
/// (`oc_bench::orchestrator::run_scenario_sockets`) and
/// [`crate::Substrate::NodeprocLogs`]. The caller adds what the logs cannot say —
/// crash and recovery counts — to the outcome.
#[must_use]
pub fn judge_logs(logs: Vec<Vec<LogRecord>>, mut horizon: Horizon) -> Outcome {
    let merged = merge(logs);
    let verdict = replay(&merged, horizon.live_token_census);
    horizon.events = merged.len() as u64;
    horizon.served = verdict.served;
    Outcome {
        drained: horizon.drained,
        events: horizon.events,
        cs_entries: verdict.served,
        abandoned: horizon.abandoned,
        safety: verdict.safety,
        liveness: check_horizon(&horizon),
        ..Outcome::default()
    }
}

/// A `Peer` frame on the simulator's channel: the bytes a socket node
/// writes, with the kind and token epoch the channel's census reads.
#[derive(Debug, Clone)]
struct PeerFrame {
    bytes: Vec<u8>,
    kind: MsgKind,
    token_epoch: u64,
}

impl PeerFrame {
    fn new(bytes: Vec<u8>) -> PeerFrame {
        let Ok(Frame::Peer { msg, .. }) = wire::decode(&bytes) else {
            unreachable!("a Proc writes only well-formed peer frames")
        };
        PeerFrame { kind: msg.kind(), token_epoch: msg.token_epoch(), bytes }
    }
}

impl MessageKind for PeerFrame {
    fn kind(&self) -> MsgKind {
        self.kind
    }

    fn token_epoch(&self) -> u64 {
        self.token_epoch
    }
}

/// The one gateway connection of a virtual node.
const GATEWAY: usize = 0;

/// One socket node in virtual time: the live incarnation, if any, and
/// what outlives it — its log file and the orchestrator's crash records.
#[derive(Debug)]
struct VirtualNode {
    id: NodeId,
    config: Config,
    seed: u64,
    clock: Rc<Cell<u64>>,
    /// `None` while the node is down.
    proc: Option<Proc>,
    /// The node's event log, every incarnation's records appended.
    disk: Vec<u8>,
    /// The orchestrator's `Crash` record for each of the node's crashes.
    crashes: Vec<LogRecord>,
    /// The gateway request in the critical section.
    granted: Option<u64>,
    /// Gateway request ids issued.
    requests: u64,
}

impl VirtualNode {
    fn proc(&self) -> Option<&Proc> {
        self.proc.as_ref()
    }

    /// Hands `input` to the live incarnation and carries its output out:
    /// log records to the disk, frames onto the channel, a grant into
    /// the critical section, timers onto the world's timer table.
    fn handle(&mut self, input: Input<'_>, out: &mut Outbox<PeerFrame>) {
        let VirtualNode { proc, disk, granted, clock, .. } = self;
        let proc = proc.as_mut().expect("the world steps live nodes only");
        proc.handle(input, clock.get());
        carry_out(proc, disk, granted, out);
    }
}

fn carry_out(
    proc: &mut Proc,
    disk: &mut Vec<u8>,
    granted: &mut Option<u64>,
    out: &mut Outbox<PeerFrame>,
) {
    let output = proc.output();
    disk.append(&mut output.log);
    for effect in output.effects.drain(..) {
        match effect {
            Effect::Peer { to, frame } => out.send(NodeId::new(to), PeerFrame::new(frame)),
            Effect::Client { frame, .. } => {
                if let Ok(Frame::Granted { req }) = wire::decode(&frame) {
                    *granted = Some(req);
                    out.enter_cs();
                }
            }
            Effect::Arm { id, ticks } => out.set_timer(id, SimDuration::from_ticks(ticks)),
            Effect::Cancel { id } => out.cancel_timer(id),
        }
    }
}

impl Protocol for VirtualNode {
    type Msg = PeerFrame;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_event(&mut self, event: NodeEvent<PeerFrame>, out: &mut Outbox<PeerFrame>) {
        match event {
            NodeEvent::RequestCs => {
                self.requests += 1;
                let acquire = Frame::Acquire { req: self.requests, auto_release: false };
                self.handle(Input::Client(GATEWAY, &wire::encode(&acquire)), out);
            }
            NodeEvent::ExitCs => {
                if let Some(req) = self.granted.take() {
                    let release = wire::encode(&Frame::Release { req });
                    self.handle(Input::Client(GATEWAY, &release), out);
                }
            }
            NodeEvent::Deliver { msg, .. } => self.handle(Input::Peer(&msg.bytes), out),
            NodeEvent::Timer(id) => self.handle(Input::Timer(id), out),
        }
    }

    /// The process dies with everything it held; the orchestrator logs
    /// the kill, and the log file keeps what was flushed plus a torn
    /// prefix of the record the kill interrupted.
    fn on_crash(&mut self) {
        let now = self.clock.get();
        self.proc = None;
        self.granted = None;
        let stamp = Stamp { wall_ns: now, logical: 0, node: 0 };
        self.crashes.push(LogRecord::Crash { stamp, node: self.id.get() });
        if let Some(last) = self.disk.len().checked_sub(REC_LEN) {
            let draw = scenario_seed(self.seed, u64::from(self.id.get()) << 32 | now);
            let torn = (draw % REC_LEN as u64) as usize;
            self.disk.extend_from_within(last..last + torn);
        }
    }

    /// A restarted process: the log reopened (its torn tail cut), a fresh
    /// incarnation, and the `--recover` path.
    fn on_recover(&mut self, out: &mut Outbox<PeerFrame>) {
        self.disk.truncate(whole_len(self.disk.len() as u64) as usize);
        let mut proc = Proc::new(self.id.get(), self.config);
        proc.recover(self.clock.get());
        carry_out(&mut proc, &mut self.disk, &mut self.granted, out);
        self.proc = Some(proc);
    }

    fn in_cs(&self) -> bool {
        self.proc().is_some_and(|p| p.node().in_cs())
    }

    fn holds_token(&self) -> bool {
        self.proc().is_some_and(|p| p.node().holds_token())
    }

    fn is_idle(&self) -> bool {
        self.proc().is_none_or(|p| p.node().is_idle())
    }

    fn token_epoch(&self) -> u64 {
        self.proc().map_or(0, |p| p.node().token_epoch())
    }

    fn quorum_blocked(&self) -> bool {
        self.proc().is_some_and(|p| p.node().quorum_blocked())
    }
}

/// Plays `scenario` through one virtual-time socket node per node (see
/// the module docs), each running `config`, and judges the run by the
/// world's oracles or, `by_logs`, by its nodes' logs: the two socket-node
/// arms of [`crate::run`].
pub(crate) fn play(
    scenario: &Scenario,
    config: Config,
    trace: Option<&mut Trace>,
    tape: Option<&mut Tape>,
    by_logs: bool,
) -> Outcome {
    let clock = Rc::new(Cell::new(0));
    let nodes = (1..=scenario.n as u32)
        .map(|id| VirtualNode {
            id: NodeId::new(id),
            config,
            seed: scenario.seed,
            clock: Rc::clone(&clock),
            proc: Some(Proc::new(id, config)),
            disk: Vec::new(),
            crashes: Vec::new(),
            granted: None,
            requests: 0,
        })
        .collect();
    in_scenario_world(scenario, nodes, trace, tape, |world| {
        let drained = step_to_quiescence(world, scenario, &clock);
        if by_logs {
            judge_by_logs(world, scenario, drained)
        } else {
            judge_world(world, drained)
        }
    })
}

/// Steps `world` as `World::run_to_quiescence` would, with the nodes'
/// clock set before each step; `true` if the queue emptied under the
/// event cap.
fn step_to_quiescence(
    world: &mut World<VirtualNode>,
    scenario: &Scenario,
    clock: &Cell<u64>,
) -> bool {
    let tick_ns = u64::try_from(DEFAULT_TICK.as_nanos()).expect("fits");
    let (mut tick, mut ordinal) = (None, 0);
    loop {
        if world.metrics().events_processed >= scenario.max_events {
            return false;
        }
        let Some(at) = world.next_event_at() else { return true };
        ordinal = if tick == Some(at) { ordinal + 1 } else { 0 };
        tick = Some(at);
        clock.set(at.ticks().saturating_mul(tick_ns).saturating_add(ordinal.min(tick_ns - 1)));
        world.step();
    }
}

/// The deployment's view of a run: each node's log and last status, the
/// orchestrator's crash records, and what the gateway injected, judged
/// by [`judge_logs`]; `crashes` and `recoveries` are the world's.
fn judge_by_logs(world: &mut World<VirtualNode>, scenario: &Scenario, drained: bool) -> Outcome {
    let (horizon, unreachable) = world.horizon(drained);
    let isolated: Vec<bool> = horizon.nodes.iter().map(|state| state.isolated).collect();
    let mut logs = Vec::with_capacity(scenario.n + 1);
    let mut killed = Vec::new();
    let mut census = 0;
    let mut nodes = Vec::with_capacity(scenario.n);
    for id in NodeId::all(scenario.n) {
        let node = world.node(id);
        logs.push(decode_log(&node.disk));
        killed.extend_from_slice(&node.crashes);
        let status = node.proc().map(Proc::status);
        census += usize::from(status.is_some_and(|st| st.holds_token));
        nodes.push(NodeAtHorizon {
            node: id,
            alive: status.is_some(),
            idle: status.is_none_or(|st| st.idle && st.pending == 0 && !st.in_cs),
            recovered: world.has_recovered(id),
            isolated: isolated[id.zero_based() as usize],
            quorum_blocked: status.is_some_and(|st| st.quorum_blocked),
        });
    }
    logs.push(killed);
    let metrics = world.metrics();
    let horizon = Horizon {
        drained,
        events: 0,
        injected: world.requests_injected(),
        served: 0,
        abandoned: metrics.requests_abandoned,
        unreachable,
        live_token_census: census,
        nodes,
    };
    Outcome {
        crashes: metrics.crashes,
        recoveries: metrics.recoveries,
        ..judge_logs(logs, horizon)
    }
}
