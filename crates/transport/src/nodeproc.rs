//! The per-process node runtime: one `OpenCubeNode` behind sockets.
//!
//! This is the third substrate the sans-io protocol runs under — after
//! the deterministic simulator and the in-process threaded runtime — and
//! it reuses the exact same seam: the state machine is advanced only by
//! [`oc_sim::drive`] / [`oc_sim::drive_recovery`], and every effect goes
//! through an [`ActionSink`] whose four methods here mean *real* things:
//!
//! * `send` — HLC-stamp the message and write a [`Frame::Peer`] to the
//!   destination's socket (dialing lazily, redialing once on a broken
//!   pipe, dropping on failure — fail-stop loss the Section 5 machinery
//!   already tolerates);
//! * `enter_cs` — flush an `EnterCs` record to the event log **before**
//!   granting the front pending session, so a SIGKILL can never produce
//!   a CS entry the post-hoc oracle replay does not see;
//! * `set_timer`/`cancel_timer` — the wall-clock [`DeadlineSet`] the
//!   threaded runtime's workers use (live armings only), ticks mapped by
//!   the configured tick duration.
//!
//! One thread owns the protocol; the acceptor and per-connection reader
//! threads only convert inbound frames into [`Cmd`]s on a channel. The
//! first frame of each inbound connection routes it: [`Frame::Hello`]
//! marks a peer link (subsequent frames must be `Peer`),
//! [`Frame::ClientHello`] marks a session-API client (the gateway), and
//! replies to a client go back over that same connection.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oc_algo::{Config, Msg, OpenCubeNode};
use oc_sim::{
    drive, drive_recovery, ticks_to_wall, ActionSink, DeadlineSet, NodeEvent, Outbox, Protocol,
    SimDuration,
};
use oc_topology::NodeId;

use crate::frame::{read_frame, write_frame};
use crate::hlc::{Hlc, Stamp};
use crate::log::{LogRecord, LogWriter};
use crate::net::{Cluster, Stream};
use crate::wire::{self, CompletionStatus, Frame, NodeStatus};

/// Everything an `oc-node` process needs to run one protocol node.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// This node's 1-based protocol id.
    pub id: u32,
    /// System size (power of two).
    pub n: usize,
    /// Protocol δ, in ticks.
    pub delta_ticks: u64,
    /// CS duration estimate, in ticks.
    pub cs_ticks: u64,
    /// Contention slack, in ticks.
    pub slack_ticks: u64,
    /// Wall-clock length of one tick (must make `delta_ticks` a true
    /// upper bound on the deployment's real message delay).
    pub tick: Duration,
    /// The cluster's endpoint map.
    pub cluster: Cluster,
    /// This node's append-only event log.
    pub log_path: PathBuf,
    /// `true` when restarting after a SIGKILL: runs `on_crash` +
    /// `drive_recovery` so the node re-joins per Section 5.
    pub recover: bool,
}

impl NodeOptions {
    /// Always `Hardening::None`: quorum mode needs `epoch_seen` and
    /// `epoch_promised` on stable storage (promise amnesia lets two
    /// quorums form for one epoch), and a process restarted with
    /// `--recover` starts both at zero. Quorum mode over sockets waits
    /// until they are persisted.
    fn config(&self) -> Config {
        Config::new(
            self.n,
            SimDuration::from_ticks(self.delta_ticks),
            SimDuration::from_ticks(self.cs_ticks),
        )
        .with_contention_slack(SimDuration::from_ticks(self.slack_ticks))
    }
}

/// One command for the protocol thread, produced by reader threads.
enum Cmd {
    /// A peer's protocol message.
    Peer { from: u32, stamp: Stamp, msg: Msg },
    /// A client opened a lock request.
    Acquire { client: usize, req: u64, auto_release: bool },
    /// A client releases its granted request.
    Release { req: u64 },
    /// A client asks for a status snapshot.
    Status { client: usize },
    /// A client asks the process to flush and exit.
    Shutdown { client: usize },
}

/// A registered session-API client: the write half of its connection.
/// Slot goes `None` when a send fails (the gateway hung up): a client
/// that left is not written to again.
type ClientTable = Arc<Mutex<Vec<Option<Stream>>>>;

fn send_to_client(clients: &ClientTable, client: usize, frame: &Frame) {
    let mut table = clients.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(slot) = table.get_mut(client) {
        let dead = match slot {
            Some(stream) => write_frame(stream, &wire::encode(frame)).is_err(),
            None => false,
        };
        if dead {
            *slot = None;
        }
    }
}

/// Outgoing peer links, dialed lazily by the protocol thread.
struct PeerLinks {
    cluster: Cluster,
    me: u32,
    links: Vec<Option<Stream>>,
}

impl PeerLinks {
    fn new(cluster: Cluster, me: u32) -> Self {
        let n = cluster.n;
        PeerLinks { cluster, me, links: (0..n).map(|_| None).collect() }
    }

    fn dial(&self, to: u32) -> Option<Stream> {
        let mut stream = self.cluster.endpoint(to).connect().ok()?;
        let hello = wire::encode(&Frame::Hello { node: self.me });
        write_frame(&mut stream, &hello).ok()?;
        Some(stream)
    }

    /// Sends one encoded frame, redialing once on a broken link; a
    /// second failure drops the message (fail-stop loss — the peer is
    /// down, and the protocol's timeout machinery owns that case).
    fn send(&mut self, to: u32, payload: &[u8]) {
        let slot = (to - 1) as usize;
        if self.links[slot].is_none() {
            self.links[slot] = self.dial(to);
        }
        if let Some(stream) = &mut self.links[slot] {
            if write_frame(stream, payload).is_ok() {
                return;
            }
            // The link broke — the peer died or restarted. Redial once:
            // a restarted incarnation listens at the same endpoint.
            self.links[slot] = self.dial(to);
            if let Some(fresh) = &mut self.links[slot] {
                if write_frame(fresh, payload).is_err() {
                    self.links[slot] = None;
                }
            }
        }
    }
}

/// A pending session request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    client: usize,
    req: u64,
    auto_release: bool,
}

/// The process's one node, as an owner in its [`DeadlineSet`].
const ME: u32 = 0;

/// Everything *around* the protocol state machine — clocks, log, links,
/// timers, sessions — and as such the [`ActionSink`] the socket
/// substrate hands to [`drive`] (which borrows the state machine itself
/// mutably).
struct NodeIo {
    me: u32,
    tick: Duration,
    hlc: Hlc,
    log: LogWriter,
    peers: PeerLinks,
    clients: ClientTable,
    timers: DeadlineSet,
    pending: VecDeque<Pending>,
    granted: Option<Pending>,
    cs_entries: u64,
    /// The first I/O error met inside a sink method, which cannot return
    /// it; [`Proc::step`] hands it on.
    failure: Option<io::Error>,
}

impl ActionSink<Msg> for NodeIo {
    fn send(&mut self, _from: NodeId, to: NodeId, msg: Msg) {
        let stamp = self.hlc.tick();
        let payload = wire::encode(&Frame::Peer { from: self.me, ns: 0, stamp, msg });
        self.peers.send(to.get(), &payload);
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        // Log first, act second: once the grant is visible to anyone,
        // the entry is already on disk for the post-hoc replay.
        let stamp = self.hlc.tick();
        let record = LogRecord::EnterCs { stamp, node: node.get(), epoch: token_epoch };
        if let Err(e) = self.log.append(&record) {
            self.failure.get_or_insert(e);
            return;
        }
        self.cs_entries += 1;
        debug_assert!(self.granted.is_none(), "CS entered while a grant is outstanding");
        if let Some(front) = self.pending.pop_front() {
            self.granted = Some(front);
            send_to_client(&self.clients, front.client, &Frame::Granted { req: front.req });
        }
    }

    fn set_timer(&mut self, _node: NodeId, id: u64, delay: SimDuration) {
        self.timers.arm(ME, id, Instant::now() + ticks_to_wall(delay.ticks(), self.tick));
    }

    fn cancel_timer(&mut self, _node: NodeId, id: u64) {
        self.timers.cancel(ME, id);
    }
}

/// The protocol thread's whole world: the state machine and its I/O.
struct Proc {
    node: OpenCubeNode,
    out: Outbox<Msg>,
    io: NodeIo,
}

impl Proc {
    /// Feeds one event through [`drive`] (`None`: the recovery hook,
    /// through [`drive_recovery`]) and reports the I/O error the sink
    /// met on the way, if any.
    fn step(&mut self, event: Option<NodeEvent<Msg>>) -> io::Result<()> {
        match event {
            Some(event) => drive(&mut self.node, event, &mut self.out, &mut self.io),
            None => drive_recovery(&mut self.node, &mut self.out, &mut self.io),
        }
        self.io.failure.take().map_or(Ok(()), Err)
    }

    /// One event, then the auto-release grants it led to: while the CS
    /// is occupied by an auto-release request, exit immediately — the
    /// closed-loop fast path, mirroring the runtime's `drain_auto`.
    fn drive_event(&mut self, event: NodeEvent<Msg>) -> io::Result<()> {
        self.step(Some(event))?;
        self.drain_auto()
    }

    fn drain_auto(&mut self) -> io::Result<()> {
        while self.node.in_cs() && self.io.granted.is_some_and(|g| g.auto_release) {
            self.exit_cs()?;
        }
        Ok(())
    }

    /// The shared CS-exit path (early release and auto-release): log the
    /// exit, step the protocol (which may immediately re-enter for the
    /// next queued request, via the sink), then complete the session.
    fn exit_cs(&mut self) -> io::Result<()> {
        let Some(current) = self.io.granted.take() else { return Ok(()) };
        let stamp = self.io.hlc.tick();
        self.io.log.append(&LogRecord::ExitCs { stamp, node: self.io.me })?;
        let stepped = self.step(Some(NodeEvent::ExitCs));
        send_to_client(
            &self.io.clients,
            current.client,
            &Frame::Completion { req: current.req, status: CompletionStatus::Completed },
        );
        stepped
    }

    fn status(&self) -> NodeStatus {
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
}

/// Reads frames off one inbound connection and converts them to
/// [`Cmd`]s. The first frame routes the connection (see module docs).
fn serve_connection(mut stream: Stream, clients: &ClientTable, tx: &Sender<Cmd>) {
    let Ok(Some(first)) = read_frame(&mut stream) else { return };
    match wire::decode(&first) {
        Ok(Frame::Hello { .. }) => {
            // Peer link: only Peer frames from here on. A frame that
            // fails to decode is consumed whole (the framing layer keeps
            // the stream aligned) and simply dropped — a lost message,
            // which the protocol already tolerates.
            while let Ok(Some(payload)) = read_frame(&mut stream) {
                if let Ok(Frame::Peer { from, stamp, msg, .. }) = wire::decode(&payload) {
                    if tx.send(Cmd::Peer { from, stamp, msg }).is_err() {
                        return;
                    }
                }
            }
        }
        Ok(Frame::ClientHello) => {
            let client = {
                let Ok(writer) = stream.try_clone() else { return };
                let mut table = clients.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                table.push(Some(writer));
                table.len() - 1
            };
            while let Ok(Some(payload)) = read_frame(&mut stream) {
                let cmd = match wire::decode(&payload) {
                    Ok(Frame::Acquire { req, auto_release }) => {
                        Cmd::Acquire { client, req, auto_release }
                    }
                    Ok(Frame::Release { req }) => Cmd::Release { req },
                    Ok(Frame::StatusQuery) => Cmd::Status { client },
                    Ok(Frame::Shutdown) => Cmd::Shutdown { client },
                    _ => continue,
                };
                if tx.send(cmd).is_err() {
                    return;
                }
            }
        }
        _ => (),
    }
}

/// Runs one node process to completion (a client's `Shutdown` frame).
///
/// Binds the endpoint, spawns the acceptor, optionally replays the
/// crash-recovery hooks, then loops: protocol commands interleaved with
/// due timers, exactly one thread ever touching the state machine.
///
/// # Errors
///
/// Propagates bind/accept/log I/O failures. Peer-link failures are not
/// errors (fail-stop loss); client-link failures prune the client.
pub fn run(opts: NodeOptions) -> io::Result<()> {
    let listener = opts.cluster.endpoint(opts.id).bind()?;
    let (tx, rx): (Sender<Cmd>, Receiver<Cmd>) = channel();
    let clients: ClientTable = Arc::new(Mutex::new(Vec::new()));

    {
        let clients = Arc::clone(&clients);
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            let Ok(stream) = listener.accept() else { return };
            let clients = Arc::clone(&clients);
            let tx = tx.clone();
            std::thread::spawn(move || serve_connection(stream, &clients, &tx));
        });
    }

    let mut proc = Proc {
        node: OpenCubeNode::new(NodeId::new(opts.id), opts.config()),
        out: Outbox::new(),
        io: NodeIo {
            me: opts.id,
            tick: opts.tick,
            hlc: Hlc::new(opts.id),
            log: LogWriter::open(&opts.log_path)?,
            peers: PeerLinks::new(opts.cluster.clone(), opts.id),
            clients,
            timers: DeadlineSet::new(),
            pending: VecDeque::new(),
            granted: None,
            cs_entries: 0,
            failure: None,
        },
    };

    if opts.recover {
        // The SIGKILLed incarnation's volatile state is already gone with
        // its process; on_crash re-initializes the fresh state machine to
        // the paper's post-crash state, then the recovery protocol
        // re-joins the system.
        proc.node.on_crash();
        let stamp = proc.io.hlc.tick();
        proc.io.log.append(&LogRecord::Recover { stamp, node: opts.id })?;
        proc.step(None)?;
    }

    loop {
        let cmd = match proc.io.timers.next_deadline() {
            Some(deadline) => {
                let now = Instant::now();
                if deadline <= now {
                    while let Some((_, id)) = proc.io.timers.pop_due(now) {
                        proc.drive_event(NodeEvent::Timer(id))?;
                    }
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(cmd) => cmd,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
            None => match rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => return Ok(()),
            },
        };
        match cmd {
            Cmd::Peer { from, stamp, msg } => {
                proc.io.hlc.observe(stamp);
                proc.drive_event(NodeEvent::Deliver { from: NodeId::new(from), msg })?;
            }
            Cmd::Acquire { client, req, auto_release } => {
                proc.io.pending.push_back(Pending { client, req, auto_release });
                proc.drive_event(NodeEvent::RequestCs)?;
            }
            Cmd::Release { req } => {
                if proc.io.granted.is_some_and(|g| g.req == req) && proc.node.in_cs() {
                    proc.exit_cs()?;
                    proc.drain_auto()?;
                }
            }
            Cmd::Status { client } => {
                send_to_client(&proc.io.clients, client, &Frame::Status(proc.status()));
            }
            Cmd::Shutdown { client } => {
                // Still-pending requests are abandoned (the service is
                // going away), mirroring the runtime's shutdown fold; a
                // granted CS completed its entry already.
                while let Some(p) = proc.io.pending.pop_front() {
                    send_to_client(
                        &proc.io.clients,
                        p.client,
                        &Frame::Completion { req: p.req, status: CompletionStatus::Abandoned },
                    );
                }
                send_to_client(&proc.io.clients, client, &Frame::Status(proc.status()));
                return Ok(());
            }
        }
    }
}

/// Parses `oc-node`'s command line into [`NodeOptions`] — kept here so
/// the binary stays a thin shim and the parsing is unit-testable.
///
/// Recognized flags (all `--flag value` pairs except `--recover`):
/// `--id`, `--n`, `--transport`, `--log`, `--delta`, `--cs`, `--slack`,
/// `--tick-ns`, `--recover`.
///
/// # Errors
///
/// Returns a usage message naming the offending flag.
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<NodeOptions, String> {
    let mut id = None;
    let mut n = None;
    let mut transport = None;
    let mut log = None;
    let mut delta_ticks = 40;
    let mut cs_ticks = 20;
    let mut slack_ticks = 20_000;
    let mut tick_ns: u64 = 50_000;
    let mut recover = false;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(value("--id")?.parse::<u32>().map_err(|e| e.to_string())?),
            "--n" => n = Some(value("--n")?.parse::<usize>().map_err(|e| e.to_string())?),
            "--transport" => transport = Some(value("--transport")?),
            "--log" => log = Some(PathBuf::from(value("--log")?)),
            "--delta" => {
                delta_ticks =
                    value("--delta")?.parse().map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--cs" => {
                cs_ticks =
                    value("--cs")?.parse().map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--slack" => {
                slack_ticks =
                    value("--slack")?.parse().map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--tick-ns" => {
                tick_ns = value("--tick-ns")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--recover" => recover = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let id = id.ok_or("--id is required")?;
    let n = n.ok_or("--n is required")?;
    let spec = transport.ok_or("--transport is required")?;
    let log_path = log.ok_or("--log is required")?;
    Ok(NodeOptions {
        id,
        n,
        delta_ticks,
        cs_ticks,
        slack_ticks,
        tick: Duration::from_nanos(tick_ns),
        cluster: Cluster::parse(&spec, n)?,
        log_path,
        recover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_into_options() {
        let args = [
            "--id",
            "3",
            "--n",
            "16",
            "--transport",
            "uds:/tmp/x",
            "--log",
            "/tmp/x/3.log",
            "--delta",
            "32",
            "--cs",
            "10",
            "--slack",
            "1000",
            "--tick-ns",
            "25000",
            "--recover",
        ];
        let opts = parse_args(args.iter().map(|s| (*s).to_owned())).unwrap();
        assert_eq!((opts.id, opts.n), (3, 16));
        assert_eq!(opts.cluster.spec(), "uds:/tmp/x");
        assert_eq!(opts.delta_ticks, 32);
        assert_eq!(opts.tick, Duration::from_micros(25));
        assert!(opts.recover);

        assert!(parse_args(["--id"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(parse_args(["--wat"].iter().map(|s| (*s).to_owned())).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
    }
}
