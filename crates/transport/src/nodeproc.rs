//! The per-process node runtime, the OS end of the socket node: one
//! [`Proc`] behind sockets, the host clock and an event-log file.
//!
//! This is the third substrate the sans-io protocol runs under — after
//! the deterministic simulator and the in-process threaded runtime. The
//! protocol core is [`crate::proc`]; this end only moves its inputs and
//! outputs:
//!
//! * inbound frames, undecoded, go to [`Proc::handle`] with a reading of
//!   the host's wall clock;
//! * the output's log records are written and flushed one by one
//!   **before** anything else, so a SIGKILL can never produce a CS entry
//!   the post-hoc oracle replay does not see, and an exit is on disk
//!   before the token can move;
//! * each peer frame is written to the destination's socket (dialing
//!   lazily, redialing once on a broken pipe, dropping on failure —
//!   fail-stop loss the Section 5 machinery already tolerates), each
//!   client frame to the connection it answers;
//! * timer arms go to the wall-clock [`DeadlineSet`] the threaded
//!   runtime's workers use (live armings only), ticks mapped by the
//!   configured tick duration.
//!
//! One thread owns the [`Proc`]; the acceptor and per-connection reader
//! threads only pass inbound frames to it on a channel. The first frame
//! of each inbound connection routes it: [`Frame::Hello`] marks a peer
//! link (every later frame goes in as a peer frame), [`Frame::ClientHello`]
//! marks a session-API client (the gateway), and replies to a client go
//! back over that same connection.

use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oc_algo::Config;
use oc_sim::{ticks_to_wall, DeadlineSet, SimDuration};

use crate::frame::{read_frame, write_frame};
use crate::hlc::physical_now;
use crate::log::{LogWriter, REC_LEN};
use crate::net::{Cluster, Stream};
use crate::proc::{Effect, Input, Proc};
use crate::wire::{self, Frame};

/// The wall-clock length of one protocol tick an `oc-node` runs with
/// unless `--tick-ns` says otherwise.
pub const DEFAULT_TICK: Duration = Duration::from_micros(50);

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
    /// `true` when restarting after a SIGKILL: runs [`Proc::recover`] so
    /// the node re-joins per Section 5.
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

/// One inbound frame for the protocol thread, produced by reader threads.
enum Cmd {
    /// A frame off a peer link.
    Peer(Vec<u8>),
    /// A frame off session-API connection `client`.
    Client(usize, Vec<u8>),
}

/// A registered session-API client: the write half of its connection.
/// Slot goes `None` when a send fails (the gateway hung up): a client
/// that left is not written to again.
type ClientTable = Arc<Mutex<Vec<Option<Stream>>>>;

fn send_to_client(clients: &ClientTable, client: usize, frame: &[u8]) {
    let mut table = clients.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(slot) = table.get_mut(client) {
        let dead = match slot {
            Some(stream) => write_frame(stream, frame).is_err(),
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

/// The process's one node, as an owner in its [`DeadlineSet`].
const ME: u32 = 0;

/// The OS end's I/O: where a [`Proc`]'s output goes.
struct Os {
    tick: Duration,
    log: LogWriter,
    peers: PeerLinks,
    clients: ClientTable,
    timers: DeadlineSet,
}

impl Os {
    /// Carries out everything `proc` has asked for: every log record
    /// written and flushed, then every frame written and timer armed, in
    /// the protocol's order.
    fn carry_out(&mut self, proc: &mut Proc) -> io::Result<()> {
        let output = proc.output();
        for record in output.log.chunks_exact(REC_LEN) {
            self.log.append_encoded(record)?;
        }
        output.log.clear();
        for effect in output.effects.drain(..) {
            match effect {
                Effect::Peer { to, frame } => self.peers.send(to, &frame),
                Effect::Client { client, frame } => send_to_client(&self.clients, client, &frame),
                Effect::Arm { id, ticks } => {
                    self.timers.arm(ME, id, Instant::now() + ticks_to_wall(ticks, self.tick));
                }
                Effect::Cancel { id } => {
                    self.timers.cancel(ME, id);
                }
            }
        }
        Ok(())
    }
}

/// Reads frames off one inbound connection and hands them, undecoded, to
/// the protocol thread. The first frame routes the connection (see
/// module docs).
fn serve_connection(mut stream: Stream, clients: &ClientTable, tx: &Sender<Cmd>) {
    let Ok(Some(first)) = read_frame(&mut stream) else { return };
    let client = match wire::decode(&first) {
        Ok(Frame::Hello { .. }) => None,
        Ok(Frame::ClientHello) => {
            let Ok(writer) = stream.try_clone() else { return };
            let mut table = clients.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            table.push(Some(writer));
            Some(table.len() - 1)
        }
        _ => return,
    };
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let cmd = match client {
            None => Cmd::Peer(payload),
            Some(client) => Cmd::Client(client, payload),
        };
        if tx.send(cmd).is_err() {
            return;
        }
    }
}

/// Runs one node process to completion (a client's `Shutdown` frame).
///
/// Binds the endpoint, spawns the acceptor, optionally runs the
/// crash-recovery path, then loops: inbound frames interleaved with due
/// timers, exactly one thread ever touching the [`Proc`].
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

    let mut proc = Proc::new(opts.id, opts.config());
    let mut os = Os {
        tick: opts.tick,
        log: LogWriter::open(&opts.log_path)?,
        peers: PeerLinks::new(opts.cluster.clone(), opts.id),
        clients,
        timers: DeadlineSet::new(),
    };

    if opts.recover {
        proc.recover(physical_now());
        os.carry_out(&mut proc)?;
    }

    loop {
        let cmd = match os.timers.next_deadline() {
            Some(deadline) => {
                let now = Instant::now();
                if deadline <= now {
                    while let Some((_, id)) = os.timers.pop_due(now) {
                        proc.handle(Input::Timer(id), physical_now());
                        os.carry_out(&mut proc)?;
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
        let running = match &cmd {
            Cmd::Peer(frame) => proc.handle(Input::Peer(frame), physical_now()),
            Cmd::Client(client, frame) => {
                proc.handle(Input::Client(*client, frame), physical_now())
            }
        };
        os.carry_out(&mut proc)?;
        if !running {
            return Ok(());
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
/// Returns a usage message naming the offending flag — a missing or
/// unparsable value, and also one the node could not run with: an `--n`
/// that is not a power of two, an `--id` outside `1..=n`, a zero
/// `--tick-ns`.
pub fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<NodeOptions, String> {
    let mut id = None;
    let mut n = None;
    let mut transport = None;
    let mut log = None;
    let mut delta_ticks = 40;
    let mut cs_ticks = 20;
    let mut slack_ticks = 20_000;
    let mut tick_ns = u64::try_from(DEFAULT_TICK.as_nanos()).expect("fits");
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
    if !oc_topology::is_valid_size(n) {
        return Err(format!("--n must be a power of two, got {n}"));
    }
    if id == 0 || id as usize > n {
        return Err(format!("--id must be in 1..={n}, got {id}"));
    }
    if tick_ns == 0 {
        return Err("--tick-ns must be positive".into());
    }
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

    #[test]
    fn values_the_node_cannot_run_with_are_usage_errors() {
        let parse = |extra: &[&str]| {
            let base = ["--transport", "uds:/tmp/x", "--log", "/tmp/x/1.log"];
            parse_args(base.iter().chain(extra).map(|s| (*s).to_owned()))
        };
        assert!(parse(&["--id", "8", "--n", "8"]).is_ok());
        for (extra, flag) in [
            (&["--id", "0", "--n", "8"][..], "--id"),
            (&["--id", "9", "--n", "8"], "--id"),
            (&["--id", "1", "--n", "12"], "--n"),
            (&["--id", "1", "--n", "8", "--tick-ns", "0"], "--tick-ns"),
        ] {
            let err = parse(extra).expect_err("the node would panic on these");
            assert!(err.starts_with(flag), "{extra:?}: {err}");
        }
    }
}
