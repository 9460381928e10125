//! The socket-deployment orchestrator (experiment E13): spawns one
//! `oc-node` process per protocol node, drives the session API over the
//! gateway connections, SIGKILLs and restarts processes on schedule,
//! and judges the run post hoc with the unmodified `oc-sim` oracles.
//!
//! [`run_scenario_sockets`] is the third runner of `oc_check`'s one
//! scenario language: it plays an `oc_check::Scenario` — the arrival
//! list and **every** entry of the crash list, so multi-kill timelines
//! are data — and answers with the same `oc_check::Outcome` the
//! simulator and the threaded runtime give (which counters a socket
//! outcome leaves at zero is written on that type). What the sockets
//! cannot honour yet, a fault script (there is no link shim), is
//! refused, never run and reported clean. On top of the verdict this
//! module measures the deployment (scheduled-arrival-to-grant latency
//! quantiles, throughput) and answers with the rows of the E13 table and
//! `BENCH_NET.json`; a [`NetCell`] names its scenario by an
//! `oc_check::GateScenario` shape.
//!
//! Every wait of the control plane is a wait on the deployment's one
//! event channel: each gateway link's reader thread sends the frames
//! its node writes and then the link's end. The timeline waits for the
//! next scheduled instant, a settle probe for the last live node's
//! answer, the completion wait for the last terminal frame, a kill and
//! a shutdown for the link's end. A deadline on each is only a safety
//! bound; the one fixed pause left is the capped backoff while a fresh
//! process binds its endpoint.
//!
//! Judgement pipeline, after the run: read every node's event log plus
//! the orchestrator's own log of synthesized `Crash` records (sound to
//! stamp with the orchestrator's HLC because every process shares one
//! machine clock, and the victim's last flushed record is strictly
//! before the kill), merge by HLC stamp, replay through a fresh safety
//! [`oc_sim::Oracle`], and feed the final per-node statuses into the
//! shared liveness oracle via [`oc_sim::check_horizon`] — the same two
//! entry points every other substrate answers to.

use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use oc_check::{GateKill, GateScenario, Outcome, Scenario};
use oc_sim::{check_horizon, ticks_to_wall, Horizon, NodeAtHorizon};
use oc_topology::NodeId;
use oc_transport::{
    frame::{read_frame, write_frame},
    log::{merge, read_log, replay, LogRecord, LogWriter},
    net::{Cluster, Stream},
    wire::{self, CompletionStatus, Frame, NodeStatus},
    Hlc,
};

use crate::json::Value;
use crate::report::{col, Col};

/// The E13 table.
pub const NET_COLS: &[Col] = &[
    col("trans", "transport", 5, 0),
    col("n", "n", 6, 0),
    col("injected", "injected", 9, 0),
    col("served", "served", 9, 0),
    col("aband", "abandoned", 6, 0),
    col("crashes", "crashes", 7, 0),
    col("recover", "recoveries", 8, 0),
    col("wall s", "wall_secs", 9, 2),
    col("cs/s", "cs_per_sec", 10, 1),
    col("p50 µs", "p50_us", 10, 1),
    col("p99 µs", "p99_us", 10, 1),
    col("boot s", "boot_secs", 7, 3),
    col("stall s", "stall_secs", 7, 3),
    col("settle s", "settle_secs", 8, 3),
    col("reap s", "reap_secs", 7, 3),
    col("judge s", "judge_secs", 7, 3),
    col("clean", "clean", 6, 0),
];

/// Wall-clock length of one scenario tick on the socket substrate.
/// Chosen so the default δ of 40 ticks (2ms) upper-bounds localhost
/// socket delay with generous scheduling margin.
pub const NET_TICK: Duration = Duration::from_micros(50);

/// Which transport the deployment speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// TCP over loopback.
    Tcp,
    /// Unix-domain sockets.
    Uds,
}

impl TransportKind {
    /// Table/JSON label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }
}

/// One deployment run to execute.
#[derive(Debug, Clone)]
pub struct NetCell {
    /// Transport under test.
    pub transport: TransportKind,
    /// The shape of the scenario (sizes, arrivals, optional SIGKILL
    /// cycle); [`run_deployment`] plays its `scenario()`.
    pub scenario: GateScenario,
    /// How long to wait for all requests to finish and the cluster to
    /// settle before declaring the horizon unsettled.
    pub settle_timeout: Duration,
}

/// One row of the E13 table / `BENCH_NET.json`: the deployment's
/// verdict, and beside it what only a timed run of real processes has —
/// wall time, rate, grant latency and the stage clocks. The counters
/// repeated from [`NetRow::outcome`] are the columns of the table.
///
/// The stages are read off consecutive instants of one call, so
/// `boot_secs + wall_secs + settle_secs + reap_secs + judge_secs` is the
/// call's total; `stall_secs` is a part of `wall_secs`, not a further
/// stage.
#[derive(Debug, Clone)]
pub struct NetRow {
    /// Transport label.
    pub transport: &'static str,
    /// System size (processes).
    pub n: usize,
    /// Requests injected through the gateway.
    pub injected: u64,
    /// Critical sections witnessed by the merged logs
    /// (`outcome.cs_entries`).
    pub served: u64,
    /// Requests abandoned (killed node, dead gateway link, shutdown).
    pub abandoned: u64,
    /// Wall-clock seconds from the start of the timeline (tick 0) to
    /// the last terminal completion.
    pub wall_secs: f64,
    /// Seconds before the timeline: work directory, spawn of every
    /// process, every gateway connected.
    pub boot_secs: f64,
    /// Seconds of `wall_secs` that kill and respawn steps held the
    /// timeline: SIGKILL, reap, the victim's link drained to its end;
    /// spawn and connect of its successor.
    pub stall_secs: f64,
    /// Seconds from the last completion to the settle verdict.
    pub settle_secs: f64,
    /// Seconds from the settle verdict to the last process reaped.
    pub reap_secs: f64,
    /// Seconds of post-hoc judgement: logs read, merged, replayed, the
    /// horizon judged, the work directory removed.
    pub judge_secs: f64,
    /// Served critical sections per wall second.
    pub cs_per_sec: f64,
    /// Scheduled-arrival-to-grant latency, p50, microseconds.
    pub p50_us: f64,
    /// Same, p99.
    pub p99_us: f64,
    /// Same, maximum.
    pub max_us: f64,
    /// Latency samples collected.
    pub samples: u64,
    /// Safety violations from the merged-log replay.
    pub safety_violations: usize,
    /// Liveness violations at the horizon.
    pub liveness_violations: usize,
    /// The run settled before its timeout (`outcome.drained`).
    pub settled: bool,
    /// The verdict, in the shape every substrate answers with.
    pub outcome: Outcome,
}

impl NetRow {
    /// Clean: settled with zero oracle violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.settled && self.outcome.is_clean()
    }

    /// The row of the table and of `BENCH_NET.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("transport", Value::str(self.transport)),
            ("n", Value::UInt(self.n as u64)),
            ("injected", Value::UInt(self.injected)),
            ("served", Value::UInt(self.served)),
            ("abandoned", Value::UInt(self.abandoned)),
            ("crashes", Value::UInt(self.outcome.crashes)),
            ("recoveries", Value::UInt(self.outcome.recoveries)),
            ("wall_secs", Value::Num(self.wall_secs)),
            ("cs_per_sec", Value::Num(self.cs_per_sec)),
            ("p50_us", Value::Num(self.p50_us)),
            ("p99_us", Value::Num(self.p99_us)),
            ("max_us", Value::Num(self.max_us)),
            ("latency_samples", Value::UInt(self.samples)),
            ("boot_secs", Value::Num(self.boot_secs)),
            ("stall_secs", Value::Num(self.stall_secs)),
            ("settle_secs", Value::Num(self.settle_secs)),
            ("reap_secs", Value::Num(self.reap_secs)),
            ("judge_secs", Value::Num(self.judge_secs)),
            ("safety_violations", Value::UInt(self.safety_violations as u64)),
            ("liveness_violations", Value::UInt(self.liveness_violations as u64)),
            ("settled", Value::Bool(self.settled)),
            ("clean", Value::Bool(self.clean())),
        ])
    }
}

/// Where the `oc-node` binary lives: next to the running executable
/// (bench binaries) — integration tests use `CARGO_BIN_EXE_oc-node`
/// instead.
#[must_use]
pub fn sibling_node_binary() -> PathBuf {
    let mut path = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("oc-node"));
    path.set_file_name("oc-node");
    path
}

static DEPLOY_SEQ: AtomicU64 = AtomicU64::new(0);

/// A deployment's work directory (sockets, event logs), removed when the
/// guard drops — on every way out, including an error before the
/// [`Deployment`] that owns it exists.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_workdir(seed: u64) -> io::Result<WorkDir> {
    let seq = DEPLOY_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oc-net-{}-{seed}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(WorkDir(dir))
}

/// Finds a base port with `n` consecutive free loopback ports.
fn find_tcp_base(n: usize, seed: u64) -> io::Result<u16> {
    for attempt in 0..256u64 {
        let base = 20_000
            + u16::try_from((seed.wrapping_mul(131).wrapping_add(attempt * 977)) % 40_000)
                .expect("mod 40000 fits u16");
        let free =
            (0..n).all(|k| TcpListener::bind(("127.0.0.1", base.saturating_add(k as u16))).is_ok());
        if free {
            return Ok(base);
        }
    }
    Err(io::Error::new(io::ErrorKind::AddrInUse, "no free contiguous port range found"))
}

fn make_cluster(kind: TransportKind, workdir: &Path, n: usize, seed: u64) -> io::Result<Cluster> {
    match kind {
        TransportKind::Tcp => Ok(Cluster::tcp("127.0.0.1", find_tcp_base(n, seed)?, n)),
        TransportKind::Uds => {
            let dir = workdir.join("sock");
            std::fs::create_dir_all(&dir)?;
            Ok(Cluster::uds(dir, n))
        }
    }
}

/// Per-request gateway state.
#[derive(Debug, Clone, Copy)]
struct Req {
    node: u32,
    scheduled: Instant,
    granted_at: Option<Instant>,
    /// `Some(true)` completed, `Some(false)` abandoned.
    terminal: Option<bool>,
}

/// One step of the orchestrator's wall-clock timeline.
#[derive(Debug, Clone, Copy)]
enum Step {
    Arrive { node: u32 },
    Kill { node: u32 },
    Respawn { node: u32 },
}

/// What a gateway link's reader thread reports on the deployment's one
/// channel: each frame its node wrote, then the link's end (EOF, or a
/// read error). A link is FIFO, so its end comes after every frame the
/// node flushed.
#[derive(Debug)]
enum Event {
    Frame(usize, Frame),
    Closed(usize),
}

/// How long a process is given for its gateway link to close once it is
/// killed or told to shut down: a safety bound, never waited out by a
/// process that exits.
const LINK_CLOSE_BOUND: Duration = Duration::from_secs(5);

/// Each node's current status. A gateway link is FIFO and a node
/// answers every query (`StatusQuery`, and `Shutdown`) with one `Status`
/// frame, so a `Status` answers the oldest query still outstanding; it
/// is current only when it answers the last query sent. An answer that
/// missed its own probe's window and lands in the next one is stale.
#[derive(Debug)]
struct StatusBook {
    outstanding: Vec<u32>,
    current: Vec<Option<NodeStatus>>,
}

impl StatusBook {
    fn new(n: usize) -> Self {
        StatusBook { outstanding: vec![0; n], current: vec![None; n] }
    }

    /// A query went to node `idx`: what it said before is not current.
    fn asked(&mut self, idx: usize) {
        self.outstanding[idx] += 1;
        self.current[idx] = None;
    }

    /// Node `idx` answered its oldest outstanding query.
    fn answered(&mut self, idx: usize, status: NodeStatus) {
        let Some(left) = self.outstanding[idx].checked_sub(1) else { return };
        self.outstanding[idx] = left;
        if left == 0 {
            self.current[idx] = Some(status);
        }
    }

    /// Node `idx`'s link ended: queries it had not answered never will
    /// be, and a successor's link starts with none.
    fn closed(&mut self, idx: usize) {
        self.outstanding[idx] = 0;
    }
}

/// The live deployment the orchestrator manages. Dropping it — on the
/// way out of a finished run or of any error after the first spawn —
/// kills and reaps every process still running (`std::process::Child`
/// does not on its own); the work directory goes after, with the field
/// that owns it.
struct Deployment<'a> {
    scenario: &'a Scenario,
    cluster: Cluster,
    node_bin: PathBuf,
    workdir: WorkDir,
    children: Vec<Option<Child>>,
    conns: Vec<Option<Stream>>,
    /// The node's gateway link has a reader that has not reported its
    /// end.
    open: Vec<bool>,
    rx: Receiver<Event>,
    tx: Sender<Event>,
    reqs: Vec<Req>,
    /// Requests not yet terminal.
    unresolved: usize,
    statuses: StatusBook,
    dead: Vec<bool>,
    recovered: Vec<bool>,
    orch_hlc: Hlc,
    orch_log: LogWriter,
    crashes: u64,
    recoveries: u64,
}

impl Drop for Deployment<'_> {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Deployment<'_> {
    fn log_path(&self, id: u32) -> PathBuf {
        self.workdir.0.join(format!("node-{id}.log"))
    }

    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.scenario.n).filter(|&idx| !self.dead[idx])
    }

    fn spawn_node(&self, id: u32, recover: bool) -> io::Result<Child> {
        let s = self.scenario;
        let mut cmd = Command::new(&self.node_bin);
        cmd.arg("--id")
            .arg(id.to_string())
            .arg("--n")
            .arg(s.n.to_string())
            .arg("--transport")
            .arg(self.cluster.spec())
            .arg("--log")
            .arg(self.log_path(id))
            .arg("--delta")
            .arg(s.delay_max.to_string())
            .arg("--cs")
            .arg(s.cs_ticks.to_string())
            .arg("--slack")
            .arg(s.contention_slack.to_string())
            .arg("--tick-ns")
            .arg(u64::try_from(NET_TICK.as_nanos()).unwrap_or(u64::MAX).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if recover {
            cmd.arg("--recover");
        }
        cmd.spawn()
    }

    /// Connects this orchestrator's session-API link to node `id`,
    /// retrying on a capped backoff while the freshly spawned process
    /// binds its endpoint — for as long as that process is alive, and
    /// 10 s at most — and starts the reader thread that feeds `self.rx`.
    fn connect_gateway(&mut self, id: u32) -> io::Result<()> {
        let idx = (id - 1) as usize;
        let endpoint = self.cluster.endpoint(id);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut backoff = Duration::from_micros(50);
        let mut stream = loop {
            match endpoint.connect() {
                Ok(s) => break s,
                Err(e) => {
                    let child = self.children[idx].as_mut().expect("spawned before it is dialled");
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "node {id} exited before its gateway came up ({status}): {e}"
                        )));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(1));
                }
            }
        };
        write_frame(&mut stream, &wire::encode(&Frame::ClientHello))?;
        let mut reader = stream.try_clone()?;
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                if let Ok(frame) = wire::decode(&payload) {
                    if tx.send(Event::Frame(idx, frame)).is_err() {
                        return;
                    }
                }
            }
            let _ = tx.send(Event::Closed(idx));
        });
        self.conns[idx] = Some(stream);
        self.open[idx] = true;
        Ok(())
    }

    fn send(&mut self, idx: usize, frame: &Frame) -> bool {
        let Some(stream) = &mut self.conns[idx] else { return false };
        if write_frame(stream, &wire::encode(frame)).is_err() {
            self.conns[idx] = None;
            return false;
        }
        true
    }

    /// Sends a frame its node answers with a `Status`.
    fn ask(&mut self, idx: usize, frame: &Frame) {
        self.statuses.asked(idx);
        self.send(idx, frame);
    }

    /// Marks request `req` terminal, once.
    fn resolve(&mut self, req: usize, completed: bool) {
        if let Some(r) = self.reqs.get_mut(req) {
            if r.terminal.is_none() {
                r.terminal = Some(completed);
                self.unresolved -= 1;
            }
        }
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::Frame(_, Frame::Granted { req }) => {
                if let Some(r) = self.reqs.get_mut(req as usize) {
                    r.granted_at.get_or_insert_with(Instant::now);
                }
            }
            Event::Frame(_, Frame::Completion { req, status }) => {
                self.resolve(req as usize, status == CompletionStatus::Completed);
            }
            Event::Frame(idx, Frame::Status(st)) => self.statuses.answered(idx, st),
            Event::Frame(..) => {}
            Event::Closed(idx) => {
                self.open[idx] = false;
                self.statuses.closed(idx);
            }
        }
    }

    /// Applies gateway events until `done` holds — then `true` — or
    /// `deadline` passes with it false. Past the deadline, events
    /// already queued are still applied.
    fn wait_for(&mut self, deadline: Instant, done: impl Fn(&Self) -> bool) -> bool {
        while !done(self) {
            let now = Instant::now();
            let event = if now >= deadline {
                self.rx.try_recv().ok()
            } else {
                self.rx.recv_timeout(deadline - now).ok()
            };
            match event {
                Some(event) => self.apply(event),
                None => return false,
            }
        }
        true
    }

    /// A no-op on a node that is already down, as in the simulator.
    fn kill(&mut self, node: u32) -> io::Result<()> {
        let idx = (node - 1) as usize;
        if self.dead[idx] {
            return Ok(());
        }
        if let Some(mut child) = self.children[idx].take() {
            // SIGKILL on unix — the fail-stop crash model, no grace.
            let _ = child.kill();
            let _ = child.wait();
        }
        self.dead[idx] = true;
        self.crashes += 1;
        // The reader holds its own handle on the link; the victim's death
        // ends it after every frame the victim flushed.
        self.conns[idx] = None;
        let closed = Instant::now() + LINK_CLOSE_BOUND;
        if !self.wait_for(closed, |d| !d.open[idx]) {
            return Err(io::Error::other(format!(
                "node {node}'s gateway link stayed open {LINK_CLOSE_BOUND:?} after SIGKILL"
            )));
        }
        let stamp = self.orch_hlc.tick();
        self.orch_log.append(&LogRecord::Crash { stamp, node })?;
        // Outstanding requests at the victim die with it: granted means
        // the CS entry is on disk (completed), un-granted means it never
        // will be (abandoned) — mirroring the runtime's crash semantics.
        for req in 0..self.reqs.len() {
            let r = self.reqs[req];
            if r.node == node {
                self.resolve(req, r.granted_at.is_some());
            }
        }
        Ok(())
    }

    /// A no-op on a node that is up, as in the simulator.
    fn respawn(&mut self, node: u32) -> io::Result<()> {
        let idx = (node - 1) as usize;
        if !self.dead[idx] {
            return Ok(());
        }
        self.children[idx] = Some(self.spawn_node(node, true)?);
        self.connect_gateway(node)?;
        self.dead[idx] = false;
        self.recovered[idx] = true;
        self.recoveries += 1;
        Ok(())
    }

    /// One settle probe: queries every live node and waits for the last
    /// answer, 300 ms at most. Returns the statuses' settle verdict.
    fn probe(&mut self) -> bool {
        for idx in 0..self.scenario.n {
            if !self.dead[idx] {
                self.ask(idx, &Frame::StatusQuery);
            }
        }
        let answered = Instant::now() + Duration::from_millis(300);
        self.wait_for(answered, |d| d.live().all(|idx| d.statuses.current[idx].is_some()));
        let quiet = self.live().all(|idx| self.quiet(idx));
        self.unresolved == 0 && quiet && self.token_census() <= 1
    }

    /// Node `idx`'s current status says it is idle with nothing pending
    /// and outside the CS.
    fn quiet(&self, idx: usize) -> bool {
        self.statuses.current[idx].is_some_and(|st| st.idle && st.pending == 0 && !st.in_cs)
    }

    /// Live token holders per the current statuses.
    fn token_census(&self) -> usize {
        self.live()
            .filter(|&idx| self.statuses.current[idx].is_some_and(|st| st.holds_token))
            .count()
    }

    /// Asks every live process to flush and exit, and reaps each once its
    /// link has ended; one still linked after [`LINK_CLOSE_BOUND`] is
    /// killed.
    fn shut_down(&mut self) {
        for idx in 0..self.scenario.n {
            if !self.dead[idx] {
                self.ask(idx, &Frame::Shutdown);
            }
        }
        let closed = Instant::now() + LINK_CLOSE_BOUND;
        self.wait_for(closed, |d| d.live().all(|idx| !d.open[idx]));
        for (idx, slot) in self.children.iter_mut().enumerate() {
            if let Some(mut child) = slot.take() {
                if self.open[idx] {
                    let _ = child.kill();
                }
                let _ = child.wait();
            }
        }
    }
}

/// Runs one deployment cell end to end and reports its row:
/// [`run_scenario_sockets`] on the cell's `scenario.scenario()`.
///
/// # Errors
///
/// As [`run_scenario_sockets`].
pub fn run_deployment(node_bin: &Path, cell: &NetCell) -> io::Result<NetRow> {
    run_scenario_sockets(node_bin, cell.transport, &cell.scenario.scenario(), cell.settle_timeout)
}

/// Plays `scenario` over one `oc-node` process per node and reports the
/// verdict with the run's timing.
///
/// The timeline is `scenario.arrivals` (each an auto-release `Acquire`
/// through its node's gateway, ids in injection order — list order, for
/// a tick-sorted list) plus, for every entry of `scenario.crashes`, a
/// SIGKILL at `at` and a `--recover` respawn at `recover_at` (none for a
/// permanent crash), walked in tick order at [`NET_TICK`] per tick;
/// arrivals go before kills of the same tick. A request at a node that
/// is down is abandoned at injection. `settle_timeout` bounds the wait
/// for the last completions and for the cluster to settle.
///
/// `node_bin` is the `oc-node` executable (tests:
/// `env!("CARGO_BIN_EXE_oc-node")`; binaries: [`sibling_node_binary`]).
///
/// # Errors
///
/// `InvalidInput`, before anything is spawned, for a scenario with an
/// active fault script: nothing between the processes can drop, cut or
/// duplicate a frame yet, and running it unfaulted would report a
/// verdict about a different scenario. Otherwise propagates
/// orchestration I/O failures (spawn, connect, log files). Oracle
/// violations are not errors — they come back in the row.
pub fn run_scenario_sockets(
    node_bin: &Path,
    transport: TransportKind,
    scenario: &Scenario,
    settle_timeout: Duration,
) -> io::Result<NetRow> {
    let called = Instant::now();
    let s = scenario;
    if s.fault_script().enabled() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the socket deployment has no link shim: a scenario with a fault script cannot run",
        ));
    }
    let workdir = fresh_workdir(s.seed)?;
    let cluster = make_cluster(transport, &workdir.0, s.n, s.seed)?;
    let (tx, rx) = channel();
    let orch_log_path = workdir.0.join("orchestrator.log");
    let mut deploy = Deployment {
        cluster,
        node_bin: node_bin.to_path_buf(),
        children: (0..s.n).map(|_| None).collect(),
        conns: (0..s.n).map(|_| None).collect(),
        open: vec![false; s.n],
        rx,
        tx,
        reqs: Vec::with_capacity(s.arrivals.len()),
        unresolved: 0,
        statuses: StatusBook::new(s.n),
        dead: vec![false; s.n],
        recovered: vec![false; s.n],
        orch_hlc: Hlc::new(0),
        orch_log: LogWriter::open(&orch_log_path)?,
        crashes: 0,
        recoveries: 0,
        workdir,
        scenario,
    };

    // Boot: every process up and listening before the first arrival.
    for id in 1..=s.n as u32 {
        deploy.children[(id - 1) as usize] = Some(deploy.spawn_node(id, false)?);
    }
    for id in 1..=s.n as u32 {
        deploy.connect_gateway(id)?;
    }

    // Timeline: arrivals, then every crash's kill and restart; the sort
    // is stable, so arrivals precede kills of the same tick.
    let mut steps: Vec<(u64, Step)> =
        s.arrivals.iter().map(|(at, node)| (*at, Step::Arrive { node: *node })).collect();
    for crash in &s.crashes {
        steps.push((crash.at, Step::Kill { node: crash.node }));
        if let Some(recover_at) = crash.recover_at {
            steps.push((recover_at, Step::Respawn { node: crash.node }));
        }
    }
    steps.sort_by_key(|(at, _)| *at);

    let start = Instant::now();
    let mut stall = Duration::ZERO;
    for (at, step) in steps {
        let deadline = start + ticks_to_wall(at, NET_TICK);
        deploy.wait_for(deadline, |_| false);
        let held = Instant::now();
        match step {
            Step::Arrive { node } => {
                let req = deploy.reqs.len();
                deploy.reqs.push(Req {
                    node,
                    scheduled: deadline,
                    granted_at: None,
                    terminal: None,
                });
                deploy.unresolved += 1;
                let idx = (node - 1) as usize;
                let sent = !deploy.dead[idx]
                    && deploy.send(idx, &Frame::Acquire { req: req as u64, auto_release: true });
                if !sent {
                    // The node is down (or its link is): the request is
                    // abandoned at injection, as the runtime abandons
                    // acquires on crashed nodes.
                    deploy.resolve(req, false);
                }
            }
            Step::Kill { node } => deploy.kill(node)?,
            Step::Respawn { node } => deploy.respawn(node)?,
        }
        if !matches!(step, Step::Arrive { .. }) {
            stall += held.elapsed();
        }
    }

    // Completion: every request terminal (served, or abandoned by a
    // kill), bounded by the settle timeout.
    let settle_deadline = Instant::now() + settle_timeout;
    deploy.wait_for(settle_deadline, |d| d.unresolved == 0);
    let completed = Instant::now();

    // Settle: all live nodes idle with nothing pending and at most one
    // token holder. A probe that finds work still moving is repeated
    // after a pause that grows to the 50 ms it always was.
    let mut settled = false;
    let mut pause = Duration::from_millis(1);
    while Instant::now() < settle_deadline {
        if deploy.probe() {
            settled = true;
            break;
        }
        deploy.wait_for((Instant::now() + pause).min(settle_deadline), |_| false);
        pause = (pause * 2).min(Duration::from_millis(50));
    }
    // The horizon is what the last probe saw; the answers to `Shutdown`
    // come after the pending requests are abandoned.
    let census = deploy.token_census();
    let nodes: Vec<NodeAtHorizon> = (0..s.n)
        .map(|idx| NodeAtHorizon {
            node: NodeId::new(idx as u32 + 1),
            alive: !deploy.dead[idx],
            idle: deploy.quiet(idx),
            recovered: deploy.recovered[idx],
            isolated: false,
            quorum_blocked: deploy.statuses.current[idx].is_some_and(|st| st.quorum_blocked),
        })
        .collect();
    let settled_at = Instant::now();

    // Graceful stop: flush-and-exit every live process, reap each on its
    // link's end.
    deploy.shut_down();
    let reaped = Instant::now();

    // Post-hoc judgement: merge all logs, replay the safety oracle,
    // assemble the liveness horizon.
    let mut logs = Vec::with_capacity(s.n + 1);
    for id in 1..=s.n as u32 {
        logs.push(read_log(&deploy.log_path(id))?);
    }
    logs.push(read_log(&orch_log_path)?);
    let merged = merge(logs);
    let verdict = replay(&merged, census);

    let injected = deploy.reqs.len() as u64;
    let abandoned = deploy.reqs.iter().filter(|r| r.terminal != Some(true)).count() as u64;
    let horizon = Horizon {
        drained: settled,
        events: merged.len() as u64,
        injected,
        served: verdict.served,
        abandoned,
        unreachable: 0,
        live_token_census: census,
        nodes,
    };
    // What the logs and the status answers cannot say stays zero (see
    // `Outcome`).
    let outcome = Outcome {
        drained: settled,
        events: horizon.events,
        cs_entries: verdict.served,
        crashes: deploy.crashes,
        recoveries: deploy.recoveries,
        abandoned,
        safety: verdict.safety,
        liveness: check_horizon(&horizon),
        ..Outcome::default()
    };

    let mut lat: Vec<u64> = deploy
        .reqs
        .iter()
        .filter(|r| r.terminal == Some(true))
        .filter_map(|r| {
            let granted = r.granted_at?;
            Some(granted.saturating_duration_since(r.scheduled).as_nanos() as u64)
        })
        .collect();
    // The work directory goes with the deployment, inside judgement.
    drop(deploy);
    lat.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let pos = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[pos] as f64 / 1_000.0
    };

    let (p50_us, p99_us, max_us) = (quantile(0.50), quantile(0.99), quantile(1.0));
    let judged = Instant::now();

    let secs = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
    let wall_secs = secs(start, completed);
    Ok(NetRow {
        transport: transport.label(),
        n: s.n,
        injected,
        served: outcome.cs_entries,
        abandoned,
        wall_secs,
        boot_secs: secs(called, start),
        stall_secs: stall.as_secs_f64(),
        settle_secs: secs(completed, settled_at),
        reap_secs: secs(settled_at, reaped),
        judge_secs: secs(reaped, judged),
        cs_per_sec: if wall_secs > 0.0 { outcome.cs_entries as f64 / wall_secs } else { 0.0 },
        p50_us,
        p99_us,
        max_us,
        samples: lat.len() as u64,
        safety_violations: outcome.safety.violations().len(),
        liveness_violations: outcome.liveness.violations().len(),
        settled,
        outcome,
    })
}

/// One E13 cell: `requests` arrivals 20 ticks apart at `n` processes
/// (δ = 40 ticks, 20-tick critical sections, 20 000 ticks of slack),
/// with `kill` SIGKILLed at the schedule's midpoint and restarted 4 000
/// ticks later.
#[must_use]
pub fn net_cell(
    transport: TransportKind,
    n: usize,
    requests: usize,
    kill: Option<u32>,
    seed: u64,
) -> NetCell {
    let gap_ticks = 20;
    let at_ticks = gap_ticks * (requests as u64 / 2);
    let kill = kill.map(|node| GateKill { node, at_ticks, recover_ticks: at_ticks + 4_000 });
    let scenario = GateScenario {
        n,
        requests,
        gap_ticks,
        delta_ticks: 40,
        cs_ticks: 20,
        slack_ticks: 20_000,
        seed,
        kill,
    };
    NetCell { transport, scenario, settle_timeout: Duration::from_secs(30) }
}

/// The standard E13 battery: clean TCP and UDS cells, plus a UDS cell
/// with one SIGKILL/restart cycle. `quick` shrinks sizes and request
/// counts for CI smoke.
#[must_use]
pub fn net_battery(quick: bool, seed: u64) -> Vec<NetCell> {
    let (n_small, n_large, requests) = if quick { (16, 16, 200) } else { (16, 64, 600) };
    vec![
        net_cell(TransportKind::Tcp, n_small, requests, None, seed),
        net_cell(TransportKind::Uds, n_small, requests, None, seed.wrapping_add(1)),
        net_cell(TransportKind::Uds, n_large, requests, None, seed.wrapping_add(2)),
        net_cell(TransportKind::Uds, n_small, requests / 2, Some(3), seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_battery_shapes() {
        let quick = net_battery(true, 9);
        assert_eq!(quick.len(), 4);
        assert!(quick.iter().any(|c| c.scenario.kill.is_some()));
        assert!(quick.iter().any(|c| c.transport == TransportKind::Tcp));
        let full = net_battery(false, 9);
        assert!(full.iter().any(|c| c.scenario.n == 64));
        // Kill cells always spare their victim in the schedule.
        for cell in quick.iter().chain(full.iter()) {
            if let Some(k) = cell.scenario.kill {
                assert!(cell.scenario.scenario().arrivals.iter().all(|(_, v)| *v != k.node));
                assert!(k.recover_ticks > k.at_ticks);
            }
        }
    }

    #[test]
    fn only_the_answer_to_the_last_query_is_current() {
        let busy = NodeStatus { pending: 3, ..NodeStatus::default() };
        let quiet = NodeStatus { idle: true, ..NodeStatus::default() };
        let mut book = StatusBook::new(2);
        // Node 1 misses the first probe's window; its answer to that
        // probe lands during the second.
        book.asked(0);
        book.asked(0);
        book.answered(0, busy);
        assert_eq!(book.current[0], None, "the first probe's answer is stale");
        book.answered(0, quiet);
        assert_eq!(book.current[0], Some(quiet));
        // A further query makes that answer old news until it is answered.
        book.asked(0);
        assert_eq!(book.current[0], None);
        book.answered(0, busy);
        assert_eq!(book.current[0], Some(busy));
        // A link that ends owes nothing: its successor's first answer is
        // current, and nothing unasked for ever is.
        book.asked(1);
        book.closed(1);
        book.answered(1, busy);
        assert_eq!(book.current[1], None);
        book.asked(1);
        book.answered(1, quiet);
        assert_eq!(book.current[1], Some(quiet));
    }

    #[test]
    fn a_work_directory_does_not_outlive_an_early_error() {
        // `run_scenario_sockets`' shape before a `Deployment` exists: the
        // guard is made, something is written, then a `?` returns.
        let mut path = None;
        let mut boot = || -> io::Result<()> {
            let workdir = fresh_workdir(7)?;
            path = Some(workdir.0.clone());
            std::fs::write(workdir.0.join("orchestrator.log"), b"header")?;
            Err(io::Error::other("make_cluster failed"))
        };
        assert!(boot().is_err());
        let path = path.expect("the guard was made");
        assert!(!path.exists(), "{} left behind", path.display());
    }

    #[test]
    fn tcp_base_ports_are_free_and_contiguous() {
        let base = find_tcp_base(4, 1234).unwrap();
        assert!(base >= 20_000);
        for k in 0..4u16 {
            TcpListener::bind(("127.0.0.1", base + k)).expect("port should be free");
        }
    }
}
