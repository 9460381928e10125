//! # oc-runtime — the sharded, oracle-checked lock service
//!
//! Where `oc-sim` runs protocols in deterministic virtual time, this
//! crate runs the *same* [`Protocol`] state machines as a real threaded
//! lock service: `n` nodes multiplexed over a configurable **worker
//! pool** (not thread-per-node, so `n = 1024` costs 8 threads, not
//! 1024) and no other thread. Each worker also *is* the network, the
//! timer service and the lease clock of its own nodes: it keeps a delay
//! queue of everything addressed to them that is not due yet (messages
//! under their per-message random delay bounded by δ, CS leases,
//! scheduled arrivals, crashes and recoveries) and the deadlines of
//! their live timers, and sleeps until mail arrives or the earliest of
//! those falls due. Nothing about the protocol changes — that is the
//! point of the sans-io design: both substrates execute actions through
//! the same [`oc_sim::drive`] engine loop.
//!
//! On top of the substrate sit the pieces a lock *service* needs:
//!
//! * a client session API — [`Runtime::acquire`] / [`Runtime::release`]
//!   with [`RequestId`]s and an acquire-to-grant [`LatencyHistogram`];
//!   a client that wants to know how its requests end registers a
//!   [`Runtime::watcher`] and issues them with
//!   [`Runtime::acquire_watched`]: each one sends exactly one
//!   `(id, Completed | Abandoned)` notice. A request is a ticket that
//!   travels with its command and waits at its node; nothing is kept
//!   about it once it has ended;
//! * **multi-tenant namespaces** ([`Runtime::start_multi`]) — many
//!   independent lock instances sharing one worker pool, each judged by
//!   its own unmodified `oc_sim` oracle;
//! * crash/recovery injection ([`Runtime::schedule_failures`]) and the
//!   simulator's own link-fault program, consumed verbatim
//!   ([`Runtime::start_scripted`]);
//! * *the unmodified `oc_sim` oracles* judging the execution: the safety
//!   [`oc_sim::Oracle`] is fed live under a per-namespace monitor lock,
//!   whose acquisition order linearizes CS entries, exits and crashes,
//!   and shutdown builds an [`oc_sim::Horizon`] per namespace for the
//!   shared liveness oracle ([`oc_sim::check_horizon`]).
//!
//! ## The batched hot path
//!
//! Five mechanisms keep the per-acquisition cost flat under load:
//!
//! * **Mailbox batching** — a message for a node of the same worker
//!   goes straight into that worker's delay queue and touches no channel;
//!   messages for other workers are collected per destination and sent
//!   as one [`Mail::Many`] per batch, and workers drain their mailbox in
//!   `try_recv` bursts (of at most 128 commands) after each
//!   blocking receive — a message crosses at most one channel, and a
//!   batch sends at most one channel message per other worker, however
//!   many messages it carries.
//! * **Notices at settle time** — a request a worker ends (CS exit, a
//!   crash, an arrival at a dead node, a `Stop`) leaves its completion
//!   notice in a worker-owned buffer that keeps its capacity; the worker
//!   sends the batch's notices in the order they ended when it settles
//!   the batch, after the idle flags and before it releases its claims,
//!   and lets go of each request's live count only after its notice is
//!   sent. A client's notices reach its [`Watcher`] in one burst per
//!   batch rather than one at a time as requests end, and
//!   [`Runtime::settled`] never holds while a notice is unsent. Each
//!   notice is still one channel message.
//! * **One clock reading per command** — a worker reads the clock once
//!   per command and once per timer firing; every message deadline, timer
//!   deadline, lease expiry, monitor stamp and grant-latency sample the
//!   command produces derives from that reading. A runtime started
//!   without a fault script never evaluates one on a send.
//! * **Worker-owned books** — what only a node's worker writes stays
//!   with that worker: the node's grant queue, one plain
//!   [`oc_sim::Metrics`] of messages, events and losses, and a signed
//!   per-namespace tally of token messages sent minus received. They are
//!   handed back when the worker is joined and folded at shutdown. What
//!   two threads touch is shared: the in-flight claims, the live-request
//!   count and the idle flags that [`Runtime::settled`] reasons about
//!   (`SeqCst`), the request accounts, and the latency histogram.
//! * **Live timers only** — arming a timer puts its deadline in the
//!   owning worker's [`DeadlineSet`]; cancelling, re-arming or crashing
//!   takes it out again. The protocol arms its Section 5 timeouts per
//!   claim and cancels them when the token arrives, so in a healthy run
//!   no timer ever becomes an event, and none outlives its cancellation
//!   to hold [`Runtime::settled`] back.
//!
//! ## Example
//!
//! ```
//! use oc_algo::{Config, OpenCubeNode};
//! use oc_runtime::{RequestStatus, Runtime, RuntimeConfig};
//! use oc_sim::SimDuration;
//! use oc_topology::NodeId;
//! use std::time::Duration;
//!
//! let config = Config::new(
//!     8,
//!     SimDuration::from_ticks(40), // δ = 40 ticks = 2ms at a 50µs tick
//!     SimDuration::from_ticks(20),
//! );
//! let rt = Runtime::start(RuntimeConfig::default(), OpenCubeNode::build_all(config));
//! let watcher = rt.watcher();
//! let a = rt.acquire_watched(0, NodeId::new(5), &watcher, false);
//! let _ = rt.acquire(NodeId::new(3));
//! assert!(rt.await_settled(Duration::from_secs(10)));
//! assert_eq!(watcher.try_recv(), Some((a, RequestStatus::Completed)));
//! let report = rt.shutdown();
//! assert_eq!(report.cs_entries, 2);
//! assert_eq!(report.requests_completed, 2);
//! assert!(report.is_clean(), "oracles: {:?}", report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod report;
mod session;

pub use histogram::{LatencyHistogram, LatencySummary};
pub use report::RuntimeReport;
pub use session::{RequestId, RequestStatus};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oc_sim::{
    check_horizon, drive, drive_recovery, isolation_from_components, ticks_to_wall, ActionSink,
    ArrivalSchedule, CompiledScript, DeadlineSet, FailurePlan, FaultScript, Horizon, LinkFate,
    LivenessReport, MessageKind, Metrics, NodeAtHorizon, NodeEvent, Oracle, OracleReport, Outbox,
    Protocol, SimDuration, SimTime,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use session::{Completion, Notice, Sessions, Ticket};

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads the nodes are sharded over (global node index
    /// `idx` belongs to worker `idx % workers`). `0` means `min(n, 8)`.
    pub workers: usize,
    /// Real-time length of one protocol tick (converts the protocol's
    /// `SimDuration` timer delays into wall-clock time). Choose it so
    /// that the protocol's δ (in ticks) times `tick` exceeds
    /// `max_network_delay`.
    pub tick: Duration,
    /// Upper bound on the per-message delay the runtime injects (drawn
    /// uniformly from `0..=max_network_delay` by the sending worker).
    pub max_network_delay: Duration,
    /// How long a granted request holds the critical section before the
    /// lease expires (an explicit [`Runtime::release`] ends it earlier;
    /// auto-release requests skip the lease entirely).
    pub cs_duration: Duration,
    /// Seed for the delay- and fault-injection RNGs (per-worker streams
    /// derive from it).
    pub seed: u64,
}

/// Largest burst of commands a worker drains from its mailbox before
/// publishing effects (idle flags, statistics, in-flight claims).
const BATCH: usize = 128;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            tick: Duration::from_micros(50),
            max_network_delay: Duration::from_millis(1),
            cs_duration: Duration::from_micros(500),
            seed: 0,
        }
    }
}

/// One command addressed to a node, executed by its owning worker.
/// (Timers are not commands: they never leave the worker that owns the
/// node — see [`DeadlineSet`].)
enum NodeCmd<M> {
    /// A network message arrives (`from` in the namespace's local ids).
    Deliver { from: NodeId, msg: M },
    /// A client request reaches its node (`RequestCs`), ticket and all.
    Acquire(Ticket),
    /// A client releases a granted request early.
    Release(RequestId),
    /// The CS lease of generation `lease` expires.
    ExitLease { lease: u64 },
    /// Fail-stop.
    Crash,
    /// Recovery.
    Recover,
    /// Worker shutdown.
    Stop,
}

/// A command plus its destination, addressed by *global* node id (the
/// namespace-offset id that picks the worker; the namespace-local id is
/// recovered from the slot on receipt).
struct Targeted<M> {
    to: NodeId,
    cmd: NodeCmd<M>,
}

/// What worker mailboxes carry: one command that is due now (client
/// acquires and releases, immediate crash/recover, Stop) — queued by the
/// receiver without a look at the clock — or a burst of commands with
/// the instant each is due, which the receiver files in its delay queue:
/// another worker's messages for this worker's nodes, one channel
/// round-trip for the whole burst, or a schedule's arrivals and
/// failures.
enum Mail<M> {
    One(Targeted<M>),
    Many(Vec<(Instant, Targeted<M>)>),
}

/// Monitor: the linearization point of one namespace. Every CS
/// entry/exit and crash of the namespace takes this lock; the lock's
/// acquisition order *is* the linear order in which the unmodified
/// `oc_sim` safety oracle observes the namespace's run. Namespaces are
/// independent lock instances, so each gets its own monitor — and its own
/// lock, keeping tenants from contending on the linearization point.
type Monitor = Mutex<Oracle>;

/// One namespace's slice of the global node space: nodes
/// `offset + 1 ..= offset + len` (global) are the namespace's
/// `1 ..= len` (local).
#[derive(Debug, Clone, Copy)]
struct NsMeta {
    offset: u32,
    len: u32,
}

struct Shared {
    /// One linearization monitor per namespace.
    monitors: Vec<Monitor>,
    /// The request accounts and the latency histogram.
    sessions: Sessions,
    /// Completed critical sections per namespace. `Relaxed`: monotone
    /// statistics, polled by `await_cs_entries` and summed after join.
    cs_entries: Vec<AtomicU64>,
    /// Claims on the system's attention: one per command sitting in a
    /// mailbox, a worker's batch queue or its delay queue, and one per
    /// live timer arming (from arm to fire, cancel or crash — a
    /// superseding re-arm inherits it). A claim is taken before its
    /// command enters a mailbox; whatever a worker files with itself in
    /// mid-batch is covered by the claims of the batch being processed
    /// until its own are added. Workers settle a batch's claims in one
    /// step, *after* publishing the batch's idle flags — the count stays
    /// elevated while effects are pending, which is what keeps
    /// [`Runtime::settled`] sound. Zero means nothing is queued, nothing
    /// is armed and nothing is mid-processing.
    inflight: AtomicU64,
    /// Per-node "has nothing pending" flags, refreshed by the owning
    /// worker after every batch (crashed nodes read as idle — the
    /// liveness oracle only judges live nodes).
    idle: Vec<AtomicBool>,
    /// Namespace geometry, ordered by offset.
    ns: Vec<NsMeta>,
    /// The time-scripted fault program, compiled against the system size.
    /// Phase windows are in protocol ticks, evaluated against
    /// [`Shared::ticks_at`] — the same script the simulator consumes, the
    /// tick mapping doing ticks→wall. Empty by default: nothing injected,
    /// no RNG draws. Only single-namespace runtimes may script faults.
    script: CompiledScript,
    /// `false` when the script has no phase that can ever be active (the
    /// runtime was started without one): sends skip the script check.
    scripted: bool,
    epoch: Instant,
    tick_nanos: u64,
}

impl Shared {
    /// Wall time from the epoch to `at` in nanoseconds — the clock
    /// tickets are stamped by.
    fn nanos_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// `at` as protocol ticks since the epoch — the oracle's timestamp.
    fn ticks_at(&self, at: Instant) -> SimTime {
        SimTime::from_ticks(self.nanos_at(at) / self.tick_nanos)
    }

    /// Elapsed wall time as protocol ticks.
    fn sim_now(&self) -> SimTime {
        self.ticks_at(Instant::now())
    }

    /// The fate the fault script gives a `from → to` send at `at`
    /// (namespace-local ids): `Deliver`, without a look at the script,
    /// when the runtime was started without one.
    fn fate(
        &self,
        at: Instant,
        from: NodeId,
        to: NodeId,
        carries_token: bool,
        rng: &mut StdRng,
    ) -> LinkFate {
        if !self.scripted {
            return LinkFate::Deliver;
        }
        let now = self.ticks_at(at);
        if !self.script.active_at(now) {
            return LinkFate::Deliver;
        }
        self.script.fate(now, from, to, carries_token, rng)
    }

    fn lock_monitor(&self, ns: usize) -> std::sync::MutexGuard<'_, Oracle> {
        self.monitors[ns].lock().expect("monitor poisoned")
    }

    /// The namespace a (global) node belongs to.
    fn ns_of(&self, node: NodeId) -> usize {
        self.ns.partition_point(|meta| meta.offset <= node.zero_based()).saturating_sub(1)
    }

    /// A command that will never be processed: if it carried a request,
    /// the request is abandoned, and its notice returned to be sent. (Its
    /// in-flight claim, and the token tally of a message, are the
    /// caller's to settle.)
    fn abandon<M>(&self, item: Targeted<M>) -> Option<Notice> {
        match item.cmd {
            NodeCmd::Acquire(ticket) => {
                Some(self.sessions.close(self.ns_of(item.to), ticket, RequestStatus::Abandoned))
            }
            _ => None,
        }
    }
}

/// A completion stream: every request issued through
/// [`Runtime::acquire_watched`] with this watcher sends exactly one
/// `(id, how it ended)` pair here when it completes or is abandoned —
/// the only way to learn how a request ended, and what closed-loop
/// clients block on. Each ticket carries a clone of the sending half. A
/// request that a worker ends is announced when that worker settles the
/// batch that ended it, with the batch's other notices, in the order
/// they ended.
pub struct Watcher {
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
}

impl Watcher {
    /// Blocks up to `timeout` for the next completion.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(RequestId, RequestStatus)> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Takes one completion if one is already queued.
    #[must_use]
    pub fn try_recv(&self) -> Option<(RequestId, RequestStatus)> {
        self.rx.try_recv().ok()
    }
}

/// The threaded runtime handle.
pub struct Runtime<P: Protocol> {
    shared: Arc<Shared>,
    worker_txs: Vec<Sender<Mail<P::Msg>>>,
    worker_handles: Vec<JoinHandle<WorkerExit<P>>>,
    config: RuntimeConfig,
    n: usize,
}

impl<P: Protocol + Send + 'static> Runtime<P> {
    /// Starts the worker pool with a single namespace.
    /// `nodes[k]` must have identity `k + 1`.
    ///
    /// # Panics
    ///
    /// Panics if a node's `id()` disagrees with its position, or if the
    /// config's `tick` is zero.
    #[must_use]
    pub fn start(config: RuntimeConfig, nodes: Vec<P>) -> Self {
        Runtime::start_inner(config, FaultScript::none(), vec![nodes])
    }

    /// Starts the runtime with a time-scripted fault program
    /// ([`oc_sim::FaultScript`]): partitions, one-way degradation, and
    /// loss/duplication phases whose windows are in protocol ticks —
    /// the *same* script the simulator consumes, mapped onto the wall
    /// clock through the configured `tick`.
    ///
    /// # Panics
    ///
    /// Panics like [`Runtime::start`], or if the script references nodes
    /// outside the system.
    #[must_use]
    pub fn start_scripted(config: RuntimeConfig, script: FaultScript, nodes: Vec<P>) -> Self {
        Runtime::start_inner(config, script, vec![nodes])
    }

    /// Starts a **multi-tenant** runtime: `populations[k]` is namespace
    /// `k`, an independent lock instance with its own token, oracle, and
    /// liveness horizon — all namespaces sharing one worker pool. Within
    /// namespace `k`, `populations[k][j]` must have identity `j + 1`
    /// (each namespace numbers its nodes from 1, exactly as a standalone
    /// system would).
    ///
    /// Address namespace `k`'s nodes through [`Runtime::acquire_in`] /
    /// [`Runtime::acquire_watched`]. The single-namespace conveniences
    /// ([`Runtime::acquire`], [`Runtime::crash`], the scheduling APIs)
    /// address namespace 0 / global ids — see each method.
    ///
    /// # Panics
    ///
    /// Panics like [`Runtime::start`], or if `populations` is empty or
    /// contains an empty namespace.
    #[must_use]
    pub fn start_multi(config: RuntimeConfig, populations: Vec<Vec<P>>) -> Self {
        Runtime::start_inner(config, FaultScript::none(), populations)
    }

    fn start_inner(
        mut config: RuntimeConfig,
        script: FaultScript,
        populations: Vec<Vec<P>>,
    ) -> Self {
        assert!(config.tick > Duration::ZERO, "tick must be positive");
        assert!(!populations.is_empty(), "at least one namespace is required");
        // A fault script is compiled against one node population; its
        // partitions/cuts are meaningless across independent instances.
        assert!(
            populations.len() == 1 || !script.enabled(),
            "fault scripts require a single namespace"
        );
        let mut ns = Vec::with_capacity(populations.len());
        let mut offset = 0u32;
        for (k, nodes) in populations.iter().enumerate() {
            assert!(!nodes.is_empty(), "namespace {k} is empty");
            for (j, node) in nodes.iter().enumerate() {
                assert_eq!(
                    node.id(),
                    NodeId::new(j as u32 + 1),
                    "node order mismatch in namespace {k}"
                );
            }
            let len = u32::try_from(nodes.len()).expect("namespace too large");
            ns.push(NsMeta { offset, len });
            offset = offset.checked_add(len).expect("total node count overflows u32");
        }
        let n = offset as usize;
        let workers = match config.workers {
            0 => n.clamp(1, 8),
            w => w.min(n.max(1)),
        };
        config.workers = workers;

        let namespaces = populations.len();
        let shared = Arc::new(Shared {
            monitors: (0..namespaces).map(|_| Mutex::new(Oracle::new())).collect(),
            sessions: Sessions::new(namespaces),
            cs_entries: (0..namespaces).map(|_| AtomicU64::new(0)).collect(),
            inflight: AtomicU64::new(0),
            idle: (0..n).map(|_| AtomicBool::new(true)).collect(),
            ns,
            scripted: script.enabled(),
            script: script.compile(n),
            epoch: Instant::now(),
            tick_nanos: u64::try_from(config.tick.as_nanos()).unwrap_or(u64::MAX).max(1),
        });

        let mut worker_txs = Vec::with_capacity(workers);
        let mut worker_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Mail<P::Msg>>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }

        // Shard the nodes: worker w owns global indices w, w+W, w+2W, …
        // (ascending within each worker, so slot_pos = idx / W).
        let mut sharded: Vec<Vec<Slot<P>>> = (0..workers).map(|_| Vec::new()).collect();
        for (k, nodes) in populations.into_iter().enumerate() {
            let meta = shared.ns[k];
            for (j, node) in nodes.into_iter().enumerate() {
                let idx = meta.offset as usize + j;
                sharded[idx % workers].push(Slot {
                    node,
                    seat: Seat {
                        idx,
                        pos: (idx / workers) as u32,
                        ns: k,
                        ns_offset: meta.offset,
                        crashed: false,
                        recovered_ever: false,
                        lease: 0,
                        pending: VecDeque::new(),
                        current: None,
                    },
                });
            }
        }

        let mut worker_handles = Vec::with_capacity(workers);
        for (me, (slots, rx)) in sharded.into_iter().zip(worker_rxs).enumerate() {
            let shared = Arc::clone(&shared);
            let mailboxes = worker_txs.clone();
            worker_handles.push(std::thread::spawn(move || {
                worker_main::<P>(me, slots, rx, mailboxes, shared, config)
            }));
        }

        Runtime { shared, worker_txs, worker_handles, config, n }
    }

    /// Total number of nodes across all namespaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the runtime has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Independent lock namespaces this runtime serves.
    #[must_use]
    pub fn namespaces(&self) -> usize {
        self.shared.ns.len()
    }

    /// The namespace a request was issued in (`None` for an id this
    /// runtime cannot have issued).
    #[must_use]
    pub fn namespace_of(&self, id: RequestId) -> Option<usize> {
        (id.node().get() as usize <= self.n).then(|| self.shared.ns_of(id.node()))
    }

    fn assert_node(&self, node: NodeId) {
        assert!((1..=self.n as u32).contains(&node.get()), "node {node} outside 1..={}", self.n);
    }

    /// Maps a namespace-local node id to the global id that addresses
    /// its worker slot.
    fn global_of(&self, ns: usize, node: NodeId) -> NodeId {
        let meta = self
            .shared
            .ns
            .get(ns)
            .unwrap_or_else(|| panic!("namespace {ns} outside 0..{}", self.shared.ns.len()));
        assert!(
            (1..=meta.len).contains(&node.get()),
            "node {node} outside 1..={} in namespace {ns}",
            meta.len
        );
        NodeId::new(meta.offset + node.get())
    }

    /// Hands one command that is due *now* to the destination's worker
    /// mailbox (client acquires and releases, immediate crash/recover).
    /// If the worker is gone the in-flight claim is undone and a request
    /// the command carried is abandoned.
    fn send_direct(&self, to: NodeId, cmd: NodeCmd<P::Msg>) {
        self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        let w = (to.zero_based() as usize) % self.config.workers;
        if let Err(SendError(Mail::One(lost))) =
            self.worker_txs[w].send(Mail::One(Targeted { to, cmd }))
        {
            self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
            self.shared.sessions.notify(self.shared.abandon(lost));
        }
    }

    /// Posts commands that are due later, each to its destination
    /// worker's mailbox — one [`Mail::Many`] per worker, filed in that
    /// worker's delay queue in the order given. What was meant for a
    /// worker that is gone is dropped like a failed
    /// [`Runtime::send_direct`].
    fn send_later(&self, items: Vec<(Instant, Targeted<P::Msg>)>) {
        let mut bursts: Vec<Vec<_>> = self.worker_txs.iter().map(|_| Vec::new()).collect();
        for item in items {
            bursts[(item.1.to.zero_based() as usize) % self.config.workers].push(item);
        }
        for (tx, burst) in self.worker_txs.iter().zip(bursts) {
            let claims = burst.len() as u64;
            if claims == 0 {
                continue;
            }
            self.shared.inflight.fetch_add(claims, Ordering::SeqCst);
            if let Err(SendError(Mail::Many(lost))) = tx.send(Mail::Many(burst)) {
                self.shared.inflight.fetch_sub(claims, Ordering::SeqCst);
                let lost = lost.into_iter().filter_map(|(_, item)| self.shared.abandon(item));
                self.shared.sessions.notify(lost);
            }
        }
    }

    /// Issues a lock request at `node` of namespace 0, to be granted
    /// when the protocol admits it to the critical section. Returns
    /// immediately with the request's identity.
    pub fn acquire(&self, node: NodeId) -> RequestId {
        self.acquire_in(0, node)
    }

    /// Issues a lock request at `node` (namespace-local id) of namespace
    /// `ns`.
    ///
    /// # Panics
    ///
    /// Panics if `ns` or `node` is out of range.
    pub fn acquire_in(&self, ns: usize, node: NodeId) -> RequestId {
        self.submit(ns, node, false, None)
    }

    /// Issues a lock request whose completion notice is delivered to
    /// `watcher` — the closed-loop client primitive. With `auto_release`
    /// the critical section exits immediately after entry (no wall-clock
    /// lease), so the completion arrives as fast as the protocol can
    /// cycle the lock.
    ///
    /// # Panics
    ///
    /// Panics if `ns` or `node` is out of range.
    pub fn acquire_watched(
        &self,
        ns: usize,
        node: NodeId,
        watcher: &Watcher,
        auto_release: bool,
    ) -> RequestId {
        self.submit(ns, node, auto_release, Some(watcher.tx.clone()))
    }

    /// The one body of every immediate acquire: issue the ticket, send it
    /// to its node.
    fn submit(
        &self,
        ns: usize,
        node: NodeId,
        auto_release: bool,
        watcher: Option<Sender<Completion>>,
    ) -> RequestId {
        let global = self.global_of(ns, node);
        let now = self.shared.nanos_at(Instant::now());
        let ticket = self.shared.sessions.open(ns, global, now, auto_release, watcher);
        let id = ticket.id;
        self.send_direct(global, NodeCmd::Acquire(ticket));
        id
    }

    /// Opens a completion stream for [`Runtime::acquire_watched`].
    #[must_use]
    pub fn watcher(&self) -> Watcher {
        let (tx, rx) = channel();
        Watcher { tx, rx }
    }

    /// Releases a granted request early (before its lease expires).
    /// Ignored unless `id` currently holds its node's critical section.
    pub fn release(&self, id: RequestId) {
        if self.namespace_of(id).is_some() {
            self.send_direct(id.node(), NodeCmd::Release(id));
        }
    }

    /// Fail-stops `node` (global id) now.
    pub fn crash(&self, node: NodeId) {
        self.assert_node(node);
        self.send_direct(node, NodeCmd::Crash);
    }

    /// Recovers `node` (global id) now.
    pub fn recover(&self, node: NodeId) {
        self.assert_node(node);
        self.send_direct(node, NodeCmd::Recover);
    }

    /// Converts a tick timestamp into the wall-clock instant it maps to.
    fn instant_of(&self, at: SimTime) -> Instant {
        self.shared.epoch + ticks_to_wall(at.ticks(), self.config.tick)
    }

    /// Schedules every arrival of `schedule` (tick timestamps mapped
    /// through the configured `tick`, nodes addressed by global id),
    /// returning the request ids in schedule order — the same generators
    /// (`oc_sim::workload`) drive both the simulator and the runtime.
    pub fn schedule_workload(&self, schedule: &ArrivalSchedule) -> Vec<RequestId> {
        let mut ids = Vec::with_capacity(schedule.len());
        let mut later = Vec::with_capacity(schedule.len());
        for (at, node) in schedule.arrivals() {
            self.assert_node(*node);
            let due = ticks_to_wall(at.ticks(), self.config.tick);
            let t0 = u64::try_from(due.as_nanos()).unwrap_or(u64::MAX);
            let ticket =
                self.shared.sessions.open(self.shared.ns_of(*node), *node, t0, false, None);
            ids.push(ticket.id);
            let cmd = NodeCmd::Acquire(ticket);
            later.push((self.shared.epoch + due, Targeted { to: *node, cmd }));
        }
        self.send_later(later);
        ids
    }

    /// Schedules the crash (and optional recovery) events of `plan`,
    /// tick timestamps mapped through the configured `tick`, nodes
    /// addressed by global id — the same `FailurePlan` the simulator
    /// consumes.
    pub fn schedule_failures(&self, plan: &FailurePlan) {
        let mut later = Vec::new();
        for ev in plan.events() {
            later.push((self.instant_of(ev.at), Targeted { to: ev.node, cmd: NodeCmd::Crash }));
            if let Some(recover_at) = ev.recover_at {
                let cmd = NodeCmd::Recover;
                later.push((self.instant_of(recover_at), Targeted { to: ev.node, cmd }));
            }
        }
        self.send_later(later);
    }

    /// Critical sections completed so far, summed over all namespaces.
    #[must_use]
    pub fn cs_entries(&self) -> u64 {
        self.shared.cs_entries.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Critical sections completed by namespace `ns` so far.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is out of range.
    #[must_use]
    pub fn cs_entries_in(&self, ns: usize) -> u64 {
        self.shared.cs_entries[ns].load(Ordering::Relaxed)
    }

    /// Clones the full latency histogram.
    #[must_use]
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.shared.sessions.histogram().clone()
    }

    /// Blocks until at least `count` critical sections completed or the
    /// timeout elapses; returns whether the count was reached.
    #[must_use]
    pub fn await_cs_entries(&self, count: u64, timeout: Duration) -> bool {
        poll_until(timeout, || self.cs_entries() >= count)
    }

    /// `true` if nothing is in flight, every request has ended, and
    /// every live node is idle — the runtime's quiescence predicate
    /// (the analogue of the simulator's drained event queue).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.shared.inflight.load(Ordering::SeqCst) == 0
            && self.shared.sessions.all_ended()
            && self.shared.idle.iter().all(|flag| flag.load(Ordering::SeqCst))
            // Re-check: a command processed between the first check and
            // the idle scan would have been visible as in-flight (workers
            // publish idle flags before releasing in-flight claims).
            && self.shared.inflight.load(Ordering::SeqCst) == 0
    }

    /// Polls [`Runtime::settled`] until it holds or `timeout` elapses.
    #[must_use]
    pub fn await_settled(&self, timeout: Duration) -> bool {
        poll_until(timeout, || self.settled())
    }

    /// Stops the service and returns the final report: every worker is
    /// joined, whatever it still held queued, delayed or armed is
    /// discarded, and every request still live is ended (waiting ones
    /// `Abandoned`, granted ones `Completed`). Each namespace is judged
    /// separately — its own safety oracle, terminal token census, and
    /// liveness horizon — and the verdicts fold into one report; call
    /// [`Runtime::await_settled`] first if the run is supposed to have
    /// converged.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeReport {
        let wall = self.shared.epoch.elapsed();
        let horizon_ticks = self.shared.sim_now();
        let drained = self.settled();
        let exits = self.stop_threads();
        let shared = &self.shared;

        // Fold what the workers hand back: their nodes in global order,
        // one sum of their statistics, and per namespace the token
        // messages sent and never received — the ones still in flight
        // (nonzero only on a forced shutdown).
        let mut slots: Vec<Slot<P>> = Vec::with_capacity(self.n);
        let mut metrics = Metrics::default();
        let mut tokens_afloat = vec![0i64; shared.ns.len()];
        for exit in exits {
            slots.extend(exit.slots);
            metrics.merge(&exit.metrics);
            for (sum, tally) in tokens_afloat.iter_mut().zip(exit.tokens_afloat) {
                *sum += tally;
            }
        }
        assert_eq!(slots.len(), self.n, "a worker panicked; its shard's final state is lost");
        slots.sort_by_key(|slot| slot.seat.idx);
        // The requests the cut found at their nodes. (Those still on
        // their way were ended by their worker's Stop.)
        for slot in &mut slots {
            slot.seat.vacate(|ns, ticket, status| shared.sessions.end(ns, ticket, status));
        }

        // Judge each namespace with its own oracles, then fold. The
        // terminal token census counts live holders plus tokens still in
        // flight; the *safety* census counts only holders at the
        // namespace's highest witnessed epoch — a fenced-out stale token
        // awaiting discard is the current token's predecessor, not a
        // duplicate (identical to the total under `Hardening::None`,
        // where every epoch is 0).
        let events = metrics.events_processed;
        let mut safety = OracleReport::default();
        let mut liveness = LivenessReport::default();
        let mut census_total = 0usize;
        let (mut cs_total, mut injected, mut completed, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
        for (k, meta) in shared.ns.iter().enumerate() {
            let lo = meta.offset as usize;
            let span = &slots[lo..lo + meta.len as usize];
            let live_held = || span.iter().filter(|s| !s.seat.crashed && s.node.holds_token());
            let holders = live_held().count();
            let max_epoch = live_held().map(|s| s.node.token_epoch()).max().unwrap_or(0);
            let holders_at_max = live_held().filter(|s| s.node.token_epoch() == max_epoch).count();
            let in_flight = usize::try_from(tokens_afloat[k])
                .expect("a token message was received more often than it was sent");
            let census = holders + in_flight;
            census_total += census;
            let served = shared.cs_entries[k].load(Ordering::Relaxed);
            cs_total += served;
            let (ns_injected, ns_completed, ns_abandoned) = shared.sessions.counts(k);
            injected += ns_injected;
            completed += ns_completed;
            abandoned += ns_abandoned;
            // Partition awareness at the shutdown horizon, mirroring the
            // simulator's `World::horizon` (scripts exist
            // only in single-namespace runs; elsewhere this is one
            // healed component). Waiting requests were just ended as
            // `abandoned`, so `unreachable` stays 0.
            let isolated = isolation_at(&shared.script, horizon_ticks, drained, span, census);
            let horizon = Horizon {
                drained,
                events,
                injected: ns_injected,
                served,
                abandoned: ns_abandoned,
                unreachable: 0,
                live_token_census: census,
                nodes: span
                    .iter()
                    .enumerate()
                    .map(|(j, Slot { node, seat })| NodeAtHorizon {
                        node: NodeId::new(j as u32 + 1),
                        alive: !seat.crashed,
                        idle: node.is_idle(),
                        recovered: seat.recovered_ever,
                        isolated: isolated[j],
                        quorum_blocked: !seat.crashed && node.quorum_blocked(),
                    })
                    .collect(),
            };
            liveness.absorb(check_horizon(&horizon));
            let mut oracle = shared.lock_monitor(k);
            oracle.token_census(shared.sim_now(), holders_at_max + in_flight);
            safety.absorb(oracle.report().clone());
        }

        RuntimeReport {
            cs_entries: cs_total,
            messages_sent: metrics.total_sent(),
            events_processed: events,
            requests_injected: injected,
            requests_completed: completed,
            requests_abandoned: abandoned,
            crashes: metrics.crashes,
            recoveries: metrics.recoveries,
            lost_to_crashes: metrics.lost_to_crashes,
            lost_to_faults: metrics.lost_to_faults,
            lost_to_partition: metrics.lost_to_partition,
            duplicated_deliveries: metrics.duplicated_deliveries,
            terminal_token_census: census_total,
            namespaces: shared.ns.len(),
            drained,
            safety,
            liveness,
            latency: shared.sessions.histogram().summary(),
            wall,
        }
    }
}

/// Polls `done` every 500 µs until it holds or `timeout` elapses;
/// returns whether it held.
fn poll_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return done();
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

impl<P: Protocol> Runtime<P> {
    /// Stops the workers and joins them — mailbox FIFO means commands
    /// that were due on arrival are processed before the worker's Stop;
    /// what sits in its delay queue or timer set is discarded.
    /// Idempotent: joined handles are taken, so a second call is a no-op
    /// returning nothing.
    fn stop_threads(&mut self) -> Vec<WorkerExit<P>> {
        if self.worker_handles.is_empty() {
            return Vec::new();
        }
        for tx in &self.worker_txs {
            self.shared.inflight.fetch_add(1, Ordering::SeqCst);
            if tx.send(Mail::One(Targeted { to: NodeId::new(1), cmd: NodeCmd::Stop })).is_err() {
                self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // A panicked worker yields nothing; shutdown() notices the
        // missing nodes and panics loudly there — panicking here would
        // abort the process when stop runs during unwinding.
        self.worker_handles.drain(..).filter_map(|handle| handle.join().ok()).collect()
    }
}

/// Dropping a runtime without [`Runtime::shutdown`] (an early return, a
/// panicking test) must not strand the worker threads: every worker
/// holds a sender to every mailbox, its own included, so nobody would
/// ever observe disconnection. Drop performs the same stop sequence and
/// discards the final states.
impl<P: Protocol> Drop for Runtime<P> {
    fn drop(&mut self) {
        let _ = self.stop_threads();
    }
}

// --------------------------------------------------------------------
// Workers
// --------------------------------------------------------------------

/// One node within its worker's shard: the protocol state machine and,
/// apart from it (the engine borrows the two separately), its seat in
/// the substrate.
struct Slot<P> {
    node: P,
    seat: Seat,
}

/// One node's substrate state, written only by the worker that owns it.
struct Seat {
    /// Global zero-based index (namespace offset + local index).
    idx: usize,
    /// Position in the owning worker's shard (`idx / workers`) — also the
    /// node's owner id in that worker's [`DeadlineSet`].
    pos: u32,
    /// Namespace this node belongs to.
    ns: usize,
    /// The namespace's global offset: local id = global id − offset.
    ns_offset: u32,
    crashed: bool,
    recovered_ever: bool,
    lease: u64,
    /// Requests that reached the node and wait for its critical section,
    /// oldest first — grant order is per-node FIFO, like the simulator's
    /// pending-request store.
    pending: VecDeque<Ticket>,
    /// The request inside the critical section, if any.
    current: Option<Ticket>,
}

impl Seat {
    /// The node's global id — what commands are addressed by.
    fn global(&self) -> NodeId {
        NodeId::new(self.idx as u32 + 1)
    }

    /// The node's namespace-local id — what the protocol state machine
    /// and the namespace's oracle speak.
    fn local(&self) -> NodeId {
        NodeId::new(self.global().get() - self.ns_offset)
    }

    /// Ends every request at the node through `end(ns, ticket, status)`,
    /// at its crash or at shutdown: the waiting ones will never be
    /// served; the granted one's critical section was, however abruptly
    /// it ended.
    fn vacate(&mut self, mut end: impl FnMut(usize, Ticket, RequestStatus)) {
        for ticket in self.pending.drain(..) {
            end(self.ns, ticket, RequestStatus::Abandoned);
        }
        if let Some(ticket) = self.current.take() {
            end(self.ns, ticket, RequestStatus::Completed);
        }
    }

    /// `true` while the node sits in the critical section on behalf of a
    /// request that does not wait out a lease.
    fn serving_auto(&self) -> bool {
        self.current.as_ref().is_some_and(|ticket| ticket.auto_release)
    }
}

/// What a worker hands back when it is joined: everything only it wrote.
struct WorkerExit<P> {
    slots: Vec<Slot<P>>,
    metrics: Metrics,
    tokens_afloat: Vec<i64>,
}

/// A command in a worker's delay queue. The sequence number keeps
/// commands due at the same instant in the order they were filed.
struct Delayed<M> {
    deliver_at: Instant,
    seq: u64,
    item: Targeted<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// Everything a worker owns besides its nodes: the network, timer
/// service and lease clock of exactly those nodes, and the books it
/// settles once per batch.
struct Worker<'a, M> {
    /// This worker's index: it owns the nodes with `idx % workers == me`.
    me: usize,
    shared: &'a Shared,
    config: &'a RuntimeConfig,
    /// Every worker's mailbox, this one's included.
    mailboxes: &'a [Sender<Mail<M>>],
    rng: StdRng,
    /// Messages, events, losses, crashes and recoveries of this worker's
    /// nodes; summed over the workers at shutdown.
    metrics: Metrics,
    /// Per namespace, token-carrying messages this worker sent minus
    /// those it received (or discarded): summed over the workers, the
    /// tokens in flight — the runtime's share of each namespace's
    /// live-token census.
    tokens_afloat: Vec<i64>,
    /// The batch: commands that are due, in processing order.
    queue: VecDeque<Targeted<M>>,
    /// The delay queue: commands for this worker's nodes that are not
    /// due yet, earliest first.
    delayed: BinaryHeap<Reverse<Delayed<M>>>,
    next_seq: u64,
    /// Deadlines of the live timers of this worker's nodes (owner =
    /// [`Slot::pos`]).
    timers: DeadlineSet,
    /// Commands for the other workers' nodes, per destination worker,
    /// sent as one [`Mail::Many`] each when the batch is settled.
    outgoing: Vec<Vec<(Instant, Targeted<M>)>>,
    /// In-flight claims the batch owes for what it created: commands
    /// filed or buffered, timers newly armed.
    claims_taken: u64,
    /// In-flight claims the batch is done with: commands processed or
    /// discarded, timers fired, cancelled or lost to a crash.
    claims_released: u64,
    /// Notices of the requests the batch ended, in the order they ended;
    /// sent when the batch is settled. The buffer keeps its capacity.
    notices: Vec<Notice>,
    /// The one clock reading of the command or timer firing being run:
    /// every deadline and stamp it produces derives from it.
    now: Instant,
}

impl<M: MessageKind> Worker<'_, M> {
    /// The instant the earliest delayed command or live timer is due.
    fn next_due(&self) -> Option<Instant> {
        let delayed = self.delayed.peek().map(|Reverse(d)| d.deliver_at);
        match (delayed, self.timers.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn delay(&mut self, deliver_at: Instant, item: Targeted<M>) {
        self.next_seq += 1;
        self.delayed.push(Reverse(Delayed { deliver_at, seq: self.next_seq, item }));
    }

    /// Takes in one piece of mail: what is due now joins the batch, what
    /// carries a delivery instant goes to the delay queue.
    fn accept(&mut self, mail: Mail<M>) {
        match mail {
            Mail::One(item) => self.queue.push_back(item),
            Mail::Many(items) => {
                for (deliver_at, item) in items {
                    self.delay(deliver_at, item);
                }
            }
        }
    }

    /// Sends `cmd` on its way to node `to` (global id), due at
    /// `deliver_at`: into this worker's own delay queue if the node is
    /// one of its own — no channel at all — and otherwise into the
    /// destination worker's outgoing burst.
    fn post(&mut self, deliver_at: Instant, to: NodeId, cmd: NodeCmd<M>) {
        self.claims_taken += 1;
        let w = (to.zero_based() as usize) % self.config.workers;
        let item = Targeted { to, cmd };
        if w == self.me {
            self.delay(deliver_at, item);
        } else {
            self.outgoing[w].push((deliver_at, item));
        }
    }

    /// Puts one copy of a message of namespace `ns` on the wire, under
    /// its own random delay from the current command's clock reading.
    fn transmit(&mut self, ns: usize, to: NodeId, from: NodeId, msg: M) {
        let max = u64::try_from(self.config.max_network_delay.as_nanos()).unwrap_or(u64::MAX);
        let delay = Duration::from_nanos(self.rng.random_range(0..=max));
        self.tokens_afloat[ns] += i64::from(msg.carries_token());
        self.post(self.now + delay, to, NodeCmd::Deliver { from, msg });
    }

    /// Ends a request of namespace `ns`. Its notice waits in the batch's
    /// buffer until [`Worker::settle`] sends it.
    fn end(&mut self, ns: usize, ticket: Ticket, status: RequestStatus) {
        self.notices.push(self.shared.sessions.close(ns, ticket, status));
    }

    /// A command that will never be processed gives up its in-flight
    /// claim, leaves its namespace's token census if it carried the
    /// token, and abandons the request it carried, if any.
    fn discard(&mut self, item: Targeted<M>) {
        self.claims_released += 1;
        if let NodeCmd::Deliver { msg, .. } = &item.cmd {
            if msg.carries_token() {
                self.tokens_afloat[self.shared.ns_of(item.to)] -= 1;
            }
        }
        self.notices.extend(self.shared.abandon(item));
    }

    /// Stop: nothing this worker still holds will ever be processed —
    /// its batch, its delay queue, its live timers, and whatever is
    /// still in its mailbox.
    fn discard_all(&mut self, rx: &Receiver<Mail<M>>) {
        while let Ok(mail) = rx.try_recv() {
            self.accept(mail);
        }
        let delayed = std::mem::take(&mut self.delayed).into_iter().map(|Reverse(d)| d.item);
        for item in std::mem::take(&mut self.queue).into_iter().chain(delayed) {
            self.discard(item);
        }
        self.claims_released += self.timers.len() as u64;
        self.timers = DeadlineSet::new();
    }

    /// Settles a batch. In order: the claims of everything the batch
    /// created are taken, *then* the other workers get their bursts; the
    /// idle flags of the nodes the batch touched are published; the
    /// batch's completion notices are sent, each request's live count let
    /// go only after its notice; *then* the claims the batch is done with
    /// are released — so [`Runtime::settled`] never observes a zero
    /// in-flight count while a command, a live timer, an unpublished flag
    /// or an unsent notice exists.
    fn settle(&mut self, idle: impl Iterator<Item = (usize, bool)>) {
        let shared = self.shared;
        if self.claims_taken != 0 {
            shared.inflight.fetch_add(self.claims_taken, Ordering::SeqCst);
            self.claims_taken = 0;
        }
        let mailboxes = self.mailboxes;
        for (w, mailbox) in mailboxes.iter().enumerate() {
            if self.outgoing[w].is_empty() {
                continue;
            }
            let burst = std::mem::take(&mut self.outgoing[w]);
            if let Err(SendError(Mail::Many(lost))) = mailbox.send(Mail::Many(burst)) {
                // That worker has exited (shutdown): the burst dies here.
                lost.into_iter().for_each(|(_, item)| self.discard(item));
            }
        }
        for (idx, flag) in idle {
            shared.idle[idx].store(flag, Ordering::SeqCst);
        }
        shared.sessions.notify(self.notices.drain(..));
        if self.claims_released != 0 {
            shared.inflight.fetch_sub(self.claims_released, Ordering::SeqCst);
            self.claims_released = 0;
        }
    }
}

/// One node's substrate effects: the runtime's [`ActionSink`], filing
/// the engine's actions with the node's [`Worker`] under real-time
/// deadlines. The deliver→step→collect-actions loop itself lives in
/// [`oc_sim::drive`] — the same code path the simulator runs. Node ids
/// crossing this sink are namespace-local (the protocol's view);
/// posting converts to global ids.
struct ThreadSink<'a, 'w, M> {
    worker: &'a mut Worker<'w, M>,
    seat: &'a mut Seat,
}

impl<M: MessageKind + Clone + Send + 'static> ActionSink<M> for ThreadSink<'_, '_, M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let (ns, to_global) = (self.seat.ns, NodeId::new(to.get() + self.seat.ns_offset));
        let worker = &mut *self.worker;
        let shared = worker.shared;
        worker.metrics.record_send(msg.kind());
        // Decide-before-act, identical to the simulator's `Core::send`:
        // the script decides the message's fate before any copy is
        // enqueued, so a drop destroys the logical send outright. A
        // runtime started without a script skips the check entirely.
        match shared.fate(worker.now, from, to, msg.carries_token(), &mut worker.rng) {
            LinkFate::Deliver => {}
            LinkFate::DropPartition => {
                worker.metrics.lost_to_partition += 1;
                return;
            }
            LinkFate::DropLoss => {
                worker.metrics.lost_to_faults += 1;
                return;
            }
            LinkFate::DeliverAndDuplicate => {
                worker.metrics.duplicated_deliveries += 1;
                worker.transmit(ns, to_global, from, msg.clone());
            }
        }
        worker.transmit(ns, to_global, from, msg);
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let (worker, seat) = (&mut *self.worker, &mut *self.seat);
        let (shared, now) = (worker.shared, worker.now);
        seat.lease += 1;
        shared.lock_monitor(seat.ns).enter_cs(shared.ticks_at(now), node, token_epoch);
        shared.cs_entries[seat.ns].fetch_add(1, Ordering::Relaxed);
        // The node's oldest waiting request is the one being served (a
        // node may also enter with no request of ours waiting).
        seat.current = seat.pending.pop_front();
        if let Some(ticket) = &seat.current {
            shared.sessions.histogram().record(shared.nanos_at(now).saturating_sub(ticket.t0));
        }
        // Auto-release requests skip the wall-clock lease: the worker
        // exits the CS immediately after this command (`drain_auto`),
        // so no ExitLease is ever filed for them.
        if !seat.serving_auto() {
            let expiry = now + worker.config.cs_duration;
            worker.post(expiry, seat.global(), NodeCmd::ExitLease { lease: seat.lease });
        }
    }

    fn set_timer(&mut self, _node: NodeId, timer_id: u64, delay: SimDuration) {
        let worker = &mut *self.worker;
        let deadline = worker.now + ticks_to_wall(delay.ticks(), worker.config.tick);
        // A re-arm inherits the claim of the arming it supersedes.
        if !worker.timers.arm(self.seat.pos, timer_id, deadline) {
            worker.claims_taken += 1;
        }
    }

    fn cancel_timer(&mut self, _node: NodeId, timer_id: u64) {
        if self.worker.timers.cancel(self.seat.pos, timer_id) {
            self.worker.claims_released += 1;
        }
    }
}

/// One worker's thread. Sleeps until mail arrives or the earliest thing
/// it holds itself — a delayed command, a live timer — falls due; then
/// runs everything that is due through the shared engine driver as one
/// batch and settles the batch's books ([`Worker::settle`]). Returns the
/// shard and the worker's own books for the shutdown fold.
fn worker_main<P: Protocol + Send + 'static>(
    me: usize,
    mut slots: Vec<Slot<P>>,
    rx: Receiver<Mail<P::Msg>>,
    mailboxes: Vec<Sender<Mail<P::Msg>>>,
    shared: Arc<Shared>,
    config: RuntimeConfig,
) -> WorkerExit<P> {
    let workers = config.workers;
    let mut worker = Worker {
        me,
        shared: &shared,
        config: &config,
        mailboxes: &mailboxes,
        rng: StdRng::seed_from_u64(
            config.seed
                ^ slots
                    .first()
                    .map_or(0, |s| (s.seat.idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        metrics: Metrics::default(),
        tokens_afloat: vec![0; shared.ns.len()],
        queue: VecDeque::new(),
        delayed: BinaryHeap::new(),
        next_seq: 0,
        timers: DeadlineSet::new(),
        outgoing: (0..workers).map(|_| Vec::new()).collect(),
        claims_taken: 0,
        claims_released: 0,
        notices: Vec::new(),
        now: Instant::now(),
    };
    let mut out: Outbox<P::Msg> = Outbox::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut stopping = false;

    while !stopping {
        match worker.next_due() {
            None => match rx.recv() {
                Ok(mail) => worker.accept(mail),
                Err(_) => break,
            },
            Some(due) => {
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    match rx.recv_timeout(wait) {
                        Ok(mail) => worker.accept(mail),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        }
        // Opportunistic burst: top the batch up from whatever is already
        // in the mailbox, without blocking.
        while worker.queue.len() < BATCH {
            match rx.try_recv() {
                Ok(mail) => worker.accept(mail),
                Err(_) => break,
            }
        }
        // Delayed commands that have fallen due join the batch. A worker
        // with nothing delayed and nothing armed reads the clock only for
        // the commands it runs, once each.
        let now = (!worker.delayed.is_empty() || !worker.timers.is_empty()).then(Instant::now);
        if let Some(now) = now {
            while worker.delayed.peek().is_some_and(|Reverse(d)| d.deliver_at <= now) {
                let Reverse(due) = worker.delayed.pop().expect("peeked");
                worker.queue.push_back(due.item);
            }
        }
        touched.clear();
        while let Some(Targeted { to, cmd }) = worker.queue.pop_front() {
            worker.claims_released += 1;
            if matches!(cmd, NodeCmd::Stop) {
                stopping = true;
                worker.discard_all(&rx);
                break;
            }
            worker.metrics.events_processed += 1;
            worker.now = Instant::now();
            let pos = (to.zero_based() as usize) / workers;
            let slot = &mut slots[pos];
            debug_assert_eq!(slot.seat.global(), to, "misrouted command");
            process(slot, cmd, &mut out, &mut worker);
            drain_auto(slot, &mut out, &mut worker);
            touched.push(pos);
        }
        // Due timers fire after the batch's commands, one at a time and
        // each taken from the live set at the moment it fires: one that
        // an earlier command or timer of this batch cancelled is gone.
        while let Some((pos, timer_id)) = now.and_then(|now| worker.timers.pop_due(now)) {
            worker.claims_released += 1;
            worker.metrics.events_processed += 1;
            worker.now = Instant::now();
            let slot = &mut slots[pos as usize];
            debug_assert!(!slot.seat.crashed, "a crash clears the node's timers");
            drive_slot(slot, Some(NodeEvent::Timer(timer_id)), &mut out, &mut worker);
            drain_auto(slot, &mut out, &mut worker);
            touched.push(pos as usize);
        }
        touched.sort_unstable();
        touched.dedup();
        worker.settle(touched.iter().map(|&pos| {
            let Slot { node, seat } = &slots[pos];
            (seat.idx, seat.crashed || node.is_idle())
        }));
    }
    let Worker { metrics, tokens_afloat, .. } = worker;
    WorkerExit { slots, metrics, tokens_afloat }
}

/// Feeds one event through the shared engine driver (`None` runs the
/// recovery hook instead), the node's seat and worker as its sink.
fn drive_slot<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    event: Option<NodeEvent<P::Msg>>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let mut sink = ThreadSink { worker, seat: &mut slot.seat };
    match event {
        Some(event) => drive(&mut slot.node, event, out, &mut sink),
        None => drive_recovery(&mut slot.node, out, &mut sink),
    }
}

/// Exits the CS for as long as the node sits inside it on behalf of an
/// auto-release request — the closed-loop fast path: grant and exit
/// happen within one worker dispatch, no ExitLease is ever filed. Loops
/// because an exit can immediately re-grant the next queued request,
/// which may itself be auto-release.
fn drain_auto<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    while !slot.seat.crashed && slot.node.in_cs() && slot.seat.serving_auto() {
        exit_cs(slot, out, worker);
    }
}

/// Executes one command against its node. The protocol and the
/// namespace's monitor speak the node's namespace-local id.
fn process<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    cmd: NodeCmd<P::Msg>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let shared = worker.shared;
    let seat = &mut slot.seat;
    let local = seat.local();
    match cmd {
        NodeCmd::Stop => unreachable!("handled by the worker loop"),
        NodeCmd::Deliver { from, msg } => {
            worker.tokens_afloat[seat.ns] -= i64::from(msg.carries_token());
            if seat.crashed {
                // Fail-stop: everything delivered while down is lost.
                worker.metrics.lost_to_crashes += 1;
                return;
            }
            drive_slot(slot, Some(NodeEvent::Deliver { from, msg }), out, worker);
        }
        NodeCmd::Acquire(ticket) => {
            if seat.crashed {
                // The application on a crashed node cannot request; the
                // injection is abandoned, never served.
                worker.end(seat.ns, ticket, RequestStatus::Abandoned);
                return;
            }
            seat.pending.push_back(ticket);
            drive_slot(slot, Some(NodeEvent::RequestCs), out, worker);
        }
        NodeCmd::Release(id) => {
            let holds = seat.current.as_ref().is_some_and(|ticket| ticket.id == id);
            if holds && !seat.crashed && slot.node.in_cs() {
                exit_cs(slot, out, worker);
            }
        }
        NodeCmd::ExitLease { lease } => {
            // Stale leases (superseded by a later CS entry, or by a
            // crash) are dropped — the runtime's analogue of the
            // simulator purging a dead CS's scheduled exit.
            if !seat.crashed && lease == seat.lease && slot.node.in_cs() {
                exit_cs(slot, out, worker);
            }
        }
        NodeCmd::Crash => {
            if seat.crashed {
                return;
            }
            seat.crashed = true;
            worker.metrics.crashes += 1;
            shared.lock_monitor(seat.ns).exit_cs(local);
            // All volatile node state is lost — including the
            // application's requests (a granted one's lease is
            // invalidated below) — and the node's timers leave the
            // worker's deadline set, claims and all.
            seat.vacate(|ns, ticket, status| worker.end(ns, ticket, status));
            slot.node.on_crash();
            worker.claims_released += worker.timers.clear_owner(seat.pos) as u64;
            seat.lease += 1;
        }
        NodeCmd::Recover => {
            if !seat.crashed {
                return;
            }
            seat.crashed = false;
            seat.recovered_ever = true;
            worker.metrics.recoveries += 1;
            drive_slot(slot, None, out, worker);
        }
    }
}

/// Partition awareness for one namespace's shutdown horizon — the same
/// policy as the simulator's `World::horizon`, through the
/// shared [`oc_sim::isolation_from_components`]. `span` is the
/// namespace's contiguous slice of the (index-sorted) final states; the
/// result is positional over that slice. `census` is the namespace's
/// terminal live-token census. Fault scripts exist only in
/// single-namespace runs, so other namespaces see one healed component.
fn isolation_at<P: Protocol>(
    script: &CompiledScript,
    at: SimTime,
    drained: bool,
    span: &[Slot<P>],
    census: usize,
) -> Vec<bool> {
    let n = span.len();
    let alive: Vec<bool> = span.iter().map(|s| !s.seat.crashed).collect();
    let holders: Vec<bool> = span.iter().map(|s| !s.seat.crashed && s.node.holds_token()).collect();
    isolation_from_components(
        script.components_at_horizon(at, n, drained),
        &alive,
        &holders,
        census,
    )
}

/// The shared CS-exit path (lease expiry, early release, auto-release).
fn exit_cs<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let shared = worker.shared;
    let seat = &mut slot.seat;
    let local = seat.local();
    shared.lock_monitor(seat.ns).exit_cs(local);
    if let Some(ticket) = seat.current.take() {
        worker.end(seat.ns, ticket, RequestStatus::Completed);
    }
    drive_slot(slot, Some(NodeEvent::ExitCs), out, worker);
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_algo::{Config, OpenCubeNode};
    use oc_sim::SimDuration;

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { workers, ..RuntimeConfig::default() }
    }

    fn protocol(n: usize) -> Config {
        // δ = 40 ticks × 50µs = 2ms ≥ 1ms max network delay.
        Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
            .with_contention_slack(SimDuration::from_ticks(20_000))
    }

    fn rt(n: usize, workers: usize) -> Runtime<OpenCubeNode> {
        Runtime::start(config(workers), OpenCubeNode::build_all(protocol(n)))
    }

    #[test]
    fn serves_requests_across_worker_pool() {
        let rt = rt(8, 3);
        assert_eq!(rt.workers(), 3);
        for i in 1..=8u32 {
            let _ = rt.acquire(NodeId::new(i));
        }
        assert!(rt.await_cs_entries(8, Duration::from_secs(30)));
        assert!(rt.await_settled(Duration::from_secs(30)));
        let report = rt.shutdown();
        assert_eq!(report.cs_entries, 8);
        assert_eq!(report.requests_completed, 8);
        assert_eq!(report.requests_abandoned, 0);
        assert!(report.drained);
        assert!(report.is_clean(), "oracles: {report:?}");
        assert!(report.mutual_exclusion_held());
        assert!(report.messages_sent > 0);
        assert_eq!(report.terminal_token_census, 1);
        assert_eq!(report.namespaces, 1);
        assert_eq!(report.latency.count, 8);
        assert!(report.latency.p50_nanos <= report.latency.p99_nanos);
    }

    #[test]
    fn survives_crash_and_recovery_of_the_holder() {
        let rt = rt(8, 4);
        let first = rt.acquire(NodeId::new(5));
        assert!(rt.await_cs_entries(1, Duration::from_secs(30)));
        // Crash the node that now holds the token.
        rt.crash(NodeId::new(5));
        std::thread::sleep(Duration::from_millis(20));
        rt.recover(NodeId::new(5));
        // The system must keep serving.
        let _ = rt.acquire(NodeId::new(2));
        let _ = rt.acquire(NodeId::new(7));
        assert!(rt.await_cs_entries(3, Duration::from_secs(60)));
        assert!(rt.await_settled(Duration::from_secs(60)));
        let report = rt.shutdown();
        assert!(report.is_clean(), "oracles: {report:?}");
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(rt_status(&report), (3, 0));
        let _ = first;
    }

    fn rt_status(report: &RuntimeReport) -> (u64, u64) {
        (report.requests_completed, report.requests_abandoned)
    }

    #[test]
    fn shutdown_is_clean_when_idle() {
        let rt = rt(2, 1);
        let report = rt.shutdown();
        assert_eq!(report.cs_entries, 0);
        assert!(report.drained);
        assert!(report.is_clean(), "oracles: {report:?}");
    }

    #[test]
    fn abandoned_and_recovered_are_accounted() {
        // The PR-3 accounting parity: a request pending at its node's
        // crash is abandoned (not silently dropped, not counted served),
        // and recoveries are reported.
        let mut cfg = config(2);
        // A long lease keeps node 1 inside the CS while node 6 crashes,
        // so node 6's request is provably still pending at the crash.
        cfg.cs_duration = Duration::from_millis(300);
        let rt = Runtime::start(cfg, OpenCubeNode::build_all(protocol(8)));
        // Occupy the lock from node 1 so node 6's request stays pending.
        let watcher = rt.watcher();
        let holder = rt.acquire_watched(0, NodeId::new(1), &watcher, false);
        assert!(rt.await_cs_entries(1, Duration::from_secs(30)));
        let doomed = rt.acquire_watched(0, NodeId::new(6), &watcher, false);
        // Give the acquire time to reach node 6, then kill the node.
        std::thread::sleep(Duration::from_millis(10));
        rt.crash(NodeId::new(6));
        std::thread::sleep(Duration::from_millis(10));
        rt.recover(NodeId::new(6));
        assert!(rt.await_settled(Duration::from_secs(60)));
        // Settled: both notices are in, the crash's before the lease's.
        assert_eq!(watcher.try_recv(), Some((doomed, RequestStatus::Abandoned)));
        assert_eq!(watcher.try_recv(), Some((holder, RequestStatus::Completed)));
        let report = rt.shutdown();
        assert_eq!(report.requests_injected, 2);
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.requests_abandoned, 1);
        assert_eq!(report.recoveries, 1);
        assert!(report.is_clean(), "oracles: {report:?}");
    }

    #[test]
    fn early_release_ends_the_lease() {
        let mut cfg = config(2);
        cfg.cs_duration = Duration::from_secs(5); // lease far in the future
        let proto = Config::new(4, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
            .with_contention_slack(SimDuration::from_ticks(200_000));
        let rt = Runtime::start(cfg, OpenCubeNode::build_all(proto));
        let watcher = rt.watcher();
        let id = rt.acquire_watched(0, NodeId::new(2), &watcher, false);
        assert!(rt.await_cs_entries(1, Duration::from_secs(10)));
        assert_eq!(watcher.try_recv(), None, "granted, and the lease has 5s to run");
        let released = Instant::now();
        rt.release(id);
        assert_eq!(
            watcher.recv_timeout(Duration::from_secs(4)),
            Some((id, RequestStatus::Completed))
        );
        assert!(released.elapsed() < Duration::from_secs(4), "the release did it, not the lease");
        let report = rt.shutdown();
        assert_eq!(report.requests_completed, 1);
        assert!(report.mutual_exclusion_held());
    }

    #[test]
    fn scheduled_workload_and_failures_run() {
        let mut cfg = config(4);
        cfg.tick = Duration::from_micros(20);
        cfg.max_network_delay = Duration::from_micros(400);
        cfg.cs_duration = Duration::from_micros(200);
        let proto = Config::new(8, SimDuration::from_ticks(40), SimDuration::from_ticks(10))
            .with_contention_slack(SimDuration::from_ticks(20_000));
        let rt = Runtime::start(cfg, OpenCubeNode::build_all(proto));
        let mut schedule = ArrivalSchedule::new();
        for i in 1..=8u32 {
            schedule = schedule.then(SimTime::from_ticks(u64::from(i) * 100), NodeId::new(i));
        }
        let ids = rt.schedule_workload(&schedule);
        assert_eq!(ids.len(), 8);
        // Crash a bystander late, recover it, all in ticks.
        let plan = FailurePlan::none().crash_and_recover(
            NodeId::new(4),
            SimTime::from_ticks(30_000),
            SimTime::from_ticks(32_000),
        );
        rt.schedule_failures(&plan);
        assert!(rt.await_settled(Duration::from_secs(60)));
        let report = rt.shutdown();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
        assert!(report.is_clean(), "oracles: {report:?}");
    }

    #[test]
    fn scripted_partition_heals_and_the_service_recovers() {
        use oc_sim::{FaultPhase, FaultPhaseKind};
        // Split the 8-cube into halves for a window much shorter than the
        // suspicion slack, with traffic crossing the cut; after the heal
        // the retry machinery must serve everything and the oracles stay
        // clean. At a 50µs tick, [2000, 6000) ticks ≈ [100ms, 300ms).
        let script = FaultScript::none().with_phase(FaultPhase {
            from: SimTime::from_ticks(2_000),
            until: SimTime::from_ticks(6_000),
            kind: FaultPhaseKind::GroupPartition { p: 2 },
        });
        let rt = Runtime::start_scripted(config(4), script, OpenCubeNode::build_all(protocol(8)));
        let mut schedule = ArrivalSchedule::new();
        for i in 1..=8u32 {
            // One request per node, spread across the partition window.
            schedule = schedule.then(SimTime::from_ticks(u64::from(i) * 800), NodeId::new(i));
        }
        let ids = rt.schedule_workload(&schedule);
        assert_eq!(ids.len(), 8);
        assert!(rt.await_settled(Duration::from_secs(60)));
        let report = rt.shutdown();
        assert!(report.is_clean(), "oracles: {report:?}");
        assert_eq!(report.requests_completed + report.requests_abandoned, 8);
        assert_eq!(report.requests_abandoned, 0, "nobody crashed; the heal must serve everyone");
    }

    #[test]
    fn forced_shutdown_leaves_every_request_terminal() {
        let rt = rt(8, 2);
        let ids: Vec<RequestId> = (1..=8u32).map(|i| rt.acquire(NodeId::new(i))).collect();
        // Shut down immediately: whatever was not served must be
        // terminal (completed or abandoned), never stuck pending.
        let report = rt.shutdown();
        assert_eq!(report.requests_injected, 8);
        assert_eq!(report.requests_completed + report.requests_abandoned, 8);
        assert!(report.safety.is_clean(), "safety: {report:?}");
        let _ = ids;
    }

    #[test]
    fn large_tick_schedules_map_beyond_the_u32_clamp() {
        // The live mapping a scheduled workload uses goes through
        // `oc_sim::ticks_to_wall` (whose own test holds the arithmetic):
        // a tick count clamped to u32::MAX would collapse every schedule
        // entry beyond ≈ 2.4 days (at a 50µs tick) onto the same instant.
        let huge_ticks = 1u64 << 40;
        let rt = rt(2, 1);
        let mapped = rt.instant_of(SimTime::from_ticks(huge_ticks));
        let expected = rt.shared.epoch + Duration::from_nanos(huge_ticks * 50_000);
        assert_eq!(mapped, expected);
        let clamped = rt.shared.epoch + Duration::from_micros(50).saturating_mul(u32::MAX);
        assert!(mapped > clamped, "a 2^40-tick arrival must land beyond the old u32 clamp");
        let report = rt.shutdown();
        assert!(report.is_clean(), "oracles: {report:?}");
    }

    #[test]
    fn scripted_drop_destroys_a_leading_phase_duplicate_too() {
        use oc_sim::{FaultPhase, FaultPhaseKind};
        // The fault-ordering pin, runtime side: a phase that duplicates
        // EVERY message is listed before one that drops EVERY message.
        // Decide-before-act means the drop verdict destroys the original
        // *and* its would-be duplicate; an act-as-you-go injector
        // enqueues the duplicate before the later phase rules.
        let cfg = config(2);
        let always = |kind| FaultPhase {
            from: SimTime::from_ticks(0),
            until: SimTime::from_ticks(u64::MAX),
            kind,
        };
        let script = FaultScript::none()
            .with_phase(always(FaultPhaseKind::LossDup {
                loss_per_mille: 0,
                duplicate_per_mille: 1000,
            }))
            .with_phase(always(FaultPhaseKind::LossDup {
                loss_per_mille: 1000,
                duplicate_per_mille: 0,
            }));
        let rt = Runtime::start_scripted(cfg, script, OpenCubeNode::build_all(protocol(4)));
        // Node 2 does not hold the token, so the acquire must send — and
        // every send dies on the scripted loss.
        let _id = rt.acquire(NodeId::new(2));
        std::thread::sleep(Duration::from_millis(50));
        let report = rt.shutdown();
        assert!(report.lost_to_faults > 0, "every send must hit the scripted loss: {report:?}");
        assert_eq!(
            report.duplicated_deliveries, 0,
            "a dropped send must not leave a duplicate behind"
        );
        assert_eq!(report.cs_entries, 0);
        assert!(report.safety.is_clean(), "safety: {report:?}");
    }

    #[test]
    fn namespaces_are_independent_lock_instances() {
        let cfg = config(2);
        let populations: Vec<Vec<OpenCubeNode>> =
            (0..4).map(|_| OpenCubeNode::build_all(protocol(4))).collect();
        let rt = Runtime::start_multi(cfg, populations);
        assert_eq!(rt.namespaces(), 4);
        assert_eq!(rt.len(), 16);
        let mut ids = Vec::new();
        for ns in 0..4 {
            for i in 1..=4u32 {
                ids.push(rt.acquire_in(ns, NodeId::new(i)));
            }
        }
        assert_eq!(rt.namespace_of(ids[5]), Some(1));
        assert!(rt.await_cs_entries(16, Duration::from_secs(30)));
        assert!(rt.await_settled(Duration::from_secs(30)));
        assert!(rt.cs_entries_in(3) >= 4);
        let report = rt.shutdown();
        assert_eq!(report.cs_entries, 16);
        assert_eq!(report.namespaces, 4);
        assert_eq!(report.requests_completed, 16);
        assert_eq!(report.terminal_token_census, 4, "one token per namespace");
        assert!(report.is_clean(), "oracles: {report:?}");
    }

    #[test]
    fn cancelled_timers_are_never_events() {
        // The protocol arms its Section 5 timeouts per claim and cancels
        // them when the token arrives: on a fault-free run with a slack
        // no queue can outlast, none of them may become an event, and
        // none may hold `settled` back once the last request is done.
        let (n, namespaces, requests) = (16u32, 8usize, 4_000u64);
        let proto = Config::new(16, SimDuration::from_ticks(16), SimDuration::from_ticks(25))
            .with_contention_slack(SimDuration::from_ticks(50_000));
        let cfg = RuntimeConfig {
            workers: 2,
            tick: Duration::from_micros(20),
            max_network_delay: Duration::from_micros(200),
            ..RuntimeConfig::default()
        };
        let rt = Runtime::start_multi(
            cfg,
            (0..namespaces).map(|_| OpenCubeNode::build_all(proto)).collect(),
        );
        let watcher = rt.watcher();
        let mut rng = StdRng::seed_from_u64(19);
        let mut submit = |ns: usize| {
            let node = NodeId::new(rng.random_range(1..=n));
            let _ = rt.acquire_watched(ns, node, &watcher, true);
        };
        (0..namespaces).for_each(&mut submit);
        let mut submitted = namespaces as u64;
        for _ in 0..requests {
            let (id, status) = watcher.recv_timeout(Duration::from_secs(30)).expect("completion");
            assert_eq!(status, RequestStatus::Completed);
            if submitted < requests {
                submit(rt.namespace_of(id).expect("issued here"));
                submitted += 1;
            }
        }
        let last_completion = Instant::now();
        assert!(rt.await_settled(Duration::from_secs(30)));
        let settle = last_completion.elapsed();
        assert!(
            settle < Duration::from_millis(100),
            "settled {settle:?} after the last completion"
        );
        let report = rt.shutdown();
        assert!(report.is_clean(), "oracles: {report:?}");
        assert_eq!(report.requests_completed, requests);
        assert!(report.messages_sent > requests, "the token has to move: {report:?}");
        // Deliveries and acquisitions are the only other commands of an
        // auto-release, crash-free run; the rest are timers that fired.
        let fired = report.events_processed - report.messages_sent - report.requests_injected;
        assert!(fired * 100 < requests, "{fired} timers fired on a calm run: {report:?}");
    }

    #[test]
    fn watched_auto_release_closed_loop() {
        // The closed-loop client primitive: block on the watcher, never
        // sleep-poll; auto-release cycles the CS without a lease.
        let rt = rt(4, 2);
        let watcher = rt.watcher();
        for _ in 0..100 {
            let id = rt.acquire_watched(0, NodeId::new(1), &watcher, true);
            let (done, status) = watcher.recv_timeout(Duration::from_secs(30)).expect("completion");
            assert_eq!(done, id);
            assert_eq!(status, RequestStatus::Completed);
        }
        assert!(rt.await_settled(Duration::from_secs(10)));
        let report = rt.shutdown();
        assert_eq!(report.cs_entries, 100);
        assert_eq!(report.requests_completed, 100);
        assert!(report.is_clean(), "oracles: {report:?}");
    }
}
