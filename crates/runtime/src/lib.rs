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
//!   with [`RequestId`]s, per-request lifecycle, and an acquire-to-grant
//!   [`LatencyHistogram`]; closed-loop clients use [`Runtime::watcher`]
//!   and [`Runtime::acquire_watched`] to block on completions instead of
//!   sleep-polling statuses;
//! * **multi-tenant namespaces** ([`Runtime::start_multi`]) — many
//!   independent lock instances sharing one worker pool, each judged by
//!   its own unmodified `oc_sim` oracle;
//! * crash/recovery injection ([`Runtime::schedule_failures`]) and the
//!   simulator's own link-fault program, consumed verbatim
//!   ([`Runtime::start_scripted`]);
//! * a linearized event log ([`oc_sim::Trace`], stamped in ticks under
//!   the monitor lock) and *the unmodified `oc_sim` oracles* judging the
//!   execution: the safety [`oc_sim::Oracle`] is fed live from the
//!   monitor, and shutdown builds an [`oc_sim::Horizon`] per namespace
//!   for the shared liveness oracle ([`oc_sim::check_horizon`]).
//!
//! ## The batched hot path
//!
//! Three mechanisms keep the per-acquisition cost flat under load:
//!
//! * **Mailbox batching** — a message for a node of the same worker
//!   goes straight into that worker's delay queue and touches no channel;
//!   messages for other workers are collected per destination and sent
//!   as one [`Mail::Many`] per batch, and workers drain their mailbox in
//!   `try_recv` bursts (bounded by [`RuntimeConfig::batch`]) after each
//!   blocking receive — one channel crossing per message at most, one
//!   channel round-trip per *burst*.
//! * **Worker-local statistics** — pure counters (messages, events,
//!   losses) accumulate in a [`LocalStats`] and flush to the shared
//!   atomics once per batch with `Relaxed` ordering; only the
//!   control-plane atomics that [`Runtime::settled`] reasons about
//!   (`inflight`, per-namespace `tokens_in_flight`, idle flags) keep
//!   `SeqCst`.
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
//! use oc_runtime::{Runtime, RuntimeConfig};
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
//! let a = rt.acquire(NodeId::new(5));
//! let b = rt.acquire(NodeId::new(3));
//! assert!(rt.await_cs_entries(2, Duration::from_secs(10)));
//! assert!(rt.await_settled(Duration::from_secs(10)));
//! let report = rt.shutdown();
//! assert_eq!(report.cs_entries, 2);
//! assert_eq!(report.requests_completed, 2);
//! assert!(report.is_clean(), "oracles: {:?}", report);
//! # let _ = (a, b);
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
    LivenessReport, MessageKind, NodeAtHorizon, NodeEvent, Oracle, OracleReport, Outbox, Protocol,
    SimDuration, SimTime, Trace, TraceRecord,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use session::{Completion, SessionTable};

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
    /// Record the full linearized event log (costs memory and a lock per
    /// message; CS/crash/recovery events feed the safety oracle even
    /// when this is off). Multi-tenant runs record namespace 0 only.
    pub record_trace: bool,
    /// Largest burst of commands a worker drains from its mailbox before
    /// publishing effects (idle flags, statistics, in-flight claims).
    /// `0` means 128. `1` degenerates to the unbatched one-command loop.
    pub batch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            tick: Duration::from_micros(50),
            max_network_delay: Duration::from_millis(1),
            cs_duration: Duration::from_micros(500),
            seed: 0,
            record_trace: false,
            batch: 0,
        }
    }
}

/// One command addressed to a node, executed by its owning worker.
/// (Timers are not commands: they never leave the worker that owns the
/// node — see [`DeadlineSet`].)
enum NodeCmd<M> {
    /// A network message arrives (`from` in the namespace's local ids).
    Deliver { from: NodeId, msg: M },
    /// A client request reaches its node (`RequestCs`).
    Acquire(u64),
    /// A client releases a granted request early.
    Release(u64),
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

/// A command that will never be processed leaves its namespace's token
/// census if it carried the token. (Its in-flight claim is the caller's
/// to release.)
fn discard<M: MessageKind>(shared: &Shared, item: &Targeted<M>) {
    if let NodeCmd::Deliver { msg, .. } = &item.cmd {
        if msg.carries_token() {
            let ns = shared.ns_of(item.to.zero_based() as usize);
            shared.tokens_in_flight[ns].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Monitor: the linearization point of one namespace. Every CS
/// entry/exit, crash, recovery, and (when tracing) message event of the
/// namespace takes this lock; the lock's acquisition order *is* the
/// linear order in which the unmodified `oc_sim` safety oracle and the
/// trace observe the namespace's run. Namespaces are independent lock
/// instances, so each gets its own monitor — and its own lock, keeping
/// tenants from contending on the linearization point.
struct Monitor {
    oracle: Oracle,
    trace: Trace,
}

/// Cross-thread statistics counters.
///
/// All loads and stores are `Relaxed`: these are pure monotone
/// statistics — workers flush their [`LocalStats`] into them once per
/// batch, and readers either poll a single counter (monotone, no
/// cross-counter invariant) or read after the worker threads are joined
/// (the join is the happens-before edge). Nothing here participates in
/// the [`Runtime::settled`] protocol; the control-plane atomics that do
/// (`Shared::inflight`, `Shared::tokens_in_flight`, `Shared::idle`)
/// live outside and keep `SeqCst`.
#[derive(Default)]
struct Counters {
    messages_sent: AtomicU64,
    events_processed: AtomicU64,
    crashes: AtomicU64,
    recoveries: AtomicU64,
    lost_to_crashes: AtomicU64,
    lost_to_faults: AtomicU64,
    lost_to_partition: AtomicU64,
    duplicated_deliveries: AtomicU64,
}

/// One worker's batch-local statistics, flushed to [`Counters`] once per
/// mailbox batch instead of one `SeqCst` RMW per event.
#[derive(Default)]
struct LocalStats {
    messages_sent: u64,
    events_processed: u64,
    lost_to_crashes: u64,
    lost_to_faults: u64,
    lost_to_partition: u64,
    duplicated_deliveries: u64,
}

impl LocalStats {
    fn flush(&mut self, counters: &Counters) {
        fn add(counter: &AtomicU64, local: &mut u64) {
            if *local != 0 {
                counter.fetch_add(*local, Ordering::Relaxed);
                *local = 0;
            }
        }
        add(&counters.messages_sent, &mut self.messages_sent);
        add(&counters.events_processed, &mut self.events_processed);
        add(&counters.lost_to_crashes, &mut self.lost_to_crashes);
        add(&counters.lost_to_faults, &mut self.lost_to_faults);
        add(&counters.lost_to_partition, &mut self.lost_to_partition);
        add(&counters.duplicated_deliveries, &mut self.duplicated_deliveries);
    }
}

/// One namespace's slice of the global node space: nodes
/// `offset + 1 ..= offset + len` (global) are the namespace's
/// `1 ..= len` (local).
#[derive(Debug, Clone, Copy)]
struct NsMeta {
    offset: u32,
    len: u32,
}

struct Shared {
    /// One linearization monitor per namespace (only namespace 0 records
    /// a trace).
    monitors: Vec<Mutex<Monitor>>,
    sessions: SessionTable,
    counters: Counters,
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
    /// Token-carrying messages currently in flight, per namespace — the
    /// runtime's share of each namespace's live-token census.
    tokens_in_flight: Vec<AtomicU64>,
    /// Per-node "has nothing pending" flags, refreshed by the owning
    /// worker after every batch (crashed nodes read as idle — the
    /// liveness oracle only judges live nodes).
    idle: Vec<AtomicBool>,
    /// Namespace geometry, ordered by offset.
    ns: Vec<NsMeta>,
    /// The time-scripted fault program, compiled against the system size.
    /// Phase windows are in protocol ticks, evaluated against
    /// [`Shared::sim_now`] — the same script the simulator consumes, the
    /// tick mapping doing ticks→wall. Empty by default: nothing injected,
    /// no RNG draws. Only single-namespace runtimes may script faults.
    script: CompiledScript,
    trace_enabled: bool,
    epoch: Instant,
    tick_nanos: u64,
}

impl Shared {
    /// Elapsed wall time in nanoseconds — the session table's clock.
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed wall time as protocol ticks — the trace/oracle timestamp.
    fn sim_now(&self) -> SimTime {
        SimTime::from_ticks(self.now_nanos() / self.tick_nanos)
    }

    fn lock_monitor(&self, ns: usize) -> std::sync::MutexGuard<'_, Monitor> {
        self.monitors[ns].lock().expect("monitor poisoned")
    }

    /// The namespace a global zero-based node index belongs to.
    fn ns_of(&self, global_idx: usize) -> usize {
        self.ns.partition_point(|meta| (meta.offset as usize) <= global_idx).saturating_sub(1)
    }
}

/// A registered completion stream: every request opened through
/// [`Runtime::acquire_watched`] with this watcher sends exactly one
/// `(id, terminal status)` pair here when it completes or is abandoned.
/// Closed-loop clients block on this instead of sleep-polling
/// [`Runtime::request_status`].
pub struct Watcher {
    id: u32,
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
    worker_handles: Vec<JoinHandle<Vec<WorkerFinal<P>>>>,
    config: RuntimeConfig,
    n: usize,
}

/// One node's state as a worker returns it at shutdown.
struct WorkerFinal<P> {
    idx: usize,
    node: P,
    crashed: bool,
    recovered_ever: bool,
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
        if config.batch == 0 {
            config.batch = 128;
        }

        let namespaces = populations.len();
        let shared = Arc::new(Shared {
            monitors: (0..namespaces)
                .map(|k| {
                    Mutex::new(Monitor {
                        oracle: Oracle::new(),
                        trace: Trace::new(config.record_trace && k == 0),
                    })
                })
                .collect(),
            sessions: SessionTable::new(n, ns.iter().map(|meta| meta.offset).collect()),
            counters: Counters::default(),
            cs_entries: (0..namespaces).map(|_| AtomicU64::new(0)).collect(),
            inflight: AtomicU64::new(0),
            tokens_in_flight: (0..namespaces).map(|_| AtomicU64::new(0)).collect(),
            idle: (0..n).map(|_| AtomicBool::new(true)).collect(),
            ns,
            script: script.compile(n),
            trace_enabled: config.record_trace,
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
                    idx,
                    pos: (idx / workers) as u32,
                    ns: k,
                    ns_offset: meta.offset,
                    node,
                    crashed: false,
                    recovered_ever: false,
                    lease: 0,
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

    /// The namespace a request was issued in.
    #[must_use]
    pub fn namespace_of(&self, id: RequestId) -> Option<usize> {
        let node = self.shared.sessions.node_of(id)?;
        Some(self.shared.ns_of(node.zero_based() as usize))
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
    /// Returns `false` (after undoing the in-flight claim) if the worker
    /// is gone.
    fn send_direct(&self, to: NodeId, cmd: NodeCmd<P::Msg>) -> bool {
        self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        let w = (to.zero_based() as usize) % self.config.workers;
        if self.worker_txs[w].send(Mail::One(Targeted { to, cmd })).is_err() {
            self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
            false
        } else {
            true
        }
    }

    /// Posts commands that are due later, each to its destination
    /// worker's mailbox — one [`Mail::Many`] per worker, filed in that
    /// worker's delay queue in the order given. Returns the commands of
    /// any worker that is gone (their in-flight claims undone).
    fn send_later(&self, items: Vec<(Instant, Targeted<P::Msg>)>) -> Vec<Targeted<P::Msg>> {
        let mut bursts: Vec<Vec<_>> = self.worker_txs.iter().map(|_| Vec::new()).collect();
        for item in items {
            bursts[(item.1.to.zero_based() as usize) % self.config.workers].push(item);
        }
        let mut undelivered = Vec::new();
        for (tx, burst) in self.worker_txs.iter().zip(bursts) {
            let claims = burst.len() as u64;
            if claims == 0 {
                continue;
            }
            self.shared.inflight.fetch_add(claims, Ordering::SeqCst);
            if let Err(SendError(Mail::Many(burst))) = tx.send(Mail::Many(burst)) {
                self.shared.inflight.fetch_sub(claims, Ordering::SeqCst);
                undelivered.extend(burst.into_iter().map(|(_, item)| item));
            }
        }
        undelivered
    }

    /// Issues a lock request at `node` of namespace 0, to be granted
    /// when the protocol admits it to the critical section. Returns
    /// immediately with the request's identity; track it with
    /// [`Runtime::request_status`].
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
        let global = self.global_of(ns, node);
        let id = self.shared.sessions.open(global, self.shared.now_nanos(), false, None);
        if !self.send_direct(global, NodeCmd::Acquire(id.index())) {
            let _ = self.shared.sessions.abandon(id);
        }
        id
    }

    /// Issues a lock request whose terminal transition is delivered to
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
        let global = self.global_of(ns, node);
        let id = self.shared.sessions.open(
            global,
            self.shared.now_nanos(),
            auto_release,
            Some(watcher.id),
        );
        if !self.send_direct(global, NodeCmd::Acquire(id.index())) {
            let _ = self.shared.sessions.abandon(id);
        }
        id
    }

    /// Registers a completion stream for [`Runtime::acquire_watched`].
    #[must_use]
    pub fn watcher(&self) -> Watcher {
        let (id, rx) = self.shared.sessions.register_watcher();
        Watcher { id, rx }
    }

    /// Releases a granted request early (before its lease expires).
    /// Ignored unless `id` currently holds its node's critical section.
    pub fn release(&self, id: RequestId) {
        if let Some(node) = self.shared.sessions.node_of(id) {
            let _ = self.send_direct(node, NodeCmd::Release(id.index()));
        }
    }

    /// One request's lifecycle state.
    #[must_use]
    pub fn request_status(&self, id: RequestId) -> Option<RequestStatus> {
        self.shared.sessions.status(id)
    }

    /// Fail-stops `node` (global id) now.
    pub fn crash(&self, node: NodeId) {
        self.assert_node(node);
        let _ = self.send_direct(node, NodeCmd::Crash);
    }

    /// Recovers `node` (global id) now.
    pub fn recover(&self, node: NodeId) {
        self.assert_node(node);
        let _ = self.send_direct(node, NodeCmd::Recover);
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
            let id = self.shared.sessions.open(*node, t0, false, None);
            let cmd = NodeCmd::Acquire(id.index());
            later.push((self.shared.epoch + due, Targeted { to: *node, cmd }));
            ids.push(id);
        }
        for lost in self.send_later(later) {
            if let NodeCmd::Acquire(id) = lost.cmd {
                let _ = self.shared.sessions.abandon(RequestId::from_index(id));
            }
        }
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
        let _ = self.send_later(later);
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
        self.shared.sessions.histogram()
    }

    /// Blocks until at least `count` critical sections completed or the
    /// timeout elapses; returns whether the count was reached.
    #[must_use]
    pub fn await_cs_entries(&self, count: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.cs_entries() >= count {
                return true;
            }
            if Instant::now() >= deadline {
                return self.cs_entries() >= count;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// `true` if nothing is in flight, every request is terminal, and
    /// every live node is idle — the runtime's quiescence predicate
    /// (the analogue of the simulator's drained event queue).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.shared.inflight.load(Ordering::SeqCst) == 0
            && self.shared.sessions.all_terminal()
            && self.shared.idle.iter().all(|flag| flag.load(Ordering::SeqCst))
            // Re-check: a command processed between the first check and
            // the idle scan would have been visible as in-flight (workers
            // publish idle flags before releasing in-flight claims).
            && self.shared.inflight.load(Ordering::SeqCst) == 0
    }

    /// Polls [`Runtime::settled`] until it holds or `timeout` elapses.
    #[must_use]
    pub fn await_settled(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.settled() {
                return true;
            }
            if Instant::now() >= deadline {
                return self.settled();
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Stops the service and returns the final report: every worker is
    /// joined, whatever it still held queued, delayed or armed is
    /// discarded, and every request ends in a terminal state
    /// (still-pending ones become `Abandoned`, granted ones
    /// `Completed`). Each namespace is judged separately —
    /// its own safety oracle, terminal token census, and liveness
    /// horizon — and the verdicts fold into one report; call
    /// [`Runtime::await_settled`] first if the run is supposed to have
    /// converged.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeReport {
        let wall = self.shared.epoch.elapsed();
        let horizon_ticks = self.shared.sim_now();
        let drained = self.settled();
        let mut finals = self.stop_threads();
        assert_eq!(finals.len(), self.n, "a worker panicked; its shard's final state is lost");
        finals.sort_by_key(|f| f.idx);

        let shared = &self.shared;
        let _ = shared.sessions.finalize();
        let (completed, abandoned) = shared.sessions.terminal_counts();
        let injected = shared.sessions.opened();
        let buckets = shared.sessions.counts_by_bucket();

        let counters = &shared.counters;
        let events = counters.events_processed.load(Ordering::Relaxed);

        // Judge each namespace with its own oracles, then fold. The
        // terminal token census counts live holders plus tokens still in
        // flight (nonzero only on a forced shutdown); the *safety*
        // census counts only holders at the namespace's highest
        // witnessed epoch — a fenced-out stale token awaiting discard is
        // the current token's predecessor, not a duplicate (identical to
        // the total under `Hardening::None`, where every epoch is 0).
        let mut safety = OracleReport::default();
        let mut liveness = LivenessReport::default();
        let mut trace = Trace::new(false);
        let mut census_total = 0usize;
        let mut cs_total = 0u64;
        for (k, meta) in shared.ns.iter().enumerate() {
            let lo = meta.offset as usize;
            let span = &finals[lo..lo + meta.len as usize];
            let live_held = || span.iter().filter(|f| !f.crashed && f.node.holds_token());
            let holders = live_held().count();
            let max_epoch = live_held().map(|f| f.node.token_epoch()).max().unwrap_or(0);
            let holders_at_max = live_held().filter(|f| f.node.token_epoch() == max_epoch).count();
            let in_flight = shared.tokens_in_flight[k].load(Ordering::SeqCst) as usize;
            let census = holders + in_flight;
            census_total += census;
            let served = shared.cs_entries[k].load(Ordering::Relaxed);
            cs_total += served;
            let (ns_injected, _ns_completed, ns_abandoned) = buckets[k];
            // Partition awareness at the shutdown horizon, mirroring the
            // simulator's `World::partition_isolation` (scripts exist
            // only in single-namespace runs; elsewhere this is one
            // healed component). Pending requests were just finalized
            // into `abandoned`, so `unreachable` stays 0.
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
                    .map(|(j, f)| NodeAtHorizon {
                        node: NodeId::new(j as u32 + 1),
                        alive: !f.crashed,
                        idle: f.node.is_idle(),
                        recovered: f.recovered_ever,
                        isolated: isolated[j],
                        quorum_blocked: !f.crashed && f.node.quorum_blocked(),
                    })
                    .collect(),
            };
            liveness.absorb(check_horizon(&horizon));
            let mut monitor = shared.lock_monitor(k);
            let at = shared.sim_now();
            monitor.oracle.token_census(at, holders_at_max + in_flight);
            safety.absorb(monitor.oracle.report().clone());
            if k == 0 {
                trace = std::mem::replace(&mut monitor.trace, Trace::new(false));
            }
        }

        RuntimeReport {
            cs_entries: cs_total,
            messages_sent: counters.messages_sent.load(Ordering::Relaxed),
            events_processed: events,
            requests_injected: injected,
            requests_completed: completed,
            requests_abandoned: abandoned,
            crashes: counters.crashes.load(Ordering::Relaxed),
            recoveries: counters.recoveries.load(Ordering::Relaxed),
            lost_to_crashes: counters.lost_to_crashes.load(Ordering::Relaxed),
            lost_to_faults: counters.lost_to_faults.load(Ordering::Relaxed),
            lost_to_partition: counters.lost_to_partition.load(Ordering::Relaxed),
            duplicated_deliveries: counters.duplicated_deliveries.load(Ordering::Relaxed),
            terminal_token_census: census_total,
            namespaces: shared.ns.len(),
            drained,
            safety,
            liveness,
            latency: shared.sessions.latency_summary(),
            trace,
            wall,
        }
    }
}

impl<P: Protocol> Runtime<P> {
    /// Stops the workers and joins them — mailbox FIFO means commands
    /// that were due on arrival are processed before the worker's Stop;
    /// what sits in its delay queue or timer set is discarded.
    /// Idempotent: joined handles are taken, so a second call is a no-op
    /// returning nothing.
    fn stop_threads(&mut self) -> Vec<WorkerFinal<P>> {
        if self.worker_handles.is_empty() {
            return Vec::new();
        }
        for tx in &self.worker_txs {
            self.shared.inflight.fetch_add(1, Ordering::SeqCst);
            if tx.send(Mail::One(Targeted { to: NodeId::new(1), cmd: NodeCmd::Stop })).is_err() {
                self.shared.inflight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let mut finals: Vec<WorkerFinal<P>> = Vec::with_capacity(self.n);
        for handle in self.worker_handles.drain(..) {
            // A panicked worker yields nothing; shutdown() notices the
            // missing nodes and panics loudly there — panicking here
            // would abort the process when stop runs during unwinding.
            finals.extend(handle.join().unwrap_or_default());
        }
        finals
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

/// One node's substrate state within its worker's shard.
struct Slot<P> {
    /// Global zero-based index (namespace offset + local index).
    idx: usize,
    /// Position in the owning worker's shard (`idx / workers`) — also the
    /// node's owner id in that worker's [`DeadlineSet`].
    pos: u32,
    /// Namespace this node belongs to.
    ns: usize,
    /// The namespace's global offset: local id = global id − offset.
    ns_offset: u32,
    node: P,
    crashed: bool,
    recovered_ever: bool,
    lease: u64,
}

impl<P> Slot<P> {
    /// The node's global id — what commands are addressed by.
    fn global(&self) -> NodeId {
        NodeId::new(self.idx as u32 + 1)
    }

    /// The node's namespace-local id — what the protocol state machine
    /// and the namespace's oracle speak.
    fn local(&self, global: NodeId) -> NodeId {
        debug_assert_eq!(global.zero_based() as usize, self.idx, "misrouted command");
        NodeId::new(global.get() - self.ns_offset)
    }
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
    stats: LocalStats,
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

    fn sample_delay(&mut self) -> Duration {
        let max = u64::try_from(self.config.max_network_delay.as_nanos()).unwrap_or(u64::MAX);
        Duration::from_nanos(self.rng.random_range(0..=max))
    }

    /// Stop: nothing this worker still holds will ever be processed —
    /// its batch, its delay queue, its live timers, and whatever is
    /// still in its mailbox all leave the in-flight count and the token
    /// census.
    fn discard_all(&mut self, rx: &Receiver<Mail<M>>) {
        while let Ok(mail) = rx.try_recv() {
            self.accept(mail);
        }
        let delayed = self.delayed.drain().map(|Reverse(d)| d.item);
        for item in self.queue.drain(..).chain(delayed) {
            discard(self.shared, &item);
            self.claims_released += 1;
        }
        self.claims_released += self.timers.len() as u64;
        self.timers = DeadlineSet::new();
    }

    /// Settles a batch. In order: the claims of everything the batch
    /// created are taken, *then* the other workers get their bursts; the
    /// idle flags of the nodes the batch touched are published, *then*
    /// the claims the batch is done with are released — so
    /// [`Runtime::settled`] never observes a zero in-flight count while
    /// a command, a live timer or an unpublished flag exists.
    fn settle(&mut self, idle: impl Iterator<Item = (usize, bool)>) {
        let shared = self.shared;
        if self.claims_taken != 0 {
            shared.inflight.fetch_add(self.claims_taken, Ordering::SeqCst);
            self.claims_taken = 0;
        }
        for (burst, mailbox) in self.outgoing.iter_mut().zip(self.mailboxes) {
            if burst.is_empty() {
                continue;
            }
            if let Err(SendError(Mail::Many(lost))) =
                mailbox.send(Mail::Many(std::mem::take(burst)))
            {
                // That worker has exited (shutdown): the burst dies here.
                for (_, item) in &lost {
                    discard(shared, item);
                }
                self.claims_released += lost.len() as u64;
            }
        }
        for (idx, flag) in idle {
            shared.idle[idx].store(flag, Ordering::SeqCst);
        }
        self.stats.flush(&shared.counters);
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
    lease: &'a mut u64,
    /// The node's owner id in the worker's [`DeadlineSet`].
    pos: u32,
    ns: usize,
    ns_offset: u32,
}

impl<M> ThreadSink<'_, '_, M> {
    fn global(&self, local: NodeId) -> NodeId {
        NodeId::new(local.get() + self.ns_offset)
    }
}

impl<M: MessageKind + core::fmt::Debug + Clone + Send + 'static> ActionSink<M>
    for ThreadSink<'_, '_, M>
{
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let to_global = self.global(to);
        let worker = &mut *self.worker;
        let shared = worker.shared;
        worker.stats.messages_sent += 1;
        if shared.trace_enabled && self.ns == 0 {
            let mut monitor = shared.lock_monitor(0);
            let at = shared.sim_now();
            monitor.trace.push(
                at,
                TraceRecord::Send { from, to, kind: msg.kind(), desc: format!("{msg:?}") },
            );
        }
        // Decide-before-act, identical to the simulator's `Core::send`:
        // the script decides the message's fate before any copy is
        // enqueued, so a drop destroys the logical send outright.
        let now_ticks = shared.sim_now();
        let carries_token = msg.carries_token();
        if shared.script.active_at(now_ticks) {
            match shared.script.fate(now_ticks, from, to, carries_token, &mut worker.rng) {
                LinkFate::Deliver => {}
                LinkFate::DropPartition => {
                    worker.stats.lost_to_partition += 1;
                    return;
                }
                LinkFate::DropLoss => {
                    worker.stats.lost_to_faults += 1;
                    return;
                }
                LinkFate::DeliverAndDuplicate => {
                    worker.stats.duplicated_deliveries += 1;
                    let delay = worker.sample_delay();
                    let copy = NodeCmd::Deliver { from, msg: msg.clone() };
                    worker.post(Instant::now() + delay, to_global, copy);
                }
            }
        }
        if carries_token {
            shared.tokens_in_flight[self.ns].fetch_add(1, Ordering::SeqCst);
        }
        let delay = worker.sample_delay();
        worker.post(Instant::now() + delay, to_global, NodeCmd::Deliver { from, msg });
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let shared = self.worker.shared;
        *self.lease += 1;
        {
            let mut monitor = shared.lock_monitor(self.ns);
            let at = shared.sim_now();
            monitor.oracle.enter_cs(at, node, token_epoch);
            monitor.trace.push(at, TraceRecord::EnterCs(node));
        }
        shared.cs_entries[self.ns].fetch_add(1, Ordering::Relaxed);
        let global = self.global(node);
        let auto = matches!(shared.sessions.grant(global, shared.now_nanos()), Some((_, _, true)));
        // Auto-release requests skip the wall-clock lease: the worker
        // exits the CS immediately after this command (`drain_auto`),
        // so no ExitLease is ever filed for them.
        if !auto {
            let expiry = Instant::now() + self.worker.config.cs_duration;
            self.worker.post(expiry, global, NodeCmd::ExitLease { lease: *self.lease });
        }
    }

    fn set_timer(&mut self, _node: NodeId, timer_id: u64, delay: SimDuration) {
        let worker = &mut *self.worker;
        let deadline = Instant::now() + ticks_to_wall(delay.ticks(), worker.config.tick);
        // A re-arm inherits the claim of the arming it supersedes.
        if !worker.timers.arm(self.pos, timer_id, deadline) {
            worker.claims_taken += 1;
        }
    }

    fn cancel_timer(&mut self, _node: NodeId, timer_id: u64) {
        if self.worker.timers.cancel(self.pos, timer_id) {
            self.worker.claims_released += 1;
        }
    }
}

/// One worker's thread. Sleeps until mail arrives or the earliest thing
/// it holds itself — a delayed command, a live timer — falls due; then
/// runs everything that is due through the shared engine driver as one
/// batch and settles the batch's books ([`Worker::settle`]). Returns the
/// shard's final node states for the shutdown horizon.
fn worker_main<P: Protocol + Send + 'static>(
    me: usize,
    mut slots: Vec<Slot<P>>,
    rx: Receiver<Mail<P::Msg>>,
    mailboxes: Vec<Sender<Mail<P::Msg>>>,
    shared: Arc<Shared>,
    config: RuntimeConfig,
) -> Vec<WorkerFinal<P>> {
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
                    .map_or(0, |s| (s.idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        stats: LocalStats::default(),
        queue: VecDeque::new(),
        delayed: BinaryHeap::new(),
        next_seq: 0,
        timers: DeadlineSet::new(),
        outgoing: (0..workers).map(|_| Vec::new()).collect(),
        claims_taken: 0,
        claims_released: 0,
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
        while worker.queue.len() < config.batch {
            match rx.try_recv() {
                Ok(mail) => worker.accept(mail),
                Err(_) => break,
            }
        }
        // Delayed commands that have fallen due join the batch. A worker
        // with nothing delayed and nothing armed never reads the clock.
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
            worker.stats.events_processed += 1;
            let pos = (to.zero_based() as usize) / workers;
            let slot = &mut slots[pos];
            process(slot, to, cmd, &mut out, &mut worker);
            drain_auto(slot, to, &mut out, &mut worker);
            touched.push(pos);
        }
        // Due timers fire after the batch's commands, one at a time and
        // each taken from the live set at the moment it fires: one that
        // an earlier command or timer of this batch cancelled is gone.
        while let Some((pos, timer_id)) = now.and_then(|now| worker.timers.pop_due(now)) {
            worker.claims_released += 1;
            worker.stats.events_processed += 1;
            let slot = &mut slots[pos as usize];
            debug_assert!(!slot.crashed, "a crash clears the node's timers");
            drive_slot(slot, Some(NodeEvent::Timer(timer_id)), &mut out, &mut worker);
            drain_auto(slot, slot.global(), &mut out, &mut worker);
            touched.push(pos as usize);
        }
        touched.sort_unstable();
        touched.dedup();
        worker.settle(touched.iter().map(|&pos| {
            let slot = &slots[pos];
            (slot.idx, slot.crashed || slot.node.is_idle())
        }));
    }
    slots
        .into_iter()
        .map(|slot| WorkerFinal {
            idx: slot.idx,
            node: slot.node,
            crashed: slot.crashed,
            recovered_ever: slot.recovered_ever,
        })
        .collect()
}

/// The single construction point for [`ThreadSink`]'s split borrows:
/// builds the slot's sink and feeds one event through the shared engine
/// driver (`None` runs the recovery hook instead).
fn drive_slot<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    event: Option<NodeEvent<P::Msg>>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let mut sink = ThreadSink {
        worker,
        lease: &mut slot.lease,
        pos: slot.pos,
        ns: slot.ns,
        ns_offset: slot.ns_offset,
    };
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
    global: NodeId,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    while !slot.crashed && slot.node.in_cs() && worker.shared.sessions.current_is_auto(global) {
        exit_cs(slot, global, out, worker);
    }
}

/// Executes one command against its node. `global` is the routing id;
/// the protocol and the namespace's monitor speak the local id.
fn process<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    global: NodeId,
    cmd: NodeCmd<P::Msg>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let shared = worker.shared;
    let local = slot.local(global);
    match cmd {
        NodeCmd::Stop => unreachable!("handled by the worker loop"),
        NodeCmd::Deliver { from, msg } => {
            if msg.carries_token() {
                shared.tokens_in_flight[slot.ns].fetch_sub(1, Ordering::SeqCst);
            }
            if slot.crashed {
                // Fail-stop: everything delivered while down is lost.
                worker.stats.lost_to_crashes += 1;
                return;
            }
            if shared.trace_enabled && slot.ns == 0 {
                let mut monitor = shared.lock_monitor(0);
                let at = shared.sim_now();
                monitor.trace.push(
                    at,
                    TraceRecord::Deliver {
                        from,
                        to: local,
                        kind: msg.kind(),
                        desc: format!("{msg:?}"),
                    },
                );
            }
            drive_slot(slot, Some(NodeEvent::Deliver { from, msg }), out, worker);
        }
        NodeCmd::Acquire(id) => {
            let request = RequestId::from_index(id);
            if slot.crashed {
                // The application on a crashed node cannot request; the
                // injection is abandoned, never served.
                let _ = shared.sessions.abandon(request);
                return;
            }
            shared.sessions.activate(request);
            drive_slot(slot, Some(NodeEvent::RequestCs), out, worker);
        }
        NodeCmd::Release(id) => {
            if slot.crashed
                || !shared.sessions.is_current(RequestId::from_index(id), global)
                || !slot.node.in_cs()
            {
                return;
            }
            exit_cs(slot, global, out, worker);
        }
        NodeCmd::ExitLease { lease } => {
            // Stale leases (superseded by a later CS entry, or by a
            // crash) are dropped — the runtime's analogue of the
            // simulator purging a dead CS's scheduled exit.
            if slot.crashed || lease != slot.lease || !slot.node.in_cs() {
                return;
            }
            exit_cs(slot, global, out, worker);
        }
        NodeCmd::Crash => {
            if slot.crashed {
                return;
            }
            slot.crashed = true;
            shared.counters.crashes.fetch_add(1, Ordering::Relaxed);
            {
                let mut monitor = shared.lock_monitor(slot.ns);
                let at = shared.sim_now();
                monitor.oracle.exit_cs(local);
                monitor.trace.push(at, TraceRecord::Crash(local));
            }
            // All volatile node state is lost — including the
            // application's not-yet-served requests, which are
            // therefore abandoned; a granted request's CS died with the
            // node (its lease is invalidated below), and its timers
            // leave the worker's deadline set, claims and all.
            let _ = shared.sessions.crash_node(global);
            slot.node.on_crash();
            worker.claims_released += worker.timers.clear_owner(slot.pos) as u64;
            slot.lease += 1;
        }
        NodeCmd::Recover => {
            if !slot.crashed {
                return;
            }
            slot.crashed = false;
            slot.recovered_ever = true;
            shared.counters.recoveries.fetch_add(1, Ordering::Relaxed);
            {
                let mut monitor = shared.lock_monitor(slot.ns);
                let at = shared.sim_now();
                monitor.trace.push(at, TraceRecord::Recover(local));
            }
            drive_slot(slot, None, out, worker);
        }
    }
}

/// Partition awareness for one namespace's shutdown horizon — the same
/// policy as the simulator's `World::partition_isolation`, through the
/// shared [`oc_sim::isolation_from_components`]. `span` is the
/// namespace's contiguous slice of the (index-sorted) final states; the
/// result is positional over that slice. `census` is the namespace's
/// terminal live-token census. Fault scripts exist only in
/// single-namespace runs, so other namespaces see one healed component.
fn isolation_at<P: Protocol>(
    script: &CompiledScript,
    at: SimTime,
    drained: bool,
    span: &[WorkerFinal<P>],
    census: usize,
) -> Vec<bool> {
    let n = span.len();
    let alive: Vec<bool> = span.iter().map(|f| !f.crashed).collect();
    let holders: Vec<bool> = span.iter().map(|f| !f.crashed && f.node.holds_token()).collect();
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
    global: NodeId,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let shared = worker.shared;
    let local = slot.local(global);
    {
        let mut monitor = shared.lock_monitor(slot.ns);
        let at = shared.sim_now();
        monitor.oracle.exit_cs(local);
        monitor.trace.push(at, TraceRecord::ExitCs(local));
    }
    let _ = shared.sessions.complete_current(global);
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
        let holder = rt.acquire(NodeId::new(1));
        assert!(rt.await_cs_entries(1, Duration::from_secs(30)));
        let doomed = rt.acquire(NodeId::new(6));
        // Give the acquire time to reach node 6, then kill the node.
        std::thread::sleep(Duration::from_millis(10));
        rt.crash(NodeId::new(6));
        std::thread::sleep(Duration::from_millis(10));
        rt.recover(NodeId::new(6));
        assert!(rt.await_settled(Duration::from_secs(60)));
        assert_eq!(rt.request_status(doomed), Some(RequestStatus::Abandoned));
        assert_eq!(rt.request_status(holder), Some(RequestStatus::Completed));
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
        let id = rt.acquire(NodeId::new(2));
        assert!(rt.await_cs_entries(1, Duration::from_secs(10)));
        assert_eq!(rt.request_status(id), Some(RequestStatus::Granted));
        rt.release(id);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.request_status(id) != Some(RequestStatus::Completed) {
            assert!(Instant::now() < deadline, "release did not complete the request");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Well before the 5s lease: the release did it.
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
        cfg.record_trace = true;
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
        // The trace was recorded and replaying its CS occupancy through
        // the oracle agrees with the live verdict.
        assert!(!report.trace.records().is_empty());
        let replayed = Oracle::replay_cs(&report.trace);
        assert_eq!(replayed.is_clean(), report.mutual_exclusion_held());
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
    fn scripted_drop_destroys_the_legacy_duplicate_too() {
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
        let mut cfg = config(2);
        cfg.batch = 32;
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
