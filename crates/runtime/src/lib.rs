//! # oc-runtime — the sharded, oracle-checked lock service
//!
//! Where `oc-sim` runs protocols in deterministic virtual time, this
//! crate runs the *same* [`Protocol`] state machines as a real threaded
//! lock service: `n` nodes multiplexed over a configurable **worker
//! pool** (not thread-per-node, so `n = 1024` costs 8 threads, not
//! 1024), plus router threads that model the network (per-message
//! random delays bounded by δ), the timer service, and CS leases.
//! Nothing about the protocol changes — that is the point of the sans-io
//! design: both substrates execute actions through the same
//! [`oc_sim::drive`] engine loop.
//!
//! On top of the substrate sit the pieces a lock *service* needs:
//!
//! * a client session API — [`Runtime::acquire`] / [`Runtime::release`]
//!   with [`RequestId`]s, per-request lifecycle, and an acquire-to-grant
//!   [`LatencyHistogram`]; closed-loop clients use [`Runtime::watcher`]
//!   and [`Runtime::acquire_watched`] to block on completions instead of
//!   sleep-polling statuses;
//! * **multi-tenant namespaces** ([`Runtime::start_multi`]) — many
//!   independent lock instances sharing one worker pool and one router
//!   layer, each judged by its own unmodified `oc_sim` oracle;
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
//! * **Mailbox batching** — routers deliver due commands as one
//!   [`Mail::Many`] per worker per pass, and workers drain their mailbox
//!   in `try_recv` bursts (bounded by [`RuntimeConfig::batch`]) after
//!   each blocking `recv`, so a saturated worker pays one channel
//!   round-trip per *batch*, not per command.
//! * **Worker-local statistics** — pure counters (messages, events,
//!   losses) accumulate in a [`LocalStats`] and flush to the shared
//!   atomics once per batch with `Relaxed` ordering; only the
//!   control-plane atomics that [`Runtime::settled`] reasons about
//!   (`inflight`, per-namespace `tokens_in_flight`, idle flags) keep
//!   `SeqCst`.
//! * **Router sharding** ([`RuntimeConfig::routers`]) — the delay heap
//!   can be split across several router threads (workers are assigned
//!   round-robin), removing the single-router bottleneck at high
//!   namespace counts.
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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use oc_sim::{
    check_horizon, drive, drive_recovery, isolation_from_components, ActionSink, ArrivalSchedule,
    CompiledScript, FailurePlan, FaultScript, Horizon, LinkFate, LivenessReport, MessageKind,
    NodeAtHorizon, NodeEvent, Oracle, OracleReport, Outbox, Protocol, SimDuration, SimTime,
    TimerRow, Trace, TraceRecord,
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
    /// Upper bound on the per-message delay the router injects.
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
    /// Router threads the delay heap is sharded over (worker `w` is
    /// served by router `w % routers`). `0` means 1; clamped to the
    /// worker count.
    pub routers: usize,
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
            routers: 0,
        }
    }
}

/// Maps a tick count onto wall time, entirely in `u64` nanoseconds.
///
/// The arithmetic saturates at `u64::MAX` nanos (≈ 584 years) instead of
/// clamping the *tick count* to `u32::MAX` the way the pre-fix code did
/// — a `2^40`-tick schedule entry now lands ≈ 636 days out (at a 50µs
/// tick) rather than collapsing to ≈ 2.4 days alongside every other
/// large timestamp.
fn ticks_to_wall(tick_nanos: u64, ticks: u64) -> Duration {
    Duration::from_nanos(ticks.saturating_mul(tick_nanos))
}

/// Timer events travel through the router as `NodeCmd::Timer(packed)`
/// with the arming's generation packed into the id's high bits; the
/// owning worker unpacks and checks it against the node's [`TimerRow`]
/// on receipt. Protocol timer ids stay below `2^GEN_SHIFT`.
const GEN_SHIFT: u32 = 20;

/// One command addressed to a node, executed by its owning worker.
enum NodeCmd<M> {
    /// A network message arrives (`from` in the namespace's local ids).
    Deliver { from: NodeId, msg: M },
    /// A timer fires (generation-packed).
    Timer(u64),
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
    /// Worker shutdown (sent directly, never through the router).
    Stop,
}

/// A command plus its destination, addressed by *global* node id (the
/// namespace-offset id that picks the worker; the namespace-local id is
/// recovered from the slot on receipt).
struct Targeted<M> {
    to: NodeId,
    cmd: NodeCmd<M>,
}

enum RouterMsg<M> {
    Route { deliver_at: Instant, item: Targeted<M> },
    Stop,
}

/// What worker mailboxes carry: single commands (direct client sends,
/// Stop) or a router's batch of due deliveries — one channel round-trip
/// for the whole burst.
enum Mail<M> {
    One(Targeted<M>),
    Many(Vec<Targeted<M>>),
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
    /// Commands alive in the system: incremented before anything enters
    /// a router or a worker mailbox, decremented when a worker finishes
    /// processing it (or a router discards it at shutdown). Zero means
    /// nothing is queued and nothing is mid-processing. Workers release
    /// their claims batch-at-a-time, *after* publishing the batch's idle
    /// flags — the count stays elevated while effects are pending, which
    /// is what keeps [`Runtime::settled`] sound.
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
    /// Elapsed wall time as protocol ticks — the trace/oracle timestamp.
    fn sim_now(&self) -> SimTime {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SimTime::from_ticks(nanos / self.tick_nanos)
    }

    fn lock_monitor(&self, ns: usize) -> std::sync::MutexGuard<'_, Monitor> {
        self.monitors[ns].lock().expect("monitor poisoned")
    }

    /// The namespace a global zero-based node index belongs to.
    fn ns_of(&self, global_idx: usize) -> usize {
        self.ns.partition_point(|meta| (meta.offset as usize) <= global_idx).saturating_sub(1)
    }
}

/// Enqueues `item` (addressed by global node id) for delivery at
/// `deliver_at`, through the router shard that serves the destination's
/// worker. Returns `false` (after undoing the in-flight accounting) if
/// the router is gone — only possible during shutdown.
fn route<M>(
    shared: &Shared,
    routers: &[Sender<RouterMsg<M>>],
    workers: usize,
    deliver_at: Instant,
    to: NodeId,
    cmd: NodeCmd<M>,
) -> bool {
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    let w = (to.zero_based() as usize) % workers;
    let router = &routers[w % routers.len()];
    if router.send(RouterMsg::Route { deliver_at, item: Targeted { to, cmd } }).is_err() {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        false
    } else {
        true
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
    router_txs: Vec<Sender<RouterMsg<P::Msg>>>,
    worker_txs: Vec<Sender<Mail<P::Msg>>>,
    worker_handles: Vec<JoinHandle<Vec<WorkerFinal<P>>>>,
    router_handles: Vec<JoinHandle<()>>,
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
    /// Starts the worker pool and the router with a single namespace.
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
    /// liveness horizon — all namespaces sharing one worker pool and one
    /// router layer. Within namespace `k`, `populations[k][j]` must have
    /// identity `j + 1` (each namespace numbers its nodes from 1, exactly
    /// as a standalone system would).
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
        config.routers = match config.routers {
            0 => 1,
            r => r.min(workers),
        };

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
            sessions: SessionTable::new(n),
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
            let (tx, rx) = unbounded::<Mail<P::Msg>>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }

        let mut router_txs = Vec::with_capacity(config.routers);
        let mut router_handles = Vec::with_capacity(config.routers);
        for _ in 0..config.routers {
            let (tx, rx) = unbounded::<RouterMsg<P::Msg>>();
            let mailboxes = worker_txs.clone();
            let router_shared = Arc::clone(&shared);
            router_handles.push(std::thread::spawn(move || {
                router_main::<P::Msg>(rx, mailboxes, router_shared)
            }));
            router_txs.push(tx);
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
                    ns: k,
                    ns_offset: meta.offset,
                    node,
                    crashed: false,
                    recovered_ever: false,
                    timers: TimerRow::new(),
                    next_gen: 0,
                    lease: 0,
                });
            }
        }

        let mut worker_handles = Vec::with_capacity(workers);
        for (slots, rx) in sharded.into_iter().zip(worker_rxs) {
            let shared = Arc::clone(&shared);
            let routers = router_txs.clone();
            worker_handles.push(std::thread::spawn(move || {
                worker_main::<P>(slots, rx, routers, shared, config)
            }));
        }

        Runtime { shared, router_txs, worker_txs, worker_handles, router_handles, config, n }
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

    /// Number of nodes in namespace `ns`.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is out of range.
    #[must_use]
    pub fn namespace_len(&self, ns: usize) -> usize {
        self.shared.ns[ns].len as usize
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

    /// Hands one command straight to the destination's worker mailbox —
    /// no router hop for work that is due *now* (client acquires and
    /// releases, immediate crash/recover). Returns `false` (after
    /// undoing the in-flight claim) if the worker is gone.
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
        let id = self.shared.sessions.open(global, Instant::now(), false, None);
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
        let id = self.shared.sessions.open(global, Instant::now(), auto_release, Some(watcher.id));
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

    /// Compatibility alias for [`Runtime::acquire`], discarding the id.
    pub fn request_cs(&self, node: NodeId) {
        let _ = self.acquire(node);
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
    /// Pure `u64`-nanosecond arithmetic — see [`ticks_to_wall`].
    fn instant_of(&self, at: SimTime) -> Instant {
        self.shared.epoch + ticks_to_wall(self.shared.tick_nanos, at.ticks())
    }

    /// Schedules every arrival of `schedule` (tick timestamps mapped
    /// through the configured `tick`, nodes addressed by global id),
    /// returning the request ids in schedule order — the same generators
    /// (`oc_sim::workload`) drive both the simulator and the runtime.
    pub fn schedule_workload(&self, schedule: &ArrivalSchedule) -> Vec<RequestId> {
        schedule
            .arrivals()
            .iter()
            .map(|(at, node)| {
                self.assert_node(*node);
                let deliver_at = self.instant_of(*at);
                let id = self.shared.sessions.open(*node, deliver_at, false, None);
                if !route(
                    &self.shared,
                    &self.router_txs,
                    self.config.workers,
                    deliver_at,
                    *node,
                    NodeCmd::Acquire(id.index()),
                ) {
                    let _ = self.shared.sessions.abandon(id);
                }
                id
            })
            .collect()
    }

    /// Schedules the crash (and optional recovery) events of `plan`,
    /// tick timestamps mapped through the configured `tick`, nodes
    /// addressed by global id — the same `FailurePlan` the simulator
    /// consumes.
    pub fn schedule_failures(&self, plan: &FailurePlan) {
        for ev in plan.events() {
            let _ = route(
                &self.shared,
                &self.router_txs,
                self.config.workers,
                self.instant_of(ev.at),
                ev.node,
                NodeCmd::Crash,
            );
            if let Some(recover_at) = ev.recover_at {
                let _ = route(
                    &self.shared,
                    &self.router_txs,
                    self.config.workers,
                    self.instant_of(recover_at),
                    ev.node,
                    NodeCmd::Recover,
                );
            }
        }
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

    /// Snapshot of the acquire-to-grant latency summary.
    #[must_use]
    pub fn latency_summary(&self) -> LatencySummary {
        self.shared.sessions.latency_summary()
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
    /// joined, the routers' queues are discarded, and every request ends
    /// in a terminal state (still-pending ones become `Abandoned`,
    /// granted ones `Completed`). Each namespace is judged separately —
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
        let offsets: Vec<u32> = shared.ns.iter().map(|meta| meta.offset).collect();
        let buckets = shared.sessions.counts_by_bucket(&offsets);

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
    /// Stops the routers, then the workers, and joins everything —
    /// mailbox FIFO means commands already delivered to a worker are
    /// processed before its Stop. Idempotent: joined handles are taken,
    /// so a second call is a no-op returning nothing.
    fn stop_threads(&mut self) -> Vec<WorkerFinal<P>> {
        for tx in &self.router_txs {
            let _ = tx.send(RouterMsg::Stop);
        }
        for handle in self.router_handles.drain(..) {
            let _ = handle.join();
        }
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
/// panicking test) must not strand the router and worker threads: the
/// channel topology is a cycle (workers hold router senders, routers
/// hold worker senders), so nobody would ever observe disconnection.
/// Drop performs the same stop sequence and discards the final states.
impl<P: Protocol> Drop for Runtime<P> {
    fn drop(&mut self) {
        let _ = self.stop_threads();
    }
}

// --------------------------------------------------------------------
// Routers
// --------------------------------------------------------------------

/// One router shard: a thread holding the delay heap for network
/// messages, timers, CS leases, and scheduled crash/recovery commands of
/// the workers it serves. Due commands are delivered as one batch per
/// worker per pass ([`Mail::Many`]), so a burst of simultaneous
/// deliveries costs one channel send, not one per message.
fn router_main<M: MessageKind + Send + 'static>(
    rx: Receiver<RouterMsg<M>>,
    mailboxes: Vec<Sender<Mail<M>>>,
    shared: Arc<Shared>,
) {
    struct Pending<M> {
        deliver_at: Instant,
        seq: u64,
        item: Targeted<M>,
    }
    impl<M> PartialEq for Pending<M> {
        fn eq(&self, other: &Self) -> bool {
            self.seq == other.seq
        }
    }
    impl<M> Eq for Pending<M> {}
    impl<M> PartialOrd for Pending<M> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for Pending<M> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
        }
    }

    /// A command that will never be processed leaves the in-flight count
    /// (and, for a token-carrying delivery, its namespace's census).
    fn discard<M: MessageKind>(shared: &Shared, item: &Targeted<M>) {
        if let NodeCmd::Deliver { msg, .. } = &item.cmd {
            if msg.carries_token() {
                let ns = shared.ns_of(item.to.zero_based() as usize);
                shared.tokens_in_flight[ns].fetch_sub(1, Ordering::SeqCst);
            }
        }
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    let workers = mailboxes.len();
    let mut heap: BinaryHeap<Reverse<Pending<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Reused per-worker delivery buffers and the token-namespace
    // snapshot for failed sends (the vendored channel consumes the
    // payload on failure, so census bookkeeping is recorded first).
    let mut batches: Vec<Vec<Targeted<M>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut token_ns: Vec<usize> = Vec::new();
    let mut open = true;
    'outer: while open || !heap.is_empty() {
        // Deliver everything due, grouped by worker.
        let now = Instant::now();
        let mut any_due = false;
        while let Some(Reverse(top)) = heap.peek() {
            if top.deliver_at > now {
                break;
            }
            let Reverse(p) = heap.pop().expect("peeked");
            let w = (p.item.to.zero_based() as usize) % workers;
            batches[w].push(p.item);
            any_due = true;
        }
        if any_due {
            for (w, batch) in batches.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let count = batch.len() as u64;
                token_ns.clear();
                for item in batch.iter() {
                    if let NodeCmd::Deliver { msg, .. } = &item.cmd {
                        if msg.carries_token() {
                            token_ns.push(shared.ns_of(item.to.zero_based() as usize));
                        }
                    }
                }
                let mail = if count == 1 {
                    Mail::One(batch.pop().expect("len 1"))
                } else {
                    Mail::Many(std::mem::take(batch))
                };
                if mailboxes[w].send(mail).is_err() {
                    // Worker gone (shutdown): the whole batch dies here.
                    for &ns in &token_ns {
                        shared.tokens_in_flight[ns].fetch_sub(1, Ordering::SeqCst);
                    }
                    shared.inflight.fetch_sub(count, Ordering::SeqCst);
                }
            }
        }
        // Wait for the next deadline or new work.
        let wait =
            heap.peek().map(|Reverse(p)| p.deliver_at.saturating_duration_since(Instant::now()));
        let received = match wait {
            Some(d) if !heap.is_empty() => match rx.recv_timeout(d) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    // No more senders: sleep out the remaining deadline so
                    // queued deliveries still happen on time.
                    open = false;
                    std::thread::sleep(d);
                    None
                }
            },
            _ => match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => {
                    open = false;
                    None
                }
            },
        };
        match received {
            Some(RouterMsg::Route { deliver_at, item }) => {
                seq += 1;
                heap.push(Reverse(Pending { deliver_at, seq, item }));
            }
            Some(RouterMsg::Stop) => {
                // Discard everything undelivered — the delay heap AND
                // whatever is still queued in the channel behind this
                // Stop — with the same accounting, so the in-flight
                // count and the token census agree on what the forced
                // shutdown destroyed, whichever queue it sat in.
                for Reverse(p) in heap.drain() {
                    discard(&shared, &p.item);
                }
                while let Ok(msg) = rx.try_recv() {
                    if let RouterMsg::Route { item, .. } = msg {
                        discard(&shared, &item);
                    }
                }
                break 'outer;
            }
            None => {}
        }
    }
}

// --------------------------------------------------------------------
// Workers
// --------------------------------------------------------------------

/// One node's substrate state within its worker's shard.
struct Slot<P> {
    /// Global zero-based index (namespace offset + local index).
    idx: usize,
    /// Namespace this node belongs to.
    ns: usize,
    /// The namespace's global offset: local id = global id − offset.
    ns_offset: u32,
    node: P,
    crashed: bool,
    recovered_ever: bool,
    timers: TimerRow,
    next_gen: u64,
    lease: u64,
}

impl<P> Slot<P> {
    /// The node's namespace-local id — what the protocol state machine
    /// and the namespace's oracle speak.
    fn local(&self, global: NodeId) -> NodeId {
        debug_assert_eq!(global.zero_based() as usize, self.idx, "misrouted command");
        NodeId::new(global.get() - self.ns_offset)
    }
}

/// One node's substrate effects: the runtime's [`ActionSink`], handing
/// the engine's actions to a router thread with real-time deadlines.
/// The deliver→step→collect-actions loop itself lives in
/// [`oc_sim::drive`] — the same code path the simulator runs. Node ids
/// crossing this sink are namespace-local (the protocol's view);
/// routing converts to global ids.
struct ThreadSink<'a, M> {
    shared: &'a Shared,
    routers: &'a [Sender<RouterMsg<M>>],
    config: &'a RuntimeConfig,
    rng: &'a mut StdRng,
    timers: &'a mut TimerRow,
    next_gen: &'a mut u64,
    lease: &'a mut u64,
    ns: usize,
    ns_offset: u32,
    stats: &'a mut LocalStats,
}

impl<M> ThreadSink<'_, M> {
    fn global(&self, local: NodeId) -> NodeId {
        NodeId::new(local.get() + self.ns_offset)
    }

    fn sample_delay(&mut self) -> Duration {
        let max = u64::try_from(self.config.max_network_delay.as_nanos()).unwrap_or(u64::MAX);
        Duration::from_nanos(self.rng.random_range(0..=max))
    }
}

impl<M: MessageKind + core::fmt::Debug + Clone + Send + 'static> ActionSink<M>
    for ThreadSink<'_, M>
{
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let shared = self.shared;
        self.stats.messages_sent += 1;
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
        let to_global = self.global(to);
        let carries_token = msg.carries_token();
        if shared.script.active_at(now_ticks) {
            match shared.script.fate(now_ticks, from, to, carries_token, self.rng) {
                LinkFate::Deliver => {}
                LinkFate::DropPartition => {
                    self.stats.lost_to_partition += 1;
                    return;
                }
                LinkFate::DropLoss => {
                    self.stats.lost_to_faults += 1;
                    return;
                }
                LinkFate::DeliverAndDuplicate => {
                    self.stats.duplicated_deliveries += 1;
                    let delay = self.sample_delay();
                    let _ = route(
                        shared,
                        self.routers,
                        self.config.workers,
                        Instant::now() + delay,
                        to_global,
                        NodeCmd::Deliver { from, msg: msg.clone() },
                    );
                }
            }
        }
        if carries_token {
            shared.tokens_in_flight[self.ns].fetch_add(1, Ordering::SeqCst);
        }
        let delay = self.sample_delay();
        if !route(
            shared,
            self.routers,
            self.config.workers,
            Instant::now() + delay,
            to_global,
            NodeCmd::Deliver { from, msg },
        ) && carries_token
        {
            // Router gone (shutdown): the message — and its token — die.
            // `route` already undid the in-flight count; undo the census.
            shared.tokens_in_flight[self.ns].fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let shared = self.shared;
        *self.lease += 1;
        {
            let mut monitor = shared.lock_monitor(self.ns);
            let at = shared.sim_now();
            monitor.oracle.enter_cs(at, node, token_epoch);
            monitor.trace.push(at, TraceRecord::EnterCs(node));
        }
        shared.cs_entries[self.ns].fetch_add(1, Ordering::Relaxed);
        let global = self.global(node);
        let auto = matches!(shared.sessions.grant(global, Instant::now()), Some((_, _, true)));
        // Auto-release requests skip the wall-clock lease: the worker
        // exits the CS immediately after this command (`drain_auto`),
        // so no ExitLease ever crosses the router for them.
        if !auto {
            let _ = route(
                shared,
                self.routers,
                self.config.workers,
                Instant::now() + self.config.cs_duration,
                global,
                NodeCmd::ExitLease { lease: *self.lease },
            );
        }
    }

    fn set_timer(&mut self, node: NodeId, timer_id: u64, delay: SimDuration) {
        assert!(timer_id < (1 << GEN_SHIFT), "timer id too large for packing");
        *self.next_gen += 1;
        self.timers.arm(timer_id, *self.next_gen);
        let packed = timer_id | (*self.next_gen << GEN_SHIFT);
        let real_delay = ticks_to_wall(self.shared.tick_nanos, delay.ticks());
        let _ = route(
            self.shared,
            self.routers,
            self.config.workers,
            Instant::now() + real_delay,
            self.global(node),
            NodeCmd::Timer(packed),
        );
    }

    fn cancel_timer(&mut self, _node: NodeId, timer_id: u64) {
        self.timers.cancel(timer_id);
    }
}

/// One worker's thread: drains its mailbox in batches, runs its shard of
/// nodes through the shared engine driver, executes actions through the
/// routers and monitors. Effects are published batch-at-a-time — idle
/// flags first, then statistics, then the batch's in-flight claims are
/// released in one subtraction — so [`Runtime::settled`] never observes
/// a zero in-flight count with unpublished effects. Returns the shard's
/// final node states for the shutdown horizon.
fn worker_main<P: Protocol + Send + 'static>(
    mut slots: Vec<Slot<P>>,
    rx: Receiver<Mail<P::Msg>>,
    routers: Vec<Sender<RouterMsg<P::Msg>>>,
    shared: Arc<Shared>,
    config: RuntimeConfig,
) -> Vec<WorkerFinal<P>> {
    fn enqueue<M>(queue: &mut VecDeque<Targeted<M>>, mail: Mail<M>) {
        match mail {
            Mail::One(item) => queue.push_back(item),
            Mail::Many(items) => queue.extend(items),
        }
    }

    let workers = config.workers;
    let mut rng = StdRng::seed_from_u64(
        config.seed
            ^ slots.first().map_or(0, |s| (s.idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let mut out: Outbox<P::Msg> = Outbox::new();
    let mut queue: VecDeque<Targeted<P::Msg>> = VecDeque::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut stats = LocalStats::default();
    let mut stopping = false;

    'main: loop {
        match rx.recv() {
            Ok(mail) => enqueue(&mut queue, mail),
            Err(_) => break 'main,
        }
        // Opportunistic burst: top the batch up from whatever is already
        // queued, without blocking.
        while queue.len() < config.batch {
            match rx.try_recv() {
                Ok(mail) => enqueue(&mut queue, mail),
                Err(_) => break,
            }
        }
        let mut processed = 0u64;
        touched.clear();
        while let Some(Targeted { to, cmd }) = queue.pop_front() {
            processed += 1;
            if matches!(cmd, NodeCmd::Stop) {
                stopping = true;
                break;
            }
            stats.events_processed += 1;
            let slot_pos = (to.zero_based() as usize) / workers;
            let slot = &mut slots[slot_pos];
            process(slot, to, cmd, &mut out, &routers, &shared, &config, &mut rng, &mut stats);
            drain_auto(slot, to, &mut out, &routers, &shared, &config, &mut rng, &mut stats);
            touched.push(slot_pos);
        }
        // Publish the batch's effects, *then* release its in-flight
        // claims (idle-before-inflight is what `settled` relies on).
        touched.sort_unstable();
        touched.dedup();
        for &pos in touched.iter() {
            let slot = &slots[pos];
            shared.idle[slot.idx].store(slot.crashed || slot.node.is_idle(), Ordering::SeqCst);
        }
        stats.flush(&shared.counters);
        if stopping {
            // Mailbox FIFO puts Stop last, so nothing should follow it —
            // but account for any leftovers defensively, exactly like a
            // router discard.
            for item in queue.drain(..) {
                processed += 1;
                if let NodeCmd::Deliver { msg, .. } = &item.cmd {
                    if msg.carries_token() {
                        let ns = shared.ns_of(item.to.zero_based() as usize);
                        shared.tokens_in_flight[ns].fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
        shared.inflight.fetch_sub(processed, Ordering::SeqCst);
        if stopping {
            break 'main;
        }
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
#[allow(clippy::too_many_arguments)]
fn drive_slot<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    event: Option<NodeEvent<P::Msg>>,
    out: &mut Outbox<P::Msg>,
    routers: &[Sender<RouterMsg<P::Msg>>],
    shared: &Shared,
    config: &RuntimeConfig,
    rng: &mut StdRng,
    stats: &mut LocalStats,
) {
    let mut sink = ThreadSink {
        shared,
        routers,
        config,
        rng,
        timers: &mut slot.timers,
        next_gen: &mut slot.next_gen,
        lease: &mut slot.lease,
        ns: slot.ns,
        ns_offset: slot.ns_offset,
        stats,
    };
    match event {
        Some(event) => drive(&mut slot.node, event, out, &mut sink),
        None => drive_recovery(&mut slot.node, out, &mut sink),
    }
}

/// Exits the CS for as long as the node sits inside it on behalf of an
/// auto-release request — the closed-loop fast path: grant and exit
/// happen within one worker dispatch, no ExitLease round-trips through
/// the router. Loops because an exit can immediately re-grant the next
/// queued request, which may itself be auto-release.
#[allow(clippy::too_many_arguments)]
fn drain_auto<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    global: NodeId,
    out: &mut Outbox<P::Msg>,
    routers: &[Sender<RouterMsg<P::Msg>>],
    shared: &Shared,
    config: &RuntimeConfig,
    rng: &mut StdRng,
    stats: &mut LocalStats,
) {
    while !slot.crashed && slot.node.in_cs() && shared.sessions.current_is_auto(global) {
        exit_cs(slot, global, out, routers, shared, config, rng, stats);
    }
}

/// Executes one command against its node. `global` is the routing id;
/// the protocol and the namespace's monitor speak the local id.
#[allow(clippy::too_many_arguments)]
fn process<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    global: NodeId,
    cmd: NodeCmd<P::Msg>,
    out: &mut Outbox<P::Msg>,
    routers: &[Sender<RouterMsg<P::Msg>>],
    shared: &Shared,
    config: &RuntimeConfig,
    rng: &mut StdRng,
    stats: &mut LocalStats,
) {
    let local = slot.local(global);
    match cmd {
        NodeCmd::Stop => unreachable!("handled by the worker loop"),
        NodeCmd::Deliver { from, msg } => {
            if msg.carries_token() {
                shared.tokens_in_flight[slot.ns].fetch_sub(1, Ordering::SeqCst);
            }
            if slot.crashed {
                // Fail-stop: everything delivered while down is lost.
                stats.lost_to_crashes += 1;
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
            drive_slot(
                slot,
                Some(NodeEvent::Deliver { from, msg }),
                out,
                routers,
                shared,
                config,
                rng,
                stats,
            );
        }
        NodeCmd::Timer(packed) => {
            if slot.crashed {
                return;
            }
            let timer_id = packed & ((1 << GEN_SHIFT) - 1);
            let generation = packed >> GEN_SHIFT;
            if !slot.timers.fire(timer_id, generation) {
                return; // cancelled or superseded
            }
            drive_slot(
                slot,
                Some(NodeEvent::Timer(timer_id)),
                out,
                routers,
                shared,
                config,
                rng,
                stats,
            );
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
            drive_slot(slot, Some(NodeEvent::RequestCs), out, routers, shared, config, rng, stats);
        }
        NodeCmd::Release(id) => {
            if slot.crashed
                || !shared.sessions.is_current(RequestId::from_index(id), global)
                || !slot.node.in_cs()
            {
                return;
            }
            exit_cs(slot, global, out, routers, shared, config, rng, stats);
        }
        NodeCmd::ExitLease { lease } => {
            // Stale leases (superseded by a later CS entry, or by a
            // crash) are dropped — the runtime's analogue of the
            // simulator purging a dead CS's scheduled exit.
            if slot.crashed || lease != slot.lease || !slot.node.in_cs() {
                return;
            }
            exit_cs(slot, global, out, routers, shared, config, rng, stats);
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
            // node (its lease is invalidated below).
            let _ = shared.sessions.crash_node(global);
            slot.node.on_crash();
            slot.timers.clear();
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
            drive_slot(slot, None, out, routers, shared, config, rng, stats);
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
#[allow(clippy::too_many_arguments)]
fn exit_cs<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    global: NodeId,
    out: &mut Outbox<P::Msg>,
    routers: &[Sender<RouterMsg<P::Msg>>],
    shared: &Shared,
    config: &RuntimeConfig,
    rng: &mut StdRng,
    stats: &mut LocalStats,
) {
    let local = slot.local(global);
    {
        let mut monitor = shared.lock_monitor(slot.ns);
        let at = shared.sim_now();
        monitor.oracle.exit_cs(local);
        monitor.trace.push(at, TraceRecord::ExitCs(local));
    }
    let _ = shared.sessions.complete_current(global);
    drive_slot(slot, Some(NodeEvent::ExitCs), out, routers, shared, config, rng, stats);
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
            rt.request_cs(NodeId::new(i));
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
        rt.request_cs(NodeId::new(2));
        rt.request_cs(NodeId::new(7));
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
        // The wall-clock arithmetic bugfix: tick→wall conversion happens
        // in u64 nanoseconds. Before the fix, `instant_of` and
        // `set_timer` clamped the *tick count* to u32::MAX, collapsing
        // every schedule entry beyond ≈ 2.4 days (at a 50µs tick) onto
        // the same instant.
        let huge_ticks = 1u64 << 40;
        assert_eq!(ticks_to_wall(50_000, huge_ticks), Duration::from_nanos(huge_ticks * 50_000),);
        // Saturation, not wraparound, at the u64 ceiling.
        assert_eq!(ticks_to_wall(u64::MAX, 2), Duration::from_nanos(u64::MAX));

        // And the live mapping a scheduled workload would use.
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
        cfg.routers = 2;
        cfg.batch = 32;
        let populations: Vec<Vec<OpenCubeNode>> =
            (0..4).map(|_| OpenCubeNode::build_all(protocol(4))).collect();
        let rt = Runtime::start_multi(cfg, populations);
        assert_eq!(rt.namespaces(), 4);
        assert_eq!(rt.len(), 16);
        assert_eq!(rt.namespace_len(2), 4);
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
