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
//! ## One core, two ends
//!
//! A worker is itself sans-io. Its core (the crate's `worker` module)
//! runs one batch at a time, handed its mail and a clock — `u64`
//! nanoseconds since the runtime's epoch, the one clock type of every
//! deadline, stamp and delay queue — and hands back the bursts it posts
//! to other workers and the instant its next work falls due. Two ends
//! run that one core:
//!
//! * **threads** — [`Runtime`]: each worker's thread blocks on its
//!   mailbox channel, tops its batch up from what is already there,
//!   reads the wall clock for the core and sends its bursts; the only
//!   worker code that touches a clock or a channel;
//! * **virtual time** — [`run_virtual`]: every core on the calling
//!   thread, mailboxes as FIFOs, the clock jumping to the earliest due
//!   work and a seeded scheduler choosing which ready worker runs and
//!   where its batch is cut. Deterministic, and fast enough to play the
//!   explorer's battery (`oc_check::Substrate::Runtime`).
//!
//! Both end in the same judge, over the workers' exits, one clock
//! reading at the cut and whether the run had settled.
//!
//! On top of the substrate sit the pieces a lock *service* needs:
//!
//! * a client session API — [`Runtime::acquire`] / [`Runtime::release`]
//!   with [`RequestId`]s and an acquire-to-grant [`LatencyHistogram`];
//!   a client that wants to know how its requests end registers a
//!   [`Runtime::watcher`] and issues them with
//!   [`Runtime::acquire_watched`]: each one delivers exactly one
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
//! Six mechanisms keep the per-acquisition cost flat under load:
//!
//! * **Placement by namespace or subcube** — a worker runs whole
//!   namespaces, or, when there are fewer namespaces than workers,
//!   contiguous blocks of one (aligned subcubes of the open cube, whose
//!   p-groups a request climbs), so most of a claim's hops stay on one
//!   thread: with whole namespaces, no message crosses a mailbox at all
//!   ([`RuntimeReport::messages_crossed`]).
//! * **Mailbox batching** — a message for a node of the same worker
//!   goes straight into that worker's delay queue and touches no channel;
//!   messages for other workers are collected per destination and sent
//!   as one `Mail::Many` per batch, and workers drain their mailbox in
//!   `try_recv` bursts (of at most 128 commands) after each
//!   blocking receive — a message crosses at most one channel, and a
//!   batch sends at most one channel message per other worker, however
//!   many messages it carries.
//! * **Notices at settle time, one lock per watcher** — a request a
//!   worker ends (CS exit, a crash, an arrival at a dead node, a `Stop`)
//!   leaves its completion notice in a worker-owned buffer that keeps its
//!   capacity. When the worker settles the batch — after the idle flags,
//!   before it releases its claims — it locks each watcher's inbox once,
//!   appends all of the batch's notices for that watcher in the order
//!   they ended, and wakes the client only if it sleeps on the inbox; it
//!   counts each request delivered only after its notice is in the
//!   inbox, so [`Runtime::settled`] never holds while one is not.
//!   The client takes the inbox's whole list in one swap: no allocation
//!   either side, and no syscall while the client is busy. A ticket
//!   names its [`Watcher`] by a key (the slot of its inbox in the
//!   runtime's registry and the watcher's generation), and each worker
//!   keeps its own copy of the registry's inboxes, so issuing and
//!   delivering a watched request write no reference count.
//! * **One clock reading per command** — a worker's core reads its clock
//!   once per command and once per timer firing; every message deadline,
//!   timer deadline, lease expiry, monitor stamp and grant-latency sample
//!   the command produces derives from that reading. A runtime started
//!   without a fault script never evaluates one on a send.
//! * **Worker-owned books** — what only a node's worker writes stays
//!   with that worker: the node's grant queue, one plain
//!   [`oc_sim::Metrics`] of messages, events and losses, and a signed
//!   per-namespace tally of token messages sent minus received. They are
//!   handed back when the worker is joined and folded at shutdown. What
//!   two threads touch is shared: the in-flight claims, the request
//!   counts and the idle flags that [`Runtime::settled`] reasons about
//!   (`SeqCst`), the request accounts, and the latency histograms. No
//!   count is global, and each sits on 128-byte-aligned lines that only
//!   its owner writes: per worker, its latency histogram, its idle flags
//!   and the in-flight claims it takes and releases; per namespace, the
//!   workers' record of its monitor and its served, ended and delivered
//!   counts, and the clients' record of the requests issued (whose
//!   count is the next request's index) and the claims they take. A
//!   schedule's, a `Stop`'s and a failed send's claims go on one line of
//!   their own. Readers sum the counts — every release before any take,
//!   and a namespace's delivered count before its issued count, so equal
//!   sums mean nothing was outstanding at one instant — and merge the
//!   histograms.
//! * **Live timers only** — arming a timer puts its deadline in the
//!   owning worker's [`oc_sim::DeadlineSet`]; cancelling, re-arming or crashing
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
mod virtual_time;
mod worker;

pub use histogram::{LatencyHistogram, LatencySummary};
pub use report::RuntimeReport;
pub use session::{RequestId, RequestStatus, Watcher};
pub use virtual_time::run_virtual;

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oc_sim::{
    check_horizon, isolation_from_components, ArrivalSchedule, CompiledScript, DelayModel,
    FailurePlan, FaultScript, Horizon, LivenessReport, Metrics, NodeAtHorizon, OracleReport,
    Protocol, SimDuration, SimTime,
};
use oc_topology::NodeId;

use session::{InboxCache, WatcherKey};
use worker::{assemble, Core, Mail, Next, NodeCmd, Shared, Slot, Targeted, WorkerExit};

/// Configuration of the threaded runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads the nodes are sharded over; `0` means `min(n, 8)`.
    /// With at least this many namespaces, namespace `k` lives whole on
    /// worker `k mod workers`; with fewer, each namespace is cut into
    /// contiguous blocks of `⌈len / workers⌉` nodes dealt round-robin
    /// (aligned subcubes at power-of-two sizes). The count is clamped to
    /// the workers those blocks fill, so no worker runs without a node:
    /// one 4-node namespace asked onto three workers runs on two (blocks
    /// of two), and [`Runtime::workers`] reports what was started.
    pub workers: usize,
    /// Real-time length of one protocol tick: maps the protocol's timer
    /// delays and every message delay, all in ticks, to wall-clock time.
    pub tick: Duration,
    /// Each message's delay, in whole ticks, drawn by its sender through
    /// [`DelayModel::sample`] as the simulator draws it (default `[0, 20]`,
    /// 1 ms); δ must cover its bound. The name stays: the benchmark sets it.
    pub max_network_delay: DelayModel,
    /// How long a granted request holds the critical section before the
    /// lease expires (an explicit [`Runtime::release`] ends it earlier;
    /// auto-release requests skip the lease entirely).
    pub cs_duration: Duration,
    /// Seed for the delay- and fault-injection RNGs (per-worker streams
    /// derive from it).
    pub seed: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 0,
            tick: Duration::from_micros(50),
            max_network_delay: DelayModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_ticks(20),
            },
            cs_duration: Duration::from_micros(500),
            seed: 0,
        }
    }
}

/// The threaded runtime handle.
pub struct Runtime<P: Protocol> {
    shared: Arc<Shared>,
    /// The origin of the runtime's clock: every worker and every stamp
    /// reads nanoseconds since this instant.
    epoch: Instant,
    worker_txs: Vec<Sender<Mail<P::Msg>>>,
    worker_handles: Vec<JoinHandle<WorkerExit<P>>>,
    config: RuntimeConfig,
}

/// Nanoseconds from `epoch` to now — the runtime's one clock on threads.
fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

    fn start_inner(config: RuntimeConfig, script: FaultScript, populations: Vec<Vec<P>>) -> Self {
        let (shared, config, shards) = assemble(config, script, populations);
        let shared = Arc::new(shared);
        let epoch = Instant::now();

        let mut worker_txs = Vec::with_capacity(config.workers);
        let mut worker_rxs = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = channel::<Mail<P::Msg>>();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }
        let mut worker_handles = Vec::with_capacity(config.workers);
        for (me, (slots, rx)) in shards.into_iter().zip(worker_rxs).enumerate() {
            let shared = Arc::clone(&shared);
            let mailboxes = worker_txs.clone();
            worker_handles.push(std::thread::spawn(move || {
                let core = Core::new(me, slots, &shared, &config, None);
                worker_main::<P>(core, &rx, &mailboxes, epoch)
            }));
        }

        Runtime { shared, epoch, worker_txs, worker_handles, config }
    }

    /// Total number of nodes across all namespaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// `true` if the runtime has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        (id.node().get() as usize <= self.len()).then(|| self.shared.ns_of(id.node()))
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

    /// Hands one command that is due *now* to the mailbox of the worker
    /// of `to`, a node of namespace `ns` (client acquires and releases,
    /// immediate crash/recover), its in-flight claim taken on the
    /// namespace's client line. If the worker is gone the claim is
    /// released and a request the command carried is abandoned.
    fn send_direct(&self, ns: usize, to: NodeId, cmd: NodeCmd<P::Msg>) {
        self.shared.sessions.claim(ns);
        let w = self.shared.placement.worker(to);
        if let Err(SendError(Mail::One(lost))) =
            self.worker_txs[w].send(Mail::One(Targeted { to, cmd }))
        {
            self.shared.rare_claims.0.release(1);
            let mut lost = self.shared.abandon(lost);
            self.shared.sessions.notify(lost.as_mut_slice(), &mut InboxCache::default());
        }
    }

    /// Posts commands that are due later, each to its destination
    /// worker's mailbox — one [`Mail::Many`] per worker, filed in that
    /// worker's delay queue in the order given. What was meant for a
    /// worker that is gone is dropped like a failed
    /// [`Runtime::send_direct`].
    fn send_later(&self, items: Vec<(u64, Targeted<P::Msg>)>) {
        for (tx, burst) in self.worker_txs.iter().zip(self.shared.placement.bursts(items)) {
            let claims = burst.len() as u64;
            if claims == 0 {
                continue;
            }
            self.shared.rare_claims.0.take(claims);
            if let Err(SendError(Mail::Many(lost))) = tx.send(Mail::Many(burst)) {
                self.shared.rare_claims.0.release(claims);
                let mut lost: Vec<_> =
                    lost.into_iter().filter_map(|(_, item)| self.shared.abandon(item)).collect();
                self.shared.sessions.notify(&mut lost, &mut InboxCache::default());
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
    /// Panics if `ns` or `node` is out of range, or if `watcher` was
    /// opened by another runtime.
    pub fn acquire_watched(
        &self,
        ns: usize,
        node: NodeId,
        watcher: &Watcher,
        auto_release: bool,
    ) -> RequestId {
        assert!(self.shared.sessions.watchers.owns(watcher), "a watcher of another runtime");
        self.submit(ns, node, auto_release, Some(watcher.key()))
    }

    /// The one body of every immediate acquire: issue the ticket, send it
    /// to its node.
    fn submit(
        &self,
        ns: usize,
        node: NodeId,
        auto_release: bool,
        watcher: Option<WatcherKey>,
    ) -> RequestId {
        let global = self.global_of(ns, node);
        let now = nanos_since(self.epoch);
        let ticket = self.shared.sessions.open(ns, global, now, auto_release, watcher);
        let id = ticket.id;
        self.send_direct(ns, global, NodeCmd::Acquire(ticket));
        id
    }

    /// Opens a completion stream for [`Runtime::acquire_watched`].
    #[must_use]
    pub fn watcher(&self) -> Watcher {
        self.shared.sessions.watchers.register()
    }

    /// Releases a granted request early (before its lease expires).
    /// Ignored unless `id` currently holds its node's critical section.
    pub fn release(&self, id: RequestId) {
        if let Some(ns) = self.namespace_of(id) {
            self.send_direct(ns, id.node(), NodeCmd::Release(id));
        }
    }

    /// Fail-stops `node` (global id) now.
    pub fn crash(&self, node: NodeId) {
        self.shared.assert_node(node);
        self.send_direct(self.shared.ns_of(node), node, NodeCmd::Crash);
    }

    /// Recovers `node` (global id) now.
    pub fn recover(&self, node: NodeId) {
        self.shared.assert_node(node);
        self.send_direct(self.shared.ns_of(node), node, NodeCmd::Recover);
    }

    /// Schedules every arrival of `schedule` (tick timestamps mapped
    /// through the configured `tick`, nodes addressed by global id),
    /// returning the request ids in schedule order — the same generators
    /// (`oc_sim::workload`) drive both the simulator and the runtime.
    pub fn schedule_workload(&self, schedule: &ArrivalSchedule) -> Vec<RequestId> {
        let (ids, later) = self.shared.arrivals(schedule);
        self.send_later(later);
        ids
    }

    /// Schedules the crash (and optional recovery) events of `plan`,
    /// tick timestamps mapped through the configured `tick`, nodes
    /// addressed by global id — the same `FailurePlan` the simulator
    /// consumes.
    pub fn schedule_failures(&self, plan: &FailurePlan) {
        self.send_later(self.shared.failures(plan));
    }

    /// Critical sections completed so far, summed over all namespaces.
    #[must_use]
    pub fn cs_entries(&self) -> u64 {
        (0..self.namespaces()).map(|ns| self.shared.cs_entries(ns)).sum()
    }

    /// Critical sections completed by namespace `ns` so far.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is out of range.
    #[must_use]
    pub fn cs_entries_in(&self, ns: usize) -> u64 {
        self.shared.cs_entries(ns)
    }

    /// The full latency histogram: every worker's, merged.
    #[must_use]
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.shared.sessions.latency()
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
        self.shared.settled()
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
        let horizon = nanos_since(self.epoch);
        let drained = self.settled();
        let exits = self.stop_threads();
        judge(&self.shared, exits, horizon, drained)
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
            self.shared.rare_claims.0.take(1);
            if tx.send(Mail::One(Targeted { to: NodeId::new(1), cmd: NodeCmd::Stop })).is_err() {
                self.shared.rare_claims.0.release(1);
            }
        }
        // A panicked worker yields nothing; the judge notices the missing
        // nodes and panics loudly there — panicking here would abort the
        // process when stop runs during unwinding.
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

/// One worker's thread: the OS end of its [`Core`]. It blocks on the
/// mailbox until mail arrives or the core's next work falls due, tops
/// the batch up from what is already in the mailbox, reads the wall
/// clock for the core, and posts the core's bursts to the other
/// workers' mailboxes. Returns the shard and the worker's own books for
/// the shutdown judge.
fn worker_main<P: Protocol + Send + 'static>(
    mut core: Core<'_, P>,
    rx: &Receiver<Mail<P::Msg>>,
    mailboxes: &[Sender<Mail<P::Msg>>],
    epoch: Instant,
) -> WorkerExit<P> {
    let clock = || nanos_since(epoch);
    let mut next = Next::Wait(None);
    loop {
        match next {
            Next::Stop => {
                core.stop(rx.try_iter());
                break;
            }
            Next::Wait(None) => match rx.recv() {
                Ok(mail) => core.accept(mail),
                Err(_) => break,
            },
            Next::Wait(Some(due)) => {
                let now = clock();
                if due > now {
                    match rx.recv_timeout(Duration::from_nanos(due - now)) {
                        Ok(mail) => core.accept(mail),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        }
        // Opportunistic burst: top the batch up from whatever is already
        // in the mailbox, without blocking.
        while core.wants_mail() {
            match rx.try_recv() {
                Ok(mail) => core.accept(mail),
                Err(_) => break,
            }
        }
        next = core
            .run_batch(clock, |w, mail| mailboxes[w].send(mail).map_err(|SendError(mail)| mail));
    }
    core.into_exit()
}

/// The one judge of a finished run, on either end: folds what the
/// workers hand back — their nodes in global order, one sum of their
/// statistics, and per namespace the token messages sent and never
/// received — ends the requests the cut found at their nodes, and judges
/// each namespace with its own oracles. `horizon` is the run's one clock
/// reading at the cut (nanoseconds since the epoch): the report's `wall`
/// time, the liveness horizon's instant and the token census's stamp.
/// `drained` is whether the run had settled when it was cut.
///
/// # Panics
///
/// Panics if a worker's shard is missing (the worker panicked).
fn judge<P: Protocol>(
    shared: &Shared,
    exits: Vec<WorkerExit<P>>,
    horizon: u64,
    drained: bool,
) -> RuntimeReport {
    let at = shared.ticks_at(horizon);
    let mut slots: Vec<Slot<P>> = Vec::with_capacity(shared.len());
    let mut metrics = Metrics::default();
    let mut tokens_afloat = vec![0i64; shared.ns.len()];
    let mut crossed = 0;
    for exit in exits {
        slots.extend(exit.slots);
        metrics.merge(&exit.metrics);
        crossed += exit.crossed;
        for (sum, tally) in tokens_afloat.iter_mut().zip(exit.tokens_afloat) {
            *sum += tally;
        }
    }
    assert_eq!(slots.len(), shared.len(), "a worker panicked; its shard's final state is lost");
    slots.sort_by_key(|slot| slot.seat.idx);
    // The requests the cut found at their nodes. (Those still on their
    // way were ended by their worker's stop.)
    let mut notices = Vec::new();
    for slot in &mut slots {
        slot.seat
            .vacate(|ns, ticket, status| notices.push(shared.sessions.close(ns, ticket, status)));
    }
    shared.sessions.notify(&mut notices, &mut InboxCache::default());

    // Judge each namespace with its own oracles, then fold. The terminal
    // token census counts live holders plus tokens still in flight; the
    // *safety* census counts only holders at the namespace's highest
    // witnessed epoch — a fenced-out stale token awaiting discard is the
    // current token's predecessor, not a duplicate (identical to the
    // total under `Hardening::None`, where every epoch is 0).
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
        let served = shared.cs_entries(k);
        cs_total += served;
        let (ns_injected, ns_completed, ns_abandoned) = shared.sessions.counts(k);
        injected += ns_injected;
        completed += ns_completed;
        abandoned += ns_abandoned;
        // Partition awareness at the horizon, mirroring the simulator's
        // `World::horizon` (scripts exist only in single-namespace runs;
        // elsewhere this is one healed component). Waiting requests were
        // just ended as `abandoned`, so `unreachable` stays 0.
        let isolated = isolation_at(&shared.script, at, drained, span, census);
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
        oracle.token_census(at, holders_at_max + in_flight);
        safety.absorb(oracle.report().clone());
    }

    RuntimeReport {
        cs_entries: cs_total,
        messages_sent: metrics.total_sent(),
        messages_crossed: crossed,
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
        latency: shared.sessions.latency().summary(),
        wall: Duration::from_nanos(horizon),
    }
}

/// Partition awareness for one namespace's horizon — the same policy as
/// the simulator's `World::horizon`, through the shared
/// [`oc_sim::isolation_from_components`]. `span` is the namespace's
/// contiguous slice of the (index-sorted) final states; the result is
/// positional over that slice. `census` is the namespace's terminal
/// live-token census. Fault scripts exist only in single-namespace runs,
/// so other namespaces see one healed component.
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

#[cfg(test)]
mod tests {
    use super::*;
    use oc_algo::{Config, OpenCubeNode};
    use oc_sim::SimDuration;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { workers, ..RuntimeConfig::default() }
    }

    fn protocol(n: usize) -> Config {
        // δ = 40 ticks ≥ the default delay bound of 20.
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
        cfg.max_network_delay =
            DelayModel::Uniform { min: SimDuration::ZERO, max: SimDuration::from_ticks(20) };
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
        // A scheduled workload's tick timestamps map to the runtime's
        // nanosecond clock through `Shared::nanos_of`: a tick count
        // clamped to u32::MAX would collapse every schedule entry beyond
        // ≈ 2.4 days (at a 50µs tick) onto the same instant.
        let huge_ticks = 1u64 << 40;
        let rt = rt(2, 1);
        let mapped = rt.shared.nanos_of(huge_ticks);
        assert_eq!(mapped, huge_ticks * 50_000);
        let clamped = u64::from(u32::MAX) * 50_000;
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
    fn whole_namespaces_cross_no_mailbox() {
        // Four 16-node namespaces over two workers: each lives whole on
        // one, so however the threads interleave, no message crosses.
        let multi = Runtime::start_multi(
            config(2),
            (0..4).map(|_| OpenCubeNode::build_all(protocol(16))).collect(),
        );
        for ns in 0..4 {
            for node in [16, 9, 5, 2] {
                let _ = multi.acquire_in(ns, NodeId::new(node));
            }
        }
        assert!(multi.await_settled(Duration::from_secs(30)));
        let report = multi.shutdown();
        assert!(report.is_clean(), "oracles: {report:?}");
        assert!(report.messages_sent > 0, "the token has to move: {report:?}");
        assert_eq!(report.messages_crossed, 0, "{report:?}");
        // One namespace over the same two workers: two half-cubes, and a
        // request in one half for the token in the other crosses.
        let single = rt(16, 2);
        let _ = single.acquire(NodeId::new(16));
        assert!(single.await_settled(Duration::from_secs(30)));
        let report = single.shutdown();
        assert!(report.messages_crossed > 0, "{report:?}");
        assert!(report.messages_crossed < report.messages_sent, "{report:?}");
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
            max_network_delay: DelayModel::Uniform {
                min: SimDuration::ZERO,
                max: SimDuration::from_ticks(10),
            },
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
