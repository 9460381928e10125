//! The worker core: one worker's nodes together with the network, the
//! timer service and the lease clock of exactly those nodes, run one
//! batch at a time. It is sans-io: an end hands it mail and a clock —
//! `u64` nanoseconds since the runtime's epoch — and it hands back the
//! bursts it posts to other workers and the instant its next work falls
//! due. It never blocks, sleeps or reads a clock of its own.
//!
//! Two ends run it. On threads (`worker_main` in the crate root) the
//! clock is the wall clock and the mail comes off a channel; in virtual
//! time ([`crate::run_virtual`]) one thread steps every worker's core
//! and the clock jumps to the earliest due work. Everything else — the
//! delay queue, the live timers, the batch's books and the order in
//! which it settles them — is this module, once.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::MutexGuard;

use oc_sim::{
    drive, drive_recovery, ActionSink, ArrivalSchedule, Choices, CompiledScript, DeadlineSet,
    FailurePlan, FaultScript, LinkFate, MessageKind, Metrics, NodeEvent, Oracle, Outbox, Protocol,
    SimDuration, SimTime, Tape,
};
use oc_topology::NodeId;

use crate::session::{InboxCache, Notice, Padded, Sessions, Ticket};
use crate::{RequestId, RequestStatus, RuntimeConfig};

/// Largest burst of commands a worker drains from its mailbox before
/// publishing effects (idle flags, statistics, in-flight claims).
const BATCH: usize = 128;

/// One command addressed to a node, executed by its owning worker.
/// (Timers are not commands: they never leave the worker that owns the
/// node — see [`DeadlineSet`].)
pub(crate) enum NodeCmd<M> {
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
pub(crate) struct Targeted<M> {
    pub(crate) to: NodeId,
    pub(crate) cmd: NodeCmd<M>,
}

/// What worker mailboxes carry: one command that is due now (client
/// acquires and releases, immediate crash/recover, Stop) — queued by the
/// receiver without a look at the clock — or a burst of commands with
/// the instant each is due (nanoseconds since the epoch), which the
/// receiver files in its delay queue: another worker's messages for this
/// worker's nodes, one mailbox message for the whole burst, or a
/// schedule's arrivals and failures.
pub(crate) enum Mail<M> {
    One(Targeted<M>),
    Many(Vec<(u64, Targeted<M>)>),
}

/// One namespace's slice of the global node space: nodes
/// `offset + 1 ..= offset + len` (global) are the namespace's
/// `1 ..= len` (local).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NsMeta {
    pub(crate) offset: u32,
    pub(crate) len: u32,
}

/// Where a node runs: its worker, and its position in that worker's
/// shard — also its owner id in the worker's [`DeadlineSet`] and the
/// index of its idle flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Place {
    pub(crate) worker: u32,
    pub(crate) pos: u32,
}

/// Which worker runs each node, and at which position of its shard.
///
/// Open-cube p-groups are aligned, contiguous id ranges, and a request
/// climbs inside nested ones, so a worker that owns whole ranges keeps
/// a claim's hops on its own thread. With at least as many namespaces
/// as workers, namespace `k` lives whole on worker `k mod W`. With fewer,
/// each namespace is cut into contiguous blocks of `⌈len / W⌉` ids and
/// the blocks are dealt round-robin — at power-of-two sizes those are
/// aligned subcubes (at n = 256 over two workers, the two half-cubes:
/// only the traffic between the halves crosses a mailbox). A worker's
/// positions are dense, in global order.
///
/// Fewer blocks than workers leave the last workers without a node (one
/// 6-node namespace over four workers: blocks of two on workers 0–2):
/// the table keeps only the workers it fills.
pub(crate) struct Placement {
    /// Indexed by zero-based global id.
    places: Vec<Place>,
    /// The workers that run at least one node: `0..workers`.
    workers: usize,
}

impl Placement {
    /// Places the namespaces `ns` over at most `workers` workers.
    pub(crate) fn new(ns: &[NsMeta], workers: usize) -> Self {
        let whole = ns.len() >= workers;
        let mut sizes = vec![0u32; workers];
        let mut places = Vec::with_capacity(ns.iter().map(|meta| meta.len as usize).sum());
        let mut blocks = 0;
        for meta in ns {
            let block = if whole { meta.len } else { meta.len.div_ceil(workers as u32) };
            for j in 0..meta.len {
                let worker = (blocks + (j / block) as usize) % workers;
                places.push(Place { worker: worker as u32, pos: sizes[worker] });
                sizes[worker] += 1;
            }
            blocks += meta.len.div_ceil(block) as usize;
        }
        // Blocks fill workers 0, 1, … in turn: the empty shards are last.
        Placement { places, workers: workers.min(blocks) }
    }

    /// Workers that run at least one node.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Where (global) `node` runs.
    pub(crate) fn of(&self, node: NodeId) -> Place {
        self.places[node.zero_based() as usize]
    }

    /// The worker that runs (global) `node`.
    pub(crate) fn worker(&self, node: NodeId) -> usize {
        self.of(node).worker as usize
    }

    /// Splits commands that are due later into one burst per destination
    /// worker, each in the order given.
    pub(crate) fn bursts<M>(&self, items: Vec<(u64, Targeted<M>)>) -> Vec<Vec<(u64, Targeted<M>)>> {
        let mut bursts: Vec<Vec<_>> = (0..self.workers).map(|_| Vec::new()).collect();
        for item in items {
            bursts[self.worker(item.1.to)].push(item);
        }
        bursts
    }
}

/// Idle flags per cache-line pair.
const IDLE_LINE: usize = 128;

/// The in-flight claims one owner has taken and released. Both counts
/// only grow; `SeqCst`, as parts of the [`Shared::settled`] predicate.
#[derive(Default)]
pub(crate) struct Claims {
    taken: AtomicU64,
    released: AtomicU64,
}

impl Claims {
    pub(crate) fn take(&self, count: u64) {
        self.taken.fetch_add(count, Ordering::SeqCst);
    }

    pub(crate) fn release(&self, count: u64) {
        self.released.fetch_add(count, Ordering::SeqCst);
    }
}

/// What the workers and the runtime's handle share.
pub(crate) struct Shared {
    /// The request accounts, each namespace's books (monitor, counts) and
    /// the workers' latency histograms.
    pub(crate) sessions: Sessions,
    /// Which worker runs each node, and where in its shard.
    pub(crate) placement: Placement,
    /// Per worker, the in-flight claims it takes and releases, on lines
    /// of its own. A claim is a command sitting in a mailbox, a worker's
    /// batch queue or its delay queue, or a live timer arming (from arm
    /// to fire, cancel or crash — a superseding re-arm inherits it). A
    /// claim is taken before its command enters a mailbox; whatever a
    /// worker files with itself in mid-batch is covered by the claims of
    /// the batch being processed until its own are added. Workers take a
    /// batch's claims before posting its bursts and release the claims it
    /// is done with in one step, *after* publishing the batch's idle
    /// flags and delivering its notices, which is what keeps
    /// [`Shared::settled`] sound. Clients take theirs on their
    /// namespace's line ([`Sessions::claim`]).
    worker_claims: Vec<Padded<Claims>>,
    /// The claims of the rare paths: schedules, `Stop`, a virtual run's
    /// filing, and the release of whatever a send failed to hand over.
    pub(crate) rare_claims: Padded<Claims>,
    /// Per worker, per shard position, "has nothing pending" flags,
    /// refreshed by the worker after every batch (crashed nodes read as
    /// idle — the liveness oracle only judges live nodes). Each worker's
    /// flags sit on lines of their own; positions past the shard's end
    /// stay idle.
    idle: Vec<Vec<Padded<[AtomicBool; IDLE_LINE]>>>,
    /// Namespace geometry, ordered by offset.
    pub(crate) ns: Vec<NsMeta>,
    /// The time-scripted fault program, compiled against the system size.
    /// Phase windows are in protocol ticks, evaluated against
    /// [`Shared::ticks_at`] — the same script the simulator consumes.
    /// Empty by default: nothing injected, no RNG draws. Only
    /// single-namespace runtimes may script faults.
    pub(crate) script: CompiledScript,
    /// `false` when the script has no phase that can ever be active (the
    /// runtime was started without one): sends skip the script check.
    scripted: bool,
    /// One protocol tick in nanoseconds.
    tick_nanos: u64,
}

impl Shared {
    /// Nanoseconds since the epoch as protocol ticks — the oracle's
    /// timestamp and the fault script's clock.
    pub(crate) fn ticks_at(&self, nanos: u64) -> SimTime {
        SimTime::from_ticks(nanos / self.tick_nanos)
    }

    /// `ticks` protocol ticks in nanoseconds, saturating (the count is
    /// never narrowed: 2^40 ticks map exactly).
    pub(crate) fn nanos_of(&self, ticks: u64) -> u64 {
        ticks.saturating_mul(self.tick_nanos)
    }

    pub(crate) fn lock_monitor(&self, ns: usize) -> MutexGuard<'_, Oracle> {
        self.sessions.books(ns).lock_monitor()
    }

    /// Critical sections completed by namespace `ns` so far.
    pub(crate) fn cs_entries(&self, ns: usize) -> u64 {
        self.sessions.books(ns).cs_entries.load(Ordering::Relaxed)
    }

    /// The namespace a (global) node belongs to.
    pub(crate) fn ns_of(&self, node: NodeId) -> usize {
        self.ns.partition_point(|meta| meta.offset <= node.zero_based()).saturating_sub(1)
    }

    /// Total number of nodes across all namespaces.
    pub(crate) fn len(&self) -> usize {
        self.placement.places.len()
    }

    /// Panics unless `node` is a global id of this runtime.
    pub(crate) fn assert_node(&self, node: NodeId) {
        let n = self.len();
        assert!((1..=n as u32).contains(&node.get()), "node {node} outside 1..={n}");
    }

    /// A command that will never be processed: if it carried a request,
    /// the request is abandoned, and its notice returned to be delivered. (Its
    /// in-flight claim, and the token tally of a message, are the
    /// caller's to settle.)
    pub(crate) fn abandon<M>(&self, item: Targeted<M>) -> Option<Notice> {
        match item.cmd {
            NodeCmd::Acquire(ticket) => {
                Some(self.sessions.close(self.ns_of(item.to), ticket, RequestStatus::Abandoned))
            }
            _ => None,
        }
    }

    /// `true` if nothing is in flight, every request has ended, and
    /// every live node is idle — the runtime's quiescence predicate.
    pub(crate) fn settled(&self) -> bool {
        self.claims_balance()
            && self.sessions.all_ended()
            && self.idle.iter().flatten().all(|line| line.0.iter().all(|f| f.load(Ordering::SeqCst)))
            // Re-check: a command processed between the first check and
            // the idle scan would have been visible as in-flight (workers
            // publish idle flags before releasing in-flight claims).
            && self.claims_balance()
    }

    /// `true` if every in-flight claim taken has been released. Every
    /// release is read before any take; each count only grows, and a
    /// claim is released only after it was taken, so equal sums mean no
    /// claim was outstanding at the instant between the two reads.
    fn claims_balance(&self) -> bool {
        let owners = || self.worker_claims.iter().chain([&self.rare_claims]).map(|c| &c.0);
        let released: u64 = owners().map(|c| c.released.load(Ordering::SeqCst)).sum();
        let taken: u64 = owners().map(|c| c.taken.load(Ordering::SeqCst)).sum();
        released == taken + self.sessions.claims_taken()
    }

    /// The commands of `schedule`'s arrivals (nodes addressed by global
    /// id), each due at its tick mapped to nanoseconds, with the ids of
    /// the requests they carry in schedule order. A scheduled request's
    /// issue time is its due instant.
    pub(crate) fn arrivals<M>(
        &self,
        schedule: &ArrivalSchedule,
    ) -> (Vec<RequestId>, Vec<(u64, Targeted<M>)>) {
        let mut ids = Vec::with_capacity(schedule.len());
        let mut later = Vec::with_capacity(schedule.len());
        for (at, node) in schedule.arrivals().iter() {
            self.assert_node(node);
            let due = self.nanos_of(at.ticks());
            let ticket = self.sessions.open(self.ns_of(node), node, due, false, None);
            ids.push(ticket.id);
            later.push((due, Targeted { to: node, cmd: NodeCmd::Acquire(ticket) }));
        }
        (ids, later)
    }

    /// The crash (and recovery) commands of `plan`, each due at its tick
    /// mapped to nanoseconds, nodes addressed by global id.
    pub(crate) fn failures<M>(&self, plan: &FailurePlan) -> Vec<(u64, Targeted<M>)> {
        let mut later = Vec::new();
        for ev in plan.events() {
            self.assert_node(ev.node);
            let crash = Targeted { to: ev.node, cmd: NodeCmd::Crash };
            later.push((self.nanos_of(ev.at.ticks()), crash));
            if let Some(recover_at) = ev.recover_at {
                let recover = Targeted { to: ev.node, cmd: NodeCmd::Recover };
                later.push((self.nanos_of(recover_at.ticks()), recover));
            }
        }
        later
    }
}

/// Builds what both ends start from: the shared state, the config with
/// its worker count resolved — clamped to the workers the placement
/// fills — and the nodes sharded over the workers as the [`Placement`]
/// table built here says — whole namespaces per worker, or aligned blocks
/// of one when there are fewer namespaces than workers — each shard in
/// global order.
///
/// # Panics
///
/// Panics if the config's `tick` is zero, if `populations` is empty or
/// holds an empty namespace, if a node's `id()` disagrees with its
/// position, or if a fault script is given for several namespaces.
pub(crate) fn assemble<P: Protocol>(
    mut config: RuntimeConfig,
    script: FaultScript,
    populations: Vec<Vec<P>>,
) -> (Shared, RuntimeConfig, Vec<Vec<Slot<P>>>) {
    assert!(!config.tick.is_zero(), "tick must be positive");
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
    let asked = match config.workers {
        0 => n.clamp(1, 8),
        w => w.min(n.max(1)),
    };
    let placement = Placement::new(&ns, asked);
    let workers = placement.workers();
    config.workers = workers;
    let mut shards: Vec<Vec<Slot<P>>> = (0..workers).map(|_| Vec::new()).collect();
    let namespaces = populations.len();
    for (k, nodes) in populations.into_iter().enumerate() {
        let meta = ns[k];
        for (j, node) in nodes.into_iter().enumerate() {
            let idx = meta.offset as usize + j;
            let Place { worker, pos } = placement.places[idx];
            let shard = &mut shards[worker as usize];
            debug_assert_eq!(shard.len(), pos as usize, "positions are dense, in global order");
            shard.push(Slot {
                node,
                seat: Seat {
                    idx,
                    pos,
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
    let idle_line = || Padded(std::array::from_fn(|_| AtomicBool::new(true)));
    let shared = Shared {
        sessions: Sessions::new(namespaces, workers),
        placement,
        worker_claims: (0..workers).map(|_| Padded::default()).collect(),
        rare_claims: Padded::default(),
        idle: shards
            .iter()
            .map(|shard| (0..shard.len().div_ceil(IDLE_LINE)).map(|_| idle_line()).collect())
            .collect(),
        ns,
        scripted: script.enabled(),
        script: script.compile(n),
        tick_nanos: u64::try_from(config.tick.as_nanos()).unwrap_or(u64::MAX).max(1),
    };
    (shared, config, shards)
}

/// One node within its worker's shard: the protocol state machine and,
/// apart from it (the engine borrows the two separately), its seat in
/// the substrate.
pub(crate) struct Slot<P> {
    pub(crate) node: P,
    pub(crate) seat: Seat,
}

/// One node's substrate state, written only by the worker that owns it.
pub(crate) struct Seat {
    /// Global zero-based index (namespace offset + local index).
    pub(crate) idx: usize,
    /// Position in the owning worker's shard, as the [`Placement`] table
    /// says — also the node's owner id in that worker's [`DeadlineSet`]
    /// and the index of its idle flag.
    pos: u32,
    /// Namespace this node belongs to.
    ns: usize,
    /// The namespace's global offset: local id = global id − offset.
    ns_offset: u32,
    pub(crate) crashed: bool,
    pub(crate) recovered_ever: bool,
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
    pub(crate) fn vacate(&mut self, mut end: impl FnMut(usize, Ticket, RequestStatus)) {
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
pub(crate) struct WorkerExit<P> {
    pub(crate) slots: Vec<Slot<P>>,
    pub(crate) metrics: Metrics,
    pub(crate) tokens_afloat: Vec<i64>,
    pub(crate) crossed: u64,
}

/// A command in a worker's delay queue. The sequence number keeps
/// commands due at the same instant in the order they were filed.
struct Delayed<M> {
    deliver_at: u64,
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

/// What a batch leaves its end to do next.
pub(crate) enum Next {
    /// Wait for mail — and no longer than until the given instant, when
    /// the worker's earliest delayed command or live timer falls due.
    Wait(Option<u64>),
    /// The batch met `Stop`: hand [`Core::stop`] what is still in the
    /// mailbox, then hand the worker back ([`Core::into_exit`]).
    Stop,
}

/// Everything a worker owns besides its nodes: the network, timer
/// service and lease clock of exactly those nodes, and the books it
/// settles once per batch.
struct Worker<'a, M> {
    /// This worker's index: it runs the nodes the [`Placement`] table puts
    /// on worker `me`.
    me: usize,
    shared: &'a Shared,
    /// `RuntimeConfig::max_network_delay` in nanoseconds.
    max_delay: u64,
    /// `RuntimeConfig::cs_duration` in nanoseconds.
    lease_length: u64,
    /// This worker's draw stream: its messages' delays and fates.
    choices: Choices,
    /// Messages, events, losses, crashes and recoveries of this worker's
    /// nodes; summed over the workers at shutdown.
    metrics: Metrics,
    /// Per namespace, token-carrying messages this worker sent minus
    /// those it received (or discarded): summed over the workers, the
    /// tokens in flight — the runtime's share of each namespace's
    /// live-token census.
    tokens_afloat: Vec<i64>,
    /// Messages this worker's nodes sent to another worker's nodes: each
    /// crossed a mailbox.
    crossed: u64,
    /// The batch: commands that are due, in processing order.
    queue: VecDeque<Targeted<M>>,
    /// The delay queue: commands for this worker's nodes that are not
    /// due yet, earliest first.
    delayed: BinaryHeap<Reverse<Delayed<M>>>,
    next_seq: u64,
    /// Deadlines of the live timers of this worker's nodes (owner =
    /// [`Seat::pos`]).
    timers: DeadlineSet,
    /// Commands for the other workers' nodes, per destination worker,
    /// handed out as one [`Mail::Many`] each when the batch is settled.
    outgoing: Vec<Vec<(u64, Targeted<M>)>>,
    /// In-flight claims the batch owes for what it created: commands
    /// filed or buffered, timers newly armed.
    claims_taken: u64,
    /// In-flight claims the batch is done with: commands processed or
    /// discarded, timers fired, cancelled or lost to a crash.
    claims_released: u64,
    /// Notices of the requests the batch ended, in the order they ended;
    /// delivered when the batch is settled. The buffer keeps its capacity.
    notices: Vec<Notice>,
    /// This worker's copy of the watchers' inboxes.
    inboxes: InboxCache,
    /// The one clock reading of the command or timer firing being run:
    /// every deadline and stamp it produces derives from it.
    now: u64,
}

impl<M: MessageKind> Worker<'_, M> {
    /// The instant the earliest delayed command or live timer is due.
    fn next_due(&self) -> Option<u64> {
        let delayed = self.delayed.peek().map(|Reverse(d)| d.deliver_at);
        match (delayed, self.timers.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn delay(&mut self, deliver_at: u64, item: Targeted<M>) {
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
    /// one of its own — no mailbox at all — and otherwise into the
    /// destination worker's outgoing burst.
    fn post(&mut self, deliver_at: u64, to: NodeId, cmd: NodeCmd<M>) {
        self.claims_taken += 1;
        let w = self.shared.placement.worker(to);
        let item = Targeted { to, cmd };
        if w == self.me {
            self.delay(deliver_at, item);
        } else {
            self.crossed += 1;
            self.outgoing[w].push((deliver_at, item));
        }
    }

    /// The fate the fault script gives a `from → to` send (namespace-local
    /// ids) at the current command's clock reading: `Deliver`, without a
    /// look at the script, when the runtime was started without one.
    fn fate(&mut self, from: NodeId, to: NodeId, carries_token: bool) -> LinkFate {
        let shared = self.shared;
        if !shared.scripted {
            return LinkFate::Deliver;
        }
        let now = shared.ticks_at(self.now);
        if !shared.script.active_at(now) {
            return LinkFate::Deliver;
        }
        shared.script.fate(now, from, to, carries_token, &mut self.choices)
    }

    /// Puts one copy of a message of namespace `ns` on the wire, under
    /// its own drawn delay from the current command's clock reading.
    fn transmit(&mut self, ns: usize, to: NodeId, from: NodeId, msg: M) {
        let delay = self.choices.up_to(self.max_delay);
        self.tokens_afloat[ns] += i64::from(msg.carries_token());
        self.post(self.now.saturating_add(delay), to, NodeCmd::Deliver { from, msg });
    }

    /// Ends a request of namespace `ns`. Its notice waits in the batch's
    /// buffer until [`Worker::settle`] delivers it.
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

    /// Settles a batch. In order: the claims of everything the batch
    /// created are taken, *then* the other workers' bursts are handed to
    /// `post` (which gives back the mail of a worker that is gone); the
    /// idle flags of the nodes the batch touched (by shard position) are
    /// published; *then*
    /// [`Worker::release`] — so [`Shared::settled`] never finds the claims
    /// balanced while a command, a live timer, an unpublished flag or an
    /// undelivered notice exists.
    fn settle(
        &mut self,
        idle: impl Iterator<Item = (usize, bool)>,
        mut post: impl FnMut(usize, Mail<M>) -> Result<(), Mail<M>>,
    ) {
        let shared = self.shared;
        if self.claims_taken != 0 {
            shared.worker_claims[self.me].0.take(self.claims_taken);
            self.claims_taken = 0;
        }
        for w in 0..self.outgoing.len() {
            if self.outgoing[w].is_empty() {
                continue;
            }
            let burst = std::mem::take(&mut self.outgoing[w]);
            if let Err(Mail::Many(lost)) = post(w, Mail::Many(burst)) {
                // That worker has exited (shutdown): the burst dies here.
                lost.into_iter().for_each(|(_, item)| self.discard(item));
            }
        }
        let flags = &shared.idle[self.me];
        for (pos, flag) in idle {
            flags[pos / IDLE_LINE].0[pos % IDLE_LINE].store(flag, Ordering::SeqCst);
        }
        self.release();
    }

    /// Delivers the batch's completion notices, each watcher's under one
    /// lock of its inbox and each request counted delivered only after
    /// its notice, *then* releases the claims the batch is done with.
    fn release(&mut self) {
        let shared = self.shared;
        shared.sessions.notify(&mut self.notices, &mut self.inboxes);
        self.notices.clear();
        if self.claims_released != 0 {
            shared.worker_claims[self.me].0.release(self.claims_released);
            self.claims_released = 0;
        }
    }
}

/// One worker: its shard of nodes and its [`Worker`] books, plus the
/// buffers a batch reuses.
pub(crate) struct Core<'a, P: Protocol> {
    slots: Vec<Slot<P>>,
    worker: Worker<'a, P::Msg>,
    out: Outbox<P::Msg>,
    touched: Vec<usize>,
}

impl<'a, P: Protocol + Send + 'static> Core<'a, P> {
    /// Worker `me` of `config.workers` over its shard `slots`, drawing
    /// from its seeded generator, or from stream `me` of `tape`.
    pub(crate) fn new(
        me: usize,
        slots: Vec<Slot<P>>,
        shared: &'a Shared,
        config: &RuntimeConfig,
        tape: Option<&Tape>,
    ) -> Self {
        let nanos = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let seed = config.seed
            ^ slots
                .first()
                .map_or(0, |s| (s.seat.idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Core {
            slots,
            worker: Worker {
                me,
                shared,
                max_delay: nanos(config.max_network_delay),
                lease_length: nanos(config.cs_duration),
                choices: tape.map_or_else(|| Choices::seeded(seed), |tape| tape.choices(me, seed)),
                metrics: Metrics::default(),
                tokens_afloat: vec![0; shared.ns.len()],
                crossed: 0,
                queue: VecDeque::new(),
                delayed: BinaryHeap::new(),
                next_seq: 0,
                timers: DeadlineSet::new(),
                outgoing: (0..config.workers).map(|_| Vec::new()).collect(),
                claims_taken: 0,
                claims_released: 0,
                notices: Vec::new(),
                inboxes: InboxCache::default(),
                now: 0,
            },
            out: Outbox::new(),
            touched: Vec::new(),
        }
    }

    /// Takes in one piece of mail.
    pub(crate) fn accept(&mut self, mail: Mail<P::Msg>) {
        self.worker.accept(mail);
    }

    /// `true` while the batch has room for more mail: an end tops a
    /// batch up from what is already in the mailbox for as long as this
    /// holds.
    pub(crate) fn wants_mail(&self) -> bool {
        self.worker.queue.len() < BATCH
    }

    /// This worker's draw stream, and what it has recorded of it.
    pub(crate) fn choices(&self) -> &Choices {
        &self.worker.choices
    }

    /// Commands and timer firings run so far.
    pub(crate) fn events(&self) -> u64 {
        self.worker.metrics.events_processed
    }

    /// `true` if the worker holds nothing that could still run — no
    /// command in its batch or delay queue, no live timer — and every
    /// node of its shard has no request waiting or inside the critical
    /// section and is idle unless crashed. What [`Shared::settled`]
    /// reads off the shared counters, read off the worker itself.
    pub(crate) fn holds_nothing(&self) -> bool {
        let worker = &self.worker;
        worker.queue.is_empty()
            && worker.delayed.is_empty()
            && worker.timers.is_empty()
            && self.slots.iter().all(|Slot { node, seat }| {
                seat.pending.is_empty()
                    && seat.current.is_none()
                    && (seat.crashed || node.is_idle())
            })
    }

    /// Runs one batch: the delayed commands that have fallen due join
    /// the commands already accepted, each runs through the shared engine
    /// driver, then the timers that are due fire, and the batch's books
    /// are settled, its bursts for other workers handed to `post`.
    ///
    /// `clock` is read once to find what is due (only when something is
    /// delayed or armed), once per command and once per timer firing;
    /// every deadline and stamp a command or firing produces derives
    /// from its reading.
    pub(crate) fn run_batch(
        &mut self,
        mut clock: impl FnMut() -> u64,
        post: impl FnMut(usize, Mail<P::Msg>) -> Result<(), Mail<P::Msg>>,
    ) -> Next {
        let Core { slots, worker, out, touched } = self;
        let placement = &worker.shared.placement;
        // A worker with nothing delayed and nothing armed reads the clock
        // only for the commands it runs, once each.
        let now = (!worker.delayed.is_empty() || !worker.timers.is_empty()).then(&mut clock);
        if let Some(now) = now {
            while worker.delayed.peek().is_some_and(|Reverse(d)| d.deliver_at <= now) {
                let Reverse(due) = worker.delayed.pop().expect("peeked");
                worker.queue.push_back(due.item);
            }
        }
        touched.clear();
        let mut stop = false;
        while let Some(Targeted { to, cmd }) = worker.queue.pop_front() {
            worker.claims_released += 1;
            if matches!(cmd, NodeCmd::Stop) {
                stop = true;
                break;
            }
            worker.metrics.events_processed += 1;
            worker.now = clock();
            let pos = placement.of(to).pos as usize;
            let slot = &mut slots[pos];
            debug_assert_eq!(slot.seat.global(), to, "misrouted command");
            process(slot, cmd, out, worker);
            drain_auto(slot, out, worker);
            touched.push(pos);
        }
        // Due timers fire after the batch's commands, one at a time and
        // each taken from the live set at the moment it fires: one that
        // an earlier command or timer of this batch cancelled is gone.
        // A worker that met Stop fires none: they are discarded with it.
        while let Some((pos, timer_id)) =
            now.filter(|_| !stop).and_then(|now| worker.timers.pop_due(now))
        {
            worker.claims_released += 1;
            worker.metrics.events_processed += 1;
            worker.now = clock();
            let slot = &mut slots[pos as usize];
            debug_assert!(!slot.seat.crashed, "a crash clears the node's timers");
            drive_slot(slot, Some(NodeEvent::Timer(timer_id)), out, worker);
            drain_auto(slot, out, worker);
            touched.push(pos as usize);
        }
        touched.sort_unstable();
        touched.dedup();
        let idle = touched.iter().map(|&pos| {
            let Slot { node, seat } = &slots[pos];
            (pos, seat.crashed || node.is_idle())
        });
        worker.settle(idle, post);
        if stop {
            Next::Stop
        } else {
            Next::Wait(worker.next_due())
        }
    }

    /// Stop: nothing this worker still holds will ever be processed —
    /// its batch, its delay queue, its live timers, and `leftover`, the
    /// mail still addressed to it. Each command gives up its claim and
    /// abandons the request it carried; the timers give up theirs.
    pub(crate) fn stop(&mut self, leftover: impl IntoIterator<Item = Mail<P::Msg>>) {
        let worker = &mut self.worker;
        for mail in leftover {
            worker.accept(mail);
        }
        let delayed = std::mem::take(&mut worker.delayed).into_iter().map(|Reverse(d)| d.item);
        for item in std::mem::take(&mut worker.queue).into_iter().chain(delayed) {
            worker.discard(item);
        }
        worker.claims_released += worker.timers.len() as u64;
        worker.timers = DeadlineSet::new();
        worker.release();
    }

    /// The shard and the worker's own books, for the shutdown judge.
    pub(crate) fn into_exit(self) -> WorkerExit<P> {
        let Core { slots, worker: Worker { metrics, tokens_afloat, crossed, .. }, .. } = self;
        WorkerExit { slots, metrics, tokens_afloat, crossed }
    }
}

/// One node's substrate effects: the runtime's [`ActionSink`], filing
/// the engine's actions with the node's [`Worker`] under deadlines on
/// the worker's clock. The deliver→step→collect-actions loop itself
/// lives in [`oc_sim::drive`] — the same code path the simulator runs.
/// Node ids crossing this sink are namespace-local (the protocol's
/// view); posting converts to global ids.
struct SeatSink<'a, 'w, M> {
    worker: &'a mut Worker<'w, M>,
    seat: &'a mut Seat,
}

impl<M: MessageKind + Clone + Send + 'static> ActionSink<M> for SeatSink<'_, '_, M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let (ns, to_global) = (self.seat.ns, NodeId::new(to.get() + self.seat.ns_offset));
        let worker = &mut *self.worker;
        worker.metrics.record_send(msg.kind());
        // Decide-before-act, identical to the simulator's `Core::send`:
        // the script decides the message's fate before any copy is
        // enqueued, so a drop destroys the logical send outright. A
        // runtime started without a script skips the check entirely.
        let fate = worker.fate(from, to, msg.carries_token());
        match worker.metrics.record_fate(fate) {
            0 => return,
            1 => {}
            _ => worker.transmit(ns, to_global, from, msg.clone()),
        }
        worker.transmit(ns, to_global, from, msg);
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let (worker, seat) = (&mut *self.worker, &mut *self.seat);
        let (shared, now) = (worker.shared, worker.now);
        seat.lease += 1;
        let books = shared.sessions.books(seat.ns);
        books.lock_monitor().enter_cs(shared.ticks_at(now), node, token_epoch);
        books.cs_entries.fetch_add(1, Ordering::Relaxed);
        // The node's oldest waiting request is the one being served (a
        // node may also enter with no request of ours waiting).
        seat.current = seat.pending.pop_front();
        if let Some(ticket) = &seat.current {
            shared.sessions.histogram(worker.me).record(now.saturating_sub(ticket.t0));
        }
        // Auto-release requests skip the lease: the worker exits the CS
        // immediately after this command (`drain_auto`), so no ExitLease
        // is ever filed for them.
        if !seat.serving_auto() {
            let expiry = now.saturating_add(worker.lease_length);
            worker.post(expiry, seat.global(), NodeCmd::ExitLease { lease: seat.lease });
        }
    }

    fn set_timer(&mut self, _node: NodeId, timer_id: u64, delay: SimDuration) {
        let worker = &mut *self.worker;
        let deadline = worker.now.saturating_add(worker.shared.nanos_of(delay.ticks()));
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

/// Feeds one event through the shared engine driver (`None` runs the
/// recovery hook instead), the node's seat and worker as its sink.
fn drive_slot<P: Protocol + Send + 'static>(
    slot: &mut Slot<P>,
    event: Option<NodeEvent<P::Msg>>,
    out: &mut Outbox<P::Msg>,
    worker: &mut Worker<'_, P::Msg>,
) {
    let mut sink = SeatSink { worker, seat: &mut slot.seat };
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
        NodeCmd::Stop => unreachable!("handled by the batch loop"),
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

    /// `count` namespaces of `len` nodes each, stacked as `assemble`
    /// stacks them.
    fn namespaces(count: u32, len: u32) -> Vec<NsMeta> {
        (0..count).map(|k| NsMeta { offset: k * len, len }).collect()
    }

    #[test]
    fn placement_keeps_namespaces_whole_or_cuts_them_into_blocks() {
        // Power-of-two cubes, and populations of other sizes (the
        // baselines' systems need not be cubes).
        for (count, len) in [(1, 1), (1, 6), (1, 16), (1, 256), (2, 5), (3, 8), (4, 4), (32, 4)] {
            for workers in [1, 2, 3, 4, 8] {
                let ns = namespaces(count, len);
                let placement = Placement::new(&ns, workers);
                let places = &placement.places;
                assert_eq!(places.len(), (count * len) as usize);
                // Every index placed once; each worker's positions dense
                // and in global order; no worker kept without a node.
                let mut sizes = vec![0u32; placement.workers()];
                for place in places {
                    let worker = place.worker as usize;
                    assert!(worker < placement.workers());
                    assert_eq!(place.pos, sizes[worker], "{count}x{len} over {workers}");
                    sizes[worker] += 1;
                }
                assert!(placement.workers() <= workers);
                assert!(
                    sizes.iter().all(|&size| size > 0),
                    "{count}x{len} over {workers}: {sizes:?}"
                );
                let block = len.div_ceil(workers as u32);
                for (k, meta) in ns.iter().enumerate() {
                    for j in 0..meta.len {
                        let node = NodeId::new(meta.offset + j + 1);
                        let worker = placement.worker(node);
                        if ns.len() >= workers {
                            assert_eq!(worker, k % workers, "namespace {k} is whole on one worker");
                        } else if ns.len() == 1 {
                            assert_eq!(worker, (j / block) as usize, "blocks of {block}");
                        }
                    }
                }
            }
        }
        // Fewer namespaces than workers: the blocks go round-robin on
        // from one namespace to the next.
        let placement = Placement::new(&namespaces(2, 8), 4);
        let workers: Vec<usize> = (1..=16).map(|id| placement.worker(NodeId::new(id))).collect();
        assert_eq!(workers, [0, 0, 1, 1, 2, 2, 3, 3, 0, 0, 1, 1, 2, 2, 3, 3]);
        // n = 256 over two workers: the two half-cubes.
        let halves = Placement::new(&namespaces(1, 256), 2);
        assert!((1..=128).all(|id| halves.worker(NodeId::new(id)) == 0));
        assert!((129..=256).all(|id| halves.worker(NodeId::new(id)) == 1));
    }

    #[test]
    fn workers_clamp_to_the_node_count() {
        let protocol = Config::new(4, SimDuration::from_ticks(40), SimDuration::from_ticks(20));
        let cube = || OpenCubeNode::build_all(protocol);
        // Three workers asked for one 4-node cube: blocks of ⌈4/3⌉ = 2
        // fill two of them, and the third is not started.
        for (asked, namespaces, resolved) in
            [(8, 1, 4), (3, 1, 2), (0, 1, 4), (0, 4, 8), (64, 4, 16)]
        {
            let config = RuntimeConfig { workers: asked, ..RuntimeConfig::default() };
            let populations = (0..namespaces).map(|_| cube()).collect();
            let (shared, config, shards) = assemble(config, FaultScript::none(), populations);
            assert_eq!(config.workers, resolved, "{asked} asked, {namespaces} namespaces");
            assert_eq!(shards.len(), resolved);
            assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), shared.len());
            for (w, shard) in shards.iter().enumerate() {
                for (pos, slot) in shard.iter().enumerate() {
                    let place = shared.placement.of(slot.seat.global());
                    assert_eq!((place.worker as usize, place.pos as usize), (w, pos));
                }
                assert!(!shard.is_empty(), "worker {w} of {resolved} runs no node");
            }
        }
        // A namespace that is not a cube: six nodes over four workers are
        // three blocks of two, on three workers.
        let six = Placement::new(&namespaces(1, 6), 4);
        assert_eq!(six.workers(), 3);
        let workers: Vec<usize> = (1..=6).map(|id| six.worker(NodeId::new(id))).collect();
        assert_eq!(workers, [0, 0, 1, 1, 2, 2]);
        assert_eq!(six.bursts::<()>(Vec::new()).len(), 3, "one burst per worker that runs");
    }
}
