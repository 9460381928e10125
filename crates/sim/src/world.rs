//! The simulator: drives [`Protocol`] state machines over a virtual-time
//! network with bounded delays, timers, and fail-stop crash injection.
//!
//! `World` is a thin policy layer over the engine ([`crate::engine`]): the
//! two-tier [`EventQueue`] orders events, the sparse [`TimerTable`] handles
//! lazy timer cancellation, and the generic [`engine::drive`] loop turns
//! protocol actions into substrate effects through `Core`'s
//! [`ActionSink`] implementation — the same loop the threaded `oc-runtime`
//! uses, so the sans-io contract is enforced in exactly one place.

use oc_topology::NodeId;

use crate::{
    channel::{CompiledScript, DelayModel, FaultScript},
    choices::Choices,
    crash::FailurePlan,
    engine::{self, ActionSink, TimerTable},
    liveness::Horizon,
    metrics::{Counter, Metrics},
    oracle::{Oracle, OracleReport},
    outbox::Outbox,
    pending::PendingRequests,
    protocol::{MessageKind, NodeEvent, Protocol},
    queue::EventQueue,
    time::{SimDuration, SimTime},
    trace::{Trace, TraceRecord},
    workload::ArrivalSchedule,
};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network delay model; its maximum is the δ the protocol's timeouts
    /// must be configured with.
    pub delay: DelayModel,
    /// How long a node stays inside the critical section.
    pub cs_duration: SimDuration,
    /// RNG seed — two runs with equal configuration and seed are identical.
    pub seed: u64,
    /// Record a full event trace (costs memory; used by the worked-example
    /// tests and the examples).
    pub record_trace: bool,
    /// Hard cap on processed events, as a runaway-loop backstop.
    pub max_events: u64,
    /// Time-scripted fault program, the one way to inject link faults:
    /// partitions (with heal events), one-way degradation,
    /// loss/duplication phases. [`FaultScript::none`] by default: nothing
    /// injected, no extra RNG draws, so traces of unscripted
    /// configurations are byte-identical.
    pub script: FaultScript,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delay: DelayModel::default(),
            cs_duration: SimDuration::from_ticks(50),
            seed: 0,
            record_trace: false,
            max_events: 100_000_000,
            script: FaultScript::none(),
        }
    }
}

/// Internal simulator events.
#[derive(Debug, Clone)]
pub(crate) enum SimEvent<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: u64, generation: u64 },
    RequestCs { node: NodeId },
    ExitCs { node: NodeId },
    Crash { node: NodeId },
    Recover { node: NodeId },
}

/// What the queue's input tier stores: an event injected from outside,
/// which names a node and a kind and carries no message. It becomes its
/// [`SimEvent`] only on reaching the head of the queue, so an input filed
/// on its own costs 24 bytes, not the size of a delivery — and an
/// [`ArrivalSchedule`] filed whole costs nothing per arrival: the queue
/// reads its nodes in place and makes each a `RequestCs` as it is read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Input {
    RequestCs(NodeId),
    Crash(NodeId),
    Recover(NodeId),
}

const _: () = assert!(size_of::<crate::engine::calendar::Entry<Input>>() == 24);

impl From<NodeId> for Input {
    /// An arrival of a schedule: the node asks for the critical section.
    fn from(node: NodeId) -> Self {
        Input::RequestCs(node)
    }
}

impl<M> From<Input> for SimEvent<M> {
    fn from(input: Input) -> Self {
        match input {
            Input::RequestCs(node) => SimEvent::RequestCs { node },
            Input::Crash(node) => SimEvent::Crash { node },
            Input::Recover(node) => SimEvent::Recover { node },
        }
    }
}

/// Everything of the simulator except the protocol instances themselves:
/// the event queue, per-node substrate state, metrics, oracle and trace.
///
/// Split out of [`World`] so that [`engine::drive`] can borrow one node
/// mutably while the core executes that node's actions — `Core` is the
/// simulator's [`ActionSink`].
#[derive(Debug)]
pub(crate) struct Core<M> {
    pub(crate) config: SimConfig,
    /// `config.script` compiled against the system size (dense membership
    /// tables); consulted on every send while a phase is active.
    pub(crate) compiled: CompiledScript,
    /// Dense per-node state, indexed by `NodeId::zero_based`.
    pub(crate) alive: Vec<bool>,
    pub(crate) in_cs: Vec<bool>,
    /// `true` once a node has processed at least one `Recover` event —
    /// read by the liveness oracle's re-join check.
    pub(crate) recovered: Vec<bool>,
    pub(crate) timers: TimerTable,
    /// Arrival times of each node's unserved requests.
    pub(crate) pending: PendingRequests,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<SimEvent<M>, Input>,
    /// Every draw of the run: link fates and message delays.
    pub(crate) choices: Choices,
    pub(crate) metrics: Metrics,
    pub(crate) oracle: Oracle,
    pub(crate) trace: Trace,
    pub(crate) requests_injected: u64,
    /// Tokens currently in flight (Deliver events whose message carries the
    /// token). Maintained incrementally for the census.
    pub(crate) tokens_in_flight: usize,
    /// Live nodes currently holding the token, maintained incrementally so
    /// the per-event census is O(1) instead of O(n): each event folds in
    /// the difference it made to the one node it touched.
    pub(crate) live_holders: usize,
    /// Highest token epoch the substrate has witnessed (held or in
    /// flight). Stays 0 under non-hardened protocols.
    pub(crate) max_epoch: u64,
    /// Live holders whose token is at `max_epoch`. Equal to `live_holders`
    /// while `max_epoch == 0` (the non-hardened case).
    pub(crate) holders_at_max: usize,
    /// In-flight tokens at `max_epoch`. Equal to `tokens_in_flight` while
    /// `max_epoch == 0`.
    pub(crate) in_flight_at_max: usize,
}

impl<M: Clone> Clone for Core<M> {
    fn clone(&self) -> Self {
        Core {
            config: self.config.clone(),
            compiled: self.compiled.clone(),
            alive: self.alive.clone(),
            in_cs: self.in_cs.clone(),
            recovered: self.recovered.clone(),
            timers: self.timers.clone(),
            pending: self.pending.clone(),
            now: self.now,
            queue: self.queue.clone(),
            choices: self.choices.clone(),
            metrics: self.metrics.clone(),
            oracle: self.oracle.clone(),
            trace: self.trace.clone(),
            requests_injected: self.requests_injected,
            tokens_in_flight: self.tokens_in_flight,
            live_holders: self.live_holders,
            max_epoch: self.max_epoch,
            holders_at_max: self.holders_at_max,
            in_flight_at_max: self.in_flight_at_max,
        }
    }

    /// Field by field, so that [`World::restore`] overwrites the vectors,
    /// tables and heaps it already owns instead of dropping them for
    /// fresh copies. `source` is destructured without `..`: a new field
    /// does not compile until it is restored here.
    fn clone_from(&mut self, source: &Self) {
        let Core {
            config,
            compiled,
            alive,
            in_cs,
            recovered,
            timers,
            pending,
            now,
            queue,
            choices,
            metrics,
            oracle,
            trace,
            requests_injected,
            tokens_in_flight,
            live_holders,
            max_epoch,
            holders_at_max,
            in_flight_at_max,
        } = source;
        self.config.clone_from(config);
        self.compiled.clone_from(compiled);
        self.alive.clone_from(alive);
        self.in_cs.clone_from(in_cs);
        self.recovered.clone_from(recovered);
        self.timers.clone_from(timers);
        self.pending.clone_from(pending);
        self.now = *now;
        self.queue.clone_from(queue);
        self.choices.clone_from(choices);
        self.metrics.clone_from(metrics);
        self.oracle.clone_from(oracle);
        self.trace.clone_from(trace);
        self.requests_injected = *requests_injected;
        self.tokens_in_flight = *tokens_in_flight;
        self.live_holders = *live_holders;
        self.max_epoch = *max_epoch;
        self.holders_at_max = *holders_at_max;
        self.in_flight_at_max = *in_flight_at_max;
    }
}

impl<M> Core<M> {
    /// Witnesses a freshly minted epoch: every lower-epoch token is now a
    /// fenced-out predecessor, not a peer — the max-epoch census restarts
    /// at zero (no token at the new epoch can predate the mint that
    /// introduced it).
    fn bump_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch > self.max_epoch);
        self.max_epoch = epoch;
        self.holders_at_max = 0;
        self.in_flight_at_max = 0;
    }
}

impl<M: Clone + core::fmt::Debug + MessageKind> ActionSink<M> for Core<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.metrics.record_send(msg.kind());
        if self.trace.is_enabled() {
            self.trace.push(
                self.now,
                TraceRecord::Send { from, to, kind: msg.kind(), desc: format!("{msg:?}") },
            );
        }
        if !self.alive[to.zero_based() as usize] {
            // Destination already down: the message is lost.
            self.metrics.lost_to_crashes += 1;
            return;
        }
        // Every fate is decided before any copy is enqueued, so a drop
        // destroys the logical send outright. A token dies here exactly
        // as one whose carrier crashed; it was never in flight as far as
        // the census is concerned. The empty script is never active and
        // draws nothing.
        let carries_token = msg.carries_token();
        if self.compiled.active_at(self.now) {
            let fate = self.compiled.fate(self.now, from, to, carries_token, &mut self.choices);
            match self.metrics.record_fate(fate) {
                0 => return,
                1 => {}
                _ => {
                    // A second, independently delayed delivery of the
                    // same logical send.
                    let delay = self.config.delay.sample(&mut self.choices);
                    self.queue
                        .push(self.now + delay, SimEvent::Deliver { to, from, msg: msg.clone() });
                }
            }
        }
        if carries_token {
            self.tokens_in_flight += 1;
            // A token minted and immediately forwarded within one event can
            // reach the wire before the census reads the minting node.
            let epoch = msg.token_epoch();
            if epoch > self.max_epoch {
                self.bump_epoch(epoch);
            }
            if epoch == self.max_epoch {
                self.in_flight_at_max += 1;
            }
        }
        let delay = self.config.delay.sample(&mut self.choices);
        self.queue.push(self.now + delay, SimEvent::Deliver { to, from, msg });
    }

    fn enter_cs(&mut self, node: NodeId, token_epoch: u64) {
        let idx = node.zero_based() as usize;
        self.in_cs[idx] = true;
        self.oracle.enter_cs(self.now, node, token_epoch);
        self.metrics.cs_entries += 1;
        if let Some(requested_at) = self.pending.pop(idx) {
            self.metrics.total_waiting_ticks += (self.now - requested_at).ticks();
        }
        self.trace.push(self.now, TraceRecord::EnterCs(node));
        self.queue.push(self.now + self.config.cs_duration, SimEvent::ExitCs { node });
    }

    fn set_timer(&mut self, node: NodeId, id: u64, delay: SimDuration) {
        let idx = node.zero_based() as usize;
        let generation = self.timers.arm(idx, id);
        self.queue.push(self.now + delay, SimEvent::Timer { node, id, generation });
    }

    fn cancel_timer(&mut self, node: NodeId, id: u64) {
        self.timers.cancel(node.zero_based() as usize, id);
    }

    fn count(&mut self, _node: NodeId, counter: Counter) {
        self.metrics.record_count(counter);
    }
}

/// One node as the token census sees it: whether it is a live holder, and
/// the epoch of what it holds (0 when it holds nothing). Taken before an
/// event and again after it; the difference is all the census has to fold
/// in.
#[derive(Debug, Clone, Copy)]
struct TokenView {
    held: bool,
    epoch: u64,
}

/// Makes `vec` `n` copies of `value`, in the buffer it has when that is
/// large enough, else in one fresh allocation of exactly `n` — so a world
/// built at n = 2^20 still allocates each of its vectors once.
pub(crate) fn refill<T: Clone>(vec: &mut Vec<T>, n: usize, value: T) {
    if vec.capacity() < n {
        *vec = vec![value; n];
    } else {
        vec.clear();
        vec.resize(n, value);
    }
}

/// The discrete-event simulator.
///
/// Owns `n` protocol instances (nodes `1..=n`), an event queue, the crash
/// plan, metrics, the safety oracle, and an optional trace.
#[derive(Debug)]
pub struct World<P: Protocol> {
    pub(crate) nodes: Vec<P>,
    /// Reusable action buffer — drained in place each event, so the hot
    /// path allocates nothing.
    pub(crate) outbox: Outbox<P::Msg>,
    pub(crate) core: Core<P::Msg>,
    /// Reusable liveness horizon — rebuilt whole by every
    /// [`World::horizon`], so judging a run allocates nothing the world
    /// did not already hold.
    horizon: Horizon,
}

impl<P: Protocol> World<P> {
    /// Creates a world over the given nodes. `nodes[k]` must have identity
    /// `k + 1`. This is [`World::reset`] of a world that holds nothing.
    ///
    /// # Panics
    ///
    /// Panics if any node's `id()` disagrees with its position.
    #[must_use]
    pub fn new(config: SimConfig, nodes: Vec<P>) -> Self {
        let mut world = World {
            nodes: Vec::new(),
            outbox: Outbox::new(),
            core: Core {
                config: SimConfig::default(),
                compiled: CompiledScript::default(),
                alive: Vec::new(),
                in_cs: Vec::new(),
                recovered: Vec::new(),
                timers: TimerTable::new(),
                pending: PendingRequests::new(0),
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                choices: Choices::seeded(0),
                metrics: Metrics::new(),
                oracle: Oracle::new(),
                trace: Trace::new(false),
                requests_injected: 0,
                tokens_in_flight: 0,
                live_holders: 0,
                max_epoch: 0,
                holders_at_max: 0,
                in_flight_at_max: 0,
            },
            horizon: Horizon::default(),
        };
        world.reset(config, nodes);
        world
    }

    /// Makes this world the one `World::new(config, nodes)` builds, in
    /// place: every vector, table, heap and buffer it owns is emptied and
    /// refilled, keeping its capacity, so a world reset for a run no
    /// larger than one it has already held allocates nothing. Both
    /// structs are destructured without `..`: a new field does not compile
    /// until it is reset here. The explorer's runners keep one world per
    /// thread this way.
    ///
    /// # Panics
    ///
    /// Panics if any node's `id()` disagrees with its position.
    pub fn reset(&mut self, config: SimConfig, nodes: Vec<P>) {
        // One pass over the population: the identities, and the token
        // census — every node starts alive, so a holder is a node that
        // says so.
        let (mut holders, mut top, mut at_top) = (0, 0, 0);
        for (k, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.id(),
                NodeId::new(k as u32 + 1),
                "node at position {k} must have identity {}",
                k + 1
            );
            if node.holds_token() {
                holders += 1;
                let epoch = node.token_epoch();
                if epoch > top {
                    (top, at_top) = (epoch, 0);
                }
                at_top += usize::from(epoch == top);
            }
        }
        let n = nodes.len();
        // Rebuilt whole by every judgement: nothing of it survives a reset.
        let World { nodes: own_nodes, outbox, core, horizon: _ } = self;
        let Core {
            config: own_config,
            compiled,
            alive,
            in_cs,
            recovered,
            timers,
            pending,
            now,
            queue,
            choices,
            metrics,
            oracle,
            trace,
            requests_injected,
            tokens_in_flight,
            live_holders,
            max_epoch,
            holders_at_max,
            in_flight_at_max,
        } = core;
        *own_nodes = nodes;
        outbox.clear();
        *compiled = config.script.compile(n);
        refill(alive, n, true);
        refill(in_cs, n, false);
        refill(recovered, n, false);
        timers.reset();
        pending.reset(n);
        *now = SimTime::ZERO;
        queue.clear();
        *choices = Choices::seeded(config.seed);
        *metrics = Metrics::new();
        oracle.reset();
        trace.reset(config.record_trace);
        *own_config = config;
        *requests_injected = 0;
        *tokens_in_flight = 0;
        *live_holders = holders;
        *max_epoch = top;
        *holders_at_max = at_top;
        *in_flight_at_max = 0;
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the world has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Read access to a node's protocol state.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.zero_based() as usize]
    }

    /// `true` if the node is currently alive.
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.core.alive[id.zero_based() as usize]
    }

    /// `true` if the node has recovered from a crash at least once.
    #[must_use]
    pub fn has_recovered(&self, id: NodeId) -> bool {
        self.core.recovered[id.zero_based() as usize]
    }

    /// Number of currently live nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.core.alive.iter().filter(|alive| **alive).count()
    }

    /// The current live-token census: tokens held by live nodes plus
    /// tokens in flight toward live nodes — the quantity the token-
    /// uniqueness oracle watches, exposed for the liveness oracle's
    /// token-conservation check.
    #[must_use]
    pub fn live_token_census(&self) -> usize {
        self.core.live_holders + self.core.tokens_in_flight
    }

    /// Number of injected requests on `id` still waiting for their CS
    /// entry.
    #[must_use]
    pub fn pending_requests(&self, id: NodeId) -> usize {
        self.core.pending.len(id.zero_based() as usize)
    }

    /// The run at its liveness horizon, as [`crate::check_horizon`]
    /// judges it (`drained`: the value [`World::run_to_quiescence`]
    /// returned), built into a buffer this world keeps, and how many of
    /// its `unreachable` requests are stranded on partition-isolated
    /// nodes. A live node is isolated when a partition the horizon is
    /// judged by ([`crate::channel::CompiledScript::components_at_horizon`]:
    /// on a drained horizon only never-healing cuts count) separates it
    /// from every live token holder ([`crate::isolation_from_components`]);
    /// nobody is, when no such partition is active or it does not actually
    /// split the live nodes. The rest of `unreachable` waits on
    /// quorum-blocked nodes.
    pub fn horizon(&mut self, drained: bool) -> (&Horizon, u64) {
        let mut horizon = std::mem::take(&mut self.horizon);
        let stranded = crate::liveness::fill_horizon(self, drained, &mut horizon);
        self.horizon = horizon;
        (&self.horizon, stranded)
    }

    /// Estimated resident bytes of per-node state, averaged over the
    /// population: each protocol node (inline size plus its reported
    /// [`Protocol::heap_bytes`]) and every container of the substrate
    /// that holds node state (liveness and CS flags, the armed timers,
    /// the pending-request store). The token census keeps no per-node
    /// copy: it reads the node it counts. Event-queue and trace storage are
    /// excluded — they scale with in-flight load, not population — and so
    /// are the compiled fault script, which scales with its phases, and
    /// the horizon buffer, which only a judgement fills.
    /// Reported in the E7 artifact to keep the memory diet honest at
    /// n = 2^24.
    #[must_use]
    pub fn mem_bytes_per_node(&self) -> u64 {
        // Both structs are destructured without `..`: a new field does not
        // compile until it is counted here or named as not per-node.
        let World { nodes, outbox: _, core, horizon: _ } = self;
        let Core {
            alive,
            in_cs,
            recovered,
            timers,
            pending,
            config: _,
            compiled: _,
            now: _,
            queue: _,
            choices: _,
            metrics: _,
            oracle: _,
            trace: _,
            requests_injected: _,
            tokens_in_flight: _,
            live_holders: _,
            max_epoch: _,
            holders_at_max: _,
            in_flight_at_max: _,
        } = core;
        let protocol = nodes.capacity() * size_of::<P>()
            + nodes.iter().map(Protocol::heap_bytes).sum::<usize>();
        let substrate = alive.capacity()
            + in_cs.capacity()
            + recovered.capacity()
            + timers.heap_bytes()
            + pending.heap_bytes();
        let n = nodes.len().max(1) as u64;
        ((protocol + substrate) as u64).div_ceil(n)
    }

    /// Makes every further draw of the run — link fates and message
    /// delays — from `choices` instead of the seeded generator
    /// [`World::reset`] starts with. Set before the first event, a tape
    /// replays a run: `oc_check::run` does so for a run given a tape.
    pub fn set_choices(&mut self, choices: Choices) {
        self.core.choices = choices;
    }

    /// The source of the run's draws, and what it has recorded of them.
    #[must_use]
    pub fn choices(&self) -> &Choices {
        &self.core.choices
    }

    /// Metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The safety oracle's report so far.
    #[must_use]
    pub fn oracle_report(&self) -> &OracleReport {
        self.core.oracle.report()
    }

    /// The recorded trace (empty unless `record_trace` was set).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    /// Number of `RequestCs` events injected so far.
    #[must_use]
    pub fn requests_injected(&self) -> u64 {
        self.core.requests_injected
    }

    /// Schedules a local `enter_cs` call on `node` at time `at`.
    pub fn schedule_request(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.core.now, "cannot schedule in the past");
        self.core.requests_injected += 1;
        self.core.queue.push_input(at, Input::RequestCs(node));
    }

    /// Schedules every arrival of `schedule`. A time-ordered schedule —
    /// what every generator makes — is filed by reference: the queue
    /// shares its arrivals and reads them in place, so filing costs
    /// nothing per arrival. Any other is filed arrival by arrival, as
    /// [`World::schedule_request`] would. Either way each arrival pops
    /// under the same `(time, seq)` key.
    ///
    /// # Panics
    ///
    /// Panics if an arrival is earlier than the current time.
    pub fn schedule_workload(&mut self, schedule: &ArrivalSchedule) {
        if !schedule.is_time_ordered() {
            for (at, node) in schedule.arrivals().iter() {
                self.schedule_request(at, node);
            }
            return;
        }
        if let Some((first, _)) = schedule.arrivals().iter().next() {
            assert!(first >= self.core.now, "cannot schedule in the past");
        }
        self.core.requests_injected += schedule.len() as u64;
        self.core.queue.push_schedule(schedule);
    }

    /// Schedules the crash (and optional recovery) events of `plan`.
    pub fn schedule_failures(&mut self, plan: &FailurePlan) {
        for ev in plan.events() {
            self.schedule_failure(ev.at, ev.node);
            if let Some(recover_at) = ev.recover_at {
                self.schedule_recovery(recover_at, ev.node);
            }
        }
    }

    /// Schedules a single fail-stop crash of `node` at `at`.
    pub fn schedule_failure(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.core.now, "cannot schedule in the past");
        self.core.queue.push_input(at, Input::Crash(node));
    }

    /// Schedules a recovery of `node` at `at` (no-op if alive then).
    pub fn schedule_recovery(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.core.now, "cannot schedule in the past");
        self.core.queue.push_input(at, Input::Recover(node));
    }

    /// Runs until no events remain. Returns `true` if the queue drained,
    /// `false` if the `max_events` backstop tripped first.
    pub fn run_to_quiescence(&mut self) -> bool {
        while self.core.metrics.events_processed < self.core.config.max_events {
            if !self.step() {
                return true;
            }
        }
        false
    }

    /// The virtual time of the next event [`World::step`] would process,
    /// or `None` once the queue is empty — what a node whose clock is the
    /// simulator's reads before the step hands it its event.
    #[must_use]
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.core.queue.peek_time()
    }

    /// Runs until virtual time would exceed `deadline` (events at exactly
    /// `deadline` are processed). Returns `true` if the queue drained early.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        loop {
            match self.core.queue.peek_time() {
                None => return true,
                Some(t) if t > deadline => {
                    self.core.now = deadline;
                    return false;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Pre-sizes the generated tier of the event queue: its sorted front
    /// to full size (16 entries) and its heap for `additional` more
    /// in-flight events — a pure capacity hint used by benches and the
    /// allocation audit to establish steady-state capacity up front. A run
    /// seldom needs the heap: at a pop the tier holds 1–4 events on
    /// average, which the front orders alone.
    pub fn reserve_events(&mut self, additional: usize) {
        self.core.queue.reserve(0, additional);
    }

    /// Processes one event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.core.now, "event queue went backwards");
        self.core.now = at;
        self.core.metrics.events_processed += 1;
        match event {
            SimEvent::Deliver { to, from, msg } => self.handle_deliver(to, from, msg),
            SimEvent::Timer { node, id, generation } => self.handle_timer(node, id, generation),
            SimEvent::RequestCs { node } => self.handle_request_cs(node),
            SimEvent::ExitCs { node } => self.handle_exit_cs(node),
            SimEvent::Crash { node } => self.handle_crash(node),
            SimEvent::Recover { node } => self.handle_recover(node),
        }
        // Only max-epoch tokens count as duplicates of each other: a
        // fenced-out stale token is the predecessor of the current one,
        // awaiting discard. Under non-hardened protocols max_epoch stays
        // 0 and this is exactly `live_holders + tokens_in_flight`.
        self.core
            .oracle
            .token_census(self.core.now, self.core.holders_at_max + self.core.in_flight_at_max);
        true
    }

    fn handle_deliver(&mut self, to: NodeId, from: NodeId, msg: P::Msg) {
        if msg.carries_token() {
            self.core.tokens_in_flight -= 1;
            // A token below max_epoch left the at-max count when the epoch
            // was bumped; only current-epoch arrivals are still in it.
            if msg.token_epoch() == self.core.max_epoch {
                self.core.in_flight_at_max -= 1;
            }
        }
        let idx = to.zero_based() as usize;
        if !self.core.alive[idx] {
            // The destination crashed after the message was sent but before
            // this delivery: the message is lost (fail-stop model).
            self.core.metrics.lost_to_crashes += 1;
            return;
        }
        if self.core.trace.is_enabled() {
            self.core.trace.push(
                self.core.now,
                TraceRecord::Deliver { from, to, kind: msg.kind(), desc: format!("{msg:?}") },
            );
        }
        self.dispatch(to, NodeEvent::Deliver { from, msg });
    }

    fn handle_timer(&mut self, node: NodeId, id: u64, generation: u64) {
        let idx = node.zero_based() as usize;
        if !self.core.alive[idx] {
            return;
        }
        // Lazy cancellation: only the latest arming of this timer id fires.
        if !self.core.timers.fire(idx, id, generation) {
            return;
        }
        self.dispatch(node, NodeEvent::Timer(id));
    }

    fn handle_request_cs(&mut self, node: NodeId) {
        let idx = node.zero_based() as usize;
        if !self.core.alive[idx] {
            // The application on a crashed node cannot request; the
            // injection is abandoned, never served.
            self.core.metrics.requests_abandoned += 1;
            return;
        }
        self.core.pending.push(idx, self.core.now);
        self.dispatch(node, NodeEvent::RequestCs);
    }

    fn handle_exit_cs(&mut self, node: NodeId) {
        let idx = node.zero_based() as usize;
        if !self.core.alive[idx] || !self.core.in_cs[idx] {
            return;
        }
        self.core.in_cs[idx] = false;
        self.core.oracle.exit_cs(node);
        self.core.trace.push(self.core.now, TraceRecord::ExitCs(node));
        self.dispatch(node, NodeEvent::ExitCs);
    }

    // Cold and out of line: a crash is rare, and its purge of the event
    // queue would otherwise be inlined into `step`, the hot loop.
    #[cold]
    #[inline(never)]
    fn handle_crash(&mut self, node: NodeId) {
        let idx = node.zero_based() as usize;
        if !self.core.alive[idx] {
            return;
        }
        let before = self.token_view(idx);
        self.core.alive[idx] = false;
        self.core.metrics.crashes += 1;
        if self.core.in_cs[idx] {
            self.core.in_cs[idx] = false;
            self.core.oracle.exit_cs(node);
        }
        // All volatile node state is lost — including the application's
        // not-yet-served requests, which are therefore abandoned.
        self.nodes[idx].on_crash();
        self.core.timers.clear_node(idx);
        self.core.metrics.requests_abandoned += self.core.pending.clear(idx) as u64;
        // All in-flight messages toward the node are destroyed — and so
        // is its scheduled CS exit, if any: the critical section it
        // belonged to died with the crash, and letting the stale event
        // fire could truncate a *new* critical section the node enters
        // after recovering (timers are generation-guarded against
        // exactly this; ExitCs events are purged here instead).
        let mut lost_tokens = 0usize;
        let mut lost_tokens_at_max = 0usize;
        let mut lost = 0u64;
        let max_epoch = self.core.max_epoch;
        self.core.queue.retain(|ev| match ev {
            SimEvent::Deliver { to, msg, .. } if *to == node => {
                if msg.carries_token() {
                    lost_tokens += 1;
                    if msg.token_epoch() == max_epoch {
                        lost_tokens_at_max += 1;
                    }
                }
                lost += 1;
                false
            }
            SimEvent::ExitCs { node: exiting } if *exiting == node => false,
            _ => true,
        });
        self.core.tokens_in_flight -= lost_tokens;
        self.core.in_flight_at_max -= lost_tokens_at_max;
        self.core.metrics.lost_to_crashes += lost;
        self.core.trace.push(self.core.now, TraceRecord::Crash(node));
        self.sync_token_census(idx, before);
    }

    #[cold]
    #[inline(never)]
    fn handle_recover(&mut self, node: NodeId) {
        let idx = node.zero_based() as usize;
        if self.core.alive[idx] {
            return;
        }
        let before = self.token_view(idx);
        self.core.alive[idx] = true;
        self.core.recovered[idx] = true;
        self.core.metrics.recoveries += 1;
        self.core.trace.push(self.core.now, TraceRecord::Recover(node));
        engine::drive_recovery(&mut self.nodes[idx], &mut self.outbox, &mut self.core);
        self.sync_token_census(idx, before);
    }

    /// Feeds one event to a node and executes the resulting actions
    /// through the shared engine driver.
    fn dispatch(&mut self, node: NodeId, event: NodeEvent<P::Msg>) {
        let idx = node.zero_based() as usize;
        let before = self.token_view(idx);
        engine::drive(&mut self.nodes[idx], event, &mut self.outbox, &mut self.core);
        self.sync_token_census(idx, before);
    }

    /// What the token census counts of node `idx`, read off the node.
    fn token_view(&self, idx: usize) -> TokenView {
        let node = &self.nodes[idx];
        let held = self.core.alive[idx] && node.holds_token();
        TokenView { held, epoch: if held { node.token_epoch() } else { 0 } }
    }

    /// Folds what one event changed on node `idx` — its view `before` the
    /// event against its view now — into the census counters, keeping them
    /// exact at O(1) per event. Only `dispatch`, `handle_crash` and
    /// `handle_recover` change a node or its `alive` flag, and each calls
    /// this once, so the counters always equal a recount of the nodes.
    fn sync_token_census(&mut self, idx: usize, before: TokenView) {
        let after = self.token_view(idx);
        if after.held && after.epoch > self.core.max_epoch {
            // A mint just happened here: older holders left the at-max
            // count wholesale (bump zeroes it); their eventual release
            // checks against the *new* max and correctly decrements
            // nothing.
            self.core.bump_epoch(after.epoch);
        }
        if before.held != after.held || before.epoch != after.epoch {
            if before.held {
                self.core.live_holders -= 1;
                if before.epoch == self.core.max_epoch {
                    self.core.holders_at_max -= 1;
                }
            }
            if after.held {
                self.core.live_holders += 1;
                if after.epoch == self.core.max_epoch {
                    self.core.holders_at_max += 1;
                }
            }
        }
    }
}

/// A complete, resumable snapshot of a running [`World`].
///
/// Holds deep copies of the protocol nodes, the event queue (pending
/// deliveries, timers, scheduled arrivals and failures), the timer
/// table, the source of draws ([`Choices`]: the generator, or the tape
/// and its place on it), the metrics, the oracle, and the trace — everything
/// the run's future depends on. Restoring (or forking) a checkpoint
/// therefore continues byte-identically to a run that never paused; the
/// checkpoint equivalence suite pins `checkpoint → restore → drive ==
/// drive` with fault scripts active.
///
/// There is nothing per node beside the nodes themselves: the token
/// census's counters live in the core, and what they count is read off
/// the nodes, so a snapshot is the nodes plus the core.
///
/// The shared outbox is deliberately *not* captured: the engine drains
/// it after every event (debug-asserted in `engine::drive`), so between
/// events — the only place a checkpoint can be taken — it is empty by
/// invariant.
#[derive(Debug, Clone)]
pub struct Checkpoint<P: Protocol> {
    nodes: Vec<P>,
    core: Core<P::Msg>,
}

impl<P: Protocol + Clone> Checkpoint<P> {
    /// The virtual time the snapshot was taken at.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.core.now
    }

    /// Builds an independent world resuming from this snapshot — the
    /// fork primitive: one deep scenario prefix, many futures.
    #[must_use]
    pub fn to_world(&self) -> World<P> {
        World {
            nodes: self.nodes.clone(),
            outbox: Outbox::new(),
            core: self.core.clone(),
            horizon: Horizon::default(),
        }
    }
}

impl<P: Protocol + Clone> World<P> {
    /// Snapshots the world's complete state between events. See
    /// [`Checkpoint`] for what is (and is not) captured.
    ///
    /// # Panics
    ///
    /// Debug-panics if called mid-event (the outbox is non-empty); the
    /// engine contract makes that unreachable from the public API.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint<P> {
        debug_assert!(self.outbox.is_empty(), "checkpoints are taken between events");
        Checkpoint { nodes: self.nodes.clone(), core: self.core.clone() }
    }

    /// Rewinds this world to `checkpoint`, discarding everything that
    /// happened since (or before — restore is not directional). The
    /// checkpoint is reusable: restoring twice and driving identically
    /// produces identical runs.
    pub fn restore(&mut self, checkpoint: &Checkpoint<P>) {
        self.nodes.clone_from(&checkpoint.nodes);
        self.outbox = Outbox::new();
        self.core.clone_from(&checkpoint.core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{FaultPhase, FaultPhaseKind};
    use crate::metrics::MsgKind;
    use rand::{rngs::StdRng, SeedableRng};

    /// A minimal centralized-coordinator protocol for exercising the world:
    /// node 1 owns the privilege and grants it to requesters in FIFO order;
    /// users return it with a release message. Quiesces once all requests
    /// are served.
    #[derive(Debug, Clone)]
    enum CentralMsg {
        Req,
        Grant,
        Release,
    }
    impl MessageKind for CentralMsg {
        fn kind(&self) -> MsgKind {
            match self {
                CentralMsg::Req => MsgKind::Request,
                CentralMsg::Grant | CentralMsg::Release => MsgKind::Token,
            }
        }
    }

    #[derive(Debug)]
    struct CentralNode {
        id: NodeId,
        /// Coordinator only: token at home and pending queue.
        has_token: bool,
        granted_out: bool,
        queue: std::collections::VecDeque<NodeId>,
        in_cs: bool,
        holding_grant: bool,
    }

    const COORD: NodeId = NodeId::new(1);

    impl CentralNode {
        fn new(id: NodeId) -> Self {
            CentralNode {
                id,
                has_token: id == COORD,
                granted_out: false,
                queue: std::collections::VecDeque::new(),
                in_cs: false,
                holding_grant: false,
            }
        }

        fn coordinator_grant_next(&mut self, out: &mut Outbox<CentralMsg>) {
            if self.has_token && !self.granted_out {
                if let Some(next) = self.queue.pop_front() {
                    if next == self.id {
                        self.granted_out = true; // the token is busy with us
                        self.in_cs = true;
                        out.enter_cs();
                    } else {
                        self.has_token = false;
                        self.granted_out = true;
                        out.send(next, CentralMsg::Grant);
                    }
                }
            }
        }
    }

    impl Protocol for CentralNode {
        type Msg = CentralMsg;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_event(&mut self, event: NodeEvent<CentralMsg>, out: &mut Outbox<CentralMsg>) {
            match event {
                NodeEvent::RequestCs => {
                    if self.id == COORD {
                        self.queue.push_back(self.id);
                        self.coordinator_grant_next(out);
                    } else {
                        out.send(COORD, CentralMsg::Req);
                    }
                }
                NodeEvent::ExitCs => {
                    self.in_cs = false;
                    if self.id == COORD {
                        self.granted_out = false;
                        self.coordinator_grant_next(out);
                    } else {
                        self.holding_grant = false;
                        out.send(COORD, CentralMsg::Release);
                    }
                }
                NodeEvent::Deliver { from, msg } => match msg {
                    CentralMsg::Req => {
                        self.queue.push_back(from);
                        self.coordinator_grant_next(out);
                    }
                    CentralMsg::Grant => {
                        self.holding_grant = true;
                        self.in_cs = true;
                        out.enter_cs();
                    }
                    CentralMsg::Release => {
                        self.has_token = true;
                        self.granted_out = false;
                        self.coordinator_grant_next(out);
                    }
                },
                NodeEvent::Timer(_) => {}
            }
        }
        fn on_crash(&mut self) {
            self.has_token = false;
            self.granted_out = false;
            self.queue.clear();
            self.in_cs = false;
            self.holding_grant = false;
        }
        fn on_recover(&mut self, _out: &mut Outbox<CentralMsg>) {}
        fn in_cs(&self) -> bool {
            self.in_cs
        }
        fn holds_token(&self) -> bool {
            if self.id == COORD {
                self.has_token
            } else {
                self.holding_grant
            }
        }
    }

    fn central_world(n: usize, seed: u64) -> World<CentralNode> {
        let nodes = (1..=n as u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        World::new(SimConfig { seed, max_events: 1_000_000, ..SimConfig::default() }, nodes)
    }

    #[test]
    fn coordinator_satisfies_requests() {
        let mut world = central_world(4, 1);
        for i in 1..=4u32 {
            world.schedule_request(SimTime::from_ticks(i as u64 * 10), NodeId::new(i));
        }
        assert!(world.run_to_quiescence());
        assert_eq!(world.metrics().cs_entries, 4);
        assert!(
            world.oracle_report().is_clean(),
            "violations: {:?}",
            world.oracle_report().violations()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut world = central_world(8, seed);
            for i in 1..=8u32 {
                world.schedule_request(SimTime::from_ticks(i as u64), NodeId::new(i));
            }
            assert!(world.run_to_quiescence());
            (world.metrics().total_sent(), world.now())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn crash_destroys_in_flight_messages() {
        // Constant delays make the timeline exact: the request arrives at
        // t=6, the grant is in flight during (6, 11]; crashing node 2 at
        // t=8 destroys it.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                delay: crate::channel::DelayModel::Constant(SimDuration::from_ticks(5)),
                max_events: 100_000,
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        world.schedule_failure(SimTime::from_ticks(8), NodeId::new(2));
        world.run_to_quiescence();
        assert_eq!(world.metrics().crashes, 1);
        assert!(world.metrics().lost_to_crashes >= 1);
        assert!(!world.is_alive(NodeId::new(2)));
        assert!(world.is_alive(NodeId::new(1)));
    }

    #[test]
    fn loss_window_drops_messages_to_live_nodes() {
        // Total loss during [0, 1000): node 2's request to the coordinator
        // evaporates on the wire even though everybody is alive.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none().with_phase(FaultPhase::loss_dup(0, 1_000, 1_000, 0)),
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        assert_eq!(world.metrics().cs_entries, 0);
        assert_eq!(world.metrics().lost_to_faults, 1);
        assert_eq!(world.metrics().lost_to_crashes, 0);
        // And the liveness oracle sees the starved request.
        let report = crate::liveness::check_liveness(&world, true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, crate::liveness::LivenessViolation::Starvation { .. })));
    }

    #[test]
    fn duplicate_window_adds_second_deliveries() {
        // Total duplication: every non-token message is delivered twice.
        // The coordinator protocol tolerates a duplicated request (the
        // second grant is eventually returned), so the run stays live.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none()
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 0, 1_000)),
                max_events: 100_000,
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        // Req is duplicated; Grant/Release carry the token and are exempt.
        assert_eq!(world.metrics().duplicated_deliveries, 1);
        // The naive coordinator has no duplicate suppression: the second
        // Req copy earns a second (sequential, still mutually exclusive)
        // grant. One injected request, two critical sections — at-least-
        // once delivery made visible.
        assert_eq!(world.metrics().cs_entries, 2);
        assert!(world.oracle_report().is_clean());
    }

    #[test]
    fn partition_phase_drops_cross_cut_messages_until_heal() {
        // Full isolation (p = 0: every node its own island) during
        // [0, 100): node 2's request to the coordinator dies at the
        // boundary. A second request after the heal goes through.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none().with_phase(FaultPhase {
                    from: SimTime::ZERO,
                    until: SimTime::from_ticks(100),
                    kind: FaultPhaseKind::GroupPartition { p: 0 },
                }),
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        world.schedule_request(SimTime::from_ticks(200), NodeId::new(2));
        assert!(world.run_to_quiescence());
        assert_eq!(world.metrics().lost_to_partition, 1);
        assert_eq!(world.metrics().lost_to_faults, 0);
        assert_eq!(world.metrics().cs_entries, 1, "the post-heal request must be served");
        // The partition healed long before the horizon, so the starved
        // first request is NOT excused: the naive coordinator has no
        // retry machinery, and the oracle must say so.
        let report = crate::liveness::check_liveness(&world, true);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, crate::liveness::LivenessViolation::Starvation { .. })));
    }

    #[test]
    fn partition_outranks_a_leading_duplication_phase() {
        // Total duplication listed first AND a full cut, both active: the
        // cut must destroy the cross-cut send before the duplication
        // phase can flag a copy — nothing may cross, not even a duplicate.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none()
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 0, 1_000))
                    .with_phase(FaultPhase {
                        from: SimTime::ZERO,
                        until: SimTime::from_ticks(1_000_000),
                        kind: FaultPhaseKind::GroupPartition { p: 0 },
                    }),
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        assert_eq!(world.metrics().lost_to_partition, 1);
        assert_eq!(world.metrics().duplicated_deliveries, 0, "no copy may cross the cut");
        assert_eq!(world.metrics().cs_entries, 0);
    }

    #[test]
    fn scripted_drop_destroys_a_leading_phase_duplicate_too() {
        // The fault-ordering pin: the first phase flags every non-token
        // message for duplication, the second destroys every message. The
        // drop must win over the *whole* logical send — an act-as-you-go
        // injector enqueues the duplicate before the later phase decides
        // the original's fate, delivering a copy of a message that was
        // never sent.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none()
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 0, 1_000))
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 1_000, 0)),
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        assert!(world.metrics().lost_to_faults > 0);
        assert_eq!(world.metrics().duplicated_deliveries, 0, "no duplicate of a destroyed send");
        assert_eq!(world.metrics().cs_entries, 0);
    }

    #[test]
    fn overlapping_duplication_windows_yield_one_copy() {
        // Two overlapping total-duplication phases: the flags collapse to
        // at most ONE extra copy per logical send, not one per phase.
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none()
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 0, 1_000))
                    .with_phase(FaultPhase::loss_dup(0, 1_000_000, 0, 1_000)),
                max_events: 100_000,
                ..SimConfig::default()
            },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        // One Req crosses the wire (Grant/Release carry the token and are
        // exempt): exactly one duplicate, not two.
        assert_eq!(world.metrics().duplicated_deliveries, 1);
        assert_eq!(world.metrics().cs_entries, 2, "the naive coordinator serves the copy too");
        assert!(world.oracle_report().is_clean());
    }

    #[test]
    fn scripted_runs_are_deterministic_under_seed() {
        let run = |seed| {
            let nodes = (1..=8u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
            let script = FaultScript::none()
                .with_phase(FaultPhase {
                    from: SimTime::from_ticks(5),
                    until: SimTime::from_ticks(60),
                    kind: FaultPhaseKind::GroupPartition { p: 2 },
                })
                .with_phase(FaultPhase {
                    from: SimTime::from_ticks(30),
                    until: SimTime::from_ticks(200),
                    kind: FaultPhaseKind::Degrade {
                        from: vec![NodeId::new(2)],
                        to: vec![NodeId::new(1)],
                        loss_per_mille: 500,
                    },
                })
                .with_phase(FaultPhase {
                    from: SimTime::from_ticks(100),
                    until: SimTime::from_ticks(400),
                    kind: FaultPhaseKind::LossDup { loss_per_mille: 100, duplicate_per_mille: 300 },
                });
            let mut world = World::new(SimConfig { seed, script, ..SimConfig::default() }, nodes);
            for i in 1..=8u32 {
                world.schedule_request(SimTime::from_ticks(u64::from(i) * 3), NodeId::new(i));
            }
            let drained = world.run_to_quiescence();
            (
                drained,
                world.metrics().total_sent(),
                world.metrics().lost_to_partition,
                world.metrics().lost_to_faults,
                world.metrics().duplicated_deliveries,
                world.metrics().events_processed,
                world.now(),
            )
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn fault_injection_is_deterministic_under_seed() {
        let run = |seed| {
            let nodes = (1..=8u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
            let mut world = World::new(
                SimConfig {
                    seed,
                    script: FaultScript::none().with_phase(FaultPhase::loss_dup(5, 500, 200, 300)),
                    ..SimConfig::default()
                },
                nodes,
            );
            for i in 1..=8u32 {
                world.schedule_request(SimTime::from_ticks(u64::from(i) * 3), NodeId::new(i));
            }
            let drained = world.run_to_quiescence();
            (
                drained,
                world.metrics().total_sent(),
                world.metrics().lost_to_faults,
                world.metrics().duplicated_deliveries,
                world.metrics().events_processed,
                world.now(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should fault differently");
    }

    #[test]
    fn crash_purges_the_stale_exit_cs_event() {
        // A node crashes inside its CS and recovers quickly; the exit
        // scheduled for the *pre-crash* critical section must not fire
        // into a critical section entered after recovery.
        #[derive(Debug, Clone)]
        struct Noop;
        impl MessageKind for Noop {
            fn kind(&self) -> MsgKind {
                MsgKind::Request
            }
        }
        /// Enters the CS on every request; exits only via the substrate.
        #[derive(Debug)]
        struct Entrant(NodeId);
        impl Protocol for Entrant {
            type Msg = Noop;
            fn id(&self) -> NodeId {
                self.0
            }
            fn on_event(&mut self, ev: NodeEvent<Noop>, out: &mut Outbox<Noop>) {
                if matches!(ev, NodeEvent::RequestCs) {
                    out.enter_cs();
                }
            }
            fn on_crash(&mut self) {}
            fn on_recover(&mut self, _out: &mut Outbox<Noop>) {}
            fn in_cs(&self) -> bool {
                false
            }
            fn holds_token(&self) -> bool {
                false
            }
        }
        let mut world = World::new(
            SimConfig { record_trace: true, max_events: 10_000, ..SimConfig::default() },
            vec![Entrant(NodeId::new(1))],
        );
        // CS duration is 50: enter at 1 (stale exit would fire at 51),
        // crash at 5, recover at 10, re-enter at 20 (real exit at 70).
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(1));
        world.schedule_failure(SimTime::from_ticks(5), NodeId::new(1));
        world.schedule_recovery(SimTime::from_ticks(10), NodeId::new(1));
        world.schedule_request(SimTime::from_ticks(20), NodeId::new(1));
        assert!(world.run_to_quiescence());
        let exits: Vec<u64> = world
            .trace()
            .records()
            .iter()
            .filter(|(_, r)| matches!(r, TraceRecord::ExitCs(_)))
            .map(|(at, _)| at.ticks())
            .collect();
        assert_eq!(exits, vec![70], "only the post-recovery CS may exit, at its full length");
    }

    #[test]
    fn mem_bytes_per_node_counts_every_node_indexed_vector() {
        let n = 1_000;
        let mut world = central_world(n, 1);
        // Something in both side tables: they are sized by what they hold.
        for idx in 0..40 {
            world.core.timers.arm(idx * 7, 1);
            world.core.pending.push(idx * 3, SimTime::from_ticks(idx as u64));
        }
        // Every container of node state, by hand: the nodes in `World`;
        // three flag vectors, the armed timers and the pending-request
        // store in `Core`. `mem_bytes_per_node` destructures both structs
        // exhaustively, so a new one cannot be added without being seen
        // there.
        let core = &world.core;
        let bytes = world.nodes.capacity() * size_of::<CentralNode>()
            + core.alive.capacity() * size_of::<bool>()
            + core.in_cs.capacity() * size_of::<bool>()
            + core.recovered.capacity() * size_of::<bool>()
            + core.timers.heap_bytes()
            + core.pending.heap_bytes();
        assert!(core.timers.heap_bytes() >= 40 * (size_of::<(u32, u64, u64)>() + 1));
        assert!(core.pending.heap_bytes() >= n * 8 + 40 * (8 + 4));
        // Trivial nodes own no heap, so the figure is that sum and nothing
        // else.
        assert_eq!(world.mem_bytes_per_node(), bytes.div_ceil(n) as u64);
    }

    /// A protocol that makes traffic out of every input: a request sends
    /// a ping to the next node and enters the CS on the way back; a crash
    /// loses what the node was doing.
    #[derive(Debug, Clone)]
    struct Echo {
        id: NodeId,
        n: u32,
        in_cs: bool,
    }

    impl Protocol for Echo {
        type Msg = CentralMsg;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_event(&mut self, event: NodeEvent<CentralMsg>, out: &mut Outbox<CentralMsg>) {
            match event {
                NodeEvent::RequestCs => {
                    out.send(NodeId::new(self.id.get() % self.n + 1), CentralMsg::Req);
                }
                NodeEvent::Deliver { from, msg: CentralMsg::Req } => {
                    out.send(from, CentralMsg::Release);
                }
                NodeEvent::Deliver { .. } if !self.in_cs => {
                    self.in_cs = true;
                    out.enter_cs();
                }
                NodeEvent::ExitCs => self.in_cs = false,
                NodeEvent::Deliver { .. } | NodeEvent::Timer(_) => {}
            }
        }
        fn on_crash(&mut self) {
            self.in_cs = false;
        }
        fn on_recover(&mut self, _out: &mut Outbox<CentralMsg>) {}
        fn in_cs(&self) -> bool {
            self.in_cs
        }
        fn holds_token(&self) -> bool {
            false
        }
    }

    /// Runs `schedule` and `plan` on an `Echo` world, the `early` requests
    /// filed one by one before the schedule, the schedule filed whole if
    /// `whole` and arrival by arrival if not, and returns the trace and
    /// `[injected, events, served, abandoned, end tick]`.
    fn echo_run(
        early: &[(SimTime, NodeId)],
        schedule: &ArrivalSchedule,
        plan: &FailurePlan,
        whole: bool,
    ) -> (Vec<(SimTime, TraceRecord)>, [u64; 5]) {
        let n = 6;
        let nodes = (1..=n).map(|i| Echo { id: NodeId::new(i), n, in_cs: false }).collect();
        let config = SimConfig { seed: 5, record_trace: true, ..SimConfig::default() };
        let mut world = World::new(config, nodes);
        for (at, node) in early {
            world.schedule_request(*at, *node);
        }
        if whole {
            world.schedule_workload(schedule);
        } else {
            for (at, node) in schedule.arrivals().iter() {
                world.schedule_request(at, node);
            }
        }
        world.schedule_failures(plan);
        assert!(world.run_to_quiescence());
        let m = world.metrics();
        let counts = [
            world.requests_injected(),
            m.events_processed,
            m.cs_entries,
            m.requests_abandoned,
            world.now().ticks(),
        ];
        (world.trace().records().to_vec(), counts)
    }

    /// A generated schedule — node ids alone, arrival `i` at `i · gap` —
    /// filed by reference runs exactly as its arrivals filed one by one
    /// with [`World::schedule_request`]: empty, one arrival, a zero gap,
    /// filed behind earlier requests so that its front splits into the
    /// input tier's latecomers, and with a failure plan filed after it.
    /// It also equals the same arrivals kept with an explicit time each,
    /// the times summed the way a running clock would.
    #[test]
    fn a_spaced_schedule_filed_whole_runs_as_filed_one_by_one() {
        let none = FailurePlan::none();
        let plan = FailurePlan::none()
            .crash_and_recover(NodeId::new(3), SimTime::from_ticks(40), SimTime::from_ticks(400))
            .crash_and_recover(NodeId::new(5), SimTime::from_ticks(45), SimTime::from_ticks(90));
        let nothing: &[_] = &[];
        let early: &[_] = &[
            (SimTime::from_ticks(300), NodeId::new(3)),
            (SimTime::from_ticks(301), NodeId::new(5)),
        ];
        let cases = [
            ("empty", 0_usize, 10, nothing, &none),
            ("one arrival", 1, 10, nothing, &none),
            ("zero gap", 7, 0, nothing, &none),
            ("after other inputs", 40, 25, early, &none),
            ("plan after it", 40, 25, nothing, &plan),
            ("both", 40, 25, early, &plan),
        ];
        for (case, count, gap, early, plan) in cases {
            let gap = SimDuration::from_ticks(gap);
            let mut rng = StdRng::seed_from_u64(count as u64);
            let spaced = ArrivalSchedule::uniform(&mut rng, 6, count, gap);
            let mut at = SimTime::ZERO;
            let timed: ArrivalSchedule = spaced
                .arrivals()
                .iter()
                .map(|(_, node)| {
                    let arrival = (at, node);
                    at += gap;
                    arrival
                })
                .collect();
            assert_eq!(spaced, timed, "{case}");
            assert_eq!(timed, spaced, "{case}");
            let whole = echo_run(early, &spaced, plan, true);
            assert_eq!(whole, echo_run(early, &spaced, plan, false), "{case}");
            assert_eq!(whole, echo_run(early, &timed, plan, true), "{case}");
            assert_eq!(whole.1[0], (count + early.len()) as u64, "{case}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// A time-ordered schedule filed by reference runs exactly as
            /// the same arrivals filed one by one: the same events in the
            /// same `(time, seq)` order, interleaved with the traffic they
            /// generate and with a failure plan filed after them.
            #[test]
            fn a_schedule_filed_whole_runs_as_filed_one_by_one(
                (gaps, nodes, crashes) in (
                    proptest::collection::vec(0u64..30, 0..60),
                    proptest::collection::vec(1u32..=6, 60..61),
                    proptest::collection::vec((2u32..=6, 0u64..1_500, 1u64..200), 0..6),
                )
            ) {
                let mut at = SimTime::ZERO;
                let schedule: ArrivalSchedule = gaps
                    .iter()
                    .zip(&nodes)
                    .map(|(gap, node)| {
                        at += SimDuration::from_ticks(*gap);
                        (at, NodeId::new(*node))
                    })
                    .collect();
                let plan = crashes.iter().fold(FailurePlan::none(), |plan, (node, at, down)| {
                    plan.crash_and_recover(
                        NodeId::new(*node),
                        SimTime::from_ticks(*at),
                        SimTime::from_ticks(at + down),
                    )
                });
                let whole = echo_run(&[], &schedule, &plan, true);
                prop_assert_eq!(&whole, &echo_run(&[], &schedule, &plan, false));
                prop_assert_eq!(whole.1[0], schedule.len() as u64);
            }

            /// A schedule out of time order is filed arrival by arrival and
            /// still comes out in time order, every arrival accounted for.
            #[test]
            fn an_unordered_schedule_still_runs_in_time_order(
                arrivals in proptest::collection::vec((0u64..2_000, 1u32..=6), 1..60)
            ) {
                let schedule: ArrivalSchedule = arrivals
                    .iter()
                    .map(|(at, node)| (SimTime::from_ticks(*at), NodeId::new(*node)))
                    .collect();
                let whole = echo_run(&[], &schedule, &FailurePlan::none(), true);
                prop_assert!(whole.0.windows(2).all(|w| w[0].0 <= w[1].0));
                prop_assert!(whole.0.iter().any(|(_, record)| matches!(record, TraceRecord::EnterCs(_))));
                prop_assert_eq!(whole.1[0], schedule.len() as u64);
                prop_assert_eq!(&whole, &echo_run(&[], &schedule, &FailurePlan::none(), false));
            }
        }
    }

    /// A token carrying its mint epoch.
    #[derive(Debug, Clone)]
    struct Tok(u64);
    impl MessageKind for Tok {
        fn kind(&self) -> MsgKind {
            MsgKind::Token
        }
        fn token_epoch(&self) -> u64 {
            self.0
        }
    }
    /// Takes, forwards, drops and re-mints the token: a request at a
    /// holder forwards it, a request elsewhere mints one above every
    /// epoch the node has seen (forwarding it at once on even nodes),
    /// a stale arrival is discarded and counted, and a crash loses
    /// what the node held.
    #[derive(Debug)]
    struct Relay {
        id: NodeId,
        n: u32,
        token: Option<u64>,
        seen: u64,
        discards: u64,
    }
    impl Relay {
        fn next(&self) -> NodeId {
            NodeId::new(self.id.get() % self.n + 1)
        }
    }
    impl Protocol for Relay {
        type Msg = Tok;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_event(&mut self, event: NodeEvent<Tok>, out: &mut Outbox<Tok>) {
            match event {
                NodeEvent::RequestCs => match self.token.take() {
                    Some(epoch) => out.send(self.next(), Tok(epoch)),
                    None => {
                        self.seen += 1;
                        if self.id.get().is_multiple_of(2) {
                            out.send(self.next(), Tok(self.seen));
                        } else {
                            self.token = Some(self.seen);
                        }
                    }
                },
                NodeEvent::Deliver { msg: Tok(epoch), .. } if epoch < self.seen => {
                    self.discards += 1;
                    out.count(Counter::EpochDiscards);
                }
                NodeEvent::Deliver { msg: Tok(epoch), .. } => {
                    self.seen = epoch;
                    if epoch.is_multiple_of(3) {
                        out.send(self.next(), Tok(epoch));
                    } else {
                        self.token = Some(epoch);
                    }
                }
                NodeEvent::ExitCs | NodeEvent::Timer(_) => {}
            }
        }
        fn on_crash(&mut self) {
            self.token = None;
        }
        fn on_recover(&mut self, _out: &mut Outbox<Tok>) {}
        fn in_cs(&self) -> bool {
            false
        }
        fn holds_token(&self) -> bool {
            self.token.is_some()
        }
        fn token_epoch(&self) -> u64 {
            self.token.unwrap_or(0)
        }
    }

    #[test]
    fn token_census_equals_a_recount_after_every_event() {
        let n = 6u32;
        let nodes = (1..=n)
            .map(|i| Relay {
                id: NodeId::new(i),
                n,
                token: (i == 1).then_some(0),
                seen: 0,
                discards: 0,
            })
            .collect();
        let mut world = World::new(SimConfig { seed: 3, ..SimConfig::default() }, nodes);
        // A small LCG picks the nodes: requests every 4 ticks, a crash and
        // its recovery every 60.
        let mut x = 7u64;
        let mut pick = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            NodeId::new((x >> 33) as u32 % n + 1)
        };
        for k in 0..300u64 {
            world.schedule_request(SimTime::from_ticks(4 * k), pick());
        }
        for k in 0..20u64 {
            let node = pick();
            world.schedule_failure(SimTime::from_ticks(60 * k + 13), node);
            world.schedule_recovery(SimTime::from_ticks(60 * k + 41), node);
        }
        while world.step() {
            let held_epochs: Vec<u64> = (0..n as usize)
                .filter(|&idx| world.core.alive[idx] && world.nodes[idx].holds_token())
                .map(|idx| world.nodes[idx].token_epoch())
                .collect();
            let at_max = held_epochs.iter().filter(|e| **e == world.core.max_epoch).count();
            let discards: u64 = world.nodes.iter().map(|relay| relay.discards).sum();
            let census = (world.core.live_holders, world.core.holders_at_max);
            assert_eq!(census, (held_epochs.len(), at_max), "at {:?}", world.now());
            assert_eq!(
                world.metrics().counted(Counter::EpochDiscards),
                discards,
                "at {:?}",
                world.now()
            );
        }
        // The run exercised what the census folds in.
        let m = world.metrics();
        assert!(
            m.crashes > 0 && m.recoveries > 0 && m.counted(Counter::EpochDiscards) > 0,
            "{m:?}"
        );
        assert!(world.core.max_epoch > 2);
    }

    #[test]
    fn reset_counts_the_holders_of_two_epochs_as_a_recount_does() {
        let n = 6u32;
        let relays = |tokens: [Option<u64>; 6]| -> Vec<Relay> {
            (1..=n)
                .map(|i| Relay {
                    id: NodeId::new(i),
                    n,
                    token: tokens[i as usize - 1],
                    seen: tokens.iter().flatten().copied().max().unwrap_or(0),
                    discards: 0,
                })
                .collect()
        };
        let mut world = World::new(SimConfig::default(), relays([None; 6]));
        for tokens in [
            [Some(2), None, Some(5), Some(2), Some(5), None],
            [Some(5), Some(2), Some(2), None, Some(5), Some(5)],
            [None, Some(0), None, Some(0), None, None],
            [None; 6],
            [None, None, None, None, None, Some(7)],
        ] {
            world.reset(SimConfig::default(), relays(tokens));
            let held: Vec<u64> = tokens.iter().flatten().copied().collect();
            let max = held.iter().copied().max().unwrap_or(0);
            let at_max = held.iter().filter(|epoch| **epoch == max).count();
            let core = &world.core;
            assert_eq!(
                (core.live_holders, core.max_epoch, core.holders_at_max),
                (held.len(), max, at_max),
                "{tokens:?}"
            );
        }
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut world = central_world(2, 3);
        world.schedule_request(SimTime::from_ticks(1_000), NodeId::new(1));
        let drained = world.run_until(SimTime::from_ticks(500));
        assert!(!drained);
        assert_eq!(world.now(), SimTime::from_ticks(500));
        assert_eq!(world.metrics().cs_entries, 0);
    }

    #[test]
    fn waiting_time_is_tracked() {
        let mut world = central_world(2, 4);
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        world.run_to_quiescence();
        assert_eq!(world.metrics().cs_entries, 1);
        // Node 2 had to wait for the request/grant round trip.
        assert!(world.metrics().total_waiting_ticks > 0);
    }

    #[test]
    fn trace_records_when_enabled() {
        let nodes = (1..=2u32).map(|i| CentralNode::new(NodeId::new(i))).collect();
        let mut world = World::new(
            SimConfig { record_trace: true, max_events: 100_000, ..SimConfig::default() },
            nodes,
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        world.run_to_quiescence();
        assert!(!world.trace().records().is_empty());
        let order: Vec<NodeId> = world.trace().cs_order().collect();
        assert_eq!(order, vec![NodeId::new(2)]);
    }

    #[test]
    fn event_cap_stops_runaway() {
        // A protocol that ping-pongs forever trips the max_events backstop.
        #[derive(Debug, Clone)]
        struct Ping;
        impl MessageKind for Ping {
            fn kind(&self) -> MsgKind {
                MsgKind::Request
            }
        }
        #[derive(Debug)]
        struct Pinger(NodeId);
        impl Protocol for Pinger {
            type Msg = Ping;
            fn id(&self) -> NodeId {
                self.0
            }
            fn on_event(&mut self, ev: NodeEvent<Ping>, out: &mut Outbox<Ping>) {
                let peer = NodeId::new(self.0.get() % 2 + 1);
                match ev {
                    NodeEvent::RequestCs | NodeEvent::Deliver { .. } => out.send(peer, Ping),
                    _ => {}
                }
            }
            fn on_crash(&mut self) {}
            fn on_recover(&mut self, _out: &mut Outbox<Ping>) {}
            fn in_cs(&self) -> bool {
                false
            }
            fn holds_token(&self) -> bool {
                false
            }
        }
        let mut world = World::new(
            SimConfig { max_events: 1_000, ..SimConfig::default() },
            vec![Pinger(NodeId::new(1)), Pinger(NodeId::new(2))],
        );
        world.schedule_request(SimTime::ZERO, NodeId::new(1));
        assert!(!world.run_to_quiescence());
    }

    #[test]
    #[should_panic(expected = "identity")]
    fn misnumbered_nodes_rejected() {
        let nodes = vec![CentralNode::new(NodeId::new(2)), CentralNode::new(NodeId::new(1))];
        let _ = World::new(SimConfig::default(), nodes);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn failure_plan_in_the_past_rejected() {
        // Regression: `schedule_failures` was the one entry point that
        // filed past events unchecked, and release builds then ran virtual
        // time backwards to meet them.
        let mut world = central_world(2, 9);
        world.schedule_request(SimTime::from_ticks(50), NodeId::new(2));
        world.run_to_quiescence();
        assert!(world.now() > SimTime::from_ticks(10));
        world
            .schedule_failures(&FailurePlan::none().crash(NodeId::new(2), SimTime::from_ticks(10)));
    }

    #[test]
    fn outbox_must_be_consumed_between_events() {
        // The engine contract: the shared outbox is drained after every
        // event, so emitted actions can never leak into another node's
        // turn. Indirectly asserted by the debug_assert in engine::drive;
        // here we just drive a request and check nothing lingers.
        let mut world = central_world(2, 9);
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        assert!(world.run_to_quiescence());
        assert!(world.outbox.is_empty());
    }
}
