//! Liveness oracles: eventual entry, token conservation, re-join.
//!
//! The safety oracle ([`crate::oracle`]) watches every state change as it
//! happens; liveness is the opposite kind of property — it can only be
//! judged against a *horizon*. Here the horizon is quiescence: the
//! simulator ran until no events remained (or hit its event cap). At that
//! point "eventually" has run out of road, so anything still pending is a
//! genuine liveness failure, not a transient:
//!
//! * **Starvation** — every injected request must either have entered the
//!   critical section or have been abandoned by a crash of its node
//!   (`cs_entries + requests_abandoned == requests_injected`).
//! * **Token conservation** — if live nodes still have *demand* (unserved
//!   requests or unfinished obligations), a live token must exist.
//!   Absence of the token with zero demand is not a violation: the
//!   open-cube algorithm regenerates lazily, on the next request's
//!   suspicion timeout — a token that died at rest with its holder is
//!   legitimately absent until somebody asks (the explorer found exactly
//!   this schedule: a transit grant, the borrower crashing idle in its
//!   CS, nobody else requesting). `TokenLost` therefore refines a stuck/
//!   starved verdict with its root cause rather than standing alone.
//! * **Stuck nodes / failed re-joins** — every live node must be idle at
//!   quiescence: a node still asking, searching, or supervising a loan can
//!   never make progress again because no event will ever wake it. For a
//!   node that recovered from a crash this is specifically a failed
//!   re-join (`search_father` never reattached it).
//! * **Horizon exhaustion** — the run tripped its `max_events` backstop,
//!   so the system was still spinning without converging (e.g. a livelock
//!   of timers and retries).
//!
//! The check is protocol-agnostic: it reads only the [`Protocol`]
//! observers (`is_idle`, `holds_token`) and the substrate's counters, so
//! the same oracle pins the open-cube algorithm and all baselines.

use std::collections::BTreeSet;

use oc_topology::NodeId;

use crate::{protocol::Protocol, world::World};

/// One observed violation of a liveness property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LivenessViolation {
    /// The run converged but some surviving requests never entered the CS
    /// (or entries and injections disagree in either direction).
    Starvation {
        /// Requests injected over the run.
        injected: u64,
        /// Critical sections completed.
        served: u64,
        /// Requests abandoned by crashes of their node.
        abandoned: u64,
        /// Requests stranded on partition-isolated nodes at the horizon
        /// — excused from the accounting, shown for transparency.
        unreachable: u64,
    },
    /// Live nodes have demand (starved requests or standing obligations)
    /// but no live token exists: regeneration failed to restore it even
    /// though it was needed.
    TokenLost {
        /// Live nodes at the horizon.
        live_nodes: usize,
    },
    /// A live node still has obligations at quiescence — it is wedged
    /// forever, since no further event can wake it.
    StuckNode {
        /// The wedged node.
        node: NodeId,
        /// `true` if the node had recovered from a crash: the stuck state
        /// is a failed re-join.
        recovered: bool,
    },
    /// The run hit its `max_events` cap without converging.
    HorizonExhausted {
        /// Events processed when the cap tripped.
        events: u64,
    },
}

/// The liveness oracle's report over one finished run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessReport {
    violations: Vec<LivenessViolation>,
}

impl LivenessReport {
    /// All recorded violations, in a deterministic order.
    #[must_use]
    pub fn violations(&self) -> &[LivenessViolation] {
        &self.violations
    }

    /// `true` if every liveness property held up to the horizon.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one, preserving each report's
    /// internal order. A multi-tenant substrate judges every namespace's
    /// horizon separately (starvation and token conservation are
    /// per-lock-instance properties) and absorbs the per-namespace
    /// reports into one service-wide verdict.
    pub fn absorb(&mut self, other: LivenessReport) {
        self.violations.extend(other.violations);
    }
}

/// One node's state at the liveness horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAtHorizon {
    /// The node.
    pub node: NodeId,
    /// `true` if the node was alive at the horizon.
    pub alive: bool,
    /// The node's [`Protocol::is_idle`] at the horizon (only read for
    /// alive nodes).
    pub idle: bool,
    /// `true` if the node recovered from a crash at least once.
    pub recovered: bool,
    /// `true` if a partition phase still active at the horizon separates
    /// this node from every live token holder
    /// ([`isolation_from_components`]). An isolated node's
    /// pending obligations are the environment's fault, not the
    /// algorithm's, so the per-node stuck judgement skips it.
    pub isolated: bool,
    /// The node's [`Protocol::quorum_blocked`] at the horizon: it wants to
    /// regenerate the token but cannot assemble a majority (hardened mode,
    /// minority side of a cut). Safety-over-availability by design, so the
    /// oracle excuses it exactly like a cut-isolated node.
    pub quorum_blocked: bool,
}

/// A substrate-agnostic snapshot of a finished run at its horizon — the
/// exact inputs the liveness oracle judges.
///
/// [`check_liveness`] builds one from a [`World`]; the threaded runtime
/// (`oc-runtime`) builds one from its final state at shutdown. Both are
/// then judged by [`check_horizon`] — the same oracle code, whatever
/// substrate executed the protocol.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Horizon {
    /// `true` if the run converged (event queue drained / runtime settled)
    /// rather than being cut off by an event cap or a forced shutdown.
    pub drained: bool,
    /// Events processed when the horizon was reached.
    pub events: u64,
    /// Requests injected over the run.
    pub injected: u64,
    /// Critical sections completed.
    pub served: u64,
    /// Requests abandoned by crashes of their node (or by a forced
    /// shutdown, for the runtime).
    pub abandoned: u64,
    /// Requests still pending on partition-isolated nodes at the horizon:
    /// the partition, not the algorithm, is withholding service, so the
    /// starvation accounting treats them like abandonments.
    pub unreachable: u64,
    /// Live tokens at the horizon: held by live nodes or in flight toward
    /// live nodes.
    pub live_token_census: usize,
    /// Per-node state at the horizon, in identity order.
    pub nodes: Vec<NodeAtHorizon>,
}

impl Horizon {
    /// Number of live nodes at the horizon.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|state| state.alive).count()
    }
}

/// Checks the liveness properties of a finished run.
///
/// `drained` is the return value of [`World::run_to_quiescence`]: `true`
/// if the event queue emptied, `false` if the `max_events` backstop
/// tripped first. When the run did not drain, only horizon exhaustion is
/// reported — per-node "stuck" judgements would be unsound while events
/// are still pending.
#[must_use]
pub fn check_liveness<P: Protocol>(world: &World<P>, drained: bool) -> LivenessReport {
    let mut horizon = Horizon::default();
    fill_horizon(world, drained, &mut horizon);
    check_horizon(&horizon)
}

/// Writes `world`'s state at its horizon into `horizon`, reusing its node
/// buffer ([`World::horizon`]), and returns how many of its `unreachable`
/// requests are stranded on partition-isolated nodes. The rest wait on
/// quorum-blocked nodes: requests stranded behind a quorum that cannot
/// assemble are withheld by the same environment that cut the majority
/// away, so they are excused like the cut-isolated ones (without
/// double-counting overlap).
pub(crate) fn fill_horizon<P: Protocol>(
    world: &World<P>,
    drained: bool,
    horizon: &mut Horizon,
) -> u64 {
    let (core, n) = (&world.core, world.len());
    let cut = Cut::new(
        core.compiled.components_at_horizon(core.now, n, drained),
        n,
        |idx| core.alive[idx],
        |idx| core.alive[idx] && world.nodes[idx].holds_token(),
        world.live_token_census(),
    );
    let mut nodes = std::mem::take(&mut horizon.nodes);
    nodes.clear();
    nodes.extend(NodeId::all(n).map(|id| {
        let alive = world.is_alive(id);
        NodeAtHorizon {
            node: id,
            alive,
            idle: world.node(id).is_idle(),
            recovered: world.has_recovered(id),
            isolated: alive
                && cut.as_ref().is_some_and(|cut| cut.isolates(id.zero_based() as usize)),
            quorum_blocked: alive && world.node(id).quorum_blocked(),
        }
    }));
    let pending = |state: &NodeAtHorizon| world.pending_requests(state.node) as u64;
    let stranded: u64 = nodes.iter().filter(|state| state.isolated).map(pending).sum();
    let blocked: u64 =
        nodes.iter().filter(|state| state.quorum_blocked && !state.isolated).map(pending).sum();
    *horizon = Horizon {
        drained,
        events: world.metrics().events_processed,
        injected: world.requests_injected(),
        served: world.metrics().cs_entries,
        abandoned: world.metrics().requests_abandoned,
        unreachable: stranded + blocked,
        live_token_census: world.live_token_census(),
        nodes,
    };
    stranded
}

/// A partition standing at a horizon that splits the live nodes: each
/// node's component, and the components of the live token holders.
struct Cut {
    components: Vec<u32>,
    token_components: BTreeSet<u32>,
}

impl Cut {
    /// The cut `components` makes among `n` nodes, or `None` when it
    /// isolates nobody — the one policy shared by the simulator
    /// ([`World::horizon`]) and the runtime's shutdown horizon:
    ///
    /// * `components` is `CompiledScript::components_at_horizon` (`None` =
    ///   no partition counts at this horizon → nobody is isolated);
    /// * a cut that leaves every live node in one component is vacuous;
    /// * a live node is isolated iff no live token holder shares its
    ///   component — or, when the token is *provably gone everywhere*
    ///   (`live_tokens == 0`) while the cut stands, unconditionally:
    ///   regeneration would need cross-cut agreement. A token merely in
    ///   flight (`live_tokens > 0` with no at-rest holder) has an unknown
    ///   location, so nobody can be proven isolated from it and nothing is
    ///   excused — the oracle stays sharp.
    ///
    /// `holds_token` must already be masked by liveness (a dead node's
    /// token is not a live holder); `live_tokens` is the live token census
    /// (at-rest holders plus in-flight).
    fn new(
        components: Option<Vec<u32>>,
        n: usize,
        alive: impl Fn(usize) -> bool,
        holds_token: impl Fn(usize) -> bool,
        live_tokens: usize,
    ) -> Option<Cut> {
        let components = components?;
        let mut live = (0..n).filter(|idx| alive(*idx)).map(|idx| components[idx]);
        let first = live.next();
        if live.all(|c| Some(c) == first) {
            return None;
        }
        let token_components: BTreeSet<u32> =
            (0..n).filter(|idx| holds_token(*idx)).map(|idx| components[idx]).collect();
        if token_components.is_empty() && live_tokens > 0 {
            return None;
        }
        Some(Cut { components, token_components })
    }

    /// `true` if node `idx`, when alive, is isolated by this cut.
    fn isolates(&self, idx: usize) -> bool {
        self.token_components.is_empty() || !self.token_components.contains(&self.components[idx])
    }
}

/// Per-node partition isolation from component ids: the policy of
/// `Cut::new`, as one flag per node of `alive` (a dead node is never
/// isolated). What the runtime's shutdown horizon reads.
#[must_use]
pub fn isolation_from_components(
    components: Option<Vec<u32>>,
    alive: &[bool],
    holds_token: &[bool],
    live_tokens: usize,
) -> Vec<bool> {
    let n = alive.len();
    let cut = Cut::new(components, n, |idx| alive[idx], |idx| holds_token[idx], live_tokens);
    (0..n).map(|idx| alive[idx] && cut.as_ref().is_some_and(|cut| cut.isolates(idx))).collect()
}

/// Judges a [`Horizon`] snapshot — the liveness oracle proper, shared by
/// the simulator ([`check_liveness`]) and the threaded runtime.
#[must_use]
pub fn check_horizon(horizon: &Horizon) -> LivenessReport {
    let mut report = LivenessReport::default();
    if !horizon.drained {
        // A run still spinning under an active partition is attributable
        // to the environment — the isolated side's retry machinery is
        // *supposed* to keep trying until the partition heals — but only
        // when the isolated side plausibly accounts for the spin: some
        // live node must be isolated AND every non-isolated live node
        // must be quiet. A busy node on the token's own side is a spin
        // the partition does not excuse, and the exhaustion is reported.
        // A quorum-blocked node spins for the same environmental reason —
        // its mint retries are *supposed* to keep probing until the heal —
        // so it both excuses the spin and is excused from the quietness
        // requirement on the remaining nodes.
        let excused =
            |state: &NodeAtHorizon| state.alive && (state.isolated || state.quorum_blocked);
        let isolated_spin = horizon.nodes.iter().any(excused)
            && horizon
                .nodes
                .iter()
                .filter(|state| state.alive && !state.isolated && !state.quorum_blocked)
                .all(|state| state.idle);
        if !isolated_spin {
            report.violations.push(LivenessViolation::HorizonExhausted { events: horizon.events });
        }
        return report;
    }
    let starved = horizon.served + horizon.abandoned + horizon.unreachable != horizon.injected;
    if starved {
        report.violations.push(LivenessViolation::Starvation {
            injected: horizon.injected,
            served: horizon.served,
            abandoned: horizon.abandoned,
            unreachable: horizon.unreachable,
        });
    }
    let mut stuck = Vec::new();
    for state in &horizon.nodes {
        if state.alive && !state.idle && !state.isolated && !state.quorum_blocked {
            stuck.push(LivenessViolation::StuckNode {
                node: state.node,
                recovered: state.recovered,
            });
        }
    }
    // Token conservation is demand-gated: with every request served and
    // every node idle, an absent token is the lazy-regeneration rest
    // state, not a failure (see the module docs).
    let live_nodes = horizon.live_nodes();
    if live_nodes > 0 && horizon.live_token_census == 0 && (starved || !stuck.is_empty()) {
        report.violations.push(LivenessViolation::TokenLost { live_nodes });
    }
    report.violations.extend(stuck);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        metrics::MsgKind,
        outbox::Outbox,
        protocol::{MessageKind, NodeEvent},
        time::SimTime,
        world::SimConfig,
    };

    /// A deliberately broken protocol: requests are swallowed, the token
    /// never exists, and the node claims to be busy forever once poked.
    #[derive(Debug, Clone)]
    struct Nothing;
    impl MessageKind for Nothing {
        fn kind(&self) -> MsgKind {
            MsgKind::Request
        }
    }
    #[derive(Debug)]
    struct Swallower {
        id: NodeId,
        poked: bool,
        /// `true` if this node claims the token forever (for the
        /// partition-awareness tests, which need a token location).
        token: bool,
    }
    impl Protocol for Swallower {
        type Msg = Nothing;
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_event(&mut self, event: NodeEvent<Nothing>, _out: &mut Outbox<Nothing>) {
            if matches!(event, NodeEvent::RequestCs) {
                self.poked = true;
            }
        }
        fn on_crash(&mut self) {}
        fn on_recover(&mut self, _out: &mut Outbox<Nothing>) {}
        fn in_cs(&self) -> bool {
            false
        }
        fn holds_token(&self) -> bool {
            self.token
        }
        fn is_idle(&self) -> bool {
            !self.poked
        }
    }

    fn swallowers(n: u32, holder: Option<u32>) -> Vec<Swallower> {
        (1..=n)
            .map(|i| Swallower { id: NodeId::new(i), poked: false, token: Some(i) == holder })
            .collect()
    }

    fn swallower_world() -> World<Swallower> {
        World::new(SimConfig::default(), swallowers(2, None))
    }

    #[test]
    fn starved_request_and_stuck_node_are_reported() {
        let mut world = swallower_world();
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        let drained = world.run_to_quiescence();
        assert!(drained);
        let report = check_liveness(&world, drained);
        assert!(!report.is_clean());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, LivenessViolation::Starvation { injected: 1, served: 0, .. })));
        assert!(report.violations().iter().any(|v| matches!(
            v,
            LivenessViolation::StuckNode { node, recovered: false } if *node == NodeId::new(2)
        )));
        // The token never existed in this protocol.
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, LivenessViolation::TokenLost { live_nodes: 2 })));
    }

    #[test]
    fn abandoned_requests_do_not_count_as_starvation() {
        let mut world = swallower_world();
        // The node is already down when the request arrives, so the
        // injection is abandoned — that must satisfy the starvation
        // accounting, not violate it.
        world.schedule_failure(SimTime::from_ticks(1), NodeId::new(2));
        world.schedule_request(SimTime::from_ticks(2), NodeId::new(2));
        let drained = world.run_to_quiescence();
        let report = check_liveness(&world, drained);
        // No starvation (the request was abandoned), no stuck node (node 2
        // is dead, node 1 untouched) — and with zero demand the missing
        // token is the lazy-regeneration rest state, so the report is
        // clean.
        assert!(report.is_clean(), "violations: {:?}", report.violations());
        assert_eq!(world.metrics().requests_abandoned, 1);
    }

    #[test]
    fn undrained_run_reports_only_the_horizon() {
        let world = swallower_world();
        let report = check_liveness(&world, false);
        assert_eq!(report.violations().len(), 1);
        assert!(matches!(report.violations()[0], LivenessViolation::HorizonExhausted { .. }));
    }

    // ---- partition awareness ----

    use crate::channel::{FaultPhase, FaultPhaseKind, FaultScript};

    /// A permanent partition isolating node 2 from the token holder.
    fn isolating_script() -> FaultScript {
        FaultScript::none().with_phase(FaultPhase {
            from: SimTime::ZERO,
            until: SimTime::from_ticks(u64::MAX),
            kind: FaultPhaseKind::Split { members: vec![NodeId::new(2)] },
        })
    }

    #[test]
    fn isolated_starvation_and_stuckness_are_the_environments_fault() {
        // Node 1 holds the token; node 2 is cut off forever and its
        // request is swallowed. Without the partition this is starvation
        // plus a stuck node (proved by `starved_request_and_stuck_node…`
        // above); with it, the oracle must attribute both to the
        // environment and stay clean.
        let mut world = World::new(
            SimConfig { script: isolating_script(), ..SimConfig::default() },
            swallowers(2, Some(1)),
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        let drained = world.run_to_quiescence();
        assert!(drained);
        let (horizon, unreachable) = world.horizon(drained);
        let isolated: Vec<bool> = horizon.nodes.iter().map(|state| state.isolated).collect();
        assert_eq!(isolated, vec![false, true]);
        assert_eq!(unreachable, 1);
        let report = check_liveness(&world, drained);
        assert!(report.is_clean(), "violations: {:?}", report.violations());
    }

    #[test]
    fn partition_does_not_excuse_the_token_side() {
        // Same cut, but the swallowed request lives on node 1 — the
        // token's own side. The partition is no excuse there: starvation
        // and the stuck node must still be reported.
        let mut world = World::new(
            SimConfig { script: isolating_script(), ..SimConfig::default() },
            swallowers(2, Some(1)),
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(1));
        let drained = world.run_to_quiescence();
        let report = check_liveness(&world, drained);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, LivenessViolation::Starvation { unreachable: 0, .. })));
        assert!(report.violations().iter().any(|v| matches!(
            v,
            LivenessViolation::StuckNode { node, .. } if *node == NodeId::new(1)
        )));
    }

    #[test]
    fn dead_token_under_partition_excuses_everyone() {
        // No token exists anywhere and a partition is active: regeneration
        // would need cross-partition agreement, so nothing is blamed on
        // the algorithm until the heal.
        let mut world = World::new(
            SimConfig { script: isolating_script(), ..SimConfig::default() },
            swallowers(2, None),
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        let drained = world.run_to_quiescence();
        let report = check_liveness(&world, drained);
        assert!(report.is_clean(), "violations: {:?}", report.violations());
    }

    #[test]
    fn exhausted_horizon_under_partition_is_excused() {
        // An event-cap trip while the partition still stands is the
        // environment's doing (the isolated side is supposed to retry);
        // the same trip with no partition is a livelock verdict.
        let mut partitioned = World::new(
            SimConfig { script: isolating_script(), ..SimConfig::default() },
            swallowers(2, Some(1)),
        );
        partitioned.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        let _ = partitioned.run_to_quiescence();
        assert!(check_liveness(&partitioned, false).is_clean());
        let bare = swallower_world();
        assert!(!check_liveness(&bare, false).is_clean());
    }

    #[test]
    fn busy_token_side_is_not_excused_by_the_partition() {
        // Node 2 is isolated, but the spinning (poked, non-idle) node
        // sits on the token's own side: the cut does not account for the
        // event-cap trip, so horizon exhaustion must be reported.
        let mut world = World::new(
            SimConfig { script: isolating_script(), ..SimConfig::default() },
            swallowers(2, Some(1)),
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(1));
        let _ = world.run_to_quiescence();
        let report = check_liveness(&world, false);
        assert_eq!(report.violations().len(), 1);
        assert!(matches!(report.violations()[0], LivenessViolation::HorizonExhausted { .. }));
    }

    #[test]
    fn a_cut_that_will_heal_does_not_excuse_a_drained_horizon() {
        // Finite cut [0, 100): the swallowed request on node 2 drains the
        // queue at t=1, *inside* the window — but the cut will heal with
        // nothing scheduled after it, so the starvation survives the heal
        // and must be reported, exactly as if there were no cut.
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none().with_phase(FaultPhase {
                    from: SimTime::ZERO,
                    until: SimTime::from_ticks(100),
                    kind: FaultPhaseKind::Split { members: vec![NodeId::new(2)] },
                }),
                ..SimConfig::default()
            },
            swallowers(2, Some(1)),
        );
        world.schedule_request(SimTime::from_ticks(1), NodeId::new(2));
        let drained = world.run_to_quiescence();
        assert!(drained);
        let report = check_liveness(&world, drained);
        assert!(
            report
                .violations()
                .iter()
                .any(|v| matches!(v, LivenessViolation::Starvation { unreachable: 0, .. })),
            "a healing cut is no excuse at a drained horizon: {:?}",
            report.violations()
        );
    }

    #[test]
    fn a_token_in_flight_does_not_isolate_everyone() {
        // No at-rest holder but a nonzero census (token in flight, the
        // exhausted-horizon shape): the token's location is unknown, so
        // nobody can be proven isolated and nothing is excused.
        let components = Some(vec![0, 1]);
        let isolated =
            isolation_from_components(components.clone(), &[true, true], &[false, false], 1);
        assert_eq!(isolated, vec![false, false]);
        // With the token provably gone everywhere, the conservative
        // everyone-isolated branch applies.
        let isolated = isolation_from_components(components, &[true, true], &[false, false], 0);
        assert_eq!(isolated, vec![true, true]);
    }

    #[test]
    fn vacuous_partitions_do_not_excuse_anything() {
        // A split that only separates a dead node leaves every live node
        // in one component: it isolates nobody.
        let mut world = World::new(
            SimConfig {
                script: FaultScript::none().with_phase(FaultPhase {
                    from: SimTime::ZERO,
                    until: SimTime::from_ticks(u64::MAX),
                    kind: FaultPhaseKind::Split { members: vec![NodeId::new(2)] },
                }),
                ..SimConfig::default()
            },
            swallowers(2, None),
        );
        world.schedule_failure(SimTime::from_ticks(1), NodeId::new(2));
        world.schedule_request(SimTime::from_ticks(5), NodeId::new(1));
        let drained = world.run_to_quiescence();
        let (horizon, unreachable) = world.horizon(drained);
        let isolated: Vec<bool> = horizon.nodes.iter().map(|state| state.isolated).collect();
        assert_eq!(isolated, vec![false, false], "a one-sided cut isolates nobody");
        assert_eq!(unreachable, 0);
        let report = check_liveness(&world, drained);
        assert!(!report.is_clean(), "the swallowed request must still be starvation");
    }
}
