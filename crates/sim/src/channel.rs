//! Message-delay models.
//!
//! The paper's system model promises a *maximum* delay δ between live nodes
//! and explicitly allows out-of-order delivery (channels need not be FIFO).
//! All models here sample per-message delays independently, which yields
//! non-FIFO behaviour whenever the delay is not constant.

use oc_topology::NodeId;
use rand::{Rng, RngExt};

use crate::time::{SimDuration, SimTime};

/// How per-message network delays are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Every message takes exactly this long (a FIFO network).
    Constant(SimDuration),
    /// Delays drawn uniformly from `[min, max]` (non-FIFO). `max` is the
    /// paper's δ.
    Uniform {
        /// Minimum delay.
        min: SimDuration,
        /// Maximum delay — the δ every timeout in the algorithm is built on.
        max: SimDuration,
    },
}

impl DelayModel {
    /// The bound δ this model never exceeds.
    #[must_use]
    pub fn delta(&self) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { max, .. } => max,
        }
    }

    /// Samples one message delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            DelayModel::Constant(d) => d,
            DelayModel::Uniform { min, max } => {
                assert!(min <= max, "uniform delay model needs min <= max");
                SimDuration::from_ticks(rng.random_range(min.ticks()..=max.ticks()))
            }
        }
    }
}

impl Default for DelayModel {
    /// A convenient default: uniform in `[1, 10]` ticks.
    fn default() -> Self {
        DelayModel::Uniform { min: SimDuration::from_ticks(1), max: SimDuration::from_ticks(10) }
    }
}

/// One kind of time-scripted network fault (see [`FaultScript`]).
///
/// Partitions and degradation are *directional in time, not in intent*:
/// a partition drops every message whose endpoints sit in different
/// blocks, in both directions; degradation is explicitly one-way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPhaseKind {
    /// Split the system into the cube's aligned p-groups
    /// (`oc_topology::p_group`): every `2^p`-node block becomes an
    /// island. Messages crossing a block boundary are destroyed,
    /// deterministically — no randomness is drawn.
    GroupPartition {
        /// Group level: block `k` holds identities `k·2^p + 1 ..= (k+1)·2^p`.
        p: u32,
    },
    /// Split `members` away from the rest: two blocks, the members and
    /// everyone else. Cross-block messages are destroyed,
    /// deterministically.
    Split {
        /// The seceding block.
        members: Vec<NodeId>,
    },
    /// Asymmetric, one-way link degradation: a message from a member of
    /// `from` to a member of `to` is dropped with probability
    /// `loss_per_mille`/1000 (one RNG draw per matching send). Traffic
    /// in the opposite direction is untouched.
    Degrade {
        /// Source side of the degraded direction.
        from: Vec<NodeId>,
        /// Destination side of the degraded direction.
        to: Vec<NodeId>,
        /// Drop probability for matching sends, in 1/1000 units.
        loss_per_mille: u16,
    },
    /// Uniform loss and duplicate delivery between live nodes, decided
    /// per send in that order:
    ///
    /// * **Loss** drops the message with probability
    ///   `loss_per_mille`/1000. A dropped token-carrying message destroys
    ///   the token exactly as a crashed carrier would; the Section 5
    ///   machinery (loan enquiry, `search_father`, regeneration) is what
    ///   restores it. Loss *violates* the reliable-channel assumption the
    ///   safety argument rests on, so clean runs are not guaranteed — see
    ///   DESIGN.md ("Fault model soundness").
    /// * **Duplicate delivery** flags a surviving message for a second,
    ///   independently delayed copy with probability
    ///   `duplicate_per_mille`/1000. Token-carrying messages are never
    ///   duplicated: a wire duplicate of the token is indistinguishable
    ///   from real token duplication, which any transport for a token
    ///   algorithm must prevent (one sequence number suffices) — modeled
    ///   here as exactly-once for tokens, at-least-once for everything
    ///   else.
    ///
    /// A zero rate draws no randomness on its branch.
    LossDup {
        /// Per-message loss probability, in 1/1000 units.
        loss_per_mille: u16,
        /// Per-message duplication probability, in 1/1000 units
        /// (token-carrying messages exempt).
        duplicate_per_mille: u16,
    },
}

/// One timed phase of a [`FaultScript`]: the fault holds during
/// `[from, until)` and *heals* at `until`.
///
/// Heal-time is the adversarial moment for a token algorithm: while a
/// partition isolates the token, the other side's suspicion machinery
/// may run its full course and regenerate — the instant the partition
/// heals, two tokens can meet. The safety oracle's census watches
/// exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPhase {
    /// Phase start (inclusive).
    pub from: SimTime,
    /// Phase end — the heal instant (exclusive).
    pub until: SimTime,
    /// What the phase does to the network.
    pub kind: FaultPhaseKind,
}

impl FaultPhase {
    /// `true` while `now` lies inside the phase window.
    #[must_use]
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }

    /// Uniform loss/duplication during `[from, until)` ticks — the phase
    /// this crate's tests build most.
    #[cfg(test)]
    pub(crate) fn loss_dup(
        from: u64,
        until: u64,
        loss_per_mille: u16,
        duplicate_per_mille: u16,
    ) -> Self {
        FaultPhase {
            from: SimTime::from_ticks(from),
            until: SimTime::from_ticks(until),
            kind: FaultPhaseKind::LossDup { loss_per_mille, duplicate_per_mille },
        }
    }
}

/// A time-scripted program of network-fault phases.
///
/// Phases may overlap. Active partition phases are decided first, and
/// deterministically: a cross-cut send is destroyed before any
/// probabilistic machinery draws. The surviving sends then see every
/// active probabilistic phase **in script order** (first drop wins,
/// duplication flags accumulate). The empty script
/// ([`FaultScript::none`], the default) injects nothing and draws no
/// randomness, so traces and golden hashes of unscripted configurations
/// are byte-identical.
///
/// The paper assumes reliable channels: a message is destroyed only when
/// its destination crashes. Every scripted fault steps outside that model
/// on purpose, so the adversarial explorer (`oc-check`) can probe how the
/// protocol degrades — and prove the oracles notice when it does. See
/// DESIGN.md, "Fault scripting & partition semantics".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    phases: Vec<FaultPhase>,
}

impl FaultScript {
    /// The empty script — the paper's reliable-channel model.
    #[must_use]
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Appends a phase (builder style). Phases apply in insertion order.
    #[must_use]
    pub fn with_phase(mut self, phase: FaultPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Appends a phase in place.
    pub fn push(&mut self, phase: FaultPhase) {
        self.phases.push(phase);
    }

    /// The scripted phases, in application order.
    #[must_use]
    pub fn phases(&self) -> &[FaultPhase] {
        &self.phases
    }

    /// `true` if the script can ever inject a fault.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.phases.iter().any(|ph| ph.from < ph.until)
    }

    /// Compiles the script for an `n`-node system: per-phase dense
    /// membership tables, so the per-send check is array lookups.
    ///
    /// # Panics
    ///
    /// Panics if a phase references a node outside `1..=n` or a group
    /// level above the cube's dimension.
    #[must_use]
    pub fn compile(&self, n: usize) -> CompiledScript {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                let action = match &phase.kind {
                    FaultPhaseKind::GroupPartition { p } => {
                        assert!(
                            *p <= oc_topology::dimension(n),
                            "group level {p} exceeds the dimension of an {n}-cube"
                        );
                        CompiledAction::Partition {
                            block: (0..n as u32).map(|idx| idx >> p).collect(),
                        }
                    }
                    FaultPhaseKind::Split { members } => {
                        // The members are block 0, everyone else block 1.
                        let mut block = vec![1; n];
                        for node in members {
                            block[index_of(*node, n)] = 0;
                        }
                        CompiledAction::Partition { block }
                    }
                    FaultPhaseKind::Degrade { from, to, loss_per_mille } => {
                        let mut from_set = vec![false; n];
                        let mut to_set = vec![false; n];
                        for node in from {
                            from_set[index_of(*node, n)] = true;
                        }
                        for node in to {
                            to_set[index_of(*node, n)] = true;
                        }
                        CompiledAction::Degrade {
                            from: from_set,
                            to: to_set,
                            loss_per_mille: *loss_per_mille,
                        }
                    }
                    FaultPhaseKind::LossDup { loss_per_mille, duplicate_per_mille } => {
                        CompiledAction::LossDup {
                            loss_per_mille: *loss_per_mille,
                            duplicate_per_mille: *duplicate_per_mille,
                        }
                    }
                };
                CompiledPhase { from: phase.from, until: phase.until, action }
            })
            .collect();
        CompiledScript { phases }
    }
}

fn index_of(node: NodeId, n: usize) -> usize {
    let idx = node.zero_based() as usize;
    assert!(idx < n, "scripted fault references node {node} outside 1..={n}");
    idx
}

#[derive(Debug, Clone)]
enum CompiledAction {
    Partition { block: Vec<u32> },
    Degrade { from: Vec<bool>, to: Vec<bool>, loss_per_mille: u16 },
    LossDup { loss_per_mille: u16, duplicate_per_mille: u16 },
}

#[derive(Debug, Clone)]
struct CompiledPhase {
    from: SimTime,
    until: SimTime,
    action: CompiledAction,
}

impl CompiledPhase {
    fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }
}

/// The fate of one send under an active [`FaultScript`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered normally.
    Deliver,
    /// Destroyed by a partition boundary (deterministic, no RNG draw).
    DropPartition,
    /// Dropped by a degradation or loss phase (one RNG draw).
    DropLoss,
    /// Delivered, plus one extra independently delayed copy.
    DeliverAndDuplicate,
}

/// A [`FaultScript`] compiled against a fixed system size — what the
/// substrates actually consult on the send path.
#[derive(Debug, Clone, Default)]
pub struct CompiledScript {
    phases: Vec<CompiledPhase>,
}

impl CompiledScript {
    /// `true` while any phase is active — the cheap guard the hot path
    /// checks before drawing anything.
    #[must_use]
    pub fn active_at(&self, now: SimTime) -> bool {
        self.phases.iter().any(|ph| ph.active_at(now))
    }

    /// Decides the fate of one `from → to` send at `now` — the one call
    /// on each substrate's send path. Active partition phases go first
    /// and draw nothing: a cut destroys every crossing message, so no
    /// duplicate can be smuggled across it. The survivors then see every
    /// active probabilistic phase in script order, each drawing only for
    /// the sends it matches: the first drop wins and destroys the logical
    /// send outright, duplication flags accumulate into at most one
    /// extra copy.
    pub fn fate<R: Rng + ?Sized>(
        &self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        carries_token: bool,
        rng: &mut R,
    ) -> LinkFate {
        let (src, dst) = (from.zero_based() as usize, to.zero_based() as usize);
        let active = || self.phases.iter().filter(|ph| ph.active_at(now));
        let cut = active().any(|phase| match &phase.action {
            CompiledAction::Partition { block } => block[src] != block[dst],
            _ => false,
        });
        if cut {
            return LinkFate::DropPartition;
        }
        let mut duplicate = false;
        for phase in active() {
            match &phase.action {
                CompiledAction::Partition { .. } => {}
                CompiledAction::Degrade { from, to, loss_per_mille } => {
                    if from[src]
                        && to[dst]
                        && *loss_per_mille > 0
                        && rng.random_range(0..1000u32) < u32::from(*loss_per_mille)
                    {
                        return LinkFate::DropLoss;
                    }
                }
                CompiledAction::LossDup { loss_per_mille, duplicate_per_mille } => {
                    if *loss_per_mille > 0
                        && rng.random_range(0..1000u32) < u32::from(*loss_per_mille)
                    {
                        return LinkFate::DropLoss;
                    }
                    if *duplicate_per_mille > 0
                        && !carries_token
                        && rng.random_range(0..1000u32) < u32::from(*duplicate_per_mille)
                    {
                        duplicate = true;
                    }
                }
            }
        }
        if duplicate {
            LinkFate::DeliverAndDuplicate
        } else {
            LinkFate::Deliver
        }
    }

    /// Component ids under the partition phases active at `now`: nodes
    /// share an id iff **no** active partition separates them. `None`
    /// when no partition phase is active (degradation and loss do not
    /// isolate — a degraded link still exists).
    ///
    /// This is what the liveness oracle's partition awareness reads: a
    /// node in a different component from every live token holder is
    /// *unreachable*, and its pending requests cannot be blamed on the
    /// algorithm.
    #[must_use]
    pub fn components_at(&self, now: SimTime, n: usize) -> Option<Vec<u32>> {
        self.components(n, |ph| ph.active_at(now))
    }

    /// The component ids the *liveness horizon* is judged under. On an
    /// undrained horizon (event cap / forced shutdown) this is
    /// [`CompiledScript::components_at`]: the run was cut off mid-cut,
    /// and what happens after the heal is unknowable. On a **drained**
    /// horizon only never-healing phases count: a finite cut will heal
    /// with *nothing scheduled after it* — whatever it left starved
    /// stays starved past the heal, so the cut is no excuse and the
    /// oracle must judge at full strength.
    #[must_use]
    pub fn components_at_horizon(&self, now: SimTime, n: usize, drained: bool) -> Option<Vec<u32>> {
        self.components(n, |ph| {
            ph.active_at(now) && (!drained || ph.until == SimTime::from_ticks(u64::MAX))
        })
    }

    fn components(
        &self,
        n: usize,
        mut keep: impl FnMut(&CompiledPhase) -> bool,
    ) -> Option<Vec<u32>> {
        let mut keys: Option<Vec<Vec<u32>>> = None;
        for phase in self.phases.iter().filter(|ph| keep(ph)) {
            if let CompiledAction::Partition { block } = &phase.action {
                let keys = keys.get_or_insert_with(|| vec![Vec::new(); n]);
                for (key, b) in keys.iter_mut().zip(block) {
                    key.push(*b);
                }
            }
        }
        let keys = keys?;
        let mut ids = std::collections::BTreeMap::new();
        Some(
            keys.into_iter()
                .map(|key| {
                    let next = ids.len() as u32;
                    *ids.entry(key).or_insert(next)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DelayModel::Constant(SimDuration::from_ticks(4));
        for _ in 0..32 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_ticks(4));
        }
        assert_eq!(m.delta(), SimDuration::from_ticks(4));
    }

    #[test]
    fn uniform_respects_bounds_and_varies() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DelayModel::Uniform {
            min: SimDuration::from_ticks(2),
            max: SimDuration::from_ticks(9),
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let d = m.sample(&mut rng);
            assert!(d.ticks() >= 2 && d.ticks() <= 9);
            seen.insert(d.ticks());
        }
        assert!(seen.len() > 3, "uniform model should vary");
        assert_eq!(m.delta(), SimDuration::from_ticks(9));
    }

    #[test]
    fn link_faults_default_is_inert() {
        let script = FaultScript::default();
        assert_eq!(script, FaultScript::none());
        assert!(script.phases().is_empty());
        assert!(!script.enabled());
    }

    #[test]
    fn link_faults_window_bounds_are_half_open() {
        let compiled =
            FaultScript::none().with_phase(FaultPhase::loss_dup(10, 20, 1_000, 0)).compile(2);
        let mut rng = StdRng::seed_from_u64(7);
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        for (tick, fate) in [
            (9, LinkFate::Deliver),
            (10, LinkFate::DropLoss),
            (19, LinkFate::DropLoss),
            (20, LinkFate::Deliver),
        ] {
            let at = SimTime::from_ticks(tick);
            assert_eq!(compiled.fate(at, a, b, false, &mut rng), fate, "t={tick}");
        }
    }

    #[test]
    fn link_faults_need_both_rate_and_window() {
        // A rate without a window never activates; a window without a
        // rate activates but decides nothing and draws nothing.
        let no_window = FaultScript::none().with_phase(FaultPhase::loss_dup(0, 0, 500, 500));
        assert!(!no_window.enabled());
        assert!(!no_window.compile(2).active_at(SimTime::ZERO));
        let no_rate = FaultScript::none().with_phase(FaultPhase::loss_dup(0, 100, 0, 0)).compile(2);
        assert!(no_rate.active_at(SimTime::ZERO));
        assert_eq!(
            no_rate.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut NoDraw),
            LinkFate::Deliver
        );
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let m = DelayModel::default();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }

    // ---- fault-window edge cases ----

    #[test]
    fn empty_and_degenerate_windows_are_inert() {
        // `from == until` is the empty half-open interval: no instant
        // satisfies `from <= now < until`, whatever the rate. An inverted
        // window is empty too, not wrap-around.
        for (from, until) in [(10, 10), (20, 10)] {
            let script =
                FaultScript::none().with_phase(FaultPhase::loss_dup(from, until, 1_000, 1_000));
            assert!(!script.enabled());
            let compiled = script.compile(2);
            for t in [0u64, 9, 10, 11, 15, 20, u64::MAX] {
                assert!(!compiled.active_at(SimTime::from_ticks(t)), "[{from}, {until}) at {t}");
            }
        }
    }

    #[test]
    fn per_mille_zero_and_full_are_exact() {
        // 0 ‰ never fires and draws nothing on its branch; 1000 ‰ always
        // fires — the `random_range(0..1000) < rate` comparison has no
        // off-by-one at either end.
        let mut rng = StdRng::seed_from_u64(9);
        let always = FaultScript::none()
            .with_phase(FaultPhase {
                from: SimTime::ZERO,
                until: SimTime::from_ticks(u64::MAX),
                kind: FaultPhaseKind::LossDup { loss_per_mille: 1_000, duplicate_per_mille: 0 },
            })
            .compile(4);
        let never = FaultScript::none()
            .with_phase(FaultPhase {
                from: SimTime::ZERO,
                until: SimTime::from_ticks(u64::MAX),
                kind: FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 0 },
            })
            .compile(4);
        for _ in 0..256 {
            assert_eq!(
                always.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut rng),
                LinkFate::DropLoss
            );
            assert_eq!(
                never.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut rng),
                LinkFate::Deliver
            );
        }
    }

    // ---- fault scripts ----

    /// An RNG that panics when used: proves a code path draws nothing.
    struct NoDraw;
    impl Rng for NoDraw {
        fn next_u64(&mut self) -> u64 {
            panic!("this path must not draw randomness")
        }
    }

    fn window(from: u64, until: u64, kind: FaultPhaseKind) -> FaultPhase {
        FaultPhase { from: SimTime::from_ticks(from), until: SimTime::from_ticks(until), kind }
    }

    #[test]
    fn empty_script_is_inert_and_draws_nothing() {
        let script = FaultScript::none();
        assert!(!script.enabled());
        let compiled = script.compile(8);
        assert!(!compiled.active_at(SimTime::ZERO));
        assert_eq!(
            compiled.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut NoDraw),
            LinkFate::Deliver
        );
        assert_eq!(compiled.components_at(SimTime::ZERO, 8), None);
    }

    #[test]
    fn degenerate_phase_windows_are_inert() {
        let script =
            FaultScript::none().with_phase(window(10, 10, FaultPhaseKind::GroupPartition { p: 1 }));
        assert!(!script.enabled());
        let compiled = script.compile(8);
        assert!(!compiled.active_at(SimTime::from_ticks(10)));
        assert_eq!(compiled.components_at(SimTime::from_ticks(10), 8), None);
    }

    #[test]
    fn group_partition_drops_cross_block_deterministically() {
        // n = 8, p = 1: blocks {1,2} {3,4} {5,6} {7,8}. Cross-block sends
        // are destroyed without a single RNG draw; intra-block sends pass.
        let compiled = FaultScript::none()
            .with_phase(window(5, 20, FaultPhaseKind::GroupPartition { p: 1 }))
            .compile(8);
        let at = SimTime::from_ticks(5);
        assert_eq!(
            compiled.fate(at, NodeId::new(1), NodeId::new(3), true, &mut NoDraw),
            LinkFate::DropPartition
        );
        assert_eq!(
            compiled.fate(at, NodeId::new(1), NodeId::new(2), true, &mut NoDraw),
            LinkFate::Deliver
        );
        // The window is half-open: healed at 20 exactly.
        assert_eq!(
            compiled.fate(
                SimTime::from_ticks(20),
                NodeId::new(1),
                NodeId::new(3),
                true,
                &mut NoDraw
            ),
            LinkFate::Deliver
        );
    }

    #[test]
    fn explicit_partition_has_an_implicit_remainder_block() {
        // {1,2} split away; 3..8 stay together as the remainder.
        let compiled = FaultScript::none()
            .with_phase(window(
                0,
                100,
                FaultPhaseKind::Split { members: vec![NodeId::new(1), NodeId::new(2)] },
            ))
            .compile(8);
        let at = SimTime::ZERO;
        assert_eq!(
            compiled.fate(at, NodeId::new(3), NodeId::new(8), false, &mut NoDraw),
            LinkFate::Deliver,
            "the nodes left behind share the remainder block"
        );
        assert_eq!(
            compiled.fate(at, NodeId::new(2), NodeId::new(3), false, &mut NoDraw),
            LinkFate::DropPartition
        );
    }

    #[test]
    fn degrade_is_one_way() {
        let compiled = FaultScript::none()
            .with_phase(window(
                0,
                100,
                FaultPhaseKind::Degrade {
                    from: vec![NodeId::new(1)],
                    to: vec![NodeId::new(2)],
                    loss_per_mille: 1_000,
                },
            ))
            .compile(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            compiled.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut rng),
            LinkFate::DropLoss
        );
        // The reverse direction matches no phase and draws nothing.
        assert_eq!(
            compiled.fate(SimTime::ZERO, NodeId::new(2), NodeId::new(1), false, &mut NoDraw),
            LinkFate::Deliver
        );
    }

    #[test]
    fn overlapping_phases_apply_in_script_order() {
        // A partition and a total-duplication window overlap. For a
        // cross-block pair the partition (listed first) wins before the
        // duplication phase could draw; for an intra-block pair the
        // duplication applies.
        let compiled = FaultScript::none()
            .with_phase(window(0, 50, FaultPhaseKind::GroupPartition { p: 1 }))
            .with_phase(window(
                0,
                50,
                FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 1_000 },
            ))
            .compile(4);
        let at = SimTime::from_ticks(10);
        assert_eq!(
            compiled.fate(at, NodeId::new(1), NodeId::new(3), false, &mut NoDraw),
            LinkFate::DropPartition,
            "the earlier phase decides before the later one draws"
        );
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            compiled.fate(at, NodeId::new(1), NodeId::new(2), false, &mut rng),
            LinkFate::DeliverAndDuplicate
        );
        // Tokens stay exempt from duplication.
        assert_eq!(
            compiled.fate(at, NodeId::new(1), NodeId::new(2), true, &mut NoDraw),
            LinkFate::Deliver
        );
    }

    #[test]
    fn phase_order_is_the_tiebreak_for_competing_drops() {
        // Two total-loss phases: whichever is listed first consumes the
        // (deciding) draw. Observable as determinism: equal seeds, equal
        // fates, and exactly one draw consumed per fate call.
        let compiled = FaultScript::none()
            .with_phase(window(
                0,
                50,
                FaultPhaseKind::LossDup { loss_per_mille: 1_000, duplicate_per_mille: 0 },
            ))
            .with_phase(window(
                0,
                50,
                FaultPhaseKind::Degrade {
                    from: vec![NodeId::new(1)],
                    to: vec![NodeId::new(2)],
                    loss_per_mille: 1_000,
                },
            ))
            .compile(2);
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..32 {
            let fa = compiled.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut a);
            let fb = compiled.fate(SimTime::ZERO, NodeId::new(1), NodeId::new(2), false, &mut b);
            assert_eq!(fa, fb);
            assert_eq!(fa, LinkFate::DropLoss);
        }
        // Both streams consumed the same number of draws: they stay in
        // lockstep on fresh samples.
        assert_eq!(a.random_range(0..u32::MAX), b.random_range(0..u32::MAX));
    }

    #[test]
    fn components_intersect_overlapping_partitions() {
        // Phase A: p=2 blocks {1..4} {5..8}. Phase B splits {1,2,5,6}
        // from the rest. Active together they yield four components:
        // {1,2}, {3,4}, {5,6}, {7,8}.
        let compiled = FaultScript::none()
            .with_phase(window(0, 100, FaultPhaseKind::GroupPartition { p: 2 }))
            .with_phase(window(
                50,
                150,
                FaultPhaseKind::Split { members: [1, 2, 5, 6].map(NodeId::new).to_vec() },
            ))
            .compile(8);
        // Only phase A active: two components.
        let early = compiled.components_at(SimTime::from_ticks(10), 8).unwrap();
        assert_eq!(early[0], early[3]);
        assert_ne!(early[0], early[4]);
        // Both active: the intersection.
        let both = compiled.components_at(SimTime::from_ticks(60), 8).unwrap();
        assert_eq!(both[0], both[1]);
        assert_ne!(both[0], both[2]);
        assert_ne!(both[0], both[4]);
        assert_eq!(both[4], both[5]);
        assert_ne!(both[4], both[6]);
        // After every partition heals: no components at all.
        assert_eq!(compiled.components_at(SimTime::from_ticks(150), 8), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn compiling_out_of_range_nodes_is_rejected() {
        let _ = FaultScript::none()
            .with_phase(window(0, 10, FaultPhaseKind::Split { members: vec![NodeId::new(9)] }))
            .compile(8);
    }
}
