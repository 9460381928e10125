//! Playing one scenario through the deterministic engine and judging it.

use oc_algo::{Hardening, Mutation, NodeStats, OpenCubeNode};
use oc_sim::{
    check_liveness, DelayModel, LivenessReport, MsgKind, OracleReport, Protocol, SimConfig,
    SimDuration, SimTime, World,
};
use oc_topology::NodeId;

use crate::scenario::Scenario;

/// Raw protocol-state signals harvested from one run, feeding the guided
/// explorer's coverage extraction ([`crate::Coverage`]).
///
/// Additive: these counters are deliberately *excluded* from
/// [`Outcome::fingerprint`] (the same contract the hardened counters
/// follow), so committed battery fingerprints do not drift when new
/// signals are wired in. `PartialEq` over [`Outcome`] still covers them,
/// so replay-identity assertions see the full picture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Messages sent per kind, in [`MsgKind::all`] order.
    pub sent_by_kind: [u64; 9],
    /// `search_father` restarts summed over all nodes — each one is a
    /// sweep that found the token missing or moved (a liveness near-miss).
    pub search_restarts: u64,
    /// Tokens regenerated, summed over all nodes.
    pub regenerations: u64,
    /// Ring sweep phases completed, summed over all nodes — try-later
    /// patience burned.
    pub search_phases: u64,
    /// Searches started, summed over all nodes.
    pub searches_started: u64,
    /// Ring probes fielded, summed over all nodes.
    pub nodes_tested: u64,
    /// Anomaly notifications sent, summed over all nodes.
    pub anomalies: u64,
    /// Mint ballots parked awaiting quorum (hardened mode only).
    pub mints_parked: u64,
    /// Live nodes isolated by a standing partition at the horizon — the
    /// oracle's partition-isolation excuse, counted instead of judged.
    pub isolated_nodes: u64,
    /// Live nodes excused as quorum-blocked at the horizon.
    pub quorum_blocked_nodes: u64,
    /// Pending requests stranded on isolated nodes at the horizon.
    pub unreachable: u64,
}

/// The oracle verdict and headline counters of one scenario run — the
/// one verdict type of all three substrates.
///
/// From the simulator ([`run_scenario`]) every field is filled and equal
/// scenarios produce equal outcomes — `PartialEq` over the whole struct
/// is the "replays byte-identically" check, and [`Outcome::fingerprint`]
/// folds it into one `u64` for aggregate summaries.
///
/// From the threaded runtime ([`crate::run_scenario_runtime`]) and from
/// real processes (`oc_bench::orchestrator::run_scenario_sockets`) an
/// outcome is verdict evidence, not a fingerprint: real clocks, so equal
/// scenarios give equal *verdicts* on healthy runs, not equal counters.
/// `events` counts what the substrate calls an event (worker-processed
/// commands; merged log records), and what a substrate cannot know it
/// leaves at zero:
///
/// * both: `coverage` (per-kind sends, protocol signals) and the mint
///   traffic `epoch_discards`, `mint_requests`, `mint_acks` — neither
///   keeps per-kind accounting or reads node state after the run;
/// * sockets also: `messages` (no process counts its sends) and
///   `lost_to_faults`, `lost_to_partition`, `duplicated` (there is no
///   link shim yet; a scenario with an active fault script is refused).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// `true` if the run reached quiescence under its event cap.
    pub drained: bool,
    /// Events processed.
    pub events: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Critical sections completed.
    pub cs_entries: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Recoveries injected.
    pub recoveries: u64,
    /// Requests abandoned by crashes of their node.
    pub abandoned: u64,
    /// Messages dropped by the loss fault.
    pub lost_to_faults: u64,
    /// Messages destroyed at a scripted partition boundary.
    pub lost_to_partition: u64,
    /// Extra deliveries injected by the duplication fault.
    pub duplicated: u64,
    /// Stale tokens retired by the fencing epoch (hardened mode only;
    /// always zero under [`Hardening::None`]).
    pub epoch_discards: u64,
    /// Mint ballots sent (hardened mode only).
    pub mint_requests: u64,
    /// Mint grant/refusal replies sent (hardened mode only).
    pub mint_acks: u64,
    /// The safety oracle's report (mutual exclusion, token uniqueness).
    pub safety: OracleReport,
    /// The liveness oracle's report (starvation, token loss, stuck nodes).
    pub liveness: LivenessReport,
    /// Protocol-state signals for coverage-guided exploration. Excluded
    /// from [`Outcome::fingerprint`]; see [`CoverageStats`].
    pub coverage: CoverageStats,
}

impl Outcome {
    /// `true` if every safety and liveness oracle passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.safety.is_clean() && self.liveness.is_clean()
    }

    /// Total violations, both kinds.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.safety.violations().len() + self.liveness.violations().len()
    }

    /// A stable 64-bit FNV-1a fingerprint of the outcome (counters plus
    /// the debug rendering of every violation). Two runs of the same
    /// scenario in the same build produce the same fingerprint, whatever
    /// thread ran them — the explorer's summary folds these.
    ///
    /// The hardened-mode counters (`epoch_discards`, `mint_requests`,
    /// `mint_acks`) are deliberately *not* folded in: they are zero for
    /// every baseline run, and leaving them out keeps the committed
    /// baseline battery fingerprints stable across the hardening's
    /// introduction. `PartialEq` still covers them, so replay-identity
    /// assertions see the full outcome.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = oc_sim::Fnv64::new();
        hash.write(&[u8::from(self.drained)]);
        for word in [
            self.events,
            self.messages,
            self.cs_entries,
            self.crashes,
            self.recoveries,
            self.abandoned,
            self.lost_to_faults,
            self.lost_to_partition,
            self.duplicated,
        ] {
            hash.write_u64(word);
        }
        for violation in self.safety.violations() {
            hash.write(format!("{violation:?}").as_bytes());
        }
        for violation in self.liveness.violations() {
            hash.write(format!("{violation:?}").as_bytes());
        }
        hash.finish()
    }
}

/// Runs one scenario to quiescence and returns its oracle verdict — a
/// pure function of `(scenario, mutation)` over the open-cube protocol.
#[must_use]
pub fn run_scenario(scenario: &Scenario, mutation: Mutation) -> Outcome {
    run_scenario_hardened(scenario, mutation, Hardening::None)
}

/// Runs one scenario with an explicit hardening mode — the same pure
/// function as [`run_scenario`], with the open-cube nodes built under
/// the given [`Hardening`]. Hardening is a run-time parameter, not part
/// of the scenario: the same `oc1-` ID replays under either mode, which
/// is how the partition batteries compare baseline and quorum verdicts
/// on identical fault scripts.
#[must_use]
pub fn run_scenario_hardened(
    scenario: &Scenario,
    mutation: Mutation,
    hardening: Hardening,
) -> Outcome {
    run_scenario_observed(
        scenario,
        |s| OpenCubeNode::build_all(s.config(mutation, hardening)),
        |world, coverage| {
            // The open cube exposes per-node protocol counters; fold them
            // into the coverage block so the guided explorer can reward
            // scenarios that exercise the search/regeneration machinery.
            let mut stats = NodeStats::default();
            for k in 0..world.len() {
                stats = stats.merged(*world.node(NodeId::new(k as u32 + 1)).stats());
            }
            coverage.search_restarts = u64::from(stats.search_restarts);
            coverage.regenerations = u64::from(stats.tokens_regenerated);
            coverage.search_phases = u64::from(stats.search_phases);
            coverage.searches_started = u64::from(stats.searches_started);
            coverage.nodes_tested = u64::from(stats.nodes_tested);
            coverage.anomalies = u64::from(stats.anomalies_sent);
            coverage.mints_parked = u64::from(stats.mints_parked);
        },
    )
}

/// Runs one scenario against an arbitrary [`Protocol`] and returns its
/// oracle verdict — the same substrate, channel model, fault script, and
/// oracle suite as [`run_scenario`], with the node construction supplied
/// by the caller. This is what the baseline batteries drive Raymond and
/// Naimi-Trehel through: the oracles are protocol-agnostic, so every
/// algorithm gets the full judgement, not just the open cube.
///
/// A pure function of `(scenario, build)`: equal scenarios with equal
/// builders produce equal outcomes, bit for bit.
#[must_use]
pub fn run_scenario_with<P, F>(scenario: &Scenario, build: F) -> Outcome
where
    P: Protocol,
    F: FnOnce(&Scenario) -> Vec<P>,
{
    run_scenario_observed(scenario, build, |_, _| {})
}

/// [`run_scenario_with`] plus a post-run observer that reads the final
/// [`World`] — the hook protocol-specific coverage signals flow through
/// (the open-cube path folds its per-node [`NodeStats`] into the
/// [`CoverageStats`] block here). The observer runs after the oracles,
/// before the world is dropped; it must be deterministic for outcome
/// replay identity to hold.
#[must_use]
pub fn run_scenario_observed<P, F, O>(scenario: &Scenario, build: F, observe: O) -> Outcome
where
    P: Protocol,
    F: FnOnce(&Scenario) -> Vec<P>,
    O: FnOnce(&World<P>, &mut CoverageStats),
{
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(scenario.delay_min),
            max: SimDuration::from_ticks(scenario.delay_max),
        },
        cs_duration: SimDuration::from_ticks(scenario.cs_ticks),
        seed: scenario.seed,
        record_trace: false,
        max_events: scenario.max_events,
        script: scenario.fault_script(),
        ..SimConfig::default()
    };
    let mut world = World::new(sim, build(scenario));
    for (at, node) in &scenario.arrivals {
        world.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
    }
    world.schedule_failures(&scenario.failure_plan());
    let drained = world.run_to_quiescence();
    let liveness = check_liveness(&world, drained);
    let (isolated, unreachable) = world.partition_isolation(drained);
    let mut coverage = CoverageStats {
        sent_by_kind: MsgKind::all().map(|kind| world.metrics().sent(kind)),
        isolated_nodes: isolated.iter().filter(|iso| **iso).count() as u64,
        quorum_blocked_nodes: (1..=scenario.n as u32)
            .map(NodeId::new)
            .filter(|id| world.is_alive(*id) && world.node(*id).quorum_blocked())
            .count() as u64,
        unreachable,
        ..CoverageStats::default()
    };
    observe(&world, &mut coverage);
    let metrics = world.metrics();
    Outcome {
        drained,
        events: metrics.events_processed,
        messages: metrics.total_sent(),
        cs_entries: metrics.cs_entries,
        crashes: metrics.crashes,
        recoveries: metrics.recoveries,
        abandoned: metrics.requests_abandoned,
        lost_to_faults: metrics.lost_to_faults,
        lost_to_partition: metrics.lost_to_partition,
        duplicated: metrics.duplicated_deliveries,
        epoch_discards: metrics.epoch_discards,
        mint_requests: metrics.sent(oc_sim::MsgKind::MintRequest),
        mint_acks: metrics.sent(oc_sim::MsgKind::MintAck),
        safety: world.oracle_report().clone(),
        liveness,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioCrash, Space};

    fn tiny_scenario() -> Scenario {
        Scenario {
            n: 4,
            seed: 1,
            delay_min: 1,
            delay_max: 10,
            cs_ticks: 50,
            contention_slack: 2_000,
            max_events: 1_000_000,
            lossy_from: 0,
            lossy_until: 0,
            loss_per_mille: 0,
            duplicate_per_mille: 0,
            arrivals: vec![(1, 2), (3, 3), (5, 4)],
            crashes: Vec::new(),
            phases: Vec::new(),
        }
    }

    #[test]
    fn clean_scenario_is_clean() {
        let outcome = run_scenario(&tiny_scenario(), Mutation::None);
        assert!(outcome.drained);
        assert!(outcome.is_clean(), "violations: {outcome:?}");
        assert_eq!(outcome.cs_entries, 3);
        assert_eq!(outcome.violation_count(), 0);
    }

    #[test]
    fn outcomes_replay_byte_identically() {
        let scenario = Scenario::generate(&Space::default(), 9, 5);
        let a = run_scenario(&scenario, Mutation::None);
        let b = run_scenario(&scenario, Mutation::None);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn planted_safety_bug_is_caught() {
        // A transit grant happens in nearly any multi-node run; the kept
        // token violates uniqueness immediately.
        let outcome = run_scenario(&tiny_scenario(), Mutation::KeepTokenOnTransit);
        assert!(!outcome.safety.is_clean(), "expected a token-duplication violation");
    }

    #[test]
    fn planted_liveness_bug_is_caught() {
        // Node 2 borrows the token (direct loan from root 1) and crashes
        // inside the CS; the mutated lender concludes the loss but never
        // regenerates. With no other claimant the wedge is silent — the
        // stuck-node oracle must catch it at quiescence.
        let scenario = Scenario {
            arrivals: vec![(1, 2)],
            crashes: vec![ScenarioCrash { node: 2, at: 30, recover_at: None }],
            ..tiny_scenario()
        };
        let outcome = run_scenario(&scenario, Mutation::SkipTokenRegeneration);
        assert!(outcome.drained, "the silent wedge quiesces — timers are disarmed");
        assert!(!outcome.liveness.is_clean(), "expected a stuck-node violation");
        // The same scenario is clean without the mutation.
        let healthy = run_scenario(&scenario, Mutation::None);
        assert!(healthy.is_clean(), "violations: {healthy:?}");

        // With a second claimant queued behind the wedge, the node's
        // re-search cycle spins forever instead: the horizon-exhaustion
        // oracle catches that flavor.
        let noisy = Scenario {
            arrivals: vec![(1, 2), (10, 3)],
            crashes: vec![ScenarioCrash { node: 2, at: 30, recover_at: None }],
            max_events: 100_000,
            ..tiny_scenario()
        };
        let outcome = run_scenario(&noisy, Mutation::SkipTokenRegeneration);
        assert!(!outcome.liveness.is_clean(), "expected horizon exhaustion");
        assert!(run_scenario(&noisy, Mutation::None).is_clean());
    }
}
