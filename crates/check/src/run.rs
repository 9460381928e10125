//! Playing one scenario on one virtual-time substrate and judging it.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use oc_algo::{Config, Hardening, Mutation, OpenCubeNode};
use oc_runtime::{run_virtual, RuntimeConfig};
use oc_sim::{
    check_horizon, ticks_to_wall, Counter, LivenessReport, MsgKind, OracleReport, Protocol,
    SimConfig, SimDuration, SimTime, Tape, Trace, World,
};
use oc_topology::NodeId;

use crate::nodeproc;
use crate::scenario::Scenario;

/// Raw protocol-state signals harvested from one run, feeding the guided
/// explorer's coverage extraction ([`crate::Coverage`]). Only a
/// [`World`] fills them, from its [`oc_sim::Metrics`]: the protocol
/// counts are what the nodes reported through their outboxes, so a
/// protocol that reports none (the baselines) leaves them at zero.
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
    /// `search_father` restarts ([`Counter::SearchRestarts`]) — each one
    /// is a sweep that found the token missing or moved (a liveness
    /// near-miss).
    pub search_restarts: u64,
    /// Tokens regenerated ([`Counter::TokensRegenerated`]).
    pub regenerations: u64,
    /// Ring sweep phases run ([`Counter::SearchPhases`]) — try-later
    /// patience burned.
    pub search_phases: u64,
    /// Searches started ([`Counter::SearchesStarted`]).
    pub searches_started: u64,
    /// Ring probes sent: the [`MsgKind::Test`] sends.
    pub nodes_tested: u64,
    /// Anomaly notifications sent: the [`MsgKind::Anomaly`] sends.
    pub anomalies: u64,
    /// Mint ballots parked awaiting quorum ([`Counter::MintsParked`];
    /// hardened mode only).
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
/// one verdict type of every substrate.
///
/// From [`Substrate::Sim`] every field is filled and equal scenarios
/// produce equal outcomes — `PartialEq` over the whole struct is the
/// "replays byte-identically" check, and [`Outcome::fingerprint`] folds
/// it into one `u64` for aggregate summaries. The other virtual-time
/// ends are as deterministic. [`Substrate::Nodeproc`] fills every field
/// but the protocol counts ([`Counter`]: `epoch_discards` and
/// `coverage`'s search, regeneration and mint counters), because a
/// `Proc` drops the count actions of its node; [`Substrate::NodeprocLogs`]
/// fills the fields a socket outcome fills, `events` counting merged log
/// records. [`Substrate::Runtime`] draws the scenario's delays from
/// streams of its own, so it gives the simulator's *verdicts*, not its
/// counters. From real processes (`oc_bench::orchestrator::run_scenario_sockets`)
/// an outcome is verdict evidence, not a fingerprint: real clocks. It is
/// the one runner that waits for the run to settle up to a wall-clock
/// timeout, and it reports a run that has not settled by then as horizon
/// exhaustion, like a sim run that hit its event cap. `events` counts
/// what the substrate calls an event (worker-processed commands; merged
/// log records), and what a substrate cannot know it leaves at zero:
///
/// * runtime and sockets: `coverage` (per-kind sends, protocol counts)
///   and the mint traffic `epoch_discards`, `mint_requests`,
///   `mint_acks` — only a [`World`] keeps per-kind sends and protocol
///   counts;
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

/// What carries a scenario's messages: one of the three ends that play
/// it in virtual time. A plain enum, not a trait: the one caller that
/// picks an end at run time (`explore --substrate`) matches on a value.
/// `FromStr` and `Display` use the names `sim`, `nodeproc`,
/// `nodeproc-logs` and `runtime:W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// The simulator over bare open-cube nodes; fills every field of the
    /// [`Outcome`].
    Sim,
    /// The socket node's own code (`oc_transport::Proc`) stepped by the
    /// simulator, judged by the world's oracles.
    Nodeproc,
    /// The same run as `Nodeproc`, judged from the nodes' event logs by
    /// [`crate::judge_logs`], as a real deployment is.
    NodeprocLogs,
    /// The threaded runtime's worker cores (`oc_runtime::run_virtual`)
    /// on one thread; `0` workers means `min(n, 8)`.
    Runtime {
        /// Worker cores.
        workers: usize,
    },
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Substrate::Sim => f.write_str("sim"),
            Substrate::Nodeproc => f.write_str("nodeproc"),
            Substrate::NodeprocLogs => f.write_str("nodeproc-logs"),
            Substrate::Runtime { workers } => write!(f, "runtime:{workers}"),
        }
    }
}

impl FromStr for Substrate {
    type Err = ();

    fn from_str(text: &str) -> Result<Substrate, ()> {
        Ok(match text {
            "sim" => Substrate::Sim,
            "nodeproc" => Substrate::Nodeproc,
            "nodeproc-logs" => Substrate::NodeprocLogs,
            _ => {
                let workers = text.strip_prefix("runtime:").ok_or(())?;
                Substrate::Runtime { workers: workers.parse().map_err(|_| ())? }
            }
        })
    }
}

/// How one scenario is played. None of it is part of the scenario, so
/// one `oc1-` ID replays under every `Run`. Neither is a tape of the
/// run's draws, which [`run`] takes beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// What carries the messages.
    pub substrate: Substrate,
    /// The planted bug, if any.
    pub mutation: Mutation,
    /// The open-cube nodes' hardening mode.
    pub hardening: Hardening,
}

impl Run {
    /// The faithful, unhardened protocol on the simulator: the default
    /// battery, and the base other runs update (`..Run::SIM`).
    pub const SIM: Run =
        Run { substrate: Substrate::Sim, mutation: Mutation::None, hardening: Hardening::None };
}

/// Plays one scenario as `how` says and returns its oracle verdict — a
/// pure function of `(scenario, how, tape)` on every substrate. With
/// `trace`, the world ends record the run there (`explore --replay`
/// prints it); the runtime's cores record none and leave it as given.
///
/// Without `tape` every draw of the run (delays, link fates, and on the
/// runtime the scheduler's picks) comes from the scenario's seed. With a
/// blank tape it still does, and the tape records the draws; with a
/// recorded tape the draws are its entries (`oc_sim::Choices`), so a
/// recorded run replays exactly and an edited tape plays another valid
/// run. Either way the tape keeps the draws the run made: on the world
/// ends one stream, and a second of same-tick order when the tape given
/// has one (`oc_sim::Tape::world_choices`); `W + 1` on `runtime:W`.
///
/// The world ends play in the calling thread's one [`World`], reset in
/// place ([`World::reset`]) rather than built per scenario, so a battery
/// costs the heap only what a world the thread holds cannot take. A
/// reset world is a new world: the verdict does not depend on what the
/// thread ran before.
#[must_use]
pub fn run(
    scenario: &Scenario,
    how: Run,
    trace: Option<&mut Trace>,
    tape: Option<&mut Tape>,
) -> Outcome {
    let config = scenario.config(how.mutation, how.hardening);
    match how.substrate {
        Substrate::Sim => on_world(scenario, OpenCubeNode::build_all(config), trace, tape),
        Substrate::Nodeproc => nodeproc::play(scenario, config, trace, tape, false),
        Substrate::NodeprocLogs => nodeproc::play(scenario, config, trace, tape, true),
        Substrate::Runtime { workers } => on_runtime(scenario, config, workers, tape),
    }
}

/// [`run`] on the simulator, unhardened, seeded, without a trace.
#[must_use]
pub fn run_scenario(scenario: &Scenario, mutation: Mutation) -> Outcome {
    run(scenario, Run { mutation, ..Run::SIM }, None, None)
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
    P: Protocol + 'static,
    F: FnOnce(&Scenario) -> Vec<P>,
{
    on_world(scenario, build(scenario), None, None)
}

/// `nodes` in this thread's world, run to quiescence and judged.
fn on_world<P: Protocol + 'static>(
    scenario: &Scenario,
    nodes: Vec<P>,
    trace: Option<&mut Trace>,
    tape: Option<&mut Tape>,
) -> Outcome {
    in_scenario_world(scenario, nodes, trace, tape, |world| {
        let drained = world.run_to_quiescence();
        judge_world(world, drained)
    })
}

/// The length of one scenario tick on the runtime's nanosecond clock.
const RUNTIME_TICK: Duration = Duration::from_micros(20);

/// [`Substrate::Runtime`]: ticks mapped to nanoseconds, the horizon `max_events`.
fn on_runtime(
    scenario: &Scenario,
    protocol: Config,
    workers: usize,
    tape: Option<&mut Tape>,
) -> Outcome {
    let config = RuntimeConfig {
        workers,
        tick: RUNTIME_TICK,
        max_network_delay: scenario.delay(),
        cs_duration: ticks_to_wall(scenario.cs_ticks, RUNTIME_TICK),
        seed: scenario.seed,
    };
    let report = run_virtual(
        config,
        scenario.fault_script(),
        OpenCubeNode::build_all(protocol),
        &scenario.schedule(),
        &scenario.failure_plan(),
        scenario.max_events,
        tape,
    );
    Outcome {
        drained: report.drained,
        events: report.events_processed,
        messages: report.messages_sent,
        cs_entries: report.cs_entries,
        crashes: report.crashes,
        recoveries: report.recoveries,
        abandoned: report.requests_abandoned,
        lost_to_faults: report.lost_to_faults,
        lost_to_partition: report.lost_to_partition,
        duplicated: report.duplicated_deliveries,
        safety: report.safety,
        liveness: report.liveness,
        ..Outcome::default()
    }
}

thread_local! {
    /// The calling thread's world, of the protocol type it last ran: the
    /// one slot every runner of this crate resets its world in.
    static WORLD: Cell<Option<Box<dyn Any>>> = const { Cell::new(None) };
}

/// Hands `play` this thread's world, reset for `scenario` over `nodes`
/// with every arrival and crash filed — the one place a scenario becomes
/// a [`SimConfig`] — and, with `trace`, records the run and copies its
/// trace there; with `tape`, draws from it (or records into a blank one)
/// and leaves there what the run drew. The world is out of its slot while `play` runs, so a
/// runner called inside `play` gets a world of its own, and a world left
/// mid-event by a panic is never reused. A world of another protocol type
/// is dropped for a new one.
pub(crate) fn in_scenario_world<P: Protocol + 'static, R>(
    scenario: &Scenario,
    nodes: Vec<P>,
    trace: Option<&mut Trace>,
    tape: Option<&mut Tape>,
    play: impl FnOnce(&mut World<P>) -> R,
) -> R {
    let sim = SimConfig {
        delay: scenario.delay(),
        cs_duration: SimDuration::from_ticks(scenario.cs_ticks),
        seed: scenario.seed,
        record_trace: trace.is_some(),
        max_events: scenario.max_events,
        script: scenario.fault_script(),
    };
    let kept = WORLD.take().and_then(|world| world.downcast::<World<P>>().ok());
    let mut world = match kept {
        Some(mut world) => {
            world.reset(sim, nodes);
            world
        }
        None => Box::new(World::new(sim, nodes)),
    };
    for (at, node) in &scenario.arrivals {
        world.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
    }
    // `Scenario::failure_plan`, filed without building the plan.
    for crash in &scenario.crashes {
        let node = NodeId::new(crash.node);
        world.schedule_failure(SimTime::from_ticks(crash.at), node);
        if let Some(recover_at) = crash.recover_at {
            assert!(recover_at > crash.at, "recovery must come after the crash");
            world.schedule_recovery(SimTime::from_ticks(recover_at), node);
        }
    }
    if let Some(tape) = tape.as_deref() {
        world.set_choices(tape.world_choices(scenario.seed));
    }
    let result = play(&mut world);
    if let Some(trace) = trace {
        trace.clone_from(world.trace());
    }
    if let Some(tape) = tape {
        tape.keep([world.choices()]);
    }
    WORLD.set(Some(world));
    result
}

/// Judges a scenario's world once it has run (`drained`: the queue
/// emptied under the event cap) by the world's own oracles and metrics.
pub(crate) fn judge_world<P: Protocol>(world: &mut World<P>, drained: bool) -> Outcome {
    let (horizon, unreachable) = world.horizon(drained);
    let liveness = check_horizon(horizon);
    let isolated_nodes = horizon.nodes.iter().filter(|state| state.isolated).count() as u64;
    let quorum_blocked_nodes =
        horizon.nodes.iter().filter(|state| state.quorum_blocked).count() as u64;
    let metrics = world.metrics();
    let coverage = CoverageStats {
        sent_by_kind: MsgKind::all().map(|kind| metrics.sent(kind)),
        search_restarts: metrics.counted(Counter::SearchRestarts),
        regenerations: metrics.counted(Counter::TokensRegenerated),
        search_phases: metrics.counted(Counter::SearchPhases),
        searches_started: metrics.counted(Counter::SearchesStarted),
        nodes_tested: metrics.sent(MsgKind::Test),
        anomalies: metrics.sent(MsgKind::Anomaly),
        mints_parked: metrics.counted(Counter::MintsParked),
        isolated_nodes,
        quorum_blocked_nodes,
        unreachable,
    };
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
        epoch_discards: metrics.counted(Counter::EpochDiscards),
        mint_requests: metrics.sent(MsgKind::MintRequest),
        mint_acks: metrics.sent(MsgKind::MintAck),
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
    fn an_outcome_with_the_trace_on_equals_the_one_with_it_off() {
        let witness = Scenario::from_id(
            "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100",
        )
        .expect("the witness decodes");
        let generated = (0..40).map(|index| Scenario::generate(&Space::default(), 7, index));
        for scenario in generated.chain([witness]) {
            for hardening in [Hardening::None, Hardening::Quorum] {
                let how = Run { hardening, ..Run::SIM };
                let mut trace = Trace::default();
                let traced = run(&scenario, how, Some(&mut trace), None);
                assert_eq!(traced, run(&scenario, how, None, None), "{}", scenario.id());
                assert!(!trace.records().is_empty(), "{}", scenario.id());
            }
        }
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
