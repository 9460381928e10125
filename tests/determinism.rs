//! The engine's determinism contract, pinned end-to-end on the real
//! open-cube protocol: same config + seed ⇒ byte-identical traces. A
//! golden hash guards the fingerprint across refactors.

use opencube::algo::{Config, OpenCubeNode};
use opencube::sim::{
    ArrivalSchedule, DelayModel, FailurePlan, FaultPhase, FaultPhaseKind, FaultScript, SimConfig,
    SimDuration, SimTime, World,
};
use opencube::topology::NodeId;
use rand::{rngs::StdRng, SeedableRng};

const DELTA: u64 = 10;
const CS: u64 = 50;

/// A non-trivial scenario: 32 nodes, concurrent uniform load, a crash of
/// the initial root while it matters, and a recovery — exercising
/// deliveries, timers, search_father, regeneration and the trace.
fn traced_run(seed: u64) -> (u64, u64, u64) {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed,
        record_trace: true,
        max_events: 30_000_000,
        // Explicitly the reliable-channel default: the golden hash below
        // pins that the scripted fault program changes nothing when off.
        script: FaultScript::none(),
    };
    let cfg = Config::new(32, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(2_000));
    let mut world = World::new(sim, OpenCubeNode::build_all(cfg));
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, 32, 60, SimDuration::from_ticks(2_000));
    world.schedule_workload(&schedule);
    world.schedule_failure(SimTime::from_ticks(700), NodeId::new(1));
    world.schedule_recovery(SimTime::from_ticks(15_700), NodeId::new(1));
    assert!(world.run_to_quiescence(), "scenario wedged");
    assert!(
        world.oracle_report().is_clean(),
        "violations: {:?}",
        world.oracle_report().violations()
    );
    (world.trace().hash64(), world.metrics().events_processed, world.metrics().total_sent())
}

#[test]
fn identical_seeds_identical_traces() {
    for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF] {
        assert_eq!(traced_run(seed), traced_run(seed), "same seed diverged at seed {seed}");
    }
}

/// Golden fingerprint: if this changes, the refactor changed observable
/// scheduling behaviour — deliberate changes must update the constant and
/// say so in the commit.
#[test]
fn golden_trace_hash() {
    assert_eq!(
        traced_run(42),
        (GOLDEN_HASH, GOLDEN_EVENTS, GOLDEN_SENT),
        "trace fingerprint moved — scheduling behaviour changed"
    );
}

// Captured from the first green run of this scenario (seed 42).
const GOLDEN_HASH: u64 = 17_956_546_835_187_287_862;
const GOLDEN_EVENTS: u64 = 664;
const GOLDEN_SENT: u64 = 380;

// ---------------------------------------------------------------------
// The fault path: what a crash purge may and may not change
// ---------------------------------------------------------------------

const FAULT_PAIRS: usize = 2_000;

/// The `sim-faults` benchmark workload at a tenth of its size, built the
/// way it builds it: n = 64, one crash/recover pair every 20 000 ticks,
/// an arrival every 2 000, all scheduled before the first step.
fn fault_world() -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed: 42,
        record_trace: true,
        max_events: 30_000_000,
        ..SimConfig::default()
    };
    let cfg = Config::new(64, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(1_000));
    let mut rng = StdRng::seed_from_u64(42);
    let schedule = ArrivalSchedule::uniform(
        &mut rng,
        64,
        FAULT_PAIRS * 10 + 20,
        SimDuration::from_ticks(2_000),
    );
    let failures = FailurePlan::random_singles(
        &mut rng,
        64,
        NodeId::new(1),
        FAULT_PAIRS,
        SimTime::from_ticks(1_000),
        SimDuration::from_ticks(20_000),
        SimDuration::from_ticks(6_000),
    );
    let mut world = World::new(sim, OpenCubeNode::build_all(cfg));
    world.schedule_workload(&schedule);
    world.schedule_failures(&failures);
    world
}

/// Everything a purge could disturb: how many events ran, what was sent,
/// what the crashes destroyed and abandoned, and the order of it all.
fn fault_observables(world: &World<OpenCubeNode>) -> (u64, u64, u64, u64, u64) {
    let m = world.metrics();
    assert_eq!((m.crashes, m.recoveries), (FAULT_PAIRS as u64, FAULT_PAIRS as u64));
    assert_eq!(world.requests_injected(), m.cs_entries + m.requests_abandoned);
    (
        m.events_processed,
        m.total_sent(),
        m.lost_to_crashes,
        m.requests_abandoned,
        world.trace().hash64(),
    )
}

/// Taken from the commit before the queue was split into tiers and the
/// purge made in place; a purge that drops, keeps or reorders anything
/// else moves them.
const FAULT_GOLDEN: (u64, u64, u64, u64, u64) =
    (454_250, 312_318, 548, 81, 2_851_374_949_455_519_051);

#[test]
fn fault_path_observables_are_pinned() {
    let mut world = fault_world();
    assert!(world.run_to_quiescence(), "fault run wedged");
    assert_eq!(fault_observables(&world), FAULT_GOLDEN);
}

/// A checkpoint taken mid-run — arrivals and most of the failure plan
/// still pending — resumes into the same future, crashes included.
#[test]
fn checkpoint_with_pending_inputs_resumes_identically() {
    let mut world = fault_world();
    assert!(!world.run_until(SimTime::from_ticks(500_000)), "drained before the checkpoint");
    let checkpoint = world.checkpoint();
    assert!(world.run_to_quiescence());
    assert_eq!(fault_observables(&world), FAULT_GOLDEN);
    let mut fork = checkpoint.to_world();
    assert!(fork.run_to_quiescence());
    assert_eq!(fault_observables(&fork), FAULT_GOLDEN, "fork");
    world.restore(&checkpoint);
    assert!(world.run_to_quiescence());
    assert_eq!(fault_observables(&world), FAULT_GOLDEN, "restore");
}

// ---------------------------------------------------------------------
// The link-fault path: script order is draw order
// ---------------------------------------------------------------------

/// `(events, sent, lost_to_faults, duplicated_deliveries, trace hash)` of
/// the run below, taken at the last commit that had a separate
/// `SimConfig::faults` window (ticks 100..2 000, 10 ‰ loss, 200 ‰
/// duplication) beside the two scripted phases. That window drew before
/// the script did; a leading `LossDup` phase draws in the same place.
const LINK_FAULT_GOLDEN: (u64, u64, u64, u64, u64) =
    (3_820, 2_682, 25, 228, 5_318_256_125_972_993_502);

/// n = 16 under three overlapping probabilistic phases. Every send inside
/// the overlap draws for each of them in script order, so moving the
/// first phase anywhere else shifts every later draw and the trace.
#[test]
fn leading_loss_dup_phase_reproduces_the_separate_fault_window() {
    let phase = |from, until, kind| FaultPhase {
        from: SimTime::from_ticks(from),
        until: SimTime::from_ticks(until),
        kind,
    };
    let script = FaultScript::none()
        .with_phase(phase(
            100,
            2_000,
            FaultPhaseKind::LossDup { loss_per_mille: 10, duplicate_per_mille: 200 },
        ))
        .with_phase(phase(
            200,
            2_500,
            FaultPhaseKind::Degrade {
                from: (1..=8).map(NodeId::new).collect(),
                to: (9..=16).map(NodeId::new).collect(),
                loss_per_mille: 100,
            },
        ))
        .with_phase(phase(
            150,
            3_000,
            FaultPhaseKind::LossDup { loss_per_mille: 10, duplicate_per_mille: 300 },
        ));
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed: 3,
        record_trace: true,
        max_events: 30_000_000,
        script,
    };
    let cfg = Config::new(16, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(2_000));
    let mut world = World::new(sim, OpenCubeNode::build_all(cfg));
    let mut rng = StdRng::seed_from_u64(3);
    world.schedule_workload(&ArrivalSchedule::uniform(
        &mut rng,
        16,
        80,
        SimDuration::from_ticks(30),
    ));
    assert!(world.run_to_quiescence(), "link-fault run wedged");
    let m = world.metrics();
    assert_eq!(
        (
            m.events_processed,
            m.total_sent(),
            m.lost_to_faults,
            m.duplicated_deliveries,
            world.trace().hash64()
        ),
        LINK_FAULT_GOLDEN
    );
}
