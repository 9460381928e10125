//! The engine's determinism contract, pinned end-to-end on the real
//! open-cube protocol: same config + seed ⇒ byte-identical traces,
//! whichever event-queue backend runs the simulation. A golden hash
//! guards the fingerprint across refactors.

use opencube::algo::{Config, OpenCubeNode};
use opencube::sim::{
    ArrivalSchedule, DelayModel, Driver, FailurePlan, QueueBackend, SimConfig, SimDuration,
    SimTime, World,
};
use opencube::topology::NodeId;
use rand::{rngs::StdRng, SeedableRng};

const DELTA: u64 = 10;
const CS: u64 = 50;

/// A non-trivial scenario: 32 nodes, concurrent uniform load, a crash of
/// the initial root while it matters, and a recovery — exercising
/// deliveries, timers, search_father, regeneration and the trace.
fn traced_run(seed: u64, backend: QueueBackend) -> (u64, u64, u64) {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed,
        record_trace: true,
        max_events: 30_000_000,
        queue: backend,
        // Explicitly the reliable-channel defaults: the golden hash below
        // pins that the fault-injection hooks — windowed link faults AND
        // the scripted fault program — change nothing when off.
        faults: opencube::sim::LinkFaults::none(),
        script: opencube::sim::FaultScript::none(),
        driver: opencube::sim::Driver::Serial,
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
fn identical_seeds_identical_traces_per_backend() {
    for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
        assert_eq!(
            traced_run(42, backend),
            traced_run(42, backend),
            "same seed diverged on {backend:?}"
        );
    }
}

#[test]
fn heap_and_bucketed_backends_produce_identical_traces() {
    for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF] {
        let heap = traced_run(seed, QueueBackend::Heap);
        let bucketed = traced_run(seed, QueueBackend::Bucketed);
        assert_eq!(heap, bucketed, "backends diverged at seed {seed}");
    }
}

/// Golden fingerprint: if this changes, the refactor changed observable
/// scheduling behaviour — deliberate changes must update the constant and
/// say so in the commit.
#[test]
fn golden_trace_hash() {
    let (hash, events, sent) = traced_run(42, QueueBackend::Bucketed);
    let (heap_hash, ..) = traced_run(42, QueueBackend::Heap);
    assert_eq!(hash, heap_hash);
    assert_eq!(
        (hash, events, sent),
        (GOLDEN_HASH, GOLDEN_EVENTS, GOLDEN_SENT),
        "trace fingerprint moved — scheduling behaviour changed"
    );
}

// Captured from the first green run of this scenario (seed 42); both
// backends agree on it.
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
fn fault_world(backend: QueueBackend, driver: Driver) -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed: 42,
        record_trace: true,
        max_events: 30_000_000,
        queue: backend,
        driver,
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
fn fault_path_observables_are_pinned_on_every_backend_and_driver() {
    for (backend, driver) in [
        (QueueBackend::Heap, Driver::Serial),
        (QueueBackend::Bucketed, Driver::Serial),
        (QueueBackend::Bucketed, Driver::Windowed { threads: 2 }),
    ] {
        let mut world = fault_world(backend, driver);
        assert!(world.run_to_quiescence(), "fault run wedged on {backend:?}/{driver:?}");
        assert_eq!(fault_observables(&world), FAULT_GOLDEN, "{backend:?}/{driver:?}");
    }
}

/// A checkpoint taken mid-run — arrivals and most of the failure plan
/// still pending — resumes into the same future, crashes included.
#[test]
fn checkpoint_with_pending_inputs_resumes_identically() {
    for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
        let mut world = fault_world(backend, Driver::Serial);
        assert!(!world.run_until(SimTime::from_ticks(500_000)), "drained before the checkpoint");
        let checkpoint = world.checkpoint();
        assert!(world.run_to_quiescence());
        assert_eq!(fault_observables(&world), FAULT_GOLDEN, "{backend:?}");
        let mut fork = checkpoint.to_world();
        assert!(fork.run_to_quiescence());
        assert_eq!(fault_observables(&fork), FAULT_GOLDEN, "fork on {backend:?}");
        world.restore(&checkpoint);
        assert!(world.run_to_quiescence());
        assert_eq!(fault_observables(&world), FAULT_GOLDEN, "restore on {backend:?}");
    }
}

/// Same, pinned for a perturbed fork: re-filing the whole queue must hand
/// every arrival, crash and recovery back in its old relative order and
/// out of reach of the purges that follow.
const PERTURBED_GOLDEN: (u64, u64, u64, u64, u64) =
    (454_250, 312_318, 548, 81, 6_859_375_647_461_086_388);

#[test]
fn perturbed_deliveries_then_crashes_keep_every_input() {
    for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
        let mut world = fault_world(backend, Driver::Serial);
        assert!(!world.run_until(SimTime::from_ticks(500_000)));
        world.perturb_deliveries(SimDuration::from_ticks(8), 0xC0FFEE);
        assert!(world.run_to_quiescence());
        assert_eq!(fault_observables(&world), PERTURBED_GOLDEN, "{backend:?}");
    }
}
