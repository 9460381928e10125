//! Checkpoint soundness: forking a run mid-flight must be
//! indistinguishable from never having stopped.
//!
//! Every use of `World::checkpoint`/`restore` rests on one claim —
//! today the benchmark's `small_world` probe, which times both, and
//! later an exhaustive checker that keeps its DFS stack as checkpoints:
//! `checkpoint → restore → drive` is byte-identical — trace hash,
//! metrics, oracle verdicts, everything — to an uninterrupted drive of
//! the same scenario. These properties pin that claim at arbitrary
//! snapshot ticks, with crash/recovery plans and scripted partitions
//! active, for all three uses of a checkpoint: continuing the
//! snapshotted world, forking a fresh world from the checkpoint, and
//! restoring a *dirty* world back onto it — and all three again on a
//! world that draws from a replayed tape, whose place on the tape a
//! checkpoint carries, and on one whose tape also reorders same-tick
//! events, whose place in that order stream a checkpoint carries too.

use oc_algo::{Config, Mutation, OpenCubeNode};
use oc_check::{Scenario, Space};
use oc_sim::{check_liveness, DelayModel, SimConfig, SimDuration, SimTime, Tape, World};
use oc_topology::NodeId;
use proptest::prelude::*;

/// Builds the same world `oc_check::run_scenario` drives, with the trace
/// recorder on (the equivalence checks hash every event).
fn build_world(scenario: &Scenario) -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(scenario.delay_min),
            max: SimDuration::from_ticks(scenario.delay_max),
        },
        cs_duration: SimDuration::from_ticks(scenario.cs_ticks),
        seed: scenario.seed,
        record_trace: true,
        max_events: scenario.max_events,
        script: scenario.fault_script(),
    };
    let cfg = Config::new(
        scenario.n,
        SimDuration::from_ticks(scenario.delay_max),
        SimDuration::from_ticks(scenario.cs_ticks),
    )
    .with_contention_slack(SimDuration::from_ticks(scenario.contention_slack))
    .with_mutation(Mutation::None);
    let mut world = World::new(sim, OpenCubeNode::build_all(cfg));
    for (at, node) in &scenario.arrivals {
        world.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
    }
    world.schedule_failures(&scenario.failure_plan());
    world
}

/// The world of `scenario` drawing from `tape` instead of its seed.
fn taped_world(scenario: &Scenario, tape: &Tape) -> World<OpenCubeNode> {
    let mut world = build_world(scenario);
    world.set_choices(tape.world_choices(scenario.seed));
    world
}

/// Everything observable about a finished run, rendered comparable: the
/// trace hash covers each processed event; the metrics debug rendering
/// covers every counter; the oracle reports cover both verdicts.
fn drive_to_summary(mut world: World<OpenCubeNode>) -> (bool, u64, String, String, String) {
    let drained = world.run_to_quiescence();
    let liveness = check_liveness(&world, drained);
    (
        drained,
        world.trace().hash64(),
        format!("{:?}", world.metrics()),
        format!("{:?}", world.oracle_report()),
        format!("{liveness:?}"),
    )
}

/// A snapshot deadline somewhere inside (or just past) the scenario's
/// action: `octile`/8 of the workload-plus-repair span.
fn snapshot_tick(scenario: &Scenario, octile: u64) -> SimTime {
    let span = scenario.arrivals.iter().map(|(at, _)| *at).max().unwrap_or(0)
        + 4 * (scenario.cs_ticks + scenario.delay_max);
    SimTime::from_ticks(span * octile / 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three checkpoint uses, against an uninterrupted reference run
    /// of the same scenario.
    #[test]
    fn checkpointed_runs_are_byte_identical_to_uninterrupted_ones(
        master in 0u64..32,
        index in 0u64..48,
        octile in 0u64..=8,
        order in proptest::collection::vec(1u64..4, 1..64),
    ) {
        // Partitions on: the fault-script path (cuts, heals, loss/dup
        // phases) must survive snapshotting too. Some of these scenarios
        // genuinely violate the oracles — equivalence is the claim here,
        // not cleanliness, so failing runs are kept, not assumed away.
        let space = Space { partitions: true, ..Space::default() };
        let scenario = Scenario::generate(&space, master, index);

        let reference = drive_to_summary(build_world(&scenario));

        let mut world = build_world(&scenario);
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();

        // 1. The snapshotted world, driven on: taking a checkpoint must
        //    not disturb the run it was taken from.
        prop_assert_eq!(&drive_to_summary(world), &reference);

        // 2. A fresh world forked from the checkpoint — one deep prefix,
        //    many futures.
        prop_assert_eq!(&drive_to_summary(checkpoint.to_world()), &reference);

        // 3. A dirty world (same scenario, different seed, driven to the
        //    end) restored onto the checkpoint: restore must overwrite
        //    every divergent piece of state.
        let mut dirty =
            build_world(&Scenario { seed: scenario.seed ^ 0x5bd1_e995, ..scenario.clone() });
        dirty.run_to_quiescence();
        dirty.restore(&checkpoint);
        prop_assert_eq!(&drive_to_summary(dirty), &reference);

        // 4. The three uses again on a world replaying the tape of the
        //    seeded run: the replay is the seeded run, and a checkpoint
        //    taken mid-tape resumes at its place on the tape.
        let mut recorder = taped_world(&scenario, &Tape::blank());
        recorder.run_to_quiescence();
        let mut tape = Tape::blank();
        tape.keep([recorder.choices()]);
        prop_assert_eq!(&drive_to_summary(taped_world(&scenario, &tape)), &reference);
        let mut world = taped_world(&scenario, &tape);
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();
        prop_assert_eq!(&drive_to_summary(world), &reference);
        prop_assert_eq!(&drive_to_summary(checkpoint.to_world()), &reference);
        let mut dirty =
            build_world(&Scenario { seed: scenario.seed ^ 0x5bd1_e995, ..scenario.clone() });
        dirty.run_to_quiescence();
        dirty.restore(&checkpoint);
        prop_assert_eq!(&drive_to_summary(dirty), &reference);

        // 5. The three uses once more with an order stream beside the
        //    recorded draws, whose non-zero entries hand each of the first
        //    ties to another event than the earliest filed: a checkpoint
        //    resumes at its place in both streams.
        let reorder = Tape::new(vec![tape.streams()[0].clone(), order]);
        let reordered = drive_to_summary(taped_world(&scenario, &reorder));
        let mut world = taped_world(&scenario, &reorder);
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();
        prop_assert_eq!(&drive_to_summary(world), &reordered);
        prop_assert_eq!(&drive_to_summary(checkpoint.to_world()), &reordered);
        let mut dirty =
            build_world(&Scenario { seed: scenario.seed ^ 0x5bd1_e995, ..scenario.clone() });
        dirty.run_to_quiescence();
        dirty.restore(&checkpoint);
        prop_assert_eq!(&drive_to_summary(dirty), &reordered);
    }
}

/// One deterministic, heavier regression case: mid-repair snapshots of a
/// crash-and-recover scenario, pinned against the uninterrupted
/// reference.
#[test]
fn mid_repair_snapshot_resumes_identically() {
    let space = Space::default();
    // Index 618 at master seed 42: the borrowed-token-dies-with-its-
    // borrower scenario the blind mutation budget is calibrated on —
    // crash, repair sweep, regeneration, recovery, the works.
    let scenario = Scenario::generate(&space, 42, 618);
    assert!(!scenario.crashes.is_empty(), "the calibration scenario has a crash plan");
    let reference = drive_to_summary(build_world(&scenario));
    for octile in [1, 3, 5, 7] {
        let mut world = build_world(&scenario);
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();
        assert_eq!(checkpoint.at(), world.now(), "a checkpoint carries its tick");
        assert_eq!(drive_to_summary(checkpoint.to_world()), reference);
        assert_eq!(drive_to_summary(world), reference);
    }
}
