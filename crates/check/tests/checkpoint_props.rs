//! Checkpoint soundness (satellite of the guided-explorer PR): forking a
//! run mid-flight must be indistinguishable from never having stopped.
//!
//! The guided explorer's deep-prefix forking rests on one claim:
//! `checkpoint → restore → drive` is byte-identical — trace hash,
//! metrics, oracle verdicts, everything — to an uninterrupted drive of
//! the same scenario. These properties pin that claim at arbitrary
//! snapshot ticks, under both queue backends, with crash/recovery plans
//! and scripted partitions active, for all three uses of a checkpoint:
//! continuing the snapshotted world, forking a fresh world from the
//! checkpoint, and restoring a *dirty* world back onto it.

use oc_algo::{Config, Mutation, OpenCubeNode};
use oc_check::{Scenario, Space};
use oc_sim::{check_liveness, DelayModel, QueueBackend, SimConfig, SimDuration, SimTime, World};
use oc_topology::NodeId;
use proptest::prelude::*;

/// Builds the same world `oc_check::run_scenario` drives, with an
/// explicit queue backend and the trace recorder on (the equivalence
/// checks hash every event).
fn build_world(scenario: &Scenario, backend: QueueBackend) -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(scenario.delay_min),
            max: SimDuration::from_ticks(scenario.delay_max),
        },
        cs_duration: SimDuration::from_ticks(scenario.cs_ticks),
        seed: scenario.seed,
        record_trace: true,
        max_events: scenario.max_events,
        queue: backend,
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
    /// of the same scenario on the same backend.
    #[test]
    fn checkpointed_runs_are_byte_identical_to_uninterrupted_ones(
        master in 0u64..32,
        index in 0u64..48,
        octile in 0u64..=8,
        bucketed in any::<bool>(),
    ) {
        // Partitions on: the fault-script path (cuts, heals, loss/dup
        // phases) must survive snapshotting too. Some of these scenarios
        // genuinely violate the oracles — equivalence is the claim here,
        // not cleanliness, so failing runs are kept, not assumed away.
        let space = Space { partitions: true, ..Space::default() };
        let scenario = Scenario::generate(&space, master, index);
        let backend = if bucketed { QueueBackend::Bucketed } else { QueueBackend::Heap };

        let reference = drive_to_summary(build_world(&scenario, backend));

        let mut world = build_world(&scenario, backend);
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();

        // 1. The snapshotted world, driven on: taking a checkpoint must
        //    not disturb the run it was taken from.
        prop_assert_eq!(&drive_to_summary(world), &reference);

        // 2. A fresh world forked from the checkpoint — the guided
        //    explorer's deep-prefix fork primitive.
        prop_assert_eq!(&drive_to_summary(checkpoint.to_world()), &reference);

        // 3. A dirty world (same scenario, different seed, driven to the
        //    end) restored onto the checkpoint: restore must overwrite
        //    every divergent piece of state.
        let mut dirty = build_world(
            &Scenario { seed: scenario.seed ^ 0x5bd1_e995, ..scenario.clone() },
            backend,
        );
        dirty.run_to_quiescence();
        dirty.restore(&checkpoint);
        prop_assert_eq!(&drive_to_summary(dirty), &reference);
    }

    /// Bounded schedule perturbation is deterministic in `(state, slack,
    /// salt)` — two forks perturbed identically stay byte-identical —
    /// and a zero-slack perturbation is a no-op.
    #[test]
    fn perturbation_is_deterministic_and_zero_slack_is_identity(
        master in 0u64..32,
        index in 0u64..48,
        octile in 1u64..=6,
        slack in 1u64..=8,
        salt in any::<u64>(),
    ) {
        let scenario = Scenario::generate(&Space::default(), master, index);
        let mut world = build_world(&scenario, QueueBackend::default());
        world.run_until(snapshot_tick(&scenario, octile));
        let checkpoint = world.checkpoint();

        let mut a = checkpoint.to_world();
        let mut b = checkpoint.to_world();
        a.perturb_deliveries(SimDuration::from_ticks(slack), salt);
        b.perturb_deliveries(SimDuration::from_ticks(slack), salt);
        prop_assert_eq!(&drive_to_summary(a), &drive_to_summary(b));

        let mut unper = checkpoint.to_world();
        unper.perturb_deliveries(SimDuration::from_ticks(0), salt);
        prop_assert_eq!(&drive_to_summary(unper), &drive_to_summary(checkpoint.to_world()));
    }
}

/// One deterministic, heavier regression case: a mid-repair snapshot of
/// a crash-and-recover scenario on both backends, pinned against each
/// other as well as against the uninterrupted reference.
#[test]
fn mid_repair_snapshot_agrees_across_backends() {
    let space = Space::default();
    // Index 618 at master seed 42: the borrowed-token-dies-with-its-
    // borrower scenario the blind mutation budget is calibrated on —
    // crash, repair sweep, regeneration, recovery, the works.
    let scenario = Scenario::generate(&space, 42, 618);
    assert!(!scenario.crashes.is_empty(), "the calibration scenario has a crash plan");
    let mut summaries = Vec::new();
    for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
        let reference = drive_to_summary(build_world(&scenario, backend));
        for octile in [1, 3, 5, 7] {
            let mut world = build_world(&scenario, backend);
            world.run_until(snapshot_tick(&scenario, octile));
            let checkpoint = world.checkpoint();
            assert_eq!(checkpoint.at(), world.now(), "a checkpoint carries its tick");
            assert_eq!(drive_to_summary(checkpoint.to_world()), reference);
            assert_eq!(drive_to_summary(world), reference);
        }
        summaries.push(reference);
    }
    // The two backends agree with each other, checkpointed or not.
    assert_eq!(summaries[0], summaries[1]);
}
