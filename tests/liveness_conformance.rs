//! Cross-protocol conformance of the liveness oracle: a clean,
//! failure-free run of *every* algorithm must pass it.
//!
//! The liveness oracle (`oc_sim::check_liveness`) judges starvation,
//! token conservation and stuck nodes purely through the `Protocol`
//! observers, so it must hold for the open-cube algorithm and all three
//! baselines alike. Pinning the clean-run verdict for all four guards
//! the oracle against false positives: a starvation check that
//! miscounted abandonments, or an idleness check reading the wrong
//! observer, would trip here before it could poison the explorer's
//! batteries.

use opencube::algo::{Config, OpenCubeNode};
use opencube::baselines::{CentralNode, NaimiTrehelNode, RaymondNode};
use opencube::sim::{
    check_liveness, ArrivalSchedule, DelayModel, Protocol, SimConfig, SimDuration, World,
};
use rand::{rngs::StdRng, SeedableRng};

const N: usize = 16;
const DELTA: u64 = 10;
const CS: u64 = 50;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS),
        seed,
        max_events: 10_000_000,
        ..SimConfig::default()
    }
}

/// Runs `nodes` through a 48-request uniform workload and asserts both
/// oracle suites pass and the liveness accounting closes exactly.
fn assert_clean<P: Protocol>(name: &str, nodes: Vec<P>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, N, 48, SimDuration::from_ticks(120));
    let mut world = World::new(sim_config(seed), nodes);
    world.schedule_workload(&schedule);
    let drained = world.run_to_quiescence();
    assert!(drained, "{name}: clean run must reach quiescence");
    assert!(
        world.oracle_report().is_clean(),
        "{name}: safety violations: {:?}",
        world.oracle_report().violations()
    );
    let report = check_liveness(&world, drained);
    assert!(report.is_clean(), "{name}: liveness violations: {:?}", report.violations());
    assert_eq!(world.metrics().cs_entries, 48, "{name}: every request served");
    assert_eq!(world.metrics().requests_abandoned, 0, "{name}: nothing abandoned");
}

#[test]
fn liveness_oracle_passes_all_protocols_on_clean_runs() {
    for seed in [1u64, 7, 42] {
        let cfg = Config::new(N, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
            .with_contention_slack(SimDuration::from_ticks(2_000));
        assert_clean("open-cube", OpenCubeNode::build_all(cfg), seed);
        assert_clean("raymond", RaymondNode::build_all(N), seed);
        assert_clean("naimi-trehel", NaimiTrehelNode::build_all(N), seed);
        assert_clean("central", CentralNode::build_all(N), seed);
    }
}
