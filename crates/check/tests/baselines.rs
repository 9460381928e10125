//! Baseline batteries: Raymond and Naimi-Trehel through the explorer's
//! scenario machinery with the *full* oracle judgement.
//!
//! `tests/liveness_conformance.rs` (workspace root) pins a single clean
//! workload per baseline; this battery is the stronger claim: a whole
//! crash-free scenario quadrant — random sizes, delay envelopes, and
//! workload shapes — judged by both oracle suites through the same
//! [`oc_check::run_scenario_with`] entry point the open-cube batteries
//! use. The quadrant is crash-free and fault-free because the baselines
//! implement neither fault tolerance nor duplicate suppression: the
//! paper's Section 5 machinery is exactly what they lack, and the
//! battery documents that boundary rather than blurring it.

use oc_baselines::{NaimiTrehelNode, RaymondNode};
use oc_check::{run_scenario_with, Outcome, Scenario, Space};

/// Scenario `index` of the crash-free quadrant both baselines must
/// survive, its fault program cleared: the generator draws a link-fault
/// window last, so clearing it leaves every other field as drawn.
fn baseline_scenario(seed: u64, index: u64) -> Scenario {
    let space = Space {
        sizes: vec![2, 4, 8, 16],
        max_arrivals: 24,
        max_crashes: 0,
        allow_loss: false,
        overlapping_crashes: false,
        partitions: false,
        ..Space::default()
    };
    Scenario { phases: Vec::new(), ..Scenario::generate(&space, seed, index) }
}

fn battery<F, P>(name: &str, build: F)
where
    P: oc_sim::Protocol + 'static,
    F: Fn(&Scenario) -> Vec<P>,
{
    for index in 0..200 {
        let scenario = baseline_scenario(42, index);
        assert!(scenario.crashes.is_empty(), "the quadrant is crash-free");
        let outcome = run_scenario_with(&scenario, &build);
        assert!(
            outcome.is_clean(),
            "{name}: scenario #{index} ({}) fails: {outcome:?}",
            scenario.id()
        );
        assert!(outcome.drained, "{name}: scenario #{index} did not quiesce");
        assert_eq!(
            outcome.cs_entries,
            scenario.arrivals.len() as u64,
            "{name}: scenario #{index} must serve every arrival"
        );
    }
}

#[test]
fn raymond_survives_the_crash_free_quadrant() {
    battery("raymond", |s| RaymondNode::build_all(s.n));
}

#[test]
fn naimi_trehel_survives_the_crash_free_quadrant() {
    battery("naimi-trehel", |s| NaimiTrehelNode::build_all(s.n));
}

#[test]
fn baseline_outcomes_replay_byte_identically() {
    let scenario = baseline_scenario(7, 3);
    let run = |s: &Scenario| -> Outcome { run_scenario_with(s, |s| RaymondNode::build_all(s.n)) };
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
}
