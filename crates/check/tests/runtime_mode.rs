//! Runtime-backed scenario execution: the same scenarios, the same
//! oracles, real threads.

use std::time::Duration;

use oc_algo::Mutation;
use oc_check::{
    conforms, run_scenario, run_scenario_runtime, GateKill, GateScenario, RuntimeProfile, Scenario,
    ScenarioCrash,
};

/// Compact, hand-authored scenario: small spans keep the wall-clock
/// mapping (ticks × 20µs) in the tens of milliseconds.
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

fn profile() -> RuntimeProfile {
    RuntimeProfile {
        tick: Duration::from_micros(20),
        workers: 2,
        settle_timeout: Duration::from_secs(30),
    }
}

#[test]
fn clean_scenario_is_clean_on_the_runtime_and_agrees_with_the_sim() {
    let scenario = tiny_scenario();
    let sim = run_scenario(&scenario, Mutation::None);
    let threaded = run_scenario_runtime(&scenario, Mutation::None, &profile());
    assert!(threaded.drained, "runtime did not settle");
    assert!(threaded.is_clean(), "violations: {threaded:?}");
    // The differential core: both substrates serve exactly the same
    // requests and abandon nothing.
    assert_eq!(threaded.cs_entries, sim.cs_entries);
    assert_eq!(threaded.abandoned, sim.abandoned);
}

#[test]
fn crash_scenario_conforms() {
    // Crash node 4 long after its request is served, recover it; the
    // runtime must heal exactly like the sim: everything served, clean
    // oracles, a recovery counted.
    let scenario = Scenario {
        crashes: vec![ScenarioCrash { node: 4, at: 3_000, recover_at: Some(3_500) }],
        phases: Vec::new(),
        ..tiny_scenario()
    };
    let sim = run_scenario(&scenario, Mutation::None);
    assert!(sim.is_clean(), "sim baseline: {sim:?}");
    let threaded = run_scenario_runtime(&scenario, Mutation::None, &profile());
    assert!(threaded.is_clean(), "violations: {threaded:?}");
    assert_eq!(threaded.cs_entries, sim.cs_entries);
    assert_eq!(threaded.crashes, 1);
    assert_eq!(threaded.recoveries, 1);
}

#[test]
fn planted_safety_bug_is_caught_on_real_threads() {
    // `KeepTokenOnTransit` forges a second token on the first transit
    // grant. The runtime's terminal census (plus the live mutual-
    // exclusion monitor) must flag it, just as the sim's per-event
    // census does — the explorer's teeth work on real threads too.
    let threaded = run_scenario_runtime(&tiny_scenario(), Mutation::KeepTokenOnTransit, &profile());
    assert!(!threaded.safety.is_clean(), "expected a safety violation, got: {threaded:?}");
}

#[test]
fn gate_kill_cell_conforms_on_the_runtime() {
    // The runner's other call shape: a socket cell's scenario (n = 16,
    // 60 arrivals 1 ms apart, node 3 down from 30 ms to 230 ms) at the
    // deployment's 50 µs tick on four workers — what `netbench
    // --differential` holds every socket row against.
    let scenario = GateScenario {
        n: 16,
        requests: 60,
        gap_ticks: 20,
        delta_ticks: 40,
        cs_ticks: 20,
        slack_ticks: 20_000,
        seed: 1009,
        kill: Some(GateKill { node: 3, at_ticks: 600, recover_ticks: 4_600 }),
    }
    .scenario();
    let profile = RuntimeProfile {
        tick: Duration::from_micros(50),
        workers: 4,
        settle_timeout: Duration::from_secs(60),
    };
    let sim = run_scenario(&scenario, Mutation::None);
    let threaded = run_scenario_runtime(&scenario, Mutation::None, &profile);
    conforms(60, &[("sim", &sim), ("runtime", &threaded)]).expect("the kill cell conforms");
    assert_eq!((threaded.crashes, threaded.recoveries), (1, 1));
}
