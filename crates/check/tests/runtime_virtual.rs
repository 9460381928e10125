//! The threaded runtime's own worker code in virtual time: the cores of
//! `oc_runtime`'s workers — delay queues, live timers, batch books,
//! fault script and oracle monitors — stepped on one thread through
//! `oc_check::run` on `Substrate::Runtime`, on four hand-made inputs at
//! one, two and four workers: a clean run, a crash and recovery, the
//! planted `KeepTokenOnTransit` bug, and the socket deployment's kill
//! cell, and on the explorer's default battery at two workers through
//! the shared loop of `battery/mod.rs`, held to the simulator's verdict.

mod battery;

use battery::{battery, failures, sum};
use oc_algo::Mutation;
use oc_check::{
    conforms, run, run_scenario, GateKill, GateScenario, Outcome, Run, Scenario, ScenarioCrash,
    Substrate,
};
use oc_sim::Tape;

/// The runtime's workers per virtual run of the battery.
const WORKERS: usize = 2;

/// The worker counts each hand-made input runs at.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// `scenario` under `mutation` on `workers` runtime workers.
fn on_runtime(scenario: &Scenario, mutation: Mutation, workers: usize) -> Outcome {
    run(
        scenario,
        Run { substrate: Substrate::Runtime { workers }, mutation, ..Run::SIM },
        None,
        None,
    )
}

/// The 2 000-scenario default battery at `seed` on `WORKERS` workers.
fn runtime_battery(seed: u64) -> Vec<Outcome> {
    let [end] = battery(seed, [Substrate::Runtime { workers: WORKERS }]);
    let runs = end.outcomes;
    eprintln!(
        "runtime virtual battery seed={seed} workers={WORKERS} scenarios={} failures={} \
         drained={} cs={} abandoned={} messages={} events={} crashes={} recoveries={} \
         duplicated={} runtime_wall={:.3}s",
        runs.len(),
        failures(&runs),
        runs.iter().filter(|run| run.drained).count(),
        sum(&runs, |run| run.cs_entries),
        sum(&runs, |run| run.abandoned),
        sum(&runs, |run| run.messages),
        sum(&runs, |run| run.events),
        sum(&runs, |run| run.crashes),
        sum(&runs, |run| run.recoveries),
        sum(&runs, |run| run.duplicated),
        end.wall.as_secs_f64(),
    );
    runs
}

#[test]
fn the_seed_42_default_battery_agrees_with_the_simulator_twice_over() {
    let first = runtime_battery(42);
    assert!(first.iter().any(|run| run.crashes > 0), "the battery crashes nodes");
    assert!(first.iter().any(|run| run.duplicated > 0), "the battery duplicates messages");
    assert_eq!(first, runtime_battery(42), "two runs of the battery differ");
}

#[test]
fn the_seed_43_default_battery_agrees_with_the_simulator() {
    runtime_battery(43);
}

/// Three requests at four nodes, no faults.
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
fn clean_scenario_is_clean_on_the_runtime_and_agrees_with_the_sim() {
    let scenario = tiny_scenario();
    let sim = run_scenario(&scenario, Mutation::None);
    for workers in WORKER_COUNTS {
        let run = on_runtime(&scenario, Mutation::None, workers);
        assert!(run.drained && run.is_clean(), "workers={workers}: {run:?}");
        // Both substrates serve exactly the same requests and abandon
        // nothing.
        assert_eq!((run.cs_entries, run.abandoned), (sim.cs_entries, sim.abandoned));
    }
}

#[test]
fn the_workers_draw_every_delay_from_the_scenarios_envelope() {
    // Each copy a worker puts on the wire draws its delay once, as the
    // simulator does: `delay_min` plus an entry of at most
    // `delay_max - delay_min`, so a fixed delay draws only zeros.
    for (delay_min, delay_max) in [(5, 9), (7, 7)] {
        let scenario = Scenario { delay_min, delay_max, ..tiny_scenario() };
        for workers in [1, 2] {
            let how = Run { substrate: Substrate::Runtime { workers }, ..Run::SIM };
            let mut tape = Tape::blank();
            let run = run(&scenario, how, None, Some(&mut tape));
            assert!(run.drained && run.is_clean() && run.messages > 0, "{run:?}");
            let drawn: Vec<u64> = tape.streams()[..workers].iter().flatten().copied().collect();
            let widest = delay_max - delay_min;
            assert!(
                drawn.iter().all(|&entry| entry <= widest),
                "[{delay_min}, {delay_max}] at W = {workers}: an entry past {widest}: {drawn:?}"
            );
            assert_eq!(drawn.len() as u64, run.messages + run.duplicated, "W = {workers}");
        }
    }
}

#[test]
fn crash_scenario_conforms() {
    // Node 4 crashes long after its request is served and recovers: the
    // runtime heals like the simulator, everything served, one recovery.
    let scenario = Scenario {
        crashes: vec![ScenarioCrash { node: 4, at: 3_000, recover_at: Some(3_500) }],
        ..tiny_scenario()
    };
    let sim = run_scenario(&scenario, Mutation::None);
    assert!(sim.is_clean(), "sim baseline: {sim:?}");
    for workers in WORKER_COUNTS {
        let run = on_runtime(&scenario, Mutation::None, workers);
        assert!(run.is_clean(), "workers={workers}: {run:?}");
        assert_eq!(run.cs_entries, sim.cs_entries, "workers={workers}");
        assert_eq!((run.crashes, run.recoveries), (1, 1), "workers={workers}");
    }
}

#[test]
fn planted_safety_bug_is_caught_in_virtual_time() {
    // `KeepTokenOnTransit` forges a second token on the first transit
    // grant; the runtime's terminal census and live mutual-exclusion
    // monitor must flag it, as the simulator's per-event census does.
    for workers in WORKER_COUNTS {
        let run = on_runtime(&tiny_scenario(), Mutation::KeepTokenOnTransit, workers);
        assert!(!run.safety.is_clean(), "workers={workers}: expected a violation, got {run:?}");
    }
}

#[test]
fn gate_kill_cell_conforms_on_the_runtime() {
    // A socket cell's scenario (n = 16, 60 arrivals 20 ticks apart,
    // node 3 down from tick 600 to tick 4 600): what `netbench
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
    let sim = run_scenario(&scenario, Mutation::None);
    for workers in WORKER_COUNTS {
        let run = on_runtime(&scenario, Mutation::None, workers);
        conforms(60, &[("sim", &sim), ("runtime", &run)])
            .unwrap_or_else(|why| panic!("workers={workers}: {why}"));
        assert_eq!((run.crashes, run.recoveries), (1, 1), "workers={workers}");
    }
}
