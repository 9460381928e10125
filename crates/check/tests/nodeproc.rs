//! The socket node's own code in virtual time: `oc_transport::Proc` —
//! the wire codec, the hybrid logical clock, the event log, the
//! `--recover` path and the gateway's session queue — stepped by the
//! simulator through `run_scenario_nodeproc` and held to
//! `run_scenario`'s verdict.
//!
//! Every run is judged twice, by the world's oracles and post hoc from
//! the nodes' event logs, and both judgements answer to the simulator's.
//! The last two cells are socket-deployment shapes: a two-kill timeline
//! and a 64-node cell that once ran only as real processes.

use oc_algo::Mutation;
use oc_check::{
    conforms, explore_serial, run_scenario, run_scenario_nodeproc, shrink, GateKill, GateScenario,
    NodeprocOutcome, Outcome, Scenario, ScenarioCrash, Space, HEALED_PARTITION_PINS,
};
use oc_sim::Violation;

/// Duplicates alone mint a second token under `Hardening::None`: n = 8,
/// five arrivals, no crash, no loss, a 400 ‰ duplication window over
/// non-token frames.
const DUPLICATION_WITNESS: &str =
    "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100";

/// Panics unless the virtual-time socket node agrees with the simulator
/// on `scenario`. The world's judgement is the simulator's, field for
/// field, but for the node counters of `coverage` (no socket node reports
/// them); the logs serve, abandon and judge as the simulator does. Both
/// runners schedule every arrival, so they inject the same requests.
fn assert_agrees(scenario: &Scenario, sim: &Outcome, run: &NodeprocOutcome) {
    let id = scenario.id();
    let world = Outcome { coverage: sim.coverage.clone(), ..run.world.clone() };
    assert_eq!(&world, sim, "the world's judgement diverged on {id}");
    let logs = &run.logs;
    assert_eq!(
        (logs.cs_entries, logs.abandoned, logs.is_clean()),
        (sim.cs_entries, sim.abandoned, sim.is_clean()),
        "the log judgement diverged on {id}: {logs:?}"
    );
}

/// The 2 000-scenario default battery at `seed` through both runners.
fn battery(seed: u64) -> Vec<NodeprocOutcome> {
    let runs: Vec<NodeprocOutcome> = (0..2_000)
        .map(|index| {
            let scenario = Scenario::generate(&Space::default(), seed, index);
            let sim = run_scenario(&scenario, Mutation::None);
            let run = run_scenario_nodeproc(&scenario, Mutation::None);
            assert_agrees(&scenario, &sim, &run);
            run
        })
        .collect();
    let sum = |read: fn(&NodeprocOutcome) -> u64| runs.iter().map(read).sum::<u64>();
    eprintln!(
        "nodeproc battery seed={seed} scenarios={} failures={} log_failures={} cs={} \
         abandoned={} messages={} events={} log_records={} crashes={} recoveries={}",
        runs.len(),
        runs.iter().filter(|run| !run.world.is_clean()).count(),
        runs.iter().filter(|run| !run.logs.is_clean()).count(),
        sum(|run| run.logs.cs_entries),
        sum(|run| run.logs.abandoned),
        sum(|run| run.world.messages),
        sum(|run| run.world.events),
        sum(|run| run.logs.events),
        sum(|run| run.logs.crashes),
        sum(|run| run.logs.recoveries),
    );
    runs
}

#[test]
fn the_seed_42_default_battery_agrees_with_the_simulator_twice_over() {
    let first = battery(42);
    assert!(first.iter().any(|run| run.logs.crashes > 0), "the battery kills nodes");
    assert_eq!(first, battery(42), "two runs of the battery differ");
}

#[test]
fn the_seed_43_default_battery_agrees_with_the_simulator() {
    battery(43);
}

#[test]
fn the_pinned_findings_keep_the_simulators_verdict() {
    // Their fault phases apply here, which real sockets still refuse.
    let pins = HEALED_PARTITION_PINS.iter().copied();
    for (name, id) in pins.chain([("duplication-witness", DUPLICATION_WITNESS)]) {
        let scenario = Scenario::from_id(id).expect("pinned ids decode");
        let sim = run_scenario(&scenario, Mutation::None);
        assert!(!sim.is_clean(), "{name} no longer fails in the simulator");
        let run = run_scenario_nodeproc(&scenario, Mutation::None);
        assert_agrees(&scenario, &sim, &run);
        let duplicated = |outcome: &Outcome| {
            outcome
                .safety
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::TokenDuplication { .. }))
        };
        assert!(duplicated(&run.logs), "{name}: the logs miss the second token: {:?}", run.logs);
    }
}

#[test]
fn the_log_judgement_catches_the_planted_safety_bug() {
    let mutation = Mutation::KeepTokenOnTransit;
    let found = explore_serial(&Space::default(), 42, 700, mutation).expect("detected");
    let minimal = shrink(&found.scenario, mutation);
    assert!(!minimal.outcome.safety.is_clean());
    let run = run_scenario_nodeproc(&minimal.scenario, mutation);
    assert!(!run.world.safety.is_clean(), "{run:?}");
    assert!(!run.logs.safety.is_clean(), "the logs judge the kept token clean: {run:?}");
}

#[test]
fn the_logs_never_miss_an_overlap_or_a_starvation() {
    // Over both planted bugs and the crash scenarios of the default
    // space — each crash leaves a torn record behind, cut off when the
    // node recovers — a run the world finds two nodes in the critical
    // section or a request starved in is never judged clean by its logs.
    // (A second token that never overlaps a critical section and dies
    // before the horizon is invisible to a log of entries and exits.)
    let mut judged = 0;
    for mutation in [Mutation::KeepTokenOnTransit, Mutation::SkipTokenRegeneration] {
        for index in 0..500 {
            let scenario = Scenario::generate(&Space::default(), 42, index);
            let run = run_scenario_nodeproc(&scenario, mutation);
            let overlap = run
                .world
                .safety
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::MutualExclusion { .. }));
            if overlap || !run.world.liveness.is_clean() {
                judged += 1;
                assert!(!run.logs.is_clean(), "{mutation:?} {}: {run:?}", scenario.id());
            }
            assert!(!run.world.is_clean() || run.logs.is_clean(), "falsely dirty: {run:?}");
        }
    }
    assert!(judged > 10, "only {judged} runs overlapped or starved");
}

fn cell(n: usize, requests: usize, seed: u64, kill: Option<GateKill>) -> Scenario {
    GateScenario {
        n,
        requests,
        gap_ticks: 20,
        delta_ticks: 40,
        cs_ticks: 20,
        slack_ticks: 20_000,
        seed,
        kill,
    }
    .scenario()
}

fn assert_conforms(scenario: &Scenario) {
    let sim = run_scenario(scenario, Mutation::None);
    let run = run_scenario_nodeproc(scenario, Mutation::None);
    let all = [("sim", &sim), ("nodeproc", &run.world), ("nodeproc logs", &run.logs)];
    conforms(scenario.arrivals.len(), &all)
        .unwrap_or_else(|why| panic!("runners diverged on {}: {why}", scenario.id()));
    assert_eq!(run.logs.crashes, scenario.crashes.len() as u64);
    assert_eq!(run.logs.recoveries, run.logs.crashes, "every kill here restarts");
}

#[test]
fn two_kill_cycles_conform_at_n8() {
    // Two kill/restart cycles on different victims, as data: two kill
    // cells laid end to end, the second 40 000 ticks after the first so
    // the first outage has healed — the paper's repeated single
    // failures. Each wave's arrivals span its own kill.
    const LATER: u64 = 40_000;
    let kill = |node| Some(GateKill { node, at_ticks: 300, recover_ticks: 4_300 });
    let (first, second) = (cell(8, 30, 4001, kill(3)), cell(8, 30, 4002, kill(6)));
    let scenario = Scenario {
        arrivals: first
            .arrivals
            .iter()
            .copied()
            .chain(second.arrivals.iter().map(|(at, node)| (at + LATER, *node)))
            .collect(),
        crashes: vec![
            first.crashes[0],
            ScenarioCrash { node: 6, at: LATER + 300, recover_at: Some(LATER + 4_300) },
        ],
        ..first
    };
    assert_conforms(&scenario);
}

#[test]
fn clean_cell_conforms_at_n64() {
    assert_conforms(&cell(64, 120, 2017, None));
}
