//! The socket node's own code in virtual time: `oc_transport::Proc` —
//! the wire codec, the hybrid logical clock, the event log, the
//! `--recover` path and the gateway's session queue — stepped by the
//! simulator through `oc_check::run` and held to the simulator's verdict.
//!
//! Every scenario here runs twice, judged by the world's oracles
//! (`Substrate::Nodeproc`) and post hoc from the nodes' event logs
//! (`Substrate::NodeprocLogs`), and both judgements answer to the
//! simulator's. The last two cells are socket-deployment shapes: a
//! two-kill timeline and a 64-node cell that once ran only as real
//! processes. The explorer's default battery runs on both judgements
//! through the shared loop of `battery/mod.rs`.

mod battery;

use battery::{assert_agrees, battery, failures, sum};
use oc_algo::Mutation;
use oc_check::{
    conforms, explore_serial, run, run_scenario, shrink, GateKill, GateScenario, Outcome, Run,
    Scenario, ScenarioCrash, Space, Substrate, HEALED_PARTITION_PINS,
};
use oc_sim::Violation;

/// Duplicates alone mint a second token under `Hardening::None`: n = 8,
/// five arrivals, no crash, no loss, a 400 ‰ duplication window over
/// non-token frames.
const DUPLICATION_WITNESS: &str =
    "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100";

/// One virtual-time run of the socket node under `mutation`, judged
/// twice: `(by the world's oracles, by the nodes' logs)`.
fn judged(scenario: &Scenario, mutation: Mutation) -> (Outcome, Outcome) {
    let on = |substrate| run(scenario, Run { substrate, mutation, ..Run::SIM }, None, None);
    (on(Substrate::Nodeproc), on(Substrate::NodeprocLogs))
}

/// The 2 000-scenario default battery at `seed` on both judgements,
/// `(by the world's oracles, by the nodes' logs)`.
fn both_judgements(seed: u64) -> (Vec<Outcome>, Vec<Outcome>) {
    let [world, logs] = battery(seed, [Substrate::Nodeproc, Substrate::NodeprocLogs]);
    let (world, logs) = (world.outcomes, logs.outcomes);
    eprintln!(
        "nodeproc battery seed={seed} scenarios={} failures={} log_failures={} cs={} \
         abandoned={} messages={} events={} log_records={} crashes={} recoveries={}",
        world.len(),
        failures(&world),
        failures(&logs),
        sum(&logs, |run| run.cs_entries),
        sum(&logs, |run| run.abandoned),
        sum(&world, |run| run.messages),
        sum(&world, |run| run.events),
        sum(&logs, |run| run.events),
        sum(&logs, |run| run.crashes),
        sum(&logs, |run| run.recoveries),
    );
    (world, logs)
}

#[test]
fn the_seed_42_default_battery_agrees_with_the_simulator_twice_over() {
    let first = both_judgements(42);
    assert!(first.1.iter().any(|run| run.crashes > 0), "the battery kills nodes");
    assert_eq!(first, both_judgements(42), "two runs of the battery differ");
}

#[test]
fn the_seed_43_default_battery_agrees_with_the_simulator() {
    both_judgements(43);
}

#[test]
fn the_pinned_findings_keep_the_simulators_verdict() {
    // Their fault phases apply here, which real sockets still refuse.
    let pins = HEALED_PARTITION_PINS.iter().copied();
    for (name, id) in pins.chain([("duplication-witness", DUPLICATION_WITNESS)]) {
        let scenario = Scenario::from_id(id).expect("pinned ids decode");
        let sim = run_scenario(&scenario, Mutation::None);
        assert!(!sim.is_clean(), "{name} no longer fails in the simulator");
        let (world, logs) = judged(&scenario, Mutation::None);
        assert_agrees(Substrate::Nodeproc, &scenario, &sim, &world);
        assert_agrees(Substrate::NodeprocLogs, &scenario, &sim, &logs);
        let duplicated = |outcome: &Outcome| {
            outcome
                .safety
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::TokenDuplication { .. }))
        };
        assert!(duplicated(&logs), "{name}: the logs miss the second token: {logs:?}");
    }
}

#[test]
fn the_log_judgement_catches_the_planted_safety_bug() {
    let mutation = Mutation::KeepTokenOnTransit;
    let on_sim = Run { mutation, ..Run::SIM };
    let found = explore_serial(&Space::default(), 42, 700, on_sim).expect("detected");
    let minimal = shrink(&found.scenario, on_sim);
    assert!(!minimal.outcome.safety.is_clean());
    let (world, logs) = judged(&minimal.scenario, mutation);
    assert!(!world.safety.is_clean(), "{world:?}");
    assert!(!logs.safety.is_clean(), "the logs judge the kept token clean: {logs:?}");
}

#[test]
fn the_logs_never_miss_an_overlap_or_a_starvation() {
    // Over both planted bugs and the crash scenarios of the default
    // space — each crash leaves a torn record behind, cut off when the
    // node recovers — a run the world finds two nodes in the critical
    // section or a request starved in is never judged clean by its logs.
    // (A second token that never overlaps a critical section and dies
    // before the horizon is invisible to a log of entries and exits.)
    let mut dirty = 0;
    for mutation in [Mutation::KeepTokenOnTransit, Mutation::SkipTokenRegeneration] {
        for index in 0..500 {
            let scenario = Scenario::generate(&Space::default(), 42, index);
            let (world, logs) = judged(&scenario, mutation);
            let overlap = world
                .safety
                .violations()
                .iter()
                .any(|v| matches!(v, Violation::MutualExclusion { .. }));
            if overlap || !world.liveness.is_clean() {
                dirty += 1;
                assert!(!logs.is_clean(), "{mutation:?} {}: {world:?} {logs:?}", scenario.id());
            }
            assert!(!world.is_clean() || logs.is_clean(), "falsely dirty: {world:?} {logs:?}");
        }
    }
    assert!(dirty > 10, "only {dirty} runs overlapped or starved");
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
    let (world, logs) = judged(scenario, Mutation::None);
    let all = [("sim", &sim), ("nodeproc", &world), ("nodeproc logs", &logs)];
    conforms(scenario.arrivals.len(), &all)
        .unwrap_or_else(|why| panic!("runners diverged on {}: {why}", scenario.id()));
    assert_eq!(logs.crashes, scenario.crashes.len() as u64);
    assert_eq!(logs.recoveries, logs.crashes, "every kill here restarts");
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
