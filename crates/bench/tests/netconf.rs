//! The three-substrate conformance gate: one `oc_check::Scenario` runs
//! through the deterministic simulator, the threaded runtime and real
//! `oc-node` processes over sockets, and the three `Outcome`s must
//! conform — clean oracles, settled, every arrival served, none
//! abandoned, on every substrate.
//!
//! The socket side judges itself post hoc: per-process event logs are
//! merged by hybrid logical clock and replayed through the unmodified
//! `oc-sim` oracles. The kill cells SIGKILL node processes mid-run and
//! restart them with `--recover`, exercising the paper's Section 5
//! failure machinery across real process boundaries.

use std::path::Path;
use std::time::Duration;

use oc_algo::Mutation;
use oc_bench::orchestrator::{run_scenario_sockets, TransportKind, NET_TICK};
use oc_check::{
    conforms, run_scenario, run_scenario_runtime, GateKill, GateScenario, RuntimeProfile, Scenario,
    ScenarioCrash,
};
use oc_sim::{FaultPhase, FaultPhaseKind, SimTime};

const SETTLE: Duration = Duration::from_secs(60);

fn node_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_oc-node"))
}

fn shape(n: usize, requests: usize, seed: u64, kill: Option<GateKill>) -> Scenario {
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

fn gate(transport: TransportKind, scenario: &Scenario) {
    let sim = run_scenario(scenario, Mutation::None);
    let profile = RuntimeProfile { tick: NET_TICK, workers: 4, settle_timeout: SETTLE };
    let runtime = run_scenario_runtime(scenario, Mutation::None, &profile);
    let socket =
        run_scenario_sockets(node_bin(), transport, scenario, SETTLE).expect("deployment runs");
    let all = [("sim", &sim), ("runtime", &runtime), ("socket", &socket.outcome)];
    conforms(scenario.arrivals.len(), &all).unwrap_or_else(|why| {
        panic!("substrates diverged on {} {}: {why}", transport.label(), scenario.id())
    });
    assert_eq!(socket.outcome.crashes, scenario.crashes.len() as u64);
    assert_eq!(socket.outcome.recoveries, socket.outcome.crashes, "every kill here restarts");
}

#[test]
fn uds_kill_heal_conforms_at_n16() {
    // One SIGKILL/restart cycle mid-workload: the kill lands halfway
    // through the arrivals, the restart 200ms later; requests at other
    // nodes span the outage and the recovered deployment must serve
    // every one of them.
    let kill = GateKill { node: 3, at_ticks: 20 * 30, recover_ticks: 20 * 30 + 4_000 };
    gate(TransportKind::Uds, &shape(16, 60, 1009, Some(kill)));
}

#[test]
fn uds_two_kill_cycles_conform_at_n8() {
    // Two SIGKILL/restart cycles on different victims, as data: two
    // kill cells laid end to end, the second 2 s (40 000 ticks) after
    // the first so the first outage has healed — the paper's repeated
    // single failures. Each wave's arrivals span its own kill.
    const LATER: u64 = 40_000;
    let kill = |node| Some(GateKill { node, at_ticks: 300, recover_ticks: 4_300 });
    let (first, second) = (shape(8, 30, 4001, kill(3)), shape(8, 30, 4002, kill(6)));
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
    gate(TransportKind::Uds, &scenario);
}

#[test]
fn uds_clean_conforms_at_n64() {
    gate(TransportKind::Uds, &shape(64, 120, 2017, None));
}

#[test]
fn tcp_clean_conforms_at_n16() {
    gate(TransportKind::Tcp, &shape(16, 60, 3023, None));
}

#[test]
fn the_stage_clocks_add_up_to_the_call() {
    // Boot, arrivals, settle, reap and judgement follow one another, so
    // their clocks add up to the call however long each takes; the kill
    // and the restart hold the timeline for a part of its wall time.
    let kill = GateKill { node: 2, at_ticks: 200, recover_ticks: 400 };
    let scenario = shape(8, 20, 5003, Some(kill));
    let started = std::time::Instant::now();
    let row =
        run_scenario_sockets(node_bin(), TransportKind::Uds, &scenario, SETTLE).expect("runs");
    let outer = started.elapsed().as_secs_f64();
    assert!(row.clean(), "{row:?}");
    let stages = [row.boot_secs, row.wall_secs, row.settle_secs, row.reap_secs, row.judge_secs];
    assert!(stages.iter().all(|&secs| secs > 0.0), "{stages:?}");
    let total = stages.iter().sum::<f64>();
    assert!(total <= outer && outer - total < 0.01, "stages {total} s of a {outer} s call");
    assert!(0.0 < row.stall_secs && row.stall_secs < row.wall_secs, "{row:?}");
}

#[test]
fn a_failed_boot_leaves_no_process_and_no_directory() {
    // A node binary that exits at once (`experiments` rejects `--id`,
    // exit 2): the boot fails as soon as the first gateway dial finds its
    // process gone — not after 10 s of redialling — and the error path
    // reaps the other seven and removes the work directory.
    let scenario = shape(8, 4, 77_001, None);
    let not_a_node = Path::new(env!("CARGO_BIN_EXE_experiments"));
    let started = std::time::Instant::now();
    let err = run_scenario_sockets(not_a_node, TransportKind::Uds, &scenario, SETTLE)
        .expect_err("no gateway ever comes up");
    assert!(started.elapsed() < Duration::from_secs(2), "gave up after {:?}", started.elapsed());
    assert!(err.to_string().contains("exited before its gateway came up"), "{err}");
    let prefix = format!("oc-net-{}-{}-", std::process::id(), scenario.seed);
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is listable")
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .collect();
    assert!(left.is_empty(), "work directories left behind: {left:?}");
}

#[test]
fn a_fault_script_is_refused_before_anything_is_spawned() {
    // The sockets have no link shim, so a scenario that scripts a fault
    // is refused, never run unfaulted and reported clean. A node binary
    // that does not exist is the witness that nothing was spawned (a
    // spawn would fail with `NotFound` instead), and the seed names the
    // work directory that must not have been left behind.
    let seed = 0x5eed_fa17;
    let phase =
        |kind| FaultPhase { from: SimTime::from_ticks(100), until: SimTime::from_ticks(200), kind };
    let cut = phase(FaultPhaseKind::GroupPartition { p: 1 });
    let window = phase(FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 50 });
    let by_phase = Scenario { phases: vec![cut], ..shape(8, 10, seed, None) };
    let by_window = Scenario { phases: vec![window], ..shape(8, 10, seed, None) };
    let nowhere = Path::new("/nonexistent/oc-node");
    for scenario in [by_phase, by_window] {
        let err = run_scenario_sockets(nowhere, TransportKind::Uds, &scenario, SETTLE)
            .expect_err("a scripted fault must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
    let left_behind = std::fs::read_dir(std::env::temp_dir())
        .expect("list the temporary directory")
        .filter_map(Result::ok)
        .any(|entry| entry.file_name().to_string_lossy().contains(&format!("-{seed}-")));
    assert!(!left_behind, "a refused scenario left a work directory behind");
}
