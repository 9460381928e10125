//! Workspace-level integration tests: the algorithm, simulator, topology
//! verifier, baselines and threaded runtime working together.

use opencube::algo::{father_table, Config, OpenCubeNode};
use opencube::baselines::{CentralNode, NaimiTrehelNode, RaymondNode};
use opencube::sim::{
    ArrivalSchedule, Counter, FailurePlan, Protocol, SimConfig, SimDuration, SimTime, World,
};
use opencube::topology::{invariant, NodeId};
use rand::{rngs::StdRng, SeedableRng};

const DELTA: u64 = 10;
const CS: u64 = 50;

fn ft_config(n: usize, slack: u64) -> Config {
    Config::new(n, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(slack))
}

#[test]
fn all_four_algorithms_serve_the_same_workload() {
    let n = 32;
    let count = 100;
    let mut rng = StdRng::seed_from_u64(17);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, count, SimDuration::from_ticks(40));

    let run = |world: &mut dyn FnMut() -> (u64, bool)| world();

    let mut open_cube = || {
        let cfg = Config::without_fault_tolerance(
            n,
            SimDuration::from_ticks(DELTA),
            SimDuration::from_ticks(CS),
        );
        let mut w = World::new(SimConfig::default(), OpenCubeNode::build_all(cfg));
        w.schedule_workload(&schedule);
        assert!(w.run_to_quiescence());
        (w.metrics().cs_entries, w.oracle_report().is_clean())
    };
    let mut raymond = || {
        let mut w = World::new(SimConfig::default(), RaymondNode::build_all(n));
        w.schedule_workload(&schedule);
        assert!(w.run_to_quiescence());
        (w.metrics().cs_entries, w.oracle_report().is_clean())
    };
    let mut naimi = || {
        let mut w = World::new(SimConfig::default(), NaimiTrehelNode::build_all(n));
        w.schedule_workload(&schedule);
        assert!(w.run_to_quiescence());
        (w.metrics().cs_entries, w.oracle_report().is_clean())
    };
    let mut central = || {
        let mut w = World::new(SimConfig::default(), CentralNode::build_all(n));
        w.schedule_workload(&schedule);
        assert!(w.run_to_quiescence());
        (w.metrics().cs_entries, w.oracle_report().is_clean())
    };

    for f in
        [&mut open_cube as &mut dyn FnMut() -> (u64, bool), &mut raymond, &mut naimi, &mut central]
    {
        let (served, clean) = run(f);
        assert_eq!(served, count as u64);
        assert!(clean);
    }
}

#[test]
fn tree_is_open_cube_at_every_quiescent_point() {
    let n = 64;
    let mut world = World::new(
        SimConfig::default(),
        OpenCubeNode::build_all(Config::without_fault_tolerance(
            n,
            SimDuration::from_ticks(DELTA),
            SimDuration::from_ticks(CS),
        )),
    );
    for raw in (1..=n as u32).chain([5, 64, 33, 17, 2, 64, 1]) {
        world.schedule_request(world.now(), NodeId::new(raw));
        assert!(world.run_to_quiescence());
        let table = father_table(&world);
        assert!(
            invariant::verify_open_cube(&table).is_ok(),
            "tree broken after request from {raw}"
        );
    }
}

#[test]
fn failure_storm_with_full_recovery_restores_an_open_cube() {
    // Crash several distinct nodes (never the whole system), let each
    // recover, keep load flowing. At the end, with every node back up and
    // every claim settled, the father graph must again be a legal
    // open-cube reachable by b-transformations — after all the anomaly
    // repairs triggered by the follow-up sweep of requests.
    let n = 16;
    let mut world = World::new(
        SimConfig { seed: 23, ..SimConfig::default() },
        OpenCubeNode::build_all(ft_config(n, 500)),
    );
    let failures = FailurePlan::none()
        .crash_and_recover(NodeId::new(1), SimTime::from_ticks(100), SimTime::from_ticks(9_000))
        .crash_and_recover(NodeId::new(9), SimTime::from_ticks(20_000), SimTime::from_ticks(29_000))
        .crash_and_recover(
            NodeId::new(5),
            SimTime::from_ticks(40_000),
            SimTime::from_ticks(49_000),
        );
    world.schedule_failures(&failures);
    // Load around each failure window.
    let mut at = 200u64;
    for raw in [10u32, 12, 3, 7, 14, 2, 8, 16, 4, 6] {
        world.schedule_request(SimTime::from_ticks(at), NodeId::new(raw));
        at += 6_000;
    }
    // A final full sweep (everyone requests) flushes out every stale
    // pointer via the anomaly mechanism.
    let mut t = 100_000u64;
    for raw in 1..=n as u32 {
        world.schedule_request(SimTime::from_ticks(t), NodeId::new(raw));
        t += 3_000;
    }
    assert!(world.run_to_quiescence());
    assert!(world.oracle_report().is_clean(), "{:?}", world.oracle_report());
    // Exactly one token.
    let holders = NodeId::all(n).filter(|id| world.node(*id).holds_token()).count();
    assert_eq!(holders, 1);
    // And everyone is consistently attached: requests from every node were
    // served in the final sweep.
    let searches = world.metrics().counted(Counter::SearchesStarted);
    assert!(searches > 0, "failures must have triggered searches");
}

#[test]
fn simulator_and_threaded_runtime_agree_on_outcomes() {
    use opencube::runtime::{Runtime, RuntimeConfig};
    use std::time::Duration;

    let n = 8;
    // Simulator run.
    let mut world = World::new(SimConfig::default(), OpenCubeNode::build_all(ft_config(n, 20_000)));
    for i in 1..=n as u32 {
        world.schedule_request(SimTime::from_ticks(u64::from(i) * 10), NodeId::new(i));
    }
    assert!(world.run_to_quiescence());
    assert_eq!(world.metrics().cs_entries, n as u64);
    assert!(world.oracle_report().is_clean());

    // Threaded run of the same protocol and workload shape.
    let config = Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
        .with_contention_slack(SimDuration::from_ticks(50_000));
    let rt = Runtime::start(RuntimeConfig::default(), OpenCubeNode::build_all(config));
    for i in 1..=n as u32 {
        let _ = rt.acquire(NodeId::new(i));
    }
    assert!(rt.await_cs_entries(n as u64, Duration::from_secs(60)));
    assert!(rt.await_settled(Duration::from_secs(60)));
    let report = rt.shutdown();
    assert_eq!(report.cs_entries, n as u64);
    assert!(report.is_clean(), "oracles: {report:?}");
}

#[test]
fn analysis_predictions_match_simulation() {
    // The exact α_p prediction against a fresh measurement (E2 at n = 32),
    // through the public APIs only.
    let n = 32;
    let mut total = 0u64;
    for raw in 1..=n as u32 {
        let mut world = World::new(
            SimConfig::default(),
            OpenCubeNode::build_all(Config::without_fault_tolerance(
                n,
                SimDuration::from_ticks(DELTA),
                SimDuration::from_ticks(CS),
            )),
        );
        world.schedule_request(SimTime::ZERO, NodeId::new(raw));
        assert!(world.run_to_quiescence());
        total += world.metrics().total_sent();
    }
    assert_eq!(total, opencube::analysis::alpha(5));
    let avg = total as f64 / n as f64;
    let closed = opencube::analysis::average_messages_closed_form(n);
    assert!((avg - closed).abs() < 0.5, "avg {avg} vs closed form {closed}");
}

#[test]
fn fairness_no_request_starves_under_sustained_load() {
    // One node requests repeatedly while all others request once; everyone
    // must get in (the queue policy is FIFO, hence fair).
    let n = 16;
    let mut world = World::new(
        SimConfig { seed: 5, ..SimConfig::default() },
        OpenCubeNode::build_all(Config::without_fault_tolerance(
            n,
            SimDuration::from_ticks(DELTA),
            SimDuration::from_ticks(CS),
        )),
    );
    let schedule = ArrivalSchedule::repeated(NodeId::new(2), 30, SimDuration::from_ticks(20));
    world.schedule_workload(&schedule);
    for raw in 1..=n as u32 {
        world.schedule_request(SimTime::from_ticks(u64::from(raw) * 35), NodeId::new(raw));
    }
    assert!(world.run_to_quiescence());
    assert_eq!(world.metrics().cs_entries, world.requests_injected());
    assert!(world.oracle_report().is_clean());
}

#[test]
fn simultaneous_failures_are_all_repaired() {
    // Section 5, "Case of several failures": several nodes can fail
    // simultaneously provided the network is not partitioned (which our
    // fully-connected channel model guarantees). All failed nodes are
    // eliminated from the remaining open-cube as their descendants issue
    // requests and run search_father.
    let n = 32;
    for seed in 0..3u64 {
        let mut world = World::new(
            SimConfig { seed, ..SimConfig::default() },
            OpenCubeNode::build_all(ft_config(n, 500)),
        );
        // Three simultaneous crashes, including the root holding the token.
        for victim in [1u32, 9, 13] {
            world.schedule_failure(SimTime::from_ticks(50), NodeId::new(victim));
        }
        // Sons and grandsons of the victims request, plus bystanders.
        for (i, raw) in [10u32, 14, 2, 25, 5, 31].into_iter().enumerate() {
            world.schedule_request(SimTime::from_ticks(100 + i as u64 * 4_000), NodeId::new(raw));
        }
        assert!(world.run_to_quiescence(), "seed={seed}");
        assert!(world.oracle_report().is_clean(), "seed={seed}: {:?}", world.oracle_report());
        assert_eq!(world.metrics().cs_entries, world.requests_injected(), "seed={seed}");
        // Exactly one token among live nodes.
        let holders = NodeId::all(n)
            .filter(|id| world.is_alive(*id) && world.node(*id).holds_token())
            .count();
        assert_eq!(holders, 1, "seed={seed}");
        // The token-holding root lost with node 1 was regenerated exactly once.
        let regenerated = world.metrics().counted(Counter::TokensRegenerated);
        assert_eq!(regenerated, 1, "seed={seed}");
    }
}

#[test]
fn wire_codec_round_trips_live_traffic() {
    // Encode/decode every message a real run produces: the codec and the
    // protocol agree on the full value space actually exercised.
    use opencube::algo::codec::{decode, encode};
    use opencube::sim::{Action, MessageKind, NodeEvent, Outbox};

    let n = 16;
    let cfg = ft_config(n, 500);
    let mut nodes = OpenCubeNode::build_all(cfg);
    let mut outbox = Outbox::new();
    // Drive a few hand-written events through nodes and round-trip every
    // send through the codec.
    let mut checked = 0;
    for raw in 2..=n as u32 {
        nodes[raw as usize - 1].on_event(NodeEvent::RequestCs, &mut outbox);
        for action in outbox.drain() {
            if let Action::Send { msg, .. } = action {
                let bytes = encode(&msg);
                let decoded = decode(&bytes).expect("decode");
                assert_eq!(decoded, msg);
                assert_eq!(decoded.kind(), msg.kind());
                checked += 1;
            }
        }
    }
    assert!(checked > 0);
}
