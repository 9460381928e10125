//! Randomized and exhaustive stress tests of the algorithm's safety,
//! liveness and complexity bounds.

use oc_algo::{Config, OpenCubeNode};
use oc_sim::{
    ArrivalSchedule, Counter, DelayModel, FailurePlan, Protocol, SimConfig, SimDuration, SimTime,
    World,
};
use oc_topology::{invariant, NodeId};
use rand::{rngs::StdRng, RngExt, SeedableRng};

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
        record_trace: false,
        max_events: 20_000_000,
        ..SimConfig::default()
    }
}

fn plain_world(n: usize, seed: u64) -> World<OpenCubeNode> {
    let cfg = Config::without_fault_tolerance(
        n,
        SimDuration::from_ticks(DELTA),
        SimDuration::from_ticks(CS),
    );
    World::new(sim_config(seed), OpenCubeNode::build_all(cfg))
}

fn ft_world(n: usize, seed: u64, slack: u64) -> World<OpenCubeNode> {
    let cfg = Config::new(n, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(slack));
    World::new(sim_config(seed), OpenCubeNode::build_all(cfg))
}

fn assert_served_and_safe(world: &World<OpenCubeNode>) {
    assert!(world.oracle_report().is_clean(), "{:?}", world.oracle_report());
    assert_eq!(
        world.metrics().cs_entries,
        world.requests_injected(),
        "every request must be served"
    );
}

/// E1: the worst-case message cost per request never exceeds log2 N + 1.
///
/// Closed-loop: one request at a time from every node in turn, re-checking
/// the open-cube invariant and the bound at every quiescent point.
#[test]
fn worst_case_bound_holds_for_every_requester() {
    for p in 1..=6 {
        let n = 1usize << p;
        let mut world = plain_world(n, 7);
        let mut last_total = 0;
        // Three sweeps over all nodes so the tree leaves its canonical shape.
        for sweep in 0..3 {
            for raw in 1..=n as u32 {
                let node = NodeId::new((raw * 7 + sweep) % n as u32 + 1);
                world.schedule_request(world.now(), node);
                assert!(world.run_to_quiescence());
                let cost = world.metrics().total_sent() - last_total;
                last_total = world.metrics().total_sent();
                // The paper's log2(N)+1 bound counts the messages that
                // *satisfy* the request; when the token was lent, one more
                // message returns it to the lender afterwards. Requests
                // served by transit chains end with the requester as root
                // (no return).
                let paper_cost = if world.node(node).believes_root() {
                    cost
                } else {
                    cost.saturating_sub(1) // exclude the loan-return hop
                };
                assert!(
                    paper_cost <= (p as u64) + 1,
                    "n={n}: request by {node} cost {paper_cost} > log2(n)+1 = {}",
                    p + 1
                );
                let table = oc_algo::father_table(&world);
                assert!(
                    invariant::verify_open_cube(&table).is_ok(),
                    "n={n}: tree broken after request by {node}"
                );
            }
        }
        assert_served_and_safe(&world);
    }
}

/// E2 (exact): the total cost of "each node requests once from the
/// canonical initial state" equals the paper's recurrence
/// `α_{p+1} = 2·α_p + 3·2^(p-1) + p`, `α_1 = 2`.
#[test]
fn average_cost_matches_recurrence_exactly() {
    fn alpha(p: u32) -> u64 {
        match p {
            0 => 0,
            1 => 2,
            _ => 2 * alpha(p - 1) + 3 * (1 << (p - 2)) + u64::from(p - 1),
        }
    }
    for p in 1..=7 {
        let n = 1usize << p;
        let mut measured = 0;
        for raw in 1..=n as u32 {
            // A fresh canonical world per requester: the analysis counts
            // each node's cost from the initial configuration.
            let mut world = plain_world(n, 11);
            world.schedule_request(SimTime::ZERO, NodeId::new(raw));
            assert!(world.run_to_quiescence());
            assert_served_and_safe(&world);
            measured += world.metrics().total_sent();
        }
        assert_eq!(measured, alpha(p), "α_{p} mismatch at n={n}");
    }
}

/// Concurrent open-loop load without failures: safety + liveness at
/// several sizes and seeds.
#[test]
fn concurrent_load_is_safe_and_live() {
    for &(n, count, gap) in &[(4usize, 40usize, 30u64), (16, 80, 25), (64, 120, 40)] {
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed * 91 + n as u64);
            let schedule =
                ArrivalSchedule::uniform(&mut rng, n, count, SimDuration::from_ticks(gap));
            let mut world = plain_world(n, seed);
            world.schedule_workload(&schedule);
            assert!(world.run_to_quiescence(), "n={n} seed={seed} did not quiesce");
            assert_served_and_safe(&world);
        }
    }
}

/// Same concurrent load with the fault-tolerance machinery armed but no
/// failures injected. With a contention slack that upper-bounds the
/// request backlog (as the deployment guidance in DESIGN.md requires),
/// the timers stay quiet and nothing is perturbed.
#[test]
fn fault_tolerance_machinery_is_harmless_without_failures() {
    for seed in 0..3 {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = ArrivalSchedule::uniform(&mut rng, n, 60, SimDuration::from_ticks(20));
        // 60 queued requests × (50 CS + transit) bounds the wait well under
        // 20_000 ticks.
        let mut world = ft_world(n, seed, 20_000);
        world.schedule_workload(&schedule);
        assert!(world.run_to_quiescence(), "seed={seed} did not quiesce");
        assert_served_and_safe(&world);
        // No spurious suspicion fired at all.
        assert_eq!(world.metrics().counted(Counter::SearchesStarted), 0, "seed={seed}");
        assert_eq!(world.metrics().counted(Counter::TokensRegenerated), 0, "seed={seed}");
    }
}

/// With *violated* timing assumptions (zero slack under heavy queueing),
/// timeout-based token regeneration cannot be safe — no such scheme can
/// be. The protocol must still self-heal and serve every request.
#[test]
fn zero_slack_degrades_gracefully() {
    for seed in 0..3 {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = ArrivalSchedule::uniform(&mut rng, n, 60, SimDuration::from_ticks(20));
        let mut world = ft_world(n, seed, 0);
        world.schedule_workload(&schedule);
        assert!(world.run_to_quiescence(), "seed={seed} did not quiesce");
        assert_eq!(
            world.metrics().cs_entries,
            world.requests_injected(),
            "seed={seed}: liveness must survive spurious suspicion"
        );
    }
}

/// Hotspot adaptivity: a node that requests often migrates to (or near)
/// the root, making its later requests cheaper than its first.
#[test]
fn hotspot_requester_migrates_toward_the_root() {
    let n = 64;
    let mut world = plain_world(n, 3);
    let hot = NodeId::new(64); // deepest canonical node

    // First request from cold position.
    world.schedule_request(world.now(), hot);
    assert!(world.run_to_quiescence());
    let first_cost = world.metrics().total_sent();
    // The hot node now owns the token at the root position.
    assert!(world.node(hot).believes_root());
    // Subsequent requests by the same node are free.
    world.schedule_request(world.now(), hot);
    assert!(world.run_to_quiescence());
    assert_eq!(world.metrics().total_sent(), first_cost);
    assert_eq!(world.metrics().cs_entries, 2);
}

/// Repeated random single failures (crash + recovery) under load: safety
/// holds, the system keeps serving, and exactly one token survives.
#[test]
fn repeated_failures_with_recovery_stay_safe() {
    let n = 16;
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed + 5);
        // Requests spread out enough that the per-failure repair usually
        // completes before the next crash — the paper's experimental shape.
        let schedule = ArrivalSchedule::uniform(&mut rng, n, 40, SimDuration::from_ticks(2_000));
        let failures = FailurePlan::random_singles(
            &mut rng,
            n,
            NodeId::new(1),
            10,
            SimTime::from_ticks(500),
            SimDuration::from_ticks(8_000),
            SimDuration::from_ticks(3_000),
        );
        let mut world = ft_world(n, seed, 500);
        world.schedule_workload(&schedule);
        world.schedule_failures(&failures);
        assert!(world.run_to_quiescence(), "seed={seed} did not quiesce");
        assert!(world.oracle_report().is_clean(), "seed={seed}: {:?}", world.oracle_report());
        // Exactly one token in the final state.
        let holders = NodeId::all(n).filter(|id| world.node(*id).holds_token()).count();
        assert_eq!(holders, 1, "seed={seed}: token count at quiescence");
        // Requests can be lost when their *source* crashes mid-claim, but
        // the vast majority must be served.
        let served = world.metrics().cs_entries;
        let injected = world.requests_injected();
        assert!(served + 8 >= injected, "seed={seed}: only {served}/{injected} requests served");
    }
}

/// Crashing the token holder mid-critical-section always leads to
/// regeneration and continued service.
#[test]
fn crashing_token_holder_regenerates() {
    for victim in 2..=8u32 {
        let n = 8;
        let mut world = ft_world(n, u64::from(victim), 200);
        world.schedule_request(SimTime::from_ticks(0), NodeId::new(victim));
        // Crash the victim while it is (likely) in the critical section.
        world.schedule_failure(SimTime::from_ticks(60), NodeId::new(victim));
        // Later requests from two other nodes must still be served.
        let a = NodeId::new(victim % n as u32 + 1);
        let b = NodeId::new((victim + 3) % n as u32 + 1);
        world.schedule_request(SimTime::from_ticks(4_000), a);
        world.schedule_request(SimTime::from_ticks(8_000), b);
        assert!(world.run_to_quiescence(), "victim={victim} did not quiesce");
        assert!(world.oracle_report().is_clean(), "victim={victim}: {:?}", world.oracle_report());
        // The two survivor requests were definitely served.
        assert!(world.metrics().cs_entries >= 2, "victim={victim}");
        let holders = NodeId::all(n)
            .filter(|id| world.is_alive(*id) && world.node(*id).holds_token())
            .count();
        assert_eq!(holders, 1, "victim={victim}");
    }
}

/// Determinism: identical configuration and seed give identical runs.
#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| {
        let n = 32;
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = ArrivalSchedule::uniform(&mut rng, n, 50, SimDuration::from_ticks(35));
        let mut world = ft_world(n, seed, 100);
        world.schedule_workload(&schedule);
        world.run_to_quiescence();
        (
            world.metrics().total_sent(),
            world.metrics().cs_entries,
            world.now(),
            oc_algo::father_table(&world),
        )
    };
    assert_eq!(run(99), run(99));
}

/// Random fuzzing across sizes, seeds and loads (a lightweight,
/// deterministic stand-in for a long proptest run; the proptest suite in
/// `tests/properties.rs` of the workspace goes deeper).
#[test]
fn fuzz_mixed_scenarios() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..12 {
        let p = rng.random_range(1..=5u32);
        let n = 1usize << p;
        let count = rng.random_range(5..40usize);
        let gap = rng.random_range(10..200u64);
        let ft = rng.random_range(0..2) == 1;
        let seed = rng.random_range(0..1_000_000u64);
        let mut schedule_rng = StdRng::seed_from_u64(seed);
        let schedule =
            ArrivalSchedule::uniform(&mut schedule_rng, n, count, SimDuration::from_ticks(gap));
        let mut world = if ft { ft_world(n, seed, 1_000) } else { plain_world(n, seed) };
        world.schedule_workload(&schedule);
        assert!(world.run_to_quiescence(), "round {round} did not quiesce");
        assert_served_and_safe(&world);
    }
}
