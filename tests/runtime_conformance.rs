//! Differential sim-vs-runtime conformance.
//!
//! The same protocol instances, the same `ArrivalSchedule`, and the same
//! `FailurePlan` run once through the deterministic simulator (`World`)
//! and once through the threaded lock service (`Runtime`). Both
//! executions must:
//!
//! * pass the safety oracle (mutual exclusion, token uniqueness) and the
//!   liveness oracle (starvation, token conservation, stuck nodes) — the
//!   *same* oracle code judges both substrates;
//! * serve every injected request (`requests_abandoned == 0` — the
//!   scenarios are built so nothing is pending at a crash);
//! * reach the same CS-entry count and the same terminal token census.
//!
//! Scenario shape: every node requests once at a gap wide enough that
//! service keeps pace with arrivals (the paper's near-sequential
//! regime), optionally followed by a crash+recovery of a victim long
//! after the workload has drained, and a final post-recovery request
//! from the victim — which exercises re-join (and, when the victim died
//! holding the resting token, lazy regeneration) on both substrates.

use std::time::Duration;

use opencube::algo::{Config, Hardening, OpenCubeNode};
use opencube::runtime::{Runtime, RuntimeConfig, RuntimeReport};
use opencube::sim::{
    check_liveness, ArrivalSchedule, DelayModel, FailurePlan, SimConfig, SimDuration, SimTime,
    World,
};
use opencube::topology::NodeId;
use rand::{rngs::StdRng, SeedableRng};

/// Protocol δ in ticks.
const DELTA: u64 = 40;
/// Critical-section length in ticks.
const CS: u64 = 50;
/// Suspicion slack in ticks (covers queueing jitter; 20 ms of wall time
/// at the runtime tick below).
const SLACK: u64 = 4_000;
/// Arrival gap in ticks — wider than a request round-trip, so service
/// keeps pace with arrivals on both substrates.
const GAP: u64 = 1_000;
/// Wall-clock length of one tick in the runtime.
const TICK: Duration = Duration::from_micros(5);

fn protocol_config(n: usize, hardening: Hardening) -> Config {
    Config::new(n, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS))
        .with_contention_slack(SimDuration::from_ticks(SLACK))
        .with_hardening(hardening)
}

struct SimOutcome {
    cs_entries: u64,
    census: usize,
}

fn run_sim(
    n: usize,
    schedule: &ArrivalSchedule,
    plan: &FailurePlan,
    seed: u64,
    hardening: Hardening,
) -> SimOutcome {
    let mut world = World::new(
        SimConfig {
            delay: DelayModel::Uniform {
                min: SimDuration::from_ticks(1),
                max: SimDuration::from_ticks(DELTA),
            },
            cs_duration: SimDuration::from_ticks(CS),
            seed,
            max_events: 50_000_000,
            ..SimConfig::default()
        },
        OpenCubeNode::build_all(protocol_config(n, hardening)),
    );
    world.schedule_workload(schedule);
    world.schedule_failures(plan);
    let drained = world.run_to_quiescence();
    assert!(drained, "sim did not quiesce at n={n}");
    assert!(
        world.oracle_report().is_clean(),
        "sim safety violations at n={n}: {:?}",
        world.oracle_report().violations()
    );
    let liveness = check_liveness(&world, drained);
    assert!(liveness.is_clean(), "sim liveness violations at n={n}: {:?}", liveness.violations());
    assert_eq!(world.metrics().requests_abandoned, 0, "conformance scenarios abandon nothing");
    SimOutcome { cs_entries: world.metrics().cs_entries, census: world.live_token_census() }
}

fn runtime_config(batch: usize, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        tick: TICK,
        // δ = 40 ticks × 5µs = 200µs ≥ the largest injected delay.
        max_network_delay: Duration::from_micros(100),
        cs_duration: TICK * CS as u32,
        seed: 7,
        batch,
        ..RuntimeConfig::default()
    }
}

fn run_runtime(
    n: usize,
    schedule: &ArrivalSchedule,
    plan: &FailurePlan,
    hardening: Hardening,
) -> RuntimeReport {
    run_runtime_cfg(n, schedule, plan, hardening, 0, 8)
}

fn run_runtime_cfg(
    n: usize,
    schedule: &ArrivalSchedule,
    plan: &FailurePlan,
    hardening: Hardening,
    batch: usize,
    workers: usize,
) -> RuntimeReport {
    let rt = Runtime::start(
        runtime_config(batch, workers),
        OpenCubeNode::build_all(protocol_config(n, hardening)),
    );
    let ids = rt.schedule_workload(schedule);
    assert_eq!(ids.len(), schedule.len());
    rt.schedule_failures(plan);
    assert!(
        rt.await_settled(Duration::from_secs(120)),
        "runtime did not settle at n={n} (cs_entries={})",
        rt.cs_entries()
    );
    rt.shutdown()
}

/// Runs one differential cell and cross-checks the two substrates.
fn conformance(n: usize, with_crash: bool) {
    conformance_under(n, with_crash, Hardening::None);
}

/// The same differential cell with an explicit hardening mode: both
/// substrates run the quorum-hardened protocol, so the crash cell's
/// regeneration goes through a mint ballot (all peers are reachable, so
/// the quorum assembles) and the verdicts must still agree.
fn conformance_under(n: usize, with_crash: bool, hardening: Hardening) {
    let mut rng = StdRng::seed_from_u64(n as u64 * 31 + u64::from(with_crash));
    let mut schedule = ArrivalSchedule::every_node_once(&mut rng, n, SimDuration::from_ticks(GAP));
    let mut plan = FailurePlan::none();
    if with_crash {
        // Crash a victim long after the workload drained (nothing can be
        // pending on it), recover it, then have it request once more —
        // the re-join/regeneration path, exercised identically on both
        // substrates.
        let victim = NodeId::new((n / 2) as u32);
        let crash_at = n as u64 * GAP + 20_000;
        plan = plan.crash_and_recover(
            victim,
            SimTime::from_ticks(crash_at),
            SimTime::from_ticks(crash_at + 5_000),
        );
        schedule = schedule.then(SimTime::from_ticks(crash_at + 30_000), victim);
    }

    let sim = run_sim(n, &schedule, &plan, 42, hardening);
    let expected_entries = schedule.len() as u64;
    assert_eq!(sim.cs_entries, expected_entries, "sim served everything exactly once");

    let report = run_runtime(n, &schedule, &plan, hardening);
    assert!(
        report.is_clean(),
        "runtime oracle violations at n={n} crash={with_crash}: safety={:?} liveness={:?}",
        report.safety.violations(),
        report.liveness.violations()
    );
    assert!(report.drained);
    assert_eq!(report.requests_abandoned, 0, "n={n} crash={with_crash}");
    assert_eq!(report.cs_entries, sim.cs_entries, "n={n} crash={with_crash}");
    assert_eq!(report.requests_completed, sim.cs_entries, "n={n} crash={with_crash}");
    assert_eq!(report.terminal_token_census, sim.census, "n={n} crash={with_crash}");
    if with_crash {
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
    }
    // Latency accounting is complete: one sample per served request.
    assert_eq!(report.latency.count, expected_entries);
    assert!(report.latency.p50_nanos <= report.latency.p99_nanos);
    assert!(report.latency.p99_nanos <= report.latency.p999_nanos);
    assert!(report.latency.p999_nanos <= report.latency.max_nanos);
}

#[test]
fn conformance_n16() {
    conformance(16, false);
    conformance(16, true);
}

#[test]
fn conformance_n64() {
    conformance(64, false);
    conformance(64, true);
}

#[test]
fn conformance_n256() {
    conformance(256, false);
    conformance(256, true);
}

#[test]
fn hardened_conformance_n16() {
    conformance_under(16, false, Hardening::Quorum);
    conformance_under(16, true, Hardening::Quorum);
}

#[test]
fn hardened_conformance_n64() {
    conformance_under(64, false, Hardening::Quorum);
    conformance_under(64, true, Hardening::Quorum);
}

/// The batched hot path is a performance refactor, not a semantic one:
/// the same scheduled workload must produce the same entry count, the
/// same terminal census, and clean verdicts whether workers drain one
/// command at a time (`batch: 1`) or in bursts — and wherever a message
/// travels: with one worker every message goes from the sender's hands
/// into the same worker's delay queue and no channel is ever touched,
/// with two or eight most cross a mailbox inside a `Mail::Many` burst.
#[test]
fn batched_and_unbatched_runtimes_agree() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(1601);
    let schedule = ArrivalSchedule::every_node_once(&mut rng, n, SimDuration::from_ticks(GAP));
    let plan = FailurePlan::none();
    let sim = run_sim(n, &schedule, &plan, 42, Hardening::None);

    for batch in [1, 0, 256] {
        for workers in [1, 2, 8] {
            let report = run_runtime_cfg(n, &schedule, &plan, Hardening::None, batch, workers);
            assert!(
                report.is_clean(),
                "batch={batch} workers={workers}: safety={:?} liveness={:?}",
                report.safety.violations(),
                report.liveness.violations()
            );
            assert!(report.drained, "batch={batch} workers={workers}");
            assert_eq!(report.cs_entries, sim.cs_entries, "batch={batch} workers={workers}");
            assert_eq!(report.requests_abandoned, 0, "batch={batch} workers={workers}");
            assert_eq!(report.terminal_token_census, sim.census, "batch={batch} workers={workers}");
        }
    }
}

/// Multi-tenant differential: `K` identical cubes behind one worker
/// pool must each serve exactly what one simulated cube serves, judged
/// namespace-by-namespace by the unmodified oracles. Requests fan out
/// round-robin across namespaces (concurrent between tenants, ordered
/// within each), so the shared workers interleave tenant traffic while
/// every per-namespace verdict stays clean.
#[test]
fn multi_namespace_runtime_matches_k_independent_sims() {
    let n = 8;
    let k = 6;
    let mut rng = StdRng::seed_from_u64(806);
    let schedule = ArrivalSchedule::every_node_once(&mut rng, n, SimDuration::from_ticks(GAP));
    let sim = run_sim(n, &schedule, &FailurePlan::none(), 42, Hardening::None);
    assert_eq!(sim.census, 1);

    let rt = Runtime::start_multi(
        runtime_config(0, 8),
        (0..k).map(|_| OpenCubeNode::build_all(protocol_config(n, Hardening::None))).collect(),
    );
    assert_eq!(rt.namespaces(), k);
    let watcher = rt.watcher();
    // One wave per node: a request in every namespace, then all K
    // completions, so tenants contend for workers at every step.
    for node in 1..=n as u32 {
        for ns in 0..k {
            let _ = rt.acquire_watched(ns, NodeId::new(node), &watcher, false);
        }
        for _ in 0..k {
            assert!(
                watcher.recv_timeout(Duration::from_secs(30)).is_some(),
                "wave for node {node} did not complete"
            );
        }
    }
    for ns in 0..k {
        assert_eq!(rt.cs_entries_in(ns), n as u64, "namespace {ns} served its cube");
    }
    assert!(rt.await_settled(Duration::from_secs(60)));
    let report = rt.shutdown();
    assert!(
        report.is_clean(),
        "safety={:?} liveness={:?}",
        report.safety.violations(),
        report.liveness.violations()
    );
    assert!(report.drained);
    assert_eq!(report.namespaces, k);
    assert_eq!(report.cs_entries, sim.cs_entries * k as u64);
    assert_eq!(report.requests_completed, report.cs_entries);
    assert_eq!(report.requests_abandoned, 0);
    // One live token per tenant — K times the single-cube census.
    assert_eq!(report.terminal_token_census, sim.census * k);
}

/// Closed-loop saturation conformance: many small tenants driven flat
/// out through the auto-release hot path must stay oracle-clean with
/// fully conserved request accounting, batched or not.
#[test]
fn saturated_tenants_stay_clean_batched_and_unbatched() {
    let n = 4;
    let k = 16;
    for batch in [0, 1] {
        let rt = Runtime::start_multi(
            runtime_config(batch, 8),
            (0..k).map(|_| OpenCubeNode::build_all(protocol_config(n, Hardening::None))).collect(),
        );
        let deadline = std::time::Instant::now() + Duration::from_millis(300);
        std::thread::scope(|scope| {
            for client in 0..2usize {
                let rt = &rt;
                scope.spawn(move || {
                    let watcher = rt.watcher();
                    let mut outstanding = 0usize;
                    for ns in (client..k).step_by(2) {
                        let _ = rt.acquire_watched(ns, NodeId::new(1), &watcher, true);
                        outstanding += 1;
                    }
                    while outstanding > 0 {
                        let Some((id, _)) = watcher.recv_timeout(Duration::from_secs(30)) else {
                            panic!("saturation client wedged (batch={batch})");
                        };
                        outstanding -= 1;
                        if std::time::Instant::now() < deadline {
                            let ns = rt.namespace_of(id).expect("completion has a namespace");
                            let _ = rt.acquire_watched(ns, NodeId::new(1), &watcher, true);
                            outstanding += 1;
                        }
                    }
                });
            }
        });
        assert!(rt.await_settled(Duration::from_secs(60)), "batch={batch}");
        let report = rt.shutdown();
        assert!(
            report.is_clean(),
            "batch={batch}: safety={:?} liveness={:?}",
            report.safety.violations(),
            report.liveness.violations()
        );
        assert!(report.drained, "batch={batch}");
        assert_eq!(report.namespaces, k);
        assert_eq!(
            report.requests_injected,
            report.requests_completed + report.requests_abandoned,
            "batch={batch}: request accounting must conserve"
        );
        assert_eq!(report.requests_abandoned, 0, "batch={batch}: nothing crashes here");
        assert_eq!(report.cs_entries, report.requests_completed, "batch={batch}");
        assert!(
            report.cs_entries >= k as u64,
            "batch={batch}: every tenant serves at least its seed request"
        );
        assert_eq!(report.terminal_token_census, k, "batch={batch}: one token per tenant");
    }
}
