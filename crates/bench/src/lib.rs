//! # oc-bench — experiment runners regenerating the paper's evaluation
//!
//! Each `eN_*` function reproduces one experiment from the paper (see
//! DESIGN.md's experiment index) and answers with its table row — a
//! [`json::Value::Obj`], the same object the `BENCH_E*.json` artifact
//! holds. Beside each sits the table's column list (`EN_COLS`); the
//! `experiments` binary sends both down the one [`report`] path.
//! EXPERIMENTS.md records paper-vs-measured.
//!
//! Experiments execute through the [`sweep`] module: every `(config, n,
//! seed)` combination is an independent cell, cells run across scoped
//! worker threads, per-cell seeds derive deterministically from a master
//! seed, and results aggregate in cell order — so the virtual-time data
//! (every table column and JSON `rows`/`summaries` field except the
//! inherently wall-clock ones: `wall_secs`, `busy_secs`,
//! `parallel_speedup`, `threads`, and E7's timing columns) is
//! byte-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod loadgen;
pub mod orchestrator;
pub mod report;
pub mod sweep;

use oc_algo::{Config, Hardening, OpenCubeNode};
use oc_baselines::{CentralNode, NaimiTrehelNode, RaymondNode};
use oc_sim::{
    ArrivalSchedule, Counter, DelayModel, MsgKind, Protocol, SimConfig, SimDuration, SimTime, World,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use json::Value;
use report::{col, Col};
use sweep::{derive_seed, stream_id, SweepOutcome};

/// Simulation tick constants shared by all experiments.
pub const DELTA: u64 = 10;
/// Critical-section duration in ticks.
pub const CS_TICKS: u64 = 50;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(1),
            max: SimDuration::from_ticks(DELTA),
        },
        cs_duration: SimDuration::from_ticks(CS_TICKS),
        seed,
        record_trace: false,
        // Headroom for the full E7 ladder: n = 2^25 under uniform load
        // processes ~5.4e8 events; the cap only guards against wedges.
        max_events: 2_000_000_000,
        ..SimConfig::default()
    }
}

fn plain_cfg(n: usize, hardening: Hardening) -> Config {
    Config::without_fault_tolerance(
        n,
        SimDuration::from_ticks(DELTA),
        SimDuration::from_ticks(CS_TICKS),
    )
    .with_hardening(hardening)
}

fn ft_cfg(n: usize, slack: u64, hardening: Hardening) -> Config {
    Config::new(n, SimDuration::from_ticks(DELTA), SimDuration::from_ticks(CS_TICKS))
        .with_contention_slack(SimDuration::from_ticks(slack))
        .with_hardening(hardening)
}

// --------------------------------------------------------------------
// E1 — worst-case messages per request vs the log2(N)+1 bound
// --------------------------------------------------------------------

/// The E1 table.
pub const E1_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("bound", "bound", 8, 0),
    col("measured", "measured_worst", 10, 0),
    col("w/ return", "measured_worst_with_return", 12, 0),
    col("requests", "requests", 10, 0),
    col("ok", "ok", 5, 0),
];

/// E1: closed-loop sweeps over every node (several rounds, so the tree
/// leaves its canonical shape), recording the costliest single request:
/// `measured_worst` in the paper's accounting (the loan-return hop is
/// attributed separately), `measured_worst_with_return` including it;
/// `ok` when the former is within the paper's bound `log2 N + 1`.
#[must_use]
pub fn e1_worst_case(n: usize, rounds: u32, seed: u64, hardening: Hardening) -> Value {
    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(plain_cfg(n, hardening)));
    let mut worst_paper = 0u64;
    let mut worst_raw = 0u64;
    let mut last_total = 0u64;
    let mut requests = 0u64;
    for round in 0..rounds {
        for raw in 1..=n as u32 {
            // A scrambled order so consecutive requesters are far apart.
            let node =
                NodeId::new((u64::from(raw) * 7919 + u64::from(round)) as u32 % n as u32 + 1);
            world.schedule_request(world.now(), node);
            assert!(world.run_to_quiescence(), "E1 run wedged");
            let cost = world.metrics().total_sent() - last_total;
            last_total = world.metrics().total_sent();
            let paper_cost =
                if world.node(node).believes_root() { cost } else { cost.saturating_sub(1) };
            worst_paper = worst_paper.max(paper_cost);
            worst_raw = worst_raw.max(cost);
            requests += 1;
        }
    }
    assert!(world.oracle_report().is_clean());
    let bound = oc_analysis::worst_case_messages(n);
    Value::Obj(vec![
        ("n", Value::UInt(n as u64)),
        ("bound", Value::UInt(bound)),
        ("measured_worst", Value::UInt(worst_paper)),
        ("measured_worst_with_return", Value::UInt(worst_raw)),
        ("requests", Value::UInt(requests)),
        ("ok", Value::Bool(worst_paper <= bound)),
    ])
}

// --------------------------------------------------------------------
// E2 — average messages per request vs the α_p recurrence
// --------------------------------------------------------------------

/// The E2 table.
pub const E2_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("measured", "measured_total", 10, 0),
    col("alpha_p", "alpha", 10, 0),
    col("avg", "measured_avg", 10, 3),
    col("3/4·p+5/4", "closed_form", 12, 3),
    col("evolving", "evolving_avg", 12, 3),
    col("exact", "exact", 6, 0),
];

/// E2: the paper's average-case analysis, measured two ways:
/// `measured_total` over one request from every node, each from a fresh
/// canonical configuration, against the paper's exact `alpha` (`exact`
/// when equal) and closed form `¾·log2 N + 5/4`; and `evolving_avg` under
/// a sequential evolving-tree workload (every node once, random order,
/// tree carries over) — the deployed behavior.
#[must_use]
pub fn e2_average(n: usize, seed: u64, hardening: Hardening) -> Value {
    // (a) Exactly the analysis's setting: each node's request measured
    // from a fresh canonical configuration; the per-world counters reduce
    // into one aggregate via `Metrics::merge`.
    let mut canonical = oc_sim::Metrics::new();
    for raw in 1..=n as u32 {
        let mut world =
            World::new(sim_config(seed), OpenCubeNode::build_all(plain_cfg(n, hardening)));
        world.schedule_request(SimTime::ZERO, NodeId::new(raw));
        assert!(world.run_to_quiescence());
        canonical.merge(world.metrics());
    }
    assert_eq!(canonical.cs_entries, n as u64, "every canonical request must be served");
    let measured_total = canonical.total_sent();
    // (b) The evolving-tree variant: one long-lived world, every node
    // requests once in a random order, sequentially.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(plain_cfg(n, hardening)));
    let mut order: Vec<NodeId> = NodeId::all(n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    for node in order {
        world.schedule_request(world.now(), node);
        assert!(world.run_to_quiescence());
    }
    assert!(world.oracle_report().is_clean());
    let evolving_avg = world.metrics().total_sent() as f64 / n as f64;

    let alpha = oc_analysis::alpha(n.trailing_zeros());
    Value::Obj(vec![
        ("n", Value::UInt(n as u64)),
        ("measured_total", Value::UInt(measured_total)),
        ("alpha", Value::UInt(alpha)),
        ("measured_avg", Value::Num(measured_total as f64 / n as f64)),
        ("closed_form", Value::Num(oc_analysis::average_messages_closed_form(n))),
        ("evolving_avg", Value::Num(evolving_avg)),
        ("exact", Value::Bool(measured_total == alpha)),
    ])
}

// --------------------------------------------------------------------
// E3 — overhead messages per failure (the iPSC/2 experiment)
// --------------------------------------------------------------------

/// The E3 table.
pub const E3_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("failures", "failures", 9, 0),
    col("rep", "rep", 6, 0),
    col("overhead/fail", "overhead_per_failure", 14, 2),
    col("extra/fail", "extra_per_failure", 12, 2),
    col("test/f", "test_per_failure", 8, 2),
    col("answer/f", "answer_per_failure", 9, 2),
    col("anomaly/f", "anomaly_per_failure", 10, 2),
    col("enq/f", "enquiry_per_failure", 7, 2),
    col("search/f", "searches_per_failure", 9, 2),
    col("searches", "searches", 9, 0),
    col("regen", "regenerations", 7, 0),
    col("served", "served", 9, 0),
    col("injected", "injected", 9, 0),
];

/// E3's multi-seed summary table (mean ± 95% CI of `overhead/fail`).
pub const E3_SUMMARY_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("failures", "failures", 9, 0),
    col("seeds", "seeds", 6, 0),
    col("mean", "mean", 10, 2),
    col("± ci95", "ci95", 10, 2),
    col("min", "min", 10, 2),
    col("max", "max", 10, 2),
];

/// E3's long-horizon table.
pub const E3_HORIZON_COLS: &[Col] = &[
    col("failures", "failures", 9, 0),
    col("events", "events", 10, 0),
    col("overhead/fail", "overhead_per_failure", 14, 2),
    col("test/f", "test_per_failure", 8, 2),
    col("answer/f", "answer_per_failure", 9, 2),
    col("anomaly/f", "anomaly_per_failure", 10, 2),
    col("enq/f", "enquiry_per_failure", 7, 2),
    col("search/f", "searches_per_failure", 9, 2),
    col("wall s", "wall_secs", 8, 2),
    col("events/s", "events_per_sec", 12, 0),
    col("before ev/s", "before_events_per_sec", 14, 0),
    col("gain x", "gain", 7, 1),
];

/// One E3 sweep cell: a `(n, failures)` plan entry at one seed index.
#[derive(Debug, Clone, Copy)]
pub struct E3Cell {
    /// System size.
    pub n: usize,
    /// Failures injected (the paper used 300 at N=32, 200 at N=64).
    pub failures: usize,
    /// Which independent repetition this is (0-based): the row's `rep`.
    pub seed_index: usize,
    /// Hardening the cell's nodes are built under.
    pub hardening: Hardening,
}

/// Expands an E3 plan into cells: `seeds` independent repetitions per
/// plan entry, grouped so each entry's repetitions are consecutive.
#[must_use]
pub fn e3_cells(plan: &[(usize, usize)], seeds: usize, hardening: Hardening) -> Vec<E3Cell> {
    plan.iter()
        .flat_map(|&(n, failures)| {
            (0..seeds).map(move |seed_index| E3Cell { n, failures, seed_index, hardening })
        })
        .collect()
}

/// The inputs of one E3 cell: an arrival every 2 000 ticks and a
/// crash/recover pair every 20 000 (down for 6 000), ten arrivals per
/// failure plus a tail of twenty, all drawn from `seed`.
fn e3_inputs(n: usize, failures: usize, seed: u64) -> (ArrivalSchedule, oc_sim::FailurePlan) {
    let request_gap = SimDuration::from_ticks(2_000);
    let failure_period = SimDuration::from_ticks(20_000);
    let downtime = SimDuration::from_ticks(6_000);
    let requests = failures * (failure_period.ticks() / request_gap.ticks()) as usize + 20;

    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, requests, request_gap);
    let failure_plan = oc_sim::FailurePlan::random_singles(
        &mut rng,
        n,
        NodeId::new(1),
        failures,
        SimTime::from_ticks(1_000),
        failure_period,
        downtime,
    );
    (schedule, failure_plan)
}

/// E3's failure run, scheduled and not yet stepped: `e3_inputs` on `n`
/// nodes under `hardening`, contention slack 1 000. At `n = 64` this is
/// the benchmark's `sim-faults` world for the same seed.
#[must_use]
pub fn e3_world(n: usize, failures: usize, seed: u64, hardening: Hardening) -> World<OpenCubeNode> {
    let (schedule, failure_plan) = e3_inputs(n, failures, seed);
    let mut world =
        World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, 1_000, hardening)));
    world.schedule_workload(&schedule);
    world.schedule_failures(&failure_plan);
    world
}

/// E3's failure run under `Hardening::None` as an [`oc_check::Scenario`]:
/// the inputs, delays, CS length, contention slack and event cap of
/// [`e3_world`], so `oc_check::run` plays the run `e3_world` steps and
/// the shrinker can reduce it.
#[must_use]
pub fn e3_scenario(n: usize, failures: usize, seed: u64) -> oc_check::Scenario {
    let (schedule, failure_plan) = e3_inputs(n, failures, seed);
    oc_check::Scenario {
        n,
        seed,
        delay_min: 1,
        delay_max: DELTA,
        cs_ticks: CS_TICKS,
        contention_slack: 1_000,
        max_events: sim_config(seed).max_events,
        arrivals: schedule.arrivals().iter().map(|(at, node)| (at.ticks(), node.get())).collect(),
        crashes: failure_plan
            .events()
            .iter()
            .map(|crash| oc_check::ScenarioCrash {
                node: crash.node.get(),
                at: crash.at.ticks(),
                recover_at: crash.recover_at.map(SimTime::ticks),
            })
            .collect(),
        phases: Vec::new(),
    }
}

/// Where a finished E3 run's failure overhead went, per failure, by
/// message kind — `search_father`'s probes and answers, anomaly bounces,
/// the root's enquiries with their replies — and the searches started.
/// Under `Hardening::None` these kinds make up the whole of
/// `overhead/fail`; a hardened run adds its mint traffic.
fn overhead_by_kind(world: &World<OpenCubeNode>, failures: usize) -> [(&'static str, Value); 5] {
    let m = world.metrics();
    let per = |count: u64| Value::Num(count as f64 / failures as f64);
    let searches = m.counted(Counter::SearchesStarted);
    [
        ("test_per_failure", per(m.sent(MsgKind::Test))),
        ("answer_per_failure", per(m.sent(MsgKind::Answer))),
        ("anomaly_per_failure", per(m.sent(MsgKind::Anomaly))),
        ("enquiry_per_failure", per(m.sent(MsgKind::Enquiry) + m.sent(MsgKind::EnquiryReply))),
        ("searches_per_failure", per(searches)),
    ]
}

/// E3: repeated random single failures (with recovery) under steady load,
/// reproducing the shape of the paper's Estelle/iPSC-2 measurement
/// (8 msg/failure at N=32 over 300 failures; 9.75 at N=64 over 200).
/// `overhead_per_failure` counts the failure machinery's own messages
/// (test/answer/enquiry/reply/anomaly); `extra_per_failure` every extra
/// message relative to the identical failure-free run.
#[must_use]
pub fn e3_failures(cell: &E3Cell, seed: u64) -> Value {
    let E3Cell { n, failures, seed_index, hardening } = *cell;
    let (schedule, _) = e3_inputs(n, failures, seed);

    // Reference run: same seed and workload, no failures.
    let nodes = || OpenCubeNode::build_all(ft_cfg(n, 1_000, hardening));
    let mut clean = World::new(sim_config(seed), nodes());
    clean.schedule_workload(&schedule);
    assert!(clean.run_to_quiescence(), "E3 clean run wedged");
    let clean_total = clean.metrics().total_sent();

    let mut world = e3_world(n, failures, seed, hardening);
    assert!(world.run_to_quiescence(), "E3 failure run wedged");

    let overhead = world.metrics().overhead_messages();
    let extra = world.metrics().total_sent() as i64 - clean_total as i64;
    let mut fields = vec![
        ("n", Value::UInt(n as u64)),
        ("failures", Value::UInt(failures as u64)),
        ("rep", Value::UInt(seed_index as u64)),
        ("overhead_per_failure", Value::Num(overhead as f64 / failures as f64)),
        ("extra_per_failure", Value::Num(extra as f64 / failures as f64)),
    ];
    fields.extend(overhead_by_kind(&world, failures));
    fields.extend([
        ("searches", Value::UInt(world.metrics().counted(Counter::SearchesStarted))),
        ("regenerations", Value::UInt(world.metrics().counted(Counter::TokensRegenerated))),
        ("served", Value::UInt(world.metrics().cs_entries)),
        ("injected", Value::UInt(world.requests_injected())),
    ]);
    Value::Obj(fields)
}

/// Multi-seed summaries of E3 rows (in [`e3_cells`] order): mean ± 95% CI
/// of the per-failure overhead over each plan entry's repetitions. The
/// paper reports single averages; the CI quantifies how sensitive that
/// number is to the workload draw. Pure aggregation over the ordered
/// rows, so identical at any thread count.
#[must_use]
pub fn e3_summaries(rows: &[Value]) -> Vec<Value> {
    let entry = |row: &Value| (row.get("n").clone(), row.get("failures").clone());
    rows.chunk_by(|a, b| entry(a) == entry(b))
        .map(|reps| {
            let samples: Vec<f64> =
                reps.iter().map(|row| row.get("overhead_per_failure").num()).collect();
            let overhead = oc_analysis::Summary::of(&samples);
            let (n, failures) = entry(&reps[0]);
            Value::Obj(vec![
                ("n", n),
                ("failures", failures),
                ("seeds", Value::UInt(overhead.count as u64)),
                ("mean", Value::Num(overhead.mean)),
                ("ci95", Value::Num(overhead.ci95)),
                ("min", Value::Num(overhead.min)),
                ("max", Value::Num(overhead.max)),
            ])
        })
        .collect()
}

/// E3's long-horizon cells as measured at the parent of the change that
/// gave the generated tier of the event queue a sorted front over its
/// heap (2-CPU x86_64 host, master seed 42, one thread, median of
/// fourteen `experiments --e3` runs alternated with the change's):
/// `(rev, [(failures, events per wall second)])`. The "before" half of
/// `BENCH_E3.json`'s before/after rows; the event counts are the same on
/// both sides. (At `f2b9131`, before the queue was split into tiers and
/// the crash purge made in place, the same cells read 8 189 556,
/// 2 150 170 and 337 262.)
pub const E3_HORIZON_BEFORE: (&str, [(usize, f64); 3]) =
    ("e629413", [(200, 7_643_184.0), (2_000, 8_268_446.0), (20_000, 8_569_037.0)]);

/// E3's failure run alone at a long horizon, every failure pre-scheduled
/// before the first step, timed — what a failure costs the *simulator*.
/// Every crash purges the pending queue, so `events_per_sec` that falls
/// as `failures` grows means a crash costs what is *scheduled* rather
/// than what it destroys. `gain` is against `before_events_per_sec`.
#[must_use]
pub fn e3_long_horizon(n: usize, failures: usize, seed: u64, before_events_per_sec: f64) -> Value {
    let mut world = e3_world(n, failures, seed, Hardening::None);
    let start = std::time::Instant::now();
    assert!(world.run_to_quiescence(), "E3 long-horizon run wedged");
    let wall_secs = start.elapsed().as_secs_f64();
    let events = world.metrics().events_processed;
    let events_per_sec = if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 };
    let mut fields = vec![
        ("n", Value::UInt(n as u64)),
        ("failures", Value::UInt(failures as u64)),
        ("events", Value::UInt(events)),
        (
            "overhead_per_failure",
            Value::Num(world.metrics().overhead_messages() as f64 / failures as f64),
        ),
    ];
    fields.extend(overhead_by_kind(&world, failures));
    fields.extend([
        ("wall_secs", Value::Num(wall_secs)),
        ("events_per_sec", Value::Num(events_per_sec)),
        ("before_events_per_sec", Value::Num(before_events_per_sec)),
        ("gain", Value::Num(events_per_sec / before_events_per_sec)),
    ]);
    Value::Obj(fields)
}

// --------------------------------------------------------------------
// E4 — search_father probe counts
// --------------------------------------------------------------------

/// The E4 table.
pub const E4_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("victim power", "victim_power", 13, 0),
    col("predicted", "predicted_probes", 12, 0),
    col("measured", "measured_probes", 10, 0),
    col("regen", "regenerated", 10, 0),
    col("match", "ok", 6, 0),
];

/// E4b's table: average probes per search over all failure positions.
pub const E4_AVERAGE_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("searches", "searches", 9, 0),
    col("measured", "measured_mean", 12, 2),
    col("predicted", "predicted_mean", 12, 2),
    col("2*log2 N", "two_log_n", 10, 1),
];

/// The E4 scenario: `victim` (of power `q ≥ 1`) fails and its lowest son
/// — the node at distance 1 below it — requests and has to search.
/// Returns `(test probes measured, probes predicted, tokens regenerated,
/// oracles clean)`.
///
/// The searcher starts at phase 1 (power 0). A qualified father (power
/// ≥ d) first exists at the ring holding the victim's own father — at
/// distance `q + 1` — except when the victim was the root: then no ring
/// qualifies and the search runs to `pmax`, probing everyone.
fn e4_search(
    n: usize,
    victim: NodeId,
    q: u32,
    seed: u64,
    hardening: Hardening,
) -> (u64, u64, u64, bool) {
    let pmax = oc_topology::dimension(n);
    let searcher = NodeId::from_zero_based(victim.zero_based() | 1);
    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, 0, hardening)));
    world.schedule_failure(SimTime::from_ticks(1), victim);
    world.schedule_request(SimTime::from_ticks(10), searcher);
    assert!(world.run_to_quiescence(), "E4 run wedged");
    let end = if q == pmax { pmax } else { q + 1 };
    (
        world.metrics().sent(MsgKind::Test),
        oc_analysis::expected_ring_probes(1, end),
        world.metrics().counted(Counter::TokensRegenerated),
        world.oracle_report().is_clean(),
    )
}

/// E4 cell: crash the canonical node of one power and let its lowest son
/// search; count `test` probes against the ring analysis's prediction
/// (`ok` when equal) — the sweep's unit of work. `regenerated` is 1
/// exactly when the crashed node was the root holding the token.
#[must_use]
pub fn e4_cell(n: usize, victim_power: u32, seed: u64, hardening: Hardening) -> Value {
    // The canonical node of power q: zero-based 2^q... except the root
    // (power pmax) which is node 1.
    let victim = if victim_power == oc_topology::dimension(n) {
        NodeId::new(1)
    } else {
        NodeId::from_zero_based(1 << victim_power)
    };
    let (measured, predicted, regenerated, clean) =
        e4_search(n, victim, victim_power, seed, hardening);
    assert!(clean);
    Value::Obj(vec![
        ("n", Value::UInt(n as u64)),
        ("victim_power", Value::UInt(u64::from(victim_power))),
        ("start_phase", Value::UInt(1)),
        ("predicted_probes", Value::UInt(predicted)),
        ("measured_probes", Value::UInt(measured)),
        ("regenerated", Value::UInt(regenerated)),
        ("ok", Value::Bool(predicted == measured)),
    ])
}

/// One E4b measurement: the victim `raw` fails, its lowest son searches.
/// Returns `(measured probes, predicted probes)`, or `None` when the
/// victim is a leaf (nobody's father, so its failure triggers no search).
#[must_use]
pub fn e4_victim_probes(n: usize, raw: u32, seed: u64, hardening: Hardening) -> Option<(f64, f64)> {
    let victim = NodeId::new(raw);
    let q = oc_topology::canonical_power(n, victim);
    (q > 0).then(|| {
        let (measured, predicted, ..) = e4_search(n, victim, q, seed, hardening);
        (measured as f64, predicted as f64)
    })
}

// --------------------------------------------------------------------
// E5 — comparison with Raymond, Naimi-Trehel and a central coordinator
// --------------------------------------------------------------------

/// The E5 table.
pub const E5_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("algorithm", "algo", 14, 0),
    col("seq avg", "seq_avg", 9, 2),
    col("seq worst", "seq_worst", 10, 0),
    col("conc avg", "conc_avg", 10, 2),
    col("hotspot avg", "hotspot_avg", 12, 2),
    col("burst avg", "burst_avg", 10, 2),
    col("post-burst", "post_burst_worst", 11, 0),
];

/// Algorithms compared in E5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The paper's open-cube algorithm.
    OpenCube,
    /// Raymond's static tree.
    Raymond,
    /// Naimi–Trehel's dynamic structure.
    NaimiTrehel,
    /// Centralized coordinator.
    Central,
}

impl Algo {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::OpenCube => "open-cube",
            Algo::Raymond => "raymond",
            Algo::NaimiTrehel => "naimi-trehel",
            Algo::Central => "central",
        }
    }

    /// All algorithms.
    #[must_use]
    pub fn all() -> [Algo; 4] {
        [Algo::OpenCube, Algo::Raymond, Algo::NaimiTrehel, Algo::Central]
    }
}

fn run_schedule<P: Protocol>(nodes: Vec<P>, schedule: &ArrivalSchedule, seed: u64) -> f64 {
    let mut world = World::new(sim_config(seed), nodes);
    world.schedule_workload(schedule);
    assert!(world.run_to_quiescence(), "E5 run wedged");
    assert!(world.oracle_report().is_clean());
    assert_eq!(world.metrics().cs_entries, world.requests_injected());
    world.metrics().messages_per_cs()
}

/// Issues one request per node of `order`, each run to quiescence, and
/// returns the costliest one's message count.
fn worst_sequential<P: Protocol>(world: &mut World<P>, order: impl Iterator<Item = NodeId>) -> u64 {
    let mut worst = 0u64;
    let mut last = world.metrics().total_sent();
    for node in order {
        world.schedule_request(world.now(), node);
        assert!(world.run_to_quiescence());
        let cost = world.metrics().total_sent() - last;
        last = world.metrics().total_sent();
        worst = worst.max(cost);
    }
    worst
}

/// Burst: every node requests in the same tick, then — once the burst has
/// bent the structure into its worst reachable shape — each node issues
/// one more request sequentially and we record the costliest one.
fn run_burst<P: Protocol>(nodes: Vec<P>, n: usize, seed: u64) -> (f64, u64) {
    let mut world = World::new(sim_config(seed), nodes);
    for node in NodeId::all(n) {
        world.schedule_request(SimTime::ZERO, node);
    }
    assert!(world.run_to_quiescence(), "E5 burst wedged");
    assert!(world.oracle_report().is_clean());
    let burst_avg = world.metrics().messages_per_cs();
    (burst_avg, worst_sequential(&mut world, NodeId::all(n)))
}

/// Closed loop over every node once in a seeded random order, measuring
/// each request's cost to find the worst.
fn run_sequential<P: Protocol>(nodes: Vec<P>, n: usize, seed: u64) -> (f64, u64) {
    let mut world = World::new(sim_config(seed), nodes);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = NodeId::all(n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let worst = worst_sequential(&mut world, order.into_iter());
    (world.metrics().messages_per_cs(), worst)
}

/// Runs the full E5 workload battery for one node constructor. The
/// concurrent and hotspot schedules are rebuilt from `seed` alone, so
/// every algorithm at one `(n, seed)` faces byte-identical workloads no
/// matter which sweep cell (or thread) it runs in.
fn e5_measure<P: Protocol>(
    make: impl Fn() -> Vec<P>,
    n: usize,
    seed: u64,
) -> Vec<(&'static str, Value)> {
    let conc_count = 4 * n;
    let gap = SimDuration::from_ticks(25);
    let mut rng = StdRng::seed_from_u64(seed);
    let conc = ArrivalSchedule::uniform(&mut rng, n, conc_count, gap);
    let hot = ArrivalSchedule::hotspot(
        &mut rng,
        n,
        &[NodeId::new(n as u32)],
        0.9,
        conc_count,
        SimDuration::from_ticks(200),
    );
    let (seq_avg, seq_worst) = run_sequential(make(), n, seed);
    let (burst_avg, post_burst_worst) = run_burst(make(), n, seed);
    vec![
        ("seq_avg", Value::Num(seq_avg)),
        ("seq_worst", Value::UInt(seq_worst)),
        ("conc_avg", Value::Num(run_schedule(make(), &conc, seed))),
        ("hotspot_avg", Value::Num(run_schedule(make(), &hot, seed))),
        ("burst_avg", Value::Num(burst_avg)),
        ("post_burst_worst", Value::UInt(post_burst_worst)),
    ]
}

/// E5 cell: one algorithm at one size — the sweep's unit of work. Mean
/// messages per critical section under a sequential every-node-once
/// workload (`seq_avg`, with the worst single request `seq_worst`),
/// concurrent uniform load (`conc_avg`), a hotspot (90% of requests from
/// one node, `hotspot_avg`) and every node requesting in the same instant
/// (`burst_avg` — the burst that exposes Naimi-Trehel's unbounded
/// chains); `post_burst_worst` is the worst sequential request after the
/// burst has degenerated the structure (bounded for open-cube/raymond,
/// O(n) for naimi-trehel).
#[must_use]
pub fn e5_row(n: usize, algo: Algo, seed: u64, hardening: Hardening) -> Value {
    let measured = match algo {
        Algo::OpenCube => e5_measure(|| OpenCubeNode::build_all(plain_cfg(n, hardening)), n, seed),
        Algo::Raymond => e5_measure(|| RaymondNode::build_all(n), n, seed),
        Algo::NaimiTrehel => e5_measure(|| NaimiTrehelNode::build_all(n), n, seed),
        Algo::Central => e5_measure(|| CentralNode::build_all(n), n, seed),
    };
    let mut fields = vec![("n", Value::UInt(n as u64)), ("algo", Value::str(algo.name()))];
    fields.extend(measured);
    Value::Obj(fields)
}

// --------------------------------------------------------------------
// E6 (ablation) — suspicion-timeout slack sensitivity
// --------------------------------------------------------------------

/// The E6 table.
pub const E6_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("slack", "slack", 8, 0),
    col("spurious", "spurious_searches", 10, 0),
    col("wasted probes", "wasted_probes", 13, 0),
    col("msgs/CS", "msgs_per_cs", 10, 2),
    col("served", "all_served", 8, 0),
];

/// The slack levels the E6 ablation walks through.
pub const E6_SLACKS: [u64; 5] = [0, 500, 2_000, 10_000, 50_000];

/// E6 cell: one slack level at one size under the same saturating load
/// (the seed fixes the workload, so slack is the only variable across the
/// ablation's cells). The ablation of the design choice the paper leaves
/// implicit — the suspicion timeout must budget for *queueing*, not just
/// transit: with the paper's bare `2·pmax·δ` under load, suspicions fire
/// constantly; with adequate slack they never fire. No failures are
/// injected, so every search is a false positive (`spurious_searches`,
/// `wasted_probes`); `all_served` says liveness survived them.
#[must_use]
pub fn e6_cell(n: usize, slack: u64, seed: u64, hardening: Hardening) -> Value {
    let count = 4 * n;
    let gap = SimDuration::from_ticks(25); // saturating load
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, count, gap);
    let mut world =
        World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, slack, hardening)));
    world.schedule_workload(&schedule);
    assert!(world.run_to_quiescence(), "E6 run wedged at slack {slack}");
    Value::Obj(vec![
        ("n", Value::UInt(n as u64)),
        ("slack", Value::UInt(slack)),
        ("spurious_searches", Value::UInt(world.metrics().counted(Counter::SearchesStarted))),
        ("wasted_probes", Value::UInt(world.metrics().sent(MsgKind::Test))),
        ("msgs_per_cs", Value::Num(world.metrics().messages_per_cs())),
        ("all_served", Value::Bool(world.metrics().cs_entries == world.requests_injected())),
    ])
}

// --------------------------------------------------------------------
// E7 — engine throughput at large N (events/sec)
// --------------------------------------------------------------------

/// The E7 table.
pub const E7_COLS: &[Col] = &[
    col("N", "n", 9, 0),
    col("requests", "requests", 10, 0),
    col("events", "events", 12, 0),
    col("messages", "messages", 12, 0),
    col("msgs/req", "msgs_per_request", 10, 2),
    col("B/node", "mem_bytes_per_node", 8, 0),
    col("wall s", "wall_secs", 10, 3),
    col("events/sec", "events_per_sec", 14, 0),
];

/// The E7 columns that are protocol observables — everything but the
/// wall clock (and the seed, which names the cell).
pub const E7_VIRTUAL_KEYS: &[&str] = &["n", "requests", "events", "messages", "mem_bytes_per_node"];

/// E7: a large-N open-cube run under concurrent uniform load, timed in
/// wall-clock terms. This is the scale experiment behind the engine
/// refactor: the paper's O(log² n) story only matters when the simulator
/// itself can push big systems. Virtual-time results are a function of
/// the seed (the determinism tests pin that); only the wall clock may
/// differ between runs. The row records the cell's `seed` so it can be
/// replayed, and the resident
/// per-node state at end of run (`mem_bytes_per_node`: protocol node +
/// substrate containers; see `World::mem_bytes_per_node`).
#[must_use]
pub fn e7_throughput(n: usize, requests: usize, seed: u64, hardening: Hardening) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, requests, SimDuration::from_ticks(25));
    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(plain_cfg(n, hardening)));
    world.schedule_workload(&schedule);
    let start = std::time::Instant::now();
    assert!(world.run_to_quiescence(), "E7 run wedged");
    let wall_secs = start.elapsed().as_secs_f64();
    assert!(world.oracle_report().is_clean());
    assert_eq!(world.metrics().cs_entries, world.requests_injected());
    let (requests, events) = (world.requests_injected(), world.metrics().events_processed);
    let messages = world.metrics().total_sent();
    let per = |count: u64, of: f64| if of > 0.0 { count as f64 / of } else { 0.0 };
    Value::Obj(vec![
        ("n", Value::UInt(n as u64)),
        ("seed", Value::UInt(seed)),
        ("requests", Value::UInt(requests)),
        ("events", Value::UInt(events)),
        ("messages", Value::UInt(messages)),
        ("msgs_per_request", Value::Num(per(messages, requests as f64))),
        ("mem_bytes_per_node", Value::UInt(world.mem_bytes_per_node())),
        ("wall_secs", Value::Num(wall_secs)),
        ("events_per_sec", Value::Num(per(events, wall_secs))),
    ])
}

// --------------------------------------------------------------------
// Parallel sweep runners — every experiment as independent cells
// --------------------------------------------------------------------

// Stream tags keeping each experiment's derived seeds disjoint.
const S_E1: u64 = 1;
const S_E2: u64 = 2;
const S_E3: u64 = 3;
const S_E4: u64 = 4;
const S_E4B: u64 = 40;
const S_E5: u64 = 5;
const S_E6: u64 = 6;
const S_E7: u64 = 7;

/// E1 as a sweep: one cell per size.
#[must_use]
pub fn e1_sweep(
    sizes: &[usize],
    rounds: u32,
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    sweep::sweep(sizes, threads, |_, &n| {
        e1_worst_case(n, rounds, derive_seed(master, stream_id(S_E1, n as u64, 0)), hardening)
    })
}

/// E2 as a sweep: one cell per size.
#[must_use]
pub fn e2_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    sweep::sweep(sizes, threads, |_, &n| {
        e2_average(n, derive_seed(master, stream_id(S_E2, n as u64, 0)), hardening)
    })
}

/// E3 as a sweep, one cell per repetition; the multi-seed summaries come
/// from the same rows via [`e3_summaries`], so the failure battery runs
/// once.
#[must_use]
pub fn e3_sweep(cells: &[E3Cell], master: u64, threads: usize) -> SweepOutcome<Value> {
    sweep::sweep(cells, threads, |_, cell| {
        let seed = derive_seed(master, stream_id(S_E3, cell.n as u64, cell.seed_index as u64));
        e3_failures(cell, seed)
    })
}

/// The seed of E3's long-horizon cells at size `n`: repetition 0 of the
/// table's own `n` entry, so the shortest horizon repeats a table row.
#[must_use]
pub fn e3_horizon_seed(master: u64, n: usize) -> u64 {
    derive_seed(master, stream_id(S_E3, n as u64, 0))
}

/// E4 (per-power table) as a sweep: one cell per `(size, victim power)`.
/// The searcher's phases walk rings `1, 2, …` until one holds a node of
/// sufficient power — the locality property in action.
#[must_use]
pub fn e4_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    let cells: Vec<(usize, u32)> =
        sizes.iter().flat_map(|&n| (1..=oc_topology::dimension(n)).map(move |q| (n, q))).collect();
    sweep::sweep(&cells, threads, |_, &(n, q)| {
        e4_cell(n, q, derive_seed(master, stream_id(S_E4, n as u64, u64::from(q))), hardening)
    })
}

/// E4b as a sweep — the measurement behind the paper's "O(log2 N) in the
/// average" claim: the E4 scenario for *every* victim that has sons, one
/// cell per victim, folded into one row per size: the mean probes per
/// search measured and predicted from the ring analysis, beside the
/// comparison point `2·log2 N` (the analytic average is ≈ 2·pmax).
#[must_use]
pub fn e4_average_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    let cells: Vec<(usize, u32)> =
        sizes.iter().flat_map(|&n| (1..=n as u32).map(move |raw| (n, raw))).collect();
    let outcome = sweep::sweep(&cells, threads, |_, &(n, raw)| {
        let seed = derive_seed(master, stream_id(S_E4B, n as u64, 0));
        (n, e4_victim_probes(n, raw, seed, hardening))
    });
    let average = |&n: &usize| {
        let (measured, predicted): (Vec<f64>, Vec<f64>) = outcome
            .results
            .iter()
            .filter(|(cell_n, _)| *cell_n == n)
            .filter_map(|(_, sample)| *sample)
            .unzip();
        Value::Obj(vec![
            ("n", Value::UInt(n as u64)),
            ("searches", Value::UInt(measured.len() as u64)),
            ("measured_mean", Value::Num(oc_analysis::mean(&measured))),
            ("predicted_mean", Value::Num(oc_analysis::mean(&predicted))),
            ("two_log_n", Value::Num(2.0 * f64::from(oc_topology::dimension(n)))),
        ])
    };
    SweepOutcome { results: sizes.iter().map(average).collect(), timing: outcome.timing }
}

/// E5 as a sweep: one cell per `(size, algorithm)`. All four algorithms
/// at one size share a seed, hence byte-identical workloads — the
/// comparison stays fair under sharding.
#[must_use]
pub fn e5_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    let cells: Vec<(usize, Algo)> =
        sizes.iter().flat_map(|&n| Algo::all().into_iter().map(move |algo| (n, algo))).collect();
    sweep::sweep(&cells, threads, |_, &(n, algo)| {
        e5_row(n, algo, derive_seed(master, stream_id(S_E5, n as u64, 0)), hardening)
    })
}

/// E6 as a sweep: one cell per `(size, slack)`. All slack levels at one
/// size share a seed (the ablation varies slack only).
#[must_use]
pub fn e6_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<Value> {
    let cells: Vec<(usize, u64)> =
        sizes.iter().flat_map(|&n| E6_SLACKS.into_iter().map(move |s| (n, s))).collect();
    sweep::sweep(&cells, threads, |_, &(n, slack)| {
        e6_cell(n, slack, derive_seed(master, stream_id(S_E6, n as u64, 0)), hardening)
    })
}

/// One E7 sweep cell: a full timed run of one size with one derived seed.
#[derive(Debug, Clone, Copy)]
pub struct E7Cell {
    /// System size.
    pub n: usize,
    /// Requests to inject.
    pub requests: usize,
    /// Derived RNG seed for this cell.
    pub seed: u64,
    /// Hardening the cell's nodes are built under.
    pub hardening: Hardening,
}

/// Expands an E7 scaling plan — `(n, requests, independent seeds)` — into
/// one cell per seed.
#[must_use]
pub fn e7_cells(plan: &[(usize, usize, usize)], master: u64, hardening: Hardening) -> Vec<E7Cell> {
    plan.iter()
        .flat_map(|&(n, requests, seeds)| {
            (0..seeds).map(move |seed_index| {
                let seed = derive_seed(master, stream_id(S_E7, n as u64, seed_index as u64));
                E7Cell { n, requests, seed, hardening }
            })
        })
        .collect()
}

/// E7 as a sweep: the multi-size, multi-seed scaling table. Virtual-time
/// columns (events, messages) are deterministic per cell; the wall-clock
/// columns measure whatever contention the chosen thread count creates,
/// so single-threaded runs remain the comparable engine headline.
#[must_use]
pub fn e7_sweep(cells: &[E7Cell], threads: usize) -> SweepOutcome<Value> {
    sweep::sweep(cells, threads, |_, cell| {
        e7_throughput(cell.n, cell.requests, cell.seed, cell.hardening)
    })
}

// --------------------------------------------------------------------
// F — structural figures (2a–2d, 3): regenerated as ASCII drawings
// --------------------------------------------------------------------

/// Renders the canonical `n`-open-cube as an indented ASCII tree
/// (regenerates Figures 2a–2d).
#[must_use]
pub fn render_figure_tree(n: usize) -> String {
    use oc_topology::OpenCube;
    let cube = OpenCube::canonical(n);
    let mut text = String::new();
    fn walk(cube: &oc_topology::OpenCube, node: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{} (power {})", "  ".repeat(depth), node, cube.power(node));
        for son in cube.sons(node).into_iter().rev() {
            walk(cube, son, depth + 1, out);
        }
    }
    walk(&cube, cube.root(), 0, &mut text);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `u64` field of a row.
    fn uint(row: &Value, key: &str) -> u64 {
        match row.get(key) {
            Value::UInt(u) => *u,
            other => panic!("{key} is not an unsigned integer: {other:?}"),
        }
    }

    #[test]
    fn e1_respects_bound_small() {
        let row = e1_worst_case(8, 2, 1, Hardening::None);
        assert!(uint(&row, "measured_worst") <= uint(&row, "bound"));
        assert_eq!(row.get("ok"), &Value::Bool(true));
        assert_eq!(uint(&row, "bound"), 4);
    }

    #[test]
    fn e2_matches_alpha_small() {
        let row = e2_average(8, 1, Hardening::None);
        assert_eq!(uint(&row, "measured_total"), uint(&row, "alpha"));
        assert_eq!(row.get("exact"), &Value::Bool(true));
    }

    #[test]
    fn e3_summary_aggregates_seeds() {
        let cells = e3_cells(&[(16, 5)], 3, Hardening::None);
        let summaries = e3_summaries(&e3_sweep(&cells, 1, 1).results);
        assert_eq!(summaries.len(), 1);
        let summary = &summaries[0];
        assert_eq!(uint(summary, "seeds"), 3);
        assert!(summary.get("min").num() <= summary.get("mean").num());
        assert!(summary.get("mean").num() <= summary.get("max").num());
    }

    #[test]
    fn e4_probes_match_prediction_small() {
        let rows = e4_sweep(&[16], 1, 1, Hardening::None).results;
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(uint(row, "measured_probes"), uint(row, "predicted_probes"), "{row:?}");
        }
    }

    #[test]
    fn e6_slack_eliminates_spurious_searches() {
        let rows = e6_sweep(&[8], 1, 1, Hardening::None).results;
        assert_eq!(rows.len(), E6_SLACKS.len());
        // Liveness at every slack level.
        assert!(rows.iter().all(|r| r.get("all_served") == &Value::Bool(true)));
        // The largest slack produces zero false positives.
        assert_eq!(uint(rows.last().unwrap(), "spurious_searches"), 0);
        // Less slack can only mean more (or equal) spurious searching.
        for pair in rows.windows(2) {
            assert!(uint(&pair[0], "spurious_searches") >= uint(&pair[1], "spurious_searches"));
        }
    }

    #[test]
    fn e4_average_is_logarithmic() {
        let rows = e4_average_sweep(&[16], 1, 1, Hardening::None).results;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("measured_mean"), rows[0].get("predicted_mean"));
        // The analytic mean sits near 2·log2 N, far below N-1.
        assert!(rows[0].get("measured_mean").num() < 16.0);
    }

    #[test]
    fn e5_runs_all_algorithms_small() {
        let rows = e5_sweep(&[8], 1, 1, Hardening::None).results;
        assert_eq!(rows.len(), 4);
        for (row, algo) in rows.iter().zip(Algo::all()) {
            assert_eq!(row.get("algo"), &Value::str(algo.name()));
            assert!(row.get("seq_avg").num() >= 0.0);
            assert!(row.get("conc_avg").num() > 0.0);
        }
    }

    #[test]
    fn figure_renderer_shows_structure() {
        let fig = render_figure_tree(8);
        assert!(fig.contains("1 (power 3)"));
        assert!(fig.contains("5 (power 2)"));
    }

    #[test]
    fn e3_sweep_is_byte_identical_at_any_thread_count() {
        let cells = e3_cells(&[(16, 3), (8, 2)], 2, Hardening::None);
        assert_eq!(cells.len(), 4);
        let serial = e3_sweep(&cells, 42, 1);
        for threads in [2, 4, 7] {
            let parallel = e3_sweep(&cells, 42, threads);
            // Rows are their artifact form, so equal rows render to equal bytes.
            assert_eq!(serial.results, parallel.results, "threads={threads}");
            assert_eq!(e3_summaries(&serial.results), e3_summaries(&parallel.results));
        }
        let summaries = e3_summaries(&serial.results);
        assert_eq!(summaries.len(), 2);
        assert_eq!(uint(&summaries[0], "seeds"), 2);
    }

    #[test]
    fn e4_sweeps_match_their_serial_counterparts() {
        // The sweep at one thread *is* the serial run.
        let serial = e4_sweep(&[16], 42, 1, Hardening::None);
        assert_eq!(serial.results, e4_sweep(&[16], 42, 2, Hardening::None).results);
        // Probe counts are workload-independent for E4's scenario: another
        // seed changes nothing.
        assert_eq!(serial.results, e4_sweep(&[16], 7, 1, Hardening::None).results);

        let averaged = e4_average_sweep(&[16], 42, 3, Hardening::None);
        assert_eq!(averaged.results, e4_average_sweep(&[16], 42, 1, Hardening::None).results);
        // Every victim with sons searched: 16 nodes, 8 of them leaves.
        assert_eq!(uint(&averaged.results[0], "searches"), 8);
        assert_eq!(averaged.timing.cells, 16);
    }

    #[test]
    fn e7_cells_expand_the_scaling_plan() {
        let cells = e7_cells(&[(64, 128, 2), (128, 64, 1)], 42, Hardening::None);
        // One cell per seed, each with a seed of its own.
        assert_eq!(cells.len(), 2 + 1);
        assert_ne!(cells[0].seed, cells[1].seed);
        assert_ne!(cells[0].seed, cells[2].seed);
    }
}
