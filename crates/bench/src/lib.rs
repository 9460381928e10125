//! # oc-bench — experiment runners regenerating the paper's evaluation
//!
//! Each `eN_*` function reproduces one experiment from the paper (see
//! DESIGN.md's experiment index). The `experiments` binary prints them as
//! tables; the criterion benches under `benches/` time reduced versions;
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
pub mod sweep;

use oc_algo::{Config, Hardening, OpenCubeNode};
use oc_baselines::{CentralNode, NaimiTrehelNode, RaymondNode};
use oc_sim::{
    ArrivalSchedule, DelayModel, Protocol, QueueBackend, SimConfig, SimDuration, SimTime, World,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use json::Value;
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
        // Headroom for the full E7 ladder: n = 2^24 under uniform load
        // processes ~2.4e8 events; the cap only guards against wedges.
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

/// One row of the E1 table.
#[derive(Debug, Clone, Copy)]
pub struct E1Row {
    /// System size.
    pub n: usize,
    /// The paper's bound `log2 N + 1`.
    pub bound: u64,
    /// Largest per-request cost observed (paper accounting: the loan
    /// return hop is attributed separately).
    pub measured_worst: u64,
    /// Largest per-request cost including the loan-return hop.
    pub measured_worst_with_return: u64,
    /// Requests driven.
    pub requests: u64,
}

/// E1: closed-loop sweeps over every node (several rounds, so the tree
/// leaves its canonical shape), recording the costliest single request.
#[must_use]
pub fn e1_worst_case(n: usize, rounds: u32, seed: u64, hardening: Hardening) -> E1Row {
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
    E1Row {
        n,
        bound: oc_analysis::worst_case_messages(n),
        measured_worst: worst_paper,
        measured_worst_with_return: worst_raw,
        requests,
    }
}

// --------------------------------------------------------------------
// E2 — average messages per request vs the α_p recurrence
// --------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Debug, Clone, Copy)]
pub struct E2Row {
    /// System size.
    pub n: usize,
    /// Measured total over one request from every node (canonical start).
    pub measured_total: u64,
    /// The paper's exact `α_p`.
    pub alpha: u64,
    /// Measured average per request.
    pub measured_avg: f64,
    /// The paper's closed form `¾·log2 N + 5/4`.
    pub closed_form: f64,
    /// Average under a *sequential evolving-tree* workload (every node
    /// once, random order, tree carries over) — the deployed behavior.
    pub evolving_avg: f64,
}

/// E2: the paper's average-case analysis, measured two ways.
#[must_use]
pub fn e2_average(n: usize, seed: u64, hardening: Hardening) -> E2Row {
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

    E2Row {
        n,
        measured_total,
        alpha: oc_analysis::alpha(n.trailing_zeros()),
        measured_avg: measured_total as f64 / n as f64,
        closed_form: oc_analysis::average_messages_closed_form(n),
        evolving_avg,
    }
}

// --------------------------------------------------------------------
// E3 — overhead messages per failure (the iPSC/2 experiment)
// --------------------------------------------------------------------

/// One row of the E3 table.
#[derive(Debug, Clone, Copy)]
pub struct E3Row {
    /// System size.
    pub n: usize,
    /// Failures injected (the paper used 300 at N=32, 200 at N=64).
    pub failures: u64,
    /// Failure-machinery messages (test/answer/enquiry/reply/anomaly)
    /// per failure.
    pub overhead_per_failure: f64,
    /// All extra messages relative to the identical failure-free run,
    /// per failure.
    pub extra_per_failure: f64,
    /// search_father procedures run.
    pub searches: u64,
    /// Tokens regenerated.
    pub regenerations: u64,
    /// Critical sections completed.
    pub served: u64,
    /// Requests injected.
    pub injected: u64,
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

/// E3: repeated random single failures (with recovery) under steady load,
/// reproducing the shape of the paper's Estelle/iPSC-2 measurement
/// (8 msg/failure at N=32 over 300 failures; 9.75 at N=64 over 200).
#[must_use]
pub fn e3_failures(n: usize, failures: usize, seed: u64, hardening: Hardening) -> E3Row {
    let (schedule, failure_plan) = e3_inputs(n, failures, seed);

    // Reference run: same seed and workload, no failures.
    let nodes = || OpenCubeNode::build_all(ft_cfg(n, 1_000, hardening));
    let mut clean = World::new(sim_config(seed), nodes());
    clean.schedule_workload(&schedule);
    assert!(clean.run_to_quiescence(), "E3 clean run wedged");
    let clean_total = clean.metrics().total_sent();

    let mut world = World::new(sim_config(seed), nodes());
    world.schedule_workload(&schedule);
    world.schedule_failures(&failure_plan);
    assert!(world.run_to_quiescence(), "E3 failure run wedged");

    let stats = oc_algo::aggregate_stats(&world);
    let overhead = world.metrics().overhead_messages();
    let extra = world.metrics().total_sent() as i64 - clean_total as i64;
    E3Row {
        n,
        failures: failures as u64,
        overhead_per_failure: overhead as f64 / failures as f64,
        extra_per_failure: extra as f64 / failures as f64,
        searches: u64::from(stats.searches_started),
        regenerations: u64::from(stats.tokens_regenerated),
        served: world.metrics().cs_entries,
        injected: world.requests_injected(),
    }
}

/// One row of E3's long-horizon group: the same cell stretched to many
/// more failures, timed — what a failure costs the *simulator*.
#[derive(Debug, Clone, Copy)]
pub struct E3HorizonRow {
    /// System size.
    pub n: usize,
    /// Failures injected, every one pre-scheduled before the first step.
    pub failures: u64,
    /// Events processed (deterministic per seed).
    pub events: u64,
    /// Failure-machinery messages per failure (deterministic per seed).
    pub overhead_per_failure: f64,
    /// Wall-clock seconds from the first step to quiescence.
    pub wall_secs: f64,
    /// Engine throughput: events per wall-clock second.
    pub events_per_sec: f64,
}

/// E3's failure run alone at a long horizon, timed. Every crash purges the
/// pending queue, so throughput that falls as `failures` grows means a
/// crash costs what is *scheduled* rather than what it destroys.
#[must_use]
pub fn e3_long_horizon(n: usize, failures: usize, seed: u64) -> E3HorizonRow {
    let (schedule, failure_plan) = e3_inputs(n, failures, seed);
    let mut world =
        World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, 1_000, Hardening::None)));
    world.schedule_workload(&schedule);
    world.schedule_failures(&failure_plan);
    let start = std::time::Instant::now();
    assert!(world.run_to_quiescence(), "E3 long-horizon run wedged");
    let wall_secs = start.elapsed().as_secs_f64();
    let events = world.metrics().events_processed;
    E3HorizonRow {
        n,
        failures: failures as u64,
        events,
        overhead_per_failure: world.metrics().overhead_messages() as f64 / failures as f64,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 },
    }
}

/// Multi-seed summary of [`e3_failures`]: mean ± 95% CI of the per-failure
/// overhead across independent runs. The paper reports single averages
/// (300 and 200 failures); the CI quantifies how sensitive that number is
/// to the workload draw.
#[must_use]
pub fn e3_failures_summary(n: usize, failures: usize, seeds: &[u64]) -> oc_analysis::Summary {
    let samples: Vec<f64> = seeds
        .iter()
        .map(|&seed| e3_failures(n, failures, seed, Hardening::None).overhead_per_failure)
        .collect();
    oc_analysis::Summary::of(&samples)
}

// --------------------------------------------------------------------
// E4 — search_father probe counts
// --------------------------------------------------------------------

/// One row of the E4 table.
#[derive(Debug, Clone, Copy)]
pub struct E4Row {
    /// System size.
    pub n: usize,
    /// Power of the crashed father.
    pub victim_power: u32,
    /// Phase the searcher starts at (`power(searcher) + 1`).
    pub start_phase: u32,
    /// `test` probes the analysis predicts for a search that must walk to
    /// the ring where a qualified father exists.
    pub predicted_probes: u64,
    /// Probes measured.
    pub measured_probes: u64,
    /// Tokens regenerated (1 exactly when the crashed node was the root
    /// holding the token).
    pub regenerated: u64,
}

/// E4 cell: crash the canonical node of one power and let its lowest son
/// search; count `test` probes — the sweep's unit of work.
#[must_use]
pub fn e4_cell(n: usize, victim_power: u32, seed: u64, hardening: Hardening) -> E4Row {
    let pmax = oc_topology::dimension(n);
    // The canonical node of power q: zero-based 2^q... except the root
    // (power pmax) which is node 1.
    let victim = if victim_power == pmax {
        NodeId::new(1)
    } else {
        NodeId::from_zero_based(1 << victim_power)
    };
    // Its lowest son: the node at distance 1 below it.
    let searcher = NodeId::from_zero_based(victim.zero_based() | 1);

    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, 0, hardening)));
    world.schedule_failure(SimTime::from_ticks(1), victim);
    world.schedule_request(SimTime::from_ticks(10), searcher);
    assert!(world.run_to_quiescence(), "E4 run wedged");
    assert!(world.oracle_report().is_clean());

    let stats = oc_algo::aggregate_stats(&world);
    // The searcher starts at phase 1 (power 0). A qualified father
    // (power >= d) first exists at the ring holding the victim's own
    // father — i.e. at distance victim_power + 1 — except when the
    // victim was the root: then no ring qualifies and the search runs
    // to pmax, probing everyone.
    let end = if victim_power == pmax { pmax } else { victim_power + 1 };
    let predicted = oc_analysis::expected_ring_probes(1, end);
    E4Row {
        n,
        victim_power,
        start_phase: 1,
        predicted_probes: predicted,
        measured_probes: u64::from(stats.nodes_tested),
        regenerated: u64::from(stats.tokens_regenerated),
    }
}

/// E4: crash a node of each power and let its lowest son search; count
/// `test` probes. The searcher's phases walk rings `1, 2, …` until one
/// holds a node of sufficient power — the locality property in action.
#[must_use]
pub fn e4_search_cost(n: usize, seed: u64) -> Vec<E4Row> {
    let pmax = oc_topology::dimension(n);
    (1..=pmax).map(|victim_power| e4_cell(n, victim_power, seed, Hardening::None)).collect()
}

/// The average-search-cost measurement behind the paper's "O(log2 N) in
/// the average" claim: run the E4 scenario for *every* possible victim
/// that has sons (a power-0 node is nobody's father, so its failure
/// triggers no search), and average the probe counts.
#[derive(Debug, Clone, Copy)]
pub struct E4Average {
    /// System size.
    pub n: usize,
    /// Searches run (= victims of power ≥ 1).
    pub searches: usize,
    /// Mean probes per search, measured.
    pub measured_mean: f64,
    /// Mean probes per search, predicted from the ring analysis.
    pub predicted_mean: f64,
    /// The comparison point: 2·log2 N (the analytic average is ≈ 2·pmax).
    pub two_log_n: f64,
}

/// One E4b measurement: the victim `raw` fails, its lowest son searches.
/// Returns `(measured probes, predicted probes)`, or `None` when the
/// victim is a leaf (nobody's father, so its failure triggers no search).
#[must_use]
pub fn e4_victim_probes(n: usize, raw: u32, seed: u64, hardening: Hardening) -> Option<(f64, f64)> {
    use oc_topology::canonical_power;
    let pmax = oc_topology::dimension(n);
    let victim = NodeId::new(raw);
    let q = canonical_power(n, victim);
    if q == 0 {
        return None; // leaf: nobody's father, no search on its failure
    }
    let searcher = NodeId::from_zero_based(victim.zero_based() | 1);
    let mut world = World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, 0, hardening)));
    world.schedule_failure(SimTime::from_ticks(1), victim);
    world.schedule_request(SimTime::from_ticks(10), searcher);
    assert!(world.run_to_quiescence(), "E4b run wedged");
    let stats = oc_algo::aggregate_stats(&world);
    let end = if q == pmax { pmax } else { q + 1 };
    Some((stats.nodes_tested as f64, oc_analysis::expected_ring_probes(1, end) as f64))
}

/// Folds per-victim probe samples into the E4b average row.
#[must_use]
pub fn e4_average_of(n: usize, samples: &[(f64, f64)]) -> E4Average {
    let measured: Vec<f64> = samples.iter().map(|(m, _)| *m).collect();
    let predicted: Vec<f64> = samples.iter().map(|(_, p)| *p).collect();
    E4Average {
        n,
        searches: samples.len(),
        measured_mean: oc_analysis::mean(&measured),
        predicted_mean: oc_analysis::mean(&predicted),
        two_log_n: 2.0 * f64::from(oc_topology::dimension(n)),
    }
}

/// E4b: averages the `search_father` cost over every failure position.
#[must_use]
pub fn e4_average(n: usize, seed: u64) -> E4Average {
    let samples: Vec<(f64, f64)> =
        (1..=n as u32).filter_map(|raw| e4_victim_probes(n, raw, seed, Hardening::None)).collect();
    e4_average_of(n, &samples)
}

// --------------------------------------------------------------------
// E5 — comparison with Raymond, Naimi-Trehel and a central coordinator
// --------------------------------------------------------------------

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

/// One row of the E5 table.
#[derive(Debug, Clone, Copy)]
pub struct E5Row {
    /// Which algorithm.
    pub algo: Algo,
    /// System size.
    pub n: usize,
    /// Mean messages per critical section under a sequential
    /// every-node-once workload.
    pub seq_avg: f64,
    /// Worst single-request cost seen in the sequential workload.
    pub seq_worst: u64,
    /// Mean messages per critical section under concurrent uniform load.
    pub conc_avg: f64,
    /// Mean messages per critical section under a hotspot workload (90%
    /// of requests from one node).
    pub hotspot_avg: f64,
    /// Mean messages per critical section when every node requests in the
    /// same instant — the concurrency burst that exposes Naimi-Trehel's
    /// unbounded chains.
    pub burst_avg: f64,
    /// Worst per-request cost under sequential load after the burst has
    /// degenerated the structure (measures how far the tree can decay:
    /// bounded for open-cube/raymond, O(n) for naimi-trehel).
    pub post_burst_worst: u64,
}

fn run_schedule<P: Protocol>(nodes: Vec<P>, schedule: &ArrivalSchedule, seed: u64) -> (f64, u64) {
    let mut world = World::new(sim_config(seed), nodes);
    world.schedule_workload(schedule);
    assert!(world.run_to_quiescence(), "E5 run wedged");
    assert!(world.oracle_report().is_clean());
    assert_eq!(world.metrics().cs_entries, world.requests_injected());
    (world.metrics().messages_per_cs(), world.metrics().total_sent())
}

/// Burst: every node requests in the same tick, then — once the burst has
/// bent the structure into its worst reachable shape — each node issues
/// one more request sequentially and we record the costliest one.
fn run_burst<P: Protocol>(nodes: Vec<P>, n: usize, seed: u64) -> (f64, u64) {
    let mut world = World::new(sim_config(seed), nodes);
    for raw in 1..=n as u32 {
        world.schedule_request(SimTime::ZERO, NodeId::new(raw));
    }
    assert!(world.run_to_quiescence(), "E5 burst wedged");
    assert!(world.oracle_report().is_clean());
    let burst_avg = world.metrics().messages_per_cs();
    let mut worst = 0u64;
    let mut last = world.metrics().total_sent();
    for raw in 1..=n as u32 {
        world.schedule_request(world.now(), NodeId::new(raw));
        assert!(world.run_to_quiescence());
        let cost = world.metrics().total_sent() - last;
        last = world.metrics().total_sent();
        worst = worst.max(cost);
    }
    (burst_avg, worst)
}

fn run_sequential<P: Protocol>(
    mut make: impl FnMut() -> Vec<P>,
    n: usize,
    seed: u64,
) -> (f64, u64) {
    // Closed loop, measuring each request's cost to find the worst.
    let mut world = World::new(sim_config(seed), make());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = NodeId::all(n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut worst = 0u64;
    let mut last = 0u64;
    for node in order {
        world.schedule_request(world.now(), node);
        assert!(world.run_to_quiescence());
        let cost = world.metrics().total_sent() - last;
        last = world.metrics().total_sent();
        worst = worst.max(cost);
    }
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
) -> (f64, u64, f64, f64, f64, u64) {
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
    let (sa, sw) = run_sequential(&make, n, seed);
    let (ca, _) = run_schedule(make(), &conc, seed);
    let (ha, _) = run_schedule(make(), &hot, seed);
    let (ba, bw) = run_burst(make(), n, seed);
    (sa, sw, ca, ha, ba, bw)
}

/// E5 cell: one algorithm at one size — the sweep's unit of work.
#[must_use]
pub fn e5_row(n: usize, algo: Algo, seed: u64, hardening: Hardening) -> E5Row {
    let (seq_avg, seq_worst, conc_avg, hotspot_avg, burst_avg, post_burst_worst) = match algo {
        Algo::OpenCube => e5_measure(|| OpenCubeNode::build_all(plain_cfg(n, hardening)), n, seed),
        Algo::Raymond => e5_measure(|| RaymondNode::build_all(n), n, seed),
        Algo::NaimiTrehel => e5_measure(|| NaimiTrehelNode::build_all(n), n, seed),
        Algo::Central => e5_measure(|| CentralNode::build_all(n), n, seed),
    };
    E5Row { algo, n, seq_avg, seq_worst, conc_avg, hotspot_avg, burst_avg, post_burst_worst }
}

/// E5: the three-way comparison (plus the centralized strawman) under the
/// workloads of DESIGN.md's experiment index.
#[must_use]
pub fn e5_comparison(n: usize, seed: u64) -> Vec<E5Row> {
    Algo::all().into_iter().map(|algo| e5_row(n, algo, seed, Hardening::None)).collect()
}

// --------------------------------------------------------------------
// E6 (ablation) — suspicion-timeout slack sensitivity
// --------------------------------------------------------------------

/// One row of the E6 ablation table.
#[derive(Debug, Clone, Copy)]
pub struct E6Row {
    /// System size.
    pub n: usize,
    /// Contention slack added to the paper's `2·pmax·δ` suspicion timeout.
    pub slack: u64,
    /// Spurious searches started (no failures are injected, so every
    /// search is a false positive).
    pub spurious_searches: u64,
    /// Wasted probe messages.
    pub wasted_probes: u64,
    /// Messages per critical section (the cost of the false positives).
    pub msgs_per_cs: f64,
    /// All requests still served (liveness survives false suspicion).
    pub all_served: bool,
}

/// E6: ablation of the design choice the paper leaves implicit — the
/// suspicion timeout must budget for *queueing*, not just transit. With
/// the paper's bare `2·pmax·δ` under load, suspicions fire constantly;
/// with adequate slack they never fire. (No failures are injected.)
#[must_use]
pub fn e6_slack_ablation(n: usize, seed: u64) -> Vec<E6Row> {
    E6_SLACKS.iter().map(|&slack| e6_cell(n, slack, seed, Hardening::None)).collect()
}

/// The slack levels the E6 ablation walks through.
pub const E6_SLACKS: [u64; 5] = [0, 500, 2_000, 10_000, 50_000];

/// E6 cell: one slack level at one size under the same saturating load
/// (the seed fixes the workload, so slack is the only variable across the
/// ablation's cells).
#[must_use]
pub fn e6_cell(n: usize, slack: u64, seed: u64, hardening: Hardening) -> E6Row {
    let count = 4 * n;
    let gap = SimDuration::from_ticks(25); // saturating load
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, count, gap);
    let mut world =
        World::new(sim_config(seed), OpenCubeNode::build_all(ft_cfg(n, slack, hardening)));
    world.schedule_workload(&schedule);
    assert!(world.run_to_quiescence(), "E6 run wedged at slack {slack}");
    let stats = oc_algo::aggregate_stats(&world);
    E6Row {
        n,
        slack,
        spurious_searches: u64::from(stats.searches_started),
        wasted_probes: u64::from(stats.nodes_tested),
        msgs_per_cs: world.metrics().messages_per_cs(),
        all_served: world.metrics().cs_entries == world.requests_injected(),
    }
}

// --------------------------------------------------------------------
// E7 — engine throughput at large N (events/sec, heap vs bucketed queue)
// --------------------------------------------------------------------

/// One row of the E7 throughput table.
#[derive(Debug, Clone, Copy)]
pub struct E7Row {
    /// System size.
    pub n: usize,
    /// Which event-queue backend ran the simulation.
    pub backend: QueueBackend,
    /// The cell's derived RNG seed (recorded so a row can be replayed).
    pub seed: u64,
    /// Requests injected (all served — asserted).
    pub requests: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Resident per-node state at end of run, in bytes (protocol node +
    /// substrate containers; see `World::mem_bytes_per_node`).
    pub mem_bytes_per_node: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Events per wall-clock second — the engine's headline number.
    pub events_per_sec: f64,
}

/// E7: a large-N open-cube run under concurrent uniform load, timed in
/// wall-clock terms. This is the scale experiment behind the engine
/// refactor: the paper's O(log² n) story only matters when the simulator
/// itself can push big systems, so the engine is measured at n=4096 and
/// n=65536 on both queue backends. Virtual-time results are identical
/// across backends (the determinism tests pin that); only the wall clock
/// may differ.
#[must_use]
pub fn e7_throughput(
    n: usize,
    requests: usize,
    seed: u64,
    backend: QueueBackend,
    hardening: Hardening,
) -> E7Row {
    let mut config = sim_config(seed);
    config.queue = backend;
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = ArrivalSchedule::uniform(&mut rng, n, requests, SimDuration::from_ticks(25));
    let mut world = World::new(config, OpenCubeNode::build_all(plain_cfg(n, hardening)));
    world.schedule_workload(&schedule);
    let start = std::time::Instant::now();
    assert!(world.run_to_quiescence(), "E7 run wedged");
    let wall = start.elapsed();
    assert!(world.oracle_report().is_clean());
    assert_eq!(world.metrics().cs_entries, world.requests_injected());
    let events = world.metrics().events_processed;
    let wall_secs = wall.as_secs_f64();
    E7Row {
        n,
        backend,
        seed,
        requests: world.requests_injected(),
        events,
        messages: world.metrics().total_sent(),
        mem_bytes_per_node: world.mem_bytes_per_node(),
        wall_secs,
        events_per_sec: if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 },
    }
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
) -> SweepOutcome<E1Row> {
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
) -> SweepOutcome<E2Row> {
    sweep::sweep(sizes, threads, |_, &n| {
        e2_average(n, derive_seed(master, stream_id(S_E2, n as u64, 0)), hardening)
    })
}

/// One E3 sweep cell: a `(n, failures)` plan entry at one seed index.
#[derive(Debug, Clone, Copy)]
pub struct E3Cell {
    /// System size.
    pub n: usize,
    /// Failures injected.
    pub failures: usize,
    /// Which independent repetition this is (0-based).
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

/// E3 as a sweep. This replaces both the old serial table *and* the
/// separate multi-seed summary pass — summaries now come from the same
/// rows via [`e3_summaries`], so the failure battery runs once.
#[must_use]
pub fn e3_sweep(cells: &[E3Cell], master: u64, threads: usize) -> SweepOutcome<E3Row> {
    sweep::sweep(cells, threads, |_, cell| {
        let seed = derive_seed(master, stream_id(S_E3, cell.n as u64, cell.seed_index as u64));
        e3_failures(cell.n, cell.failures, seed, cell.hardening)
    })
}

/// The seed of E3's long-horizon cells at size `n`: repetition 0 of the
/// table's own `n` entry, so the shortest horizon repeats a table row.
#[must_use]
pub fn e3_horizon_seed(master: u64, n: usize) -> u64 {
    derive_seed(master, stream_id(S_E3, n as u64, 0))
}

/// Multi-seed summary of one E3 plan entry.
#[derive(Debug, Clone, Copy)]
pub struct E3Summary {
    /// System size.
    pub n: usize,
    /// Failures injected per repetition.
    pub failures: u64,
    /// Overhead-per-failure statistics across the repetitions.
    pub overhead: oc_analysis::Summary,
}

/// Groups sweep rows (cells in [`e3_cells`] order) back into per-plan-entry
/// summaries. Pure aggregation over the ordered rows, so the summaries are
/// identical at any thread count.
#[must_use]
pub fn e3_summaries(cells: &[E3Cell], rows: &[E3Row]) -> Vec<E3Summary> {
    assert_eq!(cells.len(), rows.len());
    let mut summaries = Vec::new();
    let mut start = 0usize;
    while start < cells.len() {
        let mut end = start + 1;
        while end < cells.len()
            && (cells[end].n, cells[end].failures) == (cells[start].n, cells[start].failures)
        {
            end += 1;
        }
        let samples: Vec<f64> = rows[start..end].iter().map(|r| r.overhead_per_failure).collect();
        summaries.push(E3Summary {
            n: cells[start].n,
            failures: cells[start].failures as u64,
            overhead: oc_analysis::Summary::of(&samples),
        });
        start = end;
    }
    summaries
}

/// E4 (per-power table) as a sweep: one cell per `(size, victim power)`.
#[must_use]
pub fn e4_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<E4Row> {
    let cells: Vec<(usize, u32)> =
        sizes.iter().flat_map(|&n| (1..=oc_topology::dimension(n)).map(move |q| (n, q))).collect();
    sweep::sweep(&cells, threads, |_, &(n, q)| {
        e4_cell(n, q, derive_seed(master, stream_id(S_E4, n as u64, u64::from(q))), hardening)
    })
}

/// E4b (average over all victims) as a sweep: one cell per victim, folded
/// back into one [`E4Average`] per size.
#[must_use]
pub fn e4_average_sweep(
    sizes: &[usize],
    master: u64,
    threads: usize,
    hardening: Hardening,
) -> SweepOutcome<E4Average> {
    let cells: Vec<(usize, u32)> =
        sizes.iter().flat_map(|&n| (1..=n as u32).map(move |raw| (n, raw))).collect();
    let outcome = sweep::sweep(&cells, threads, |_, &(n, raw)| {
        let seed = derive_seed(master, stream_id(S_E4B, n as u64, 0));
        (n, e4_victim_probes(n, raw, seed, hardening))
    });
    let mut averages = Vec::new();
    for &n in sizes {
        let samples: Vec<(f64, f64)> = outcome
            .results
            .iter()
            .filter(|(cell_n, _)| *cell_n == n)
            .filter_map(|(_, sample)| *sample)
            .collect();
        averages.push(e4_average_of(n, &samples));
    }
    SweepOutcome {
        results: averages,
        wall_secs: outcome.wall_secs,
        busy_secs: outcome.busy_secs,
        threads: outcome.threads,
    }
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
) -> SweepOutcome<E5Row> {
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
) -> SweepOutcome<E6Row> {
    let cells: Vec<(usize, u64)> =
        sizes.iter().flat_map(|&n| E6_SLACKS.into_iter().map(move |s| (n, s))).collect();
    sweep::sweep(&cells, threads, |_, &(n, slack)| {
        e6_cell(n, slack, derive_seed(master, stream_id(S_E6, n as u64, 0)), hardening)
    })
}

/// One E7 sweep cell: a full timed run of one size on one backend with
/// one derived seed.
#[derive(Debug, Clone, Copy)]
pub struct E7Cell {
    /// System size.
    pub n: usize,
    /// Requests to inject.
    pub requests: usize,
    /// Event-queue backend under test.
    pub backend: QueueBackend,
    /// Which independent repetition of this size (0-based).
    pub seed_index: usize,
    /// Derived RNG seed for this cell.
    pub seed: u64,
    /// Hardening the cell's nodes are built under.
    pub hardening: Hardening,
}

/// Expands an E7 scaling plan — `(n, requests, independent seeds)` — into
/// cells over both queue backends. A heap/bucketed pair shares its seed,
/// so the pair doubles as a cross-backend determinism check on real
/// workloads.
#[must_use]
pub fn e7_cells(plan: &[(usize, usize, usize)], master: u64, hardening: Hardening) -> Vec<E7Cell> {
    let mut cells = Vec::new();
    for &(n, requests, seeds) in plan {
        for seed_index in 0..seeds {
            let seed = derive_seed(master, stream_id(S_E7, n as u64, seed_index as u64));
            for backend in [QueueBackend::Heap, QueueBackend::Bucketed] {
                cells.push(E7Cell { n, requests, backend, seed_index, seed, hardening });
            }
        }
    }
    cells
}

/// E7 as a sweep: the multi-size, multi-seed scaling table. Virtual-time
/// columns (events, messages) are deterministic per cell; the wall-clock
/// columns measure whatever contention the chosen thread count creates,
/// so single-threaded runs remain the comparable engine headline.
#[must_use]
pub fn e7_sweep(cells: &[E7Cell], threads: usize) -> SweepOutcome<E7Row> {
    sweep::sweep(cells, threads, |_, cell| {
        e7_throughput(cell.n, cell.requests, cell.seed, cell.backend, cell.hardening)
    })
}

// --------------------------------------------------------------------
// BENCH_E*.json — machine-readable artifacts
// --------------------------------------------------------------------

/// Assembles one `BENCH_E*.json` document: the common envelope (schema
/// version, master seed, sweep timing, measured parallel speedup) around
/// the experiment's serialized rows plus any extra sections.
#[must_use]
pub fn bench_artifact<T>(
    experiment: &'static str,
    master_seed: u64,
    quick: bool,
    outcome: &SweepOutcome<T>,
    rows: Vec<Value>,
    extra: Vec<(&'static str, Value)>,
) -> Value {
    let mut fields = vec![
        ("schema_version", Value::UInt(1)),
        ("experiment", Value::str(experiment)),
        ("master_seed", Value::UInt(master_seed)),
        ("quick", Value::Bool(quick)),
        ("threads", Value::UInt(outcome.threads as u64)),
        ("cells", Value::UInt(outcome.results.len() as u64)),
        ("wall_secs", Value::Num(outcome.wall_secs)),
        ("busy_secs", Value::Num(outcome.busy_secs)),
        ("parallel_speedup", Value::Num(outcome.speedup())),
        ("host", host_info()),
        ("rows", Value::Arr(rows)),
    ];
    fields.extend(extra);
    Value::Obj(fields)
}

/// Where an artifact's wall-clock columns were measured: core count,
/// architecture, compiler and commit (`+dirty` when tracked files differ
/// from it — artifacts are regenerated before the commit that carries
/// them). `rustc` and `git` are asked at run time; a host without them
/// records `"unknown"`.
pub(crate) fn host_info() -> Value {
    let ask = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let unknown = || "unknown".to_owned();
    let git_rev = ask("git", &["rev-parse", "HEAD"]).map_or_else(unknown, |rev| {
        let dirty = ask("git", &["status", "--porcelain", "--untracked-files=no"])
            .is_some_and(|changes| !changes.is_empty());
        if dirty {
            rev + "+dirty"
        } else {
            rev
        }
    });
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Value::Obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("rustc", Value::Str(ask("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("git_rev", Value::Str(git_rev)),
    ])
}

impl E1Row {
    /// Serializes the row for `BENCH_E1.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("bound", Value::UInt(self.bound)),
            ("measured_worst", Value::UInt(self.measured_worst)),
            ("measured_worst_with_return", Value::UInt(self.measured_worst_with_return)),
            ("requests", Value::UInt(self.requests)),
        ])
    }
}

impl E2Row {
    /// Serializes the row for `BENCH_E2.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("measured_total", Value::UInt(self.measured_total)),
            ("alpha", Value::UInt(self.alpha)),
            ("measured_avg", Value::Num(self.measured_avg)),
            ("closed_form", Value::Num(self.closed_form)),
            ("evolving_avg", Value::Num(self.evolving_avg)),
        ])
    }
}

impl E3Row {
    /// Serializes the row for `BENCH_E3.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("failures", Value::UInt(self.failures)),
            ("overhead_per_failure", Value::Num(self.overhead_per_failure)),
            ("extra_per_failure", Value::Num(self.extra_per_failure)),
            ("searches", Value::UInt(self.searches)),
            ("regenerations", Value::UInt(self.regenerations)),
            ("served", Value::UInt(self.served)),
            ("injected", Value::UInt(self.injected)),
        ])
    }
}

impl E3Summary {
    /// Serializes the summary for `BENCH_E3.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("failures", Value::UInt(self.failures)),
            ("seeds", Value::UInt(self.overhead.count as u64)),
            ("mean", Value::Num(self.overhead.mean)),
            ("ci95", Value::Num(self.overhead.ci95)),
            ("min", Value::Num(self.overhead.min)),
            ("max", Value::Num(self.overhead.max)),
        ])
    }
}

impl E4Row {
    /// Serializes the row for `BENCH_E4.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("victim_power", Value::UInt(u64::from(self.victim_power))),
            ("start_phase", Value::UInt(u64::from(self.start_phase))),
            ("predicted_probes", Value::UInt(self.predicted_probes)),
            ("measured_probes", Value::UInt(self.measured_probes)),
            ("regenerated", Value::UInt(self.regenerated)),
        ])
    }
}

impl E4Average {
    /// Serializes the average row for `BENCH_E4.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("searches", Value::UInt(self.searches as u64)),
            ("measured_mean", Value::Num(self.measured_mean)),
            ("predicted_mean", Value::Num(self.predicted_mean)),
            ("two_log_n", Value::Num(self.two_log_n)),
        ])
    }
}

impl E5Row {
    /// Serializes the row for `BENCH_E5.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("algo", Value::str(self.algo.name())),
            ("seq_avg", Value::Num(self.seq_avg)),
            ("seq_worst", Value::UInt(self.seq_worst)),
            ("conc_avg", Value::Num(self.conc_avg)),
            ("hotspot_avg", Value::Num(self.hotspot_avg)),
            ("burst_avg", Value::Num(self.burst_avg)),
            ("post_burst_worst", Value::UInt(self.post_burst_worst)),
        ])
    }
}

impl E6Row {
    /// Serializes the row for `BENCH_E6.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("slack", Value::UInt(self.slack)),
            ("spurious_searches", Value::UInt(self.spurious_searches)),
            ("wasted_probes", Value::UInt(self.wasted_probes)),
            ("msgs_per_cs", Value::Num(self.msgs_per_cs)),
            ("all_served", Value::Bool(self.all_served)),
        ])
    }
}

impl E7Row {
    /// Serializes the row for `BENCH_E7.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n", Value::UInt(self.n as u64)),
            ("backend", Value::str(format!("{:?}", self.backend).to_lowercase())),
            ("seed", Value::UInt(self.seed)),
            ("requests", Value::UInt(self.requests)),
            ("events", Value::UInt(self.events)),
            ("messages", Value::UInt(self.messages)),
            (
                "msgs_per_request",
                Value::Num(if self.requests == 0 {
                    0.0
                } else {
                    self.messages as f64 / self.requests as f64
                }),
            ),
            ("mem_bytes_per_node", Value::UInt(self.mem_bytes_per_node)),
            ("wall_secs", Value::Num(self.wall_secs)),
            ("events_per_sec", Value::Num(self.events_per_sec)),
        ])
    }
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

    #[test]
    fn e1_respects_bound_small() {
        let row = e1_worst_case(8, 2, 1, Hardening::None);
        assert!(row.measured_worst <= row.bound);
        assert_eq!(row.bound, 4);
    }

    #[test]
    fn e2_matches_alpha_small() {
        let row = e2_average(8, 1, Hardening::None);
        assert_eq!(row.measured_total, row.alpha);
    }

    #[test]
    fn e3_summary_aggregates_seeds() {
        let summary = e3_failures_summary(16, 5, &[1, 2, 3]);
        assert_eq!(summary.count, 3);
        assert!(summary.min <= summary.mean && summary.mean <= summary.max);
    }

    #[test]
    fn e4_probes_match_prediction_small() {
        for row in e4_search_cost(16, 1) {
            assert_eq!(
                row.measured_probes, row.predicted_probes,
                "victim power {}",
                row.victim_power
            );
        }
    }

    #[test]
    fn e6_slack_eliminates_spurious_searches() {
        let rows = e6_slack_ablation(8, 1);
        // Liveness at every slack level.
        assert!(rows.iter().all(|r| r.all_served));
        // The largest slack produces zero false positives.
        assert_eq!(rows.last().unwrap().spurious_searches, 0);
        // Less slack can only mean more (or equal) spurious searching.
        for pair in rows.windows(2) {
            assert!(pair[0].spurious_searches >= pair[1].spurious_searches);
        }
    }

    #[test]
    fn e4_average_is_logarithmic() {
        let row = e4_average(16, 1);
        assert_eq!(row.measured_mean, row.predicted_mean);
        // The analytic mean sits near 2·log2 N, far below N-1.
        assert!(row.measured_mean < 16.0);
    }

    #[test]
    fn e5_runs_all_algorithms_small() {
        let rows = e5_comparison(8, 1);
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.seq_avg >= 0.0);
            assert!(row.conc_avg > 0.0);
        }
    }

    #[test]
    fn e7_backends_agree_on_virtual_results() {
        let heap = e7_throughput(64, 128, 1, QueueBackend::Heap, Hardening::None);
        let bucketed = e7_throughput(64, 128, 1, QueueBackend::Bucketed, Hardening::None);
        assert_eq!(heap.requests, 128);
        assert_eq!(heap.events, bucketed.events);
        assert_eq!(heap.messages, bucketed.messages);
        assert!(bucketed.events_per_sec > 0.0);
        assert!(bucketed.mem_bytes_per_node > 0);
    }

    #[test]
    fn figure_renderer_shows_structure() {
        let fig = render_figure_tree(8);
        assert!(fig.contains("1 (power 3)"));
        assert!(fig.contains("5 (power 2)"));
    }

    /// Renders rows to their JSON artifact form — the byte-exact
    /// representation the acceptance criterion talks about.
    fn fingerprints<T>(rows: &[T], to_json: impl Fn(&T) -> Value) -> Vec<String> {
        rows.iter().map(|r| to_json(r).render()).collect()
    }

    #[test]
    fn e3_sweep_is_byte_identical_at_any_thread_count() {
        let cells = e3_cells(&[(16, 3), (8, 2)], 2, Hardening::None);
        assert_eq!(cells.len(), 4);
        let serial = e3_sweep(&cells, 42, 1);
        for threads in [2, 4, 7] {
            let parallel = e3_sweep(&cells, 42, threads);
            assert_eq!(
                fingerprints(&serial.results, E3Row::to_json),
                fingerprints(&parallel.results, E3Row::to_json),
                "threads={threads}"
            );
            assert_eq!(
                fingerprints(&e3_summaries(&cells, &serial.results), E3Summary::to_json),
                fingerprints(&e3_summaries(&cells, &parallel.results), E3Summary::to_json),
            );
        }
        let summaries = e3_summaries(&cells, &serial.results);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].overhead.count, 2);
    }

    #[test]
    fn e4_sweeps_match_their_serial_counterparts() {
        let per_power = e4_sweep(&[16], 42, 2, Hardening::None);
        let serial = e4_search_cost(16, derive_seed(42, stream_id(S_E4, 16, 1)));
        // Same probe counts per power (seeds differ per power in the sweep,
        // but probe counts are workload-independent for E4's scenario).
        assert_eq!(per_power.results.len(), serial.len());
        for (a, b) in per_power.results.iter().zip(&serial) {
            assert_eq!(a.measured_probes, b.measured_probes);
            assert_eq!(a.predicted_probes, b.predicted_probes);
        }

        let averaged = e4_average_sweep(&[16], 42, 3, Hardening::None);
        let expected = e4_average(16, derive_seed(42, stream_id(S_E4B, 16, 0)));
        assert_eq!(averaged.results.len(), 1);
        assert_eq!(averaged.results[0].searches, expected.searches);
        assert_eq!(averaged.results[0].measured_mean, expected.measured_mean);
        assert_eq!(averaged.results[0].predicted_mean, expected.predicted_mean);
    }

    #[test]
    fn e7_cells_expand_the_scaling_plan() {
        let cells = e7_cells(&[(64, 128, 2), (128, 64, 1)], 42, Hardening::None);
        // Per entry: seeds × 2 backends.
        assert_eq!(cells.len(), 4 + 2);
        // Heap/bucketed pairs share the seed, so their virtual results
        // must agree.
        assert_eq!(cells[0].seed, cells[1].seed);
        assert_ne!(cells[0].seed, cells[2].seed);
        assert_ne!(cells[0].seed, cells[4].seed);
    }

    #[test]
    fn bench_artifacts_render_wellformed_json() {
        let cells = e7_cells(&[(64, 128, 1)], 42, Hardening::None);
        let outcome = e7_sweep(&cells, 2);
        let rows = outcome.results.iter().map(E7Row::to_json).collect();
        let doc = bench_artifact("e7", 42, true, &outcome, rows, Vec::new());
        let text = doc.render();
        json::validate(&text).expect("artifact must be valid JSON");
        assert!(text.contains("\"experiment\":\"e7\""));
        assert!(text.contains("\"host\":{\"nproc\":"));
        assert!(text.contains("\"git_rev\":\""));
        assert!(text.contains("\"events_per_sec\""));
        assert!(text.contains("\"msgs_per_request\""));
        assert!(text.contains("\"mem_bytes_per_node\""));
        assert!(text.contains("\"parallel_speedup\""));

        let e1 = e1_sweep(&[8], 1, 42, 1, Hardening::None);
        let doc = bench_artifact(
            "e1",
            42,
            true,
            &e1,
            e1.results.iter().map(E1Row::to_json).collect(),
            vec![("note", Value::str("extra sections ride along"))],
        );
        json::validate(&doc.render()).unwrap();
    }
}
