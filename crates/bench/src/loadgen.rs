//! The runtime load harness (experiment E9): open- and closed-loop
//! workloads driven against the sharded `oc_runtime` lock service, with
//! latency histograms, throughput, optional crash churn, and oracle
//! verdicts.
//!
//! Every cell is one self-contained service run:
//!
//! * **Open loop** — arrivals at a fixed rate, generated by the *same*
//!   `oc_sim::workload` generators the simulator uses (uniform node
//!   choice, fixed gap in ticks) and scheduled through
//!   [`Runtime::schedule_workload`]. Latency is measured from the
//!   scheduled arrival instant, so it includes queueing behind the lock.
//! * **Closed loop** — `clients` threads each looping acquire → wait for
//!   a terminal state → next request; classic saturation load. Clients
//!   block on their watchers' inboxes — no sleep-polling quantum
//!   between a grant and the next request.
//! * **Tenants** — the batched multi-tenant hot path: `namespaces`
//!   independent lock instances share one worker pool
//!   ([`Runtime::start_multi`]), and each client keeps one auto-release
//!   acquisition outstanding per owned namespace. Two cells: always at
//!   node 1 (the token's home), where served requests are pure dispatch
//!   work — no messages, no leases, no polling — so the cell measures
//!   the runtime's aggregate acquisitions/s *ceiling*; and *spread* over
//!   uniformly random nodes, where nearly every grant moves the token,
//!   so the cell measures the saturated runtime carrying the protocol.
//! * **Crash churn** — `FailurePlan::random_singles` (the paper's
//!   repeated-single-failure regime) mapped onto the wall clock, so the
//!   service heals while under load.
//!
//! Each run ends with `await_settled` + `shutdown`, and the cell's row
//! carries the unmodified oracle verdicts — the loadgen is a conformance
//! instrument as much as a performance one. The table and
//! `BENCH_RT.json` go through [`crate::report`] like every other.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use oc_sim::{
    ArrivalSchedule, DelayModel, FailurePlan, FaultPhase, FaultPhaseKind, FaultScript, SimDuration,
    SimTime,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::json::Value;
use crate::report::{col, Col};

/// Wall-clock length of one protocol tick in the load harness.
pub const TICK: Duration = Duration::from_micros(20);
/// Ticks per second at [`TICK`].
pub const TICKS_PER_SEC: u64 = (1_000_000_000 / TICK.as_nanos()) as u64;
/// Protocol δ in ticks (≥ [`MAX_NET_DELAY`]'s bound of 10).
pub const DELTA_TICKS: u64 = 16;
/// The runtime's per-message delay: `[0, 10]` ticks, 0–200µs in steps of [`TICK`].
pub const MAX_NET_DELAY: DelayModel =
    DelayModel::Uniform { min: SimDuration::ZERO, max: SimDuration::from_ticks(10) };
/// Critical-section lease, in ticks (500µs).
pub const CS_TICKS: u64 = 25;
/// Suspicion slack in ticks (1s of wall time): queueing behind a loaded
/// lock must not read as a crash.
pub const SLACK_TICKS: u64 = 50_000;

/// The E9 table.
pub const LOAD_COLS: &[Col] = &[
    col("mode", "mode", 14, 0),
    col("n", "n", 6, 0),
    col("wrk", "workers", 3, 0),
    col("ns", "namespaces", 3, 0),
    col("churn", "churn_crashes", 6, 0),
    col("cuts", "partition_cycles", 5, 0),
    col("injected", "injected", 9, 0),
    col("served", "served", 9, 0),
    col("aband", "abandoned", 5, 0),
    col("crossed", "messages_crossed", 9, 0),
    col("events/s", "events_per_sec", 10, 0),
    col("cs/s", "cs_per_sec", 10, 1),
    col("acq/s", "acq_per_sec", 10, 1),
    col("p50 µs", "p50_us", 9, 1),
    col("p99 µs", "p99_us", 9, 1),
    col("p999 µs", "p999_us", 9, 1),
    col("max µs", "max_us", 9, 1),
    col("clean", "clean", 6, 0),
];

/// Workload shape of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Arrivals at a fixed rate on uniformly random nodes.
    Open {
        /// Target request rate; offered as [`open_loop_gap`] realises it.
        rate_per_sec: u64,
    },
    /// `clients` closed-loop clients, each waiting out its request
    /// before issuing the next (on a fresh random node each time).
    Closed {
        /// Concurrent clients.
        clients: usize,
    },
    /// Multi-tenant saturation: `namespaces` independent `n`-node lock
    /// instances behind one worker pool, `clients` driver threads each
    /// keeping one auto-release acquisition in flight per owned
    /// namespace (client `c` owns namespaces `c, c + clients, …`).
    Tenants {
        /// Driver threads.
        clients: usize,
        /// Independent lock namespaces.
        namespaces: usize,
        /// Where requests land: `false` — always node 1, which holds the
        /// token throughout (zero protocol messages); `true` — a
        /// uniformly random node per request, so the token moves.
        spread: bool,
    },
}

/// Open-loop arrivals are one per whole number of ticks, so only a rate
/// that divides [`TICKS_PER_SEC`] is offered exactly: returns the gap in
/// ticks for a target rate and the rate that gap realises (300/s → 166
/// ticks → 301.2/s; anything above a tick's worth → 1 tick → 50 000/s).
#[must_use]
pub fn open_loop_gap(rate_per_sec: u64) -> (u64, f64) {
    let gap = (TICKS_PER_SEC / rate_per_sec).max(1);
    (gap, TICKS_PER_SEC as f64 / gap as f64)
}

impl LoadMode {
    /// Table label; an open loop is labelled with the rate it realises.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            LoadMode::Open { rate_per_sec } => {
                format!("open@{:.0}/s", open_loop_gap(*rate_per_sec).1)
            }
            LoadMode::Closed { clients } => format!("closed x{clients}"),
            LoadMode::Tenants { clients, namespaces, spread: false } => {
                format!("tenants x{clients}ns{namespaces}")
            }
            LoadMode::Tenants { clients, namespaces, spread: true } => {
                format!("spread x{clients}ns{namespaces}")
            }
        }
    }
}

/// One loadgen run to execute.
#[derive(Debug, Clone)]
pub struct LoadCell {
    /// System size.
    pub n: usize,
    /// Worker threads for the node shards.
    pub workers: usize,
    /// Measurement window (arrivals span this; settle may run longer).
    pub duration: Duration,
    /// Workload shape.
    pub mode: LoadMode,
    /// Crash/recovery pairs injected across the window (0 = none);
    /// node 1 is the spare that never crashes.
    pub churn_crashes: usize,
    /// Partition/heal cycles injected across the window (0 = none): the
    /// cube is cut into two halves (`p = dimension - 1`), each cut
    /// healing well inside the suspicion slack so the service repairs
    /// what the cut destroyed and keeps serving.
    pub partition_cycles: usize,
    /// RNG seed (workload, churn victims, message delays).
    pub seed: u64,
}

/// One finished cell: what ran, whether it settled before shutdown, and
/// the runtime's own report — the row of the E9 table / `BENCH_RT.json`
/// is [`LoadRow::to_json`] of these.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// The cell that ran.
    pub cell: LoadCell,
    /// `true` if the run settled before shutdown.
    pub settled: bool,
    /// Counters, latency summary and the unmodified oracle verdicts.
    pub report: RuntimeReport,
}

impl LoadRow {
    /// `true` if the run settled with zero oracle violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.settled && self.report.is_clean()
    }

    /// The row (latencies in µs). `served` is requests through the
    /// critical section, `acq_per_sec` their rate aggregated across
    /// namespaces — the tenants cells' headline number; `events` counts
    /// worker-processed commands.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let (cell, report) = (&self.cell, &self.report);
        let wall_secs = report.wall.as_secs_f64();
        let per_sec = |count: u64| if wall_secs > 0.0 { count as f64 / wall_secs } else { 0.0 };
        let us = |nanos: u64| Value::Num(nanos as f64 / 1_000.0);
        Value::Obj(vec![
            ("mode", Value::Str(cell.mode.label())),
            ("n", Value::UInt(cell.n as u64)),
            ("workers", Value::UInt(cell.workers as u64)),
            ("namespaces", Value::UInt(report.namespaces as u64)),
            ("churn_crashes", Value::UInt(cell.churn_crashes as u64)),
            ("partition_cycles", Value::UInt(cell.partition_cycles as u64)),
            ("lost_to_partition", Value::UInt(report.lost_to_partition)),
            ("injected", Value::UInt(report.requests_injected)),
            ("served", Value::UInt(report.requests_completed)),
            ("abandoned", Value::UInt(report.requests_abandoned)),
            ("crashes", Value::UInt(report.crashes)),
            ("recoveries", Value::UInt(report.recoveries)),
            ("messages", Value::UInt(report.messages_sent)),
            ("messages_crossed", Value::UInt(report.messages_crossed)),
            ("events", Value::UInt(report.events_processed)),
            ("wall_secs", Value::Num(wall_secs)),
            ("events_per_sec", Value::Num(per_sec(report.events_processed))),
            ("cs_per_sec", Value::Num(per_sec(report.cs_entries))),
            ("acq_per_sec", Value::Num(per_sec(report.requests_completed))),
            ("p50_us", us(report.latency.p50_nanos)),
            ("p99_us", us(report.latency.p99_nanos)),
            ("p999_us", us(report.latency.p999_nanos)),
            ("max_us", us(report.latency.max_nanos)),
            ("mean_us", Value::Num(report.latency.mean_nanos / 1_000.0)),
            ("latency_samples", Value::UInt(report.latency.count)),
            ("safety_violations", Value::UInt(report.safety.violations().len() as u64)),
            ("liveness_violations", Value::UInt(report.liveness.violations().len() as u64)),
            ("settled", Value::Bool(self.settled)),
            ("clean", Value::Bool(self.clean())),
        ])
    }
}

/// Builds the crash-churn plan for a cell: `count` repeated single
/// failures spread over the middle of the window, every victim
/// recovering, node 1 spared.
fn churn_plan(rng: &mut StdRng, n: usize, count: usize, duration_ticks: u64) -> FailurePlan {
    let start = duration_ticks / 5;
    let span = duration_ticks - start;
    let period = (span / count as u64).max(8);
    let downtime = (period / 4).max(1);
    FailurePlan::random_singles(
        rng,
        n,
        NodeId::new(1),
        count,
        SimTime::from_ticks(start),
        SimDuration::from_ticks(period),
        SimDuration::from_ticks(downtime),
    )
}

/// Builds the partition-churn script for a cell: `cycles` half-cube
/// cuts spread across the middle of the window, each healing after a
/// fifth of its period — capped well under the suspicion slack, so no
/// node can falsely conclude a death while a cut stands. What a cut
/// *drops* is repaired by the fault-tolerance machinery after the heal.
/// No cycles, no script.
fn partition_script(n: usize, cycles: usize, duration_ticks: u64) -> FaultScript {
    let p = oc_topology::dimension(n).saturating_sub(1);
    let start = duration_ticks / 5;
    let span = duration_ticks - start;
    let period = (span / cycles.max(1) as u64).max(8);
    let cut = (period / 5).clamp(1, SLACK_TICKS / 4);
    let mut script = FaultScript::none();
    for k in 0..cycles as u64 {
        let from = start + k * period;
        script.push(FaultPhase {
            from: SimTime::from_ticks(from),
            until: SimTime::from_ticks(from + cut),
            kind: FaultPhaseKind::GroupPartition { p },
        });
    }
    script
}

/// The protocol configuration every cell's nodes are built under.
fn protocol(n: usize) -> Config {
    Config::new(n, SimDuration::from_ticks(DELTA_TICKS), SimDuration::from_ticks(CS_TICKS))
        .with_contention_slack(SimDuration::from_ticks(SLACK_TICKS))
}

/// The open-loop arrivals of a cell: one per [`open_loop_gap`] across the
/// window.
fn open_loop(
    rng: &mut StdRng,
    n: usize,
    rate_per_sec: u64,
    duration_ticks: u64,
) -> ArrivalSchedule {
    assert!(rate_per_sec > 0, "open loop needs a positive rate");
    let gap = open_loop_gap(rate_per_sec).0;
    let count = (duration_ticks / gap) as usize;
    ArrivalSchedule::uniform(rng, n, count, SimDuration::from_ticks(gap))
}

/// Executes one cell against a fresh runtime and reports its row.
///
/// An open loop and a closed loop run one lock instance (optionally
/// under crash or partition churn). A [`LoadMode::Tenants`] cell runs
/// `namespaces` independent cubes behind one shared worker pool, driven
/// flat out: each client owns a strided slice of the namespaces and
/// keeps exactly one auto-release acquisition outstanding per owned
/// namespace — a pipelined closed loop in which the next request for a
/// lock is issued only when the previous one completes, but the worker
/// pool always has (up to) `namespaces` independent requests to batch.
/// Unless `spread`, every request targets node 1, the token's home node,
/// so a completion costs zero protocol messages: the cell isolates the
/// runtime's dispatch ceiling. With `spread`, each request goes to a
/// uniformly random node (per-client seeded choice) and the token has to
/// travel.
///
/// # Panics
///
/// Panics on nonsensical cells (zero duration, rate or clients; a
/// tenants cell with churn — fault scripts are single-namespace).
#[must_use]
pub fn run_cell(cell: &LoadCell) -> LoadRow {
    assert!(cell.duration > Duration::ZERO, "cell needs a duration");
    let duration_ticks = (cell.duration.as_secs_f64() * TICKS_PER_SEC as f64) as u64;
    let config = RuntimeConfig {
        workers: cell.workers,
        tick: TICK,
        max_network_delay: MAX_NET_DELAY,
        cs_duration: TICK * CS_TICKS as u32,
        seed: cell.seed,
    };
    let cube = || OpenCubeNode::build_all(protocol(cell.n));
    let rt = match cell.mode {
        LoadMode::Tenants { namespaces, .. } => {
            assert!(namespaces > 0, "tenants mode needs at least one namespace");
            assert!(
                cell.churn_crashes == 0 && cell.partition_cycles == 0,
                "tenant cells run fault-free: fault scripts are single-namespace"
            );
            Runtime::start_multi(config, (0..namespaces).map(|_| cube()).collect())
        }
        _ => {
            let script = partition_script(cell.n, cell.partition_cycles, duration_ticks);
            Runtime::start_scripted(config, script, cube())
        }
    };

    let mut rng = StdRng::seed_from_u64(cell.seed ^ 0xE9E9_E9E9);
    if cell.churn_crashes > 0 {
        rt.schedule_failures(&churn_plan(&mut rng, cell.n, cell.churn_crashes, duration_ticks));
    }

    // Every client thread draws its nodes from its own seeded stream.
    let client_rng =
        |client: usize| StdRng::seed_from_u64(cell.seed.wrapping_add(client as u64 + 1));
    let deadline = Instant::now() + cell.duration;
    // Well past any plausible repair time: a request stuck longer is a
    // wedge the oracles will report.
    let grace = Duration::from_secs(30);
    match cell.mode {
        LoadMode::Open { rate_per_sec } => {
            let _ =
                rt.schedule_workload(&open_loop(&mut rng, cell.n, rate_per_sec, duration_ticks));
        }
        LoadMode::Closed { clients } => {
            assert!(clients > 0, "closed loop needs at least one client");
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let (rt, mut rng) = (&rt, client_rng(client));
                    scope.spawn(move || {
                        let watcher = rt.watcher();
                        while Instant::now() < deadline {
                            let node = NodeId::new(rng.random_range(1..=rt.len() as u32));
                            let _ = rt.acquire_watched(0, node, &watcher, false);
                            // Every terminal transition notifies — served,
                            // abandoned by a crash, or abandoned because
                            // the node was down at injection.
                            if watcher.recv_timeout(grace).is_none() {
                                return;
                            }
                        }
                    });
                }
            });
        }
        LoadMode::Tenants { clients, namespaces, spread } => {
            assert!(clients > 0, "tenants mode needs at least one client");
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let (rt, mut rng) = (&rt, client_rng(client));
                    let mut pick = move || {
                        NodeId::new(if spread { rng.random_range(1..=cell.n as u32) } else { 1 })
                    };
                    scope.spawn(move || {
                        let watcher = rt.watcher();
                        let mut outstanding = 0usize;
                        for ns in (client..namespaces).step_by(clients) {
                            let _ = rt.acquire_watched(ns, pick(), &watcher, true);
                            outstanding += 1;
                        }
                        while outstanding > 0 {
                            let Some((id, _status)) = watcher.recv_timeout(grace) else { return };
                            outstanding -= 1;
                            if Instant::now() < deadline {
                                let ns =
                                    rt.namespace_of(id).expect("completion maps to a namespace");
                                let _ = rt.acquire_watched(ns, pick(), &watcher, true);
                                outstanding += 1;
                            }
                        }
                    });
                }
            });
        }
    }

    // An open loop's backlog may outlast the window; the client loops
    // drain themselves at the deadline, so for them the margin is pure
    // safety.
    let settled = rt.await_settled(cell.duration + Duration::from_secs(60));
    LoadRow { cell: cell.clone(), settled, report: rt.shutdown() }
}

/// The spread tenants cell as measured at the parent of the change that
/// places a runtime's nodes by namespace or subcube (node `idx` ran on
/// worker `idx % W` there; a 2-CPU host, the full battery — master seed
/// 42 — run whole, median of three runs alternated with the change's):
/// `(rev, mode label, acquisitions/s, events per acquisition)`. The
/// "before" half of `BENCH_RT.json`'s before/after row.
pub const SPREAD_BEFORE: (&str, &str, f64, f64) = ("5a83a53", "spread x2ns128", 123_289.0, 4.94);

/// [`SPREAD_BEFORE`] as `BENCH_RT.json`'s `spread_before` section.
#[must_use]
pub fn spread_before() -> Value {
    let (rev, mode, acq_per_sec, events_per_acq) = SPREAD_BEFORE;
    Value::Obj(vec![
        ("rev", Value::str(rev)),
        ("mode", Value::str(mode)),
        ("acq_per_sec", Value::Num(acq_per_sec)),
        ("events_per_acq", Value::Num(events_per_acq)),
    ])
}

/// The standard battery: open loop at two scales, closed-loop
/// saturation, multi-tenant saturation (dispatch ceiling and spread),
/// open loop under crash churn, and open loop under partition churn.
/// `quick` shrinks the sizes and window for CI smoke — except the two
/// tenants cells, which keep their shape (32 × 4 nodes with every request
/// at the holder; 128 × 16 nodes with requests at random nodes — the
/// shape of the benchmark's `rt-contended`) and shorten only the window,
/// so CI can key a fresh quick row against the committed full row by
/// `(mode, n, workers)` and enforce a regression floor on `acq_per_sec`.
#[must_use]
pub fn battery(quick: bool, seed: u64) -> Vec<LoadCell> {
    let (n, workers, secs) = if quick { (64, 4, 2) } else { (256, 8, 10) };
    let cell = |n, mode, churn_crashes, partition_cycles, seed_offset: u64| LoadCell {
        n,
        workers,
        duration: Duration::from_secs(secs),
        mode,
        churn_crashes,
        partition_cycles,
        seed: seed.wrapping_add(seed_offset),
    };
    let open = |rate_per_sec| LoadMode::Open { rate_per_sec };
    let tenants = |spread: bool, seed_offset| LoadCell {
        workers: 2,
        duration: Duration::from_secs(if quick { 2 } else { 5 }),
        ..cell(
            if spread { 16 } else { 4 },
            LoadMode::Tenants { clients: 2, namespaces: if spread { 128 } else { 32 }, spread },
            0,
            0,
            seed_offset,
        )
    };
    if quick {
        vec![
            cell(n, open(200), 0, 0, 0),
            cell(n, LoadMode::Closed { clients: 4 }, 0, 0, 1),
            tenants(false, 4),
            tenants(true, 5),
            cell(n, open(100), 2, 0, 2),
            cell(n, open(100), 0, 2, 3),
        ]
    } else {
        vec![
            cell(n, open(500), 0, 0, 0),
            cell(1024, open(200), 0, 0, 1),
            cell(n, LoadMode::Closed { clients: 8 }, 0, 0, 2),
            tenants(false, 5),
            tenants(true, 6),
            cell(n, open(200), 8, 0, 3),
            cell(n, open(200), 0, 6, 4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(n: usize, millis: u64, mode: LoadMode, partition_cycles: usize, seed: u64) -> LoadCell {
        let duration = Duration::from_millis(millis);
        LoadCell { n, workers: 2, duration, mode, churn_crashes: 0, partition_cycles, seed }
    }

    /// Every request is terminal, whatever the scheduling.
    fn assert_accounted(row: &LoadRow) {
        let report = &row.report;
        assert_eq!(report.requests_injected, report.requests_completed + report.requests_abandoned);
    }

    #[test]
    fn quick_open_loop_cell_is_clean_and_accounts_everything() {
        let row = run_cell(&cell(16, 300, LoadMode::Open { rate_per_sec: 100 }, 0, 11));
        assert!(row.clean(), "row: {row:?}");
        assert_accounted(&row);
        let (report, latency) = (&row.report, &row.report.latency);
        assert_eq!(report.requests_injected, 30);
        assert_eq!(report.requests_abandoned, 0);
        assert_eq!(latency.count, report.requests_completed);
        assert!(latency.p50_nanos <= latency.p99_nanos);
        assert!(latency.p99_nanos <= latency.p999_nanos);
        assert!(latency.p999_nanos <= latency.max_nanos);
        assert!(report.events_per_sec() > 0.0);
        assert_eq!(row.to_json().get("clean"), &Value::Bool(true));
    }

    #[test]
    fn open_loop_offers_the_rate_its_label_says() {
        // The battery's rates divide the tick rate: offered exactly.
        for (rate, gap) in [(100, 500), (200, 250), (500, 100)] {
            assert_eq!(open_loop_gap(rate), (gap, rate as f64));
            assert_eq!(LoadMode::Open { rate_per_sec: rate }.label(), format!("open@{rate}/s"));
        }
        // One that does not is labelled with what the gap realises.
        assert_eq!(open_loop_gap(300).0, 166);
        assert_eq!(LoadMode::Open { rate_per_sec: 300 }.label(), "open@301/s");
        // Above half the tick rate the gap is one tick: 50 000/s, not the
        // 30 000/s asked for — and the arrivals span the whole window.
        for rate in [30_000, TICKS_PER_SEC, 2 * TICKS_PER_SEC] {
            assert_eq!(open_loop_gap(rate), (1, TICKS_PER_SEC as f64));
            assert_eq!(LoadMode::Open { rate_per_sec: rate }.label(), "open@50000/s");
        }
        assert_eq!(open_loop_gap(25_000), (2, 25_000.0));
        let mut rng = StdRng::seed_from_u64(1);
        let window = TICKS_PER_SEC / 10;
        let schedule = open_loop(&mut rng, 8, 30_000, window);
        assert_eq!(schedule.len() as u64, window);
        assert_eq!(TICKS_PER_SEC, 50_000);
    }

    #[test]
    fn closed_loop_cell_serves_requests() {
        let row = run_cell(&cell(8, 200, LoadMode::Closed { clients: 2 }, 0, 12));
        assert!(row.clean(), "row: {row:?}");
        assert!(row.report.requests_completed > 0, "closed loop should serve something");
        assert_accounted(&row);
    }

    #[test]
    fn battery_shapes() {
        assert_eq!(battery(true, 1).len(), 6);
        let full = battery(false, 1);
        assert_eq!(full.len(), 7);
        assert!(full.iter().any(|c| c.n == 1024));
        assert!(full.iter().any(|c| c.churn_crashes > 0));
        assert!(full.iter().any(|c| c.partition_cycles > 0));
        assert!(battery(true, 1).iter().any(|c| c.partition_cycles > 0));
        // Every cell its own seed.
        let seeds: std::collections::BTreeSet<u64> = full.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), full.len());
        // The tenants cells keep the same keys in both batteries so the
        // CI gate can match a fresh quick row to the committed full row.
        let key = |c: &LoadCell| (c.mode.label(), c.n, c.workers);
        for spread in [false, true] {
            let is_cell = |c: &&LoadCell| matches!(c.mode, LoadMode::Tenants { spread: s, .. } if s == spread);
            let quick = battery(true, 1);
            let quick_tenants = quick.iter().find(is_cell).expect("quick battery has the cell");
            let full_tenants = full.iter().find(is_cell).expect("full battery has the cell");
            assert_eq!(key(quick_tenants), key(full_tenants));
            assert!(full_tenants.duration >= quick_tenants.duration);
            if spread {
                assert_eq!(full_tenants.mode.label(), SPREAD_BEFORE.1);
            }
        }
    }

    #[test]
    fn tenants_cell_is_clean_and_multi_tenant() {
        let mode = LoadMode::Tenants { clients: 2, namespaces: 8, spread: false };
        let row = run_cell(&cell(4, 200, mode, 0, 15));
        assert!(row.clean(), "row: {row:?}");
        assert_eq!(row.report.namespaces, 8);
        assert_accounted(&row);
        assert!(
            row.report.requests_completed >= 8,
            "every namespace serves at least its seed request"
        );
        assert!(row.to_json().get("acq_per_sec").num() > 0.0);
        // Hot-path acquisitions at the token's home cost no messages.
        assert_eq!(row.report.messages_sent, 0, "node-1 auto-release grants are message-free");
    }

    #[test]
    fn spread_tenants_cell_moves_the_token() {
        let mode = LoadMode::Tenants { clients: 2, namespaces: 8, spread: true };
        let row = run_cell(&cell(16, 200, mode, 0, 16));
        assert!(row.clean(), "row: {row:?}");
        assert_eq!(row.cell.mode.label(), "spread x2ns8");
        assert_accounted(&row);
        assert_eq!(row.report.requests_abandoned, 0);
        assert!(
            row.report.messages_sent > row.report.requests_completed,
            "requests away from the holder cost messages"
        );
        // Eight namespaces over two workers: each lives whole on one.
        assert_eq!(row.to_json().get("messages_crossed"), &Value::UInt(0));
    }

    /// The wall-clock half. The accounting and the cut count cannot
    /// depend on how the host schedules the workers; the safety verdict
    /// can: under `Hardening::None` a descheduled worker answers later
    /// than δ, outside the paper's model, and the run may report a
    /// duplicated token (ROADMAP item 3 — the assertion stays until a
    /// virtual-time pause pin reproduces it). Tolerance: none on the
    /// accounting, the safety verdict and the cut count; the run must
    /// settle within `run_cell`'s timeout (window + 60 s). Whether every
    /// request was *served* is not asserted here — on a shared core a
    /// worker can be descheduled across a whole cut — but in virtual
    /// time, below.
    #[test]
    fn partition_churn_cell_heals_and_stays_clean() {
        let row = run_cell(&cell(16, 400, LoadMode::Open { rate_per_sec: 100 }, 2, 14));
        assert!(row.settled, "row: {row:?}");
        assert_accounted(&row);
        assert!(row.report.safety.is_clean(), "row: {row:?}");
        assert_eq!(row.to_json().get("partition_cycles"), &Value::UInt(2));
    }

    /// The liveness half of the cell above, exact: the same script and
    /// the same arrivals through the simulator, where no scheduler can
    /// stretch a cut. The service heals and stays live — every request
    /// served, both oracles clean.
    #[test]
    fn partition_churn_heals_and_stays_live_in_virtual_time() {
        use oc_sim::{check_liveness, SimConfig, World};
        let window = 2 * TICKS_PER_SEC / 5;
        let script = partition_script(16, 2, window);
        assert_eq!(script.phases().len(), 2);
        let config = SimConfig {
            delay: MAX_NET_DELAY,
            cs_duration: SimDuration::from_ticks(CS_TICKS),
            seed: 14,
            script,
            ..SimConfig::default()
        };
        let mut world = World::new(config, OpenCubeNode::build_all(protocol(16)));
        let mut rng = StdRng::seed_from_u64(14 ^ 0xE9E9_E9E9);
        world.schedule_workload(&open_loop(&mut rng, 16, 100, window));
        let drained = world.run_to_quiescence();
        assert!(drained, "the healed service must quiesce");
        assert_eq!(world.requests_injected(), 40);
        assert_eq!(world.metrics().cs_entries, 40, "every request served across both cuts");
        assert!(world.metrics().lost_to_partition > 0, "the cuts must destroy something to heal");
        assert!(world.oracle_report().is_clean(), "{:?}", world.oracle_report());
        let liveness = check_liveness(&world, drained);
        assert!(liveness.is_clean(), "{liveness:?}");
    }

    #[test]
    fn partition_script_shape() {
        let script = partition_script(64, 4, 100_000);
        assert_eq!(script.phases().len(), 4);
        for phase in script.phases() {
            let cut = phase.until.ticks() - phase.from.ticks();
            assert!((1..=SLACK_TICKS / 4).contains(&cut), "cut {cut} outside the healed regime");
        }
        // Serial: each cut heals before the next begins.
        for pair in script.phases().windows(2) {
            assert!(pair[1].from >= pair[0].until);
        }
        assert!(!partition_script(64, 0, 100_000).enabled());
    }
}
