//! `net-open`: eight `oc-node` processes over Unix sockets, driven by
//! `oc_bench::orchestrator::run_deployment` under an open-loop schedule
//! of one arrival every 50 µs tick — 20 000 requests a second, the most
//! the orchestrator can pace and a little more than the deployment
//! sustains. A backlog builds, both cores stay busy, and the rate at
//! which the deployment works it off is its capacity: every grant costs
//! its socket hops, codec, clock and log append. The run is several such
//! deployments one after the other: each is booted, driven, settled, shut
//! down and judged, so each gives one set-up time and one rate.
//!
//! At a tenth of that load the delivered rate is the schedule and the
//! result is the latency from each request's scheduled instant to its
//! grant. The traced pass measures it, without a bound: a request then
//! finds the cores idle, and how long the host takes to wake one doubles
//! from one spell to the next.

use std::path::Path;
use std::time::{Duration, Instant};

use oc_bench::orchestrator::{run_deployment, NetCell, NetRow, TransportKind, NET_TICK};
use oc_check::GateScenario;

use super::{derive_seed, out_dir, probes, trace_overhead, write_trace, Args, Report, SETUPS};
use crate::host::{collect_node_rss_mb, cpu_seconds, peak_rss_mb, NODE_RSS_DIR};
use crate::spans::Tracer;
use crate::stats::median;

const NODES: usize = 8;
/// Ticks between arrivals: offered above capacity, and at a tenth of it.
const SATURATING_GAP: u64 = 1;
const LATENCY_GAP: u64 = 10;
/// The orchestrator polls for the last completions in steps this long,
/// so a deployment's wall time overshoots its schedule by up to one.
const COMPLETION_POLL_SECS: f64 = 0.020;

fn cell(seed: u64, requests: usize, gap_ticks: u64) -> NetCell {
    NetCell {
        transport: TransportKind::Uds,
        scenario: GateScenario {
            n: NODES,
            requests,
            gap_ticks,
            delta_ticks: 40,
            cs_ticks: 20,
            slack_ticks: 20_000,
            seed,
            kill: None,
        },
        settle_timeout: Duration::from_secs(30),
    }
}

struct Deployment {
    row: NetRow,
    total_secs: f64,
    cpu_secs: f64,
    /// Peak memory of the eight node processes, summed.
    node_rss_mb: f64,
}

impl Deployment {
    /// Everything `run_deployment` spends outside the arrivals: process
    /// boot, gateway connect, settle probe, shutdown, post-hoc judgement.
    fn overhead_secs(&self) -> f64 {
        self.total_secs - self.row.wall_secs
    }
}

fn deploy(
    seed: u64,
    requests: usize,
    gap_ticks: u64,
    rss_dir: &Path,
    t: &mut Tracer,
) -> Deployment {
    let cpu = cpu_seconds();
    let start = Instant::now();
    // This executable is its own node binary (see `main`).
    let node_bin = std::env::current_exe().expect("path of the running executable");
    let row = t
        .span("net.run_deployment", |_| run_deployment(&node_bin, &cell(seed, requests, gap_ticks)))
        .unwrap_or_else(|err| panic!("deployment failed: {err}"));
    Deployment {
        row,
        total_secs: start.elapsed().as_secs_f64(),
        cpu_secs: cpu_seconds() - cpu,
        node_rss_mb: collect_node_rss_mb(rss_dir),
    }
}

fn judge(d: &Deployment, report: &mut Report) {
    let row = &d.row;
    report.gate(row.settled, || "the deployment did not settle".into());
    report.gate(row.safety_violations == 0 && row.liveness_violations == 0, || {
        format!(
            "oracles: {} safety, {} liveness violations",
            row.safety_violations, row.liveness_violations
        )
    });
    report.gate(row.injected == row.served + row.abandoned, || {
        format!("injected {} != served {} + abandoned {}", row.injected, row.served, row.abandoned)
    });
    report.gate(row.abandoned == 0, || {
        format!("{} requests abandoned without a kill", row.abandoned)
    });
}

/// At a tenth of capacity the deployment keeps up: had it not, requests
/// would queue and the arrivals would take longer than their schedule.
/// One in ten is slack for this host, which stalls a process for up to
/// 0.4 s.
fn judge_kept_up(d: &Deployment, report: &mut Report) {
    let row = &d.row;
    let scheduled_secs = row.injected as f64 * NET_TICK.as_secs_f64() * LATENCY_GAP as f64;
    report.gate(row.wall_secs <= 1.10 * scheduled_secs + COMPLETION_POLL_SECS, || {
        format!(
            "{} arrivals took {:.3} s against a schedule of {scheduled_secs:.3} s",
            row.injected, row.wall_secs
        )
    });
}

/// Sockets, logs and the node processes' memory notes all go under the
/// benchmark's own output directory; returns where the notes land.
fn claim_directories() -> std::path::PathBuf {
    let tmp = out_dir().join("tmp");
    let rss_dir = tmp.join("node-rss");
    std::fs::create_dir_all(&rss_dir).expect("create the output directory");
    // The orchestrator works under the system's temporary directory.
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var(NODE_RSS_DIR, &rss_dir);
    rss_dir
}

pub fn run(args: &Args) -> Report {
    let rss_dir = claim_directories();
    // A fifth of the run's seconds of arrivals at 20 000 a second.
    let arrivals = (args.sized(300_000) / SETUPS).max(1);
    if args.trace {
        return run_traced(args, arrivals, &rss_dir);
    }
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let runs: Vec<Deployment> = (0..SETUPS)
        .map(|k| {
            deploy(derive_seed(args.seed, k as u64), arrivals, SATURATING_GAP, &rss_dir, &mut off)
        })
        .collect();
    for d in &runs {
        judge(d, &mut report);
    }
    let sum = |f: fn(&Deployment) -> f64| runs.iter().map(f).sum::<f64>();
    let over = |f: fn(&Deployment) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let (injected, served) = (sum(|d| d.row.injected as f64), sum(|d| d.row.served as f64));
    report.operations(injected as u64, (injected - served) as u64);
    report.end_to_end(
        over(Deployment::overhead_secs),
        median(&mut over(|d| d.row.cs_per_sec)),
        peak_rss_mb() + over(|d| d.node_rss_mb).into_iter().fold(0.0, f64::max),
    );
    // The log records the post-hoc oracle replays: an enter and an exit
    // per critical section served.
    report.rates(2.0 * served, served, sum(|d| d.row.wall_secs), sum(|d| d.cpu_secs));
    // While capacity binds, a request waits in the backlog for tens of
    // milliseconds. Under one, the deployment has outrun the schedule
    // and `acq_per_s` reads the offered rate, not the capacity.
    let wait_p50_us = median(&mut over(|d| d.row.p50_us));
    report.diagnostics.push(("net.backlog_wait_p50_us", wait_p50_us));
    if wait_p50_us < 1_000.0 {
        report.notes.push(format!(
            "NOT SATURATED: median wait {wait_p50_us:.0} us; the deployment sustains the offered \
             rate, which is the most the orchestrator paces, and acq_per_s reads that rate"
        ));
    }
    report
}

/// The traced pass: one saturating deployment bare and one under a
/// span, one at a tenth of the load for the latency, then the layers
/// under a hop timed alone.
fn run_traced(args: &Args, arrivals: usize, rss_dir: &Path) -> Report {
    let mut report = Report::default();
    let mut t = Tracer::new(true);
    let mut off = Tracer::new(false);
    let boot = deploy(derive_seed(args.seed, 0), 1, LATENCY_GAP, rss_dir, &mut off);
    let plain = deploy(args.seed, arrivals, SATURATING_GAP, rss_dir, &mut off);
    let d = deploy(args.seed, arrivals, SATURATING_GAP, rss_dir, &mut t);
    judge(&d, &mut report);
    report.operations(d.row.injected, d.row.injected - d.row.served);
    let latency_arrivals = args.sized(30_000);
    let calm = deploy(args.seed, latency_arrivals, LATENCY_GAP, rss_dir, &mut t);
    judge(&calm, &mut report);
    judge_kept_up(&calm, &mut report);
    let mut values = vec![
        ("net.grant_p50_us", calm.row.p50_us),
        ("net.grant_p99_us", calm.row.p99_us),
        ("net.grant_max_us", calm.row.max_us),
        ("net.grant_samples", calm.row.samples as f64),
        ("net.cs_per_s", d.row.cs_per_sec),
        ("net.overhead_s", d.overhead_secs()),
        ("net.boot_ms", boot.overhead_secs() * 1e3),
        // Equal arrivals: tracing costs rate.
        ("trace_overhead", trace_overhead(1.0 / plain.row.cs_per_sec, 1.0 / d.row.cs_per_sec)),
        ("traced.acq_per_s", d.row.cs_per_sec),
        ("traced.events_per_s", 2.0 * d.row.cs_per_sec),
    ];
    let scenario = cell(args.seed, latency_arrivals, LATENCY_GAP).scenario;
    let schedule = scenario.schedule();
    let (algo, messages) =
        probes::algo(&mut t, scenario.config(), schedule.arrivals().iter().map(|a| a.1));
    values.extend(algo);
    values.extend(probes::transport(
        &mut t,
        &out_dir().join("tmp/probe"),
        &messages,
        NODES as u32,
        d.row.served,
    ));
    values.push(("traced.spans", t.spans().len() as f64));
    report.per_layer(&values);
    write_trace(&t, "net-open");
    report
}
