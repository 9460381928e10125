//! `rt-contended` and `rt-dispatch`: the threaded runtime hosting many
//! lock namespaces behind two workers, driven by two closed-loop client
//! threads that each keep one auto-release acquisition outstanding per
//! owned namespace. The window is timed here, from the first submission
//! to the deadline — never `RuntimeReport::wall`, which also covers
//! warm-up, drain and the settle wait.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_bench::loadgen::{CS_TICKS, DELTA_TICKS, MAX_NET_DELAY, SLACK_TICKS, TICK};
use oc_runtime::{Runtime, RuntimeConfig, RuntimeReport};
use oc_sim::SimDuration;
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use super::{derive_seed, probes, timed_setups, trace_overhead, write_trace, Args, Report};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::spans::Tracer;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Completions per namespace before the window opens: mailboxes, session
/// tables and the router heap have reached their working size by then.
const WARM_UP_PER_NAMESPACE: u64 = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 128 namespaces of 16 nodes; each request at a uniformly random
    /// node, so nearly every grant moves the token.
    Contended,
    /// E12's tenants cell: 32 namespaces of 4 nodes, every request at
    /// node 1, which holds the token from the start and never loses it.
    Dispatch,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Contended => "rt-contended",
            Shape::Dispatch => "rt-dispatch",
        }
    }

    fn namespaces(self) -> usize {
        match self {
            Shape::Contended => 128,
            Shape::Dispatch => 32,
        }
    }

    fn n(self) -> usize {
        match self {
            Shape::Contended => 16,
            Shape::Dispatch => 4,
        }
    }

    fn protocol(self) -> Config {
        Config::new(
            self.n(),
            SimDuration::from_ticks(DELTA_TICKS),
            SimDuration::from_ticks(CS_TICKS),
        )
        .with_contention_slack(SimDuration::from_ticks(SLACK_TICKS))
    }

    fn pick(self, rng: &mut StdRng) -> NodeId {
        match self {
            Shape::Contended => NodeId::new(rng.random_range(1..=self.n() as u32)),
            Shape::Dispatch => NodeId::new(1),
        }
    }
}

type Service = Runtime<OpenCubeNode>;

/// When a client stops resubmitting.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    /// This many completions per owned namespace.
    Completions(u64),
}

/// Runs the closed loop on `CLIENTS` threads and returns the completions
/// that arrived before the stop condition (client `c` owns namespaces
/// `c, c + CLIENTS, …`; its node choices come from its own seeded RNG).
fn closed_loop(rt: &Service, shape: Shape, seed: u64, until: Until, t: &mut Tracer) -> u64 {
    let grace = Duration::from_secs(30);
    let counts: Vec<(u64, Tracer)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut t = t.fork();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(derive_seed(seed, client as u64));
                    let watcher = rt.watcher();
                    let owned = (client..shape.namespaces()).step_by(CLIENTS);
                    let quota = match until {
                        Until::Completions(per_ns) => per_ns * owned.clone().count() as u64,
                        Until::Deadline(_) => u64::MAX,
                    };
                    let (mut submitted, mut counted, mut outstanding) = (0u64, 0u64, 0usize);
                    for ns in owned {
                        let _ = rt.acquire_watched(ns, shape.pick(&mut rng), &watcher, true);
                        submitted += 1;
                        outstanding += 1;
                    }
                    while outstanding > 0 {
                        t.enter("rt.completion_wait");
                        let completion = watcher.recv_timeout(grace);
                        t.exit();
                        let Some((id, _status)) = completion else { break };
                        outstanding -= 1;
                        let open = match until {
                            Until::Deadline(deadline) => Instant::now() < deadline,
                            Until::Completions(_) => true,
                        };
                        counted += u64::from(open);
                        if open && submitted < quota {
                            let ns = rt.namespace_of(id).expect("completion maps to a namespace");
                            let node = shape.pick(&mut rng);
                            t.enter("rt.submit");
                            let _ = rt.acquire_watched(ns, node, &watcher, true);
                            t.exit();
                            submitted += 1;
                            outstanding += 1;
                        }
                    }
                    (counted, t)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    counts
        .into_iter()
        .map(|(counted, client)| {
            t.absorb(client);
            counted
        })
        .sum()
}

/// Set-up: start the service and bring it to its working state.
fn setup(shape: Shape, seed: u64, t: &mut Tracer) -> Service {
    let rt = t.span("rt.start_multi", |_| {
        Runtime::start_multi(
            RuntimeConfig {
                workers: WORKERS,
                tick: TICK,
                max_network_delay: MAX_NET_DELAY,
                cs_duration: TICK * CS_TICKS as u32,
                seed,
                ..RuntimeConfig::default()
            },
            (0..shape.namespaces()).map(|_| OpenCubeNode::build_all(shape.protocol())).collect(),
        )
    });
    t.span("rt.warm_up", |t| {
        closed_loop(&rt, shape, derive_seed(seed, 99), Until::Completions(WARM_UP_PER_NAMESPACE), t)
    });
    rt
}

struct Window {
    completions: u64,
    secs: f64,
    cpu_secs: f64,
    settle_ms: f64,
    shutdown_ms: f64,
    settled: bool,
    report: RuntimeReport,
    histogram: oc_runtime::LatencyHistogram,
}

impl Window {
    fn acq_per_s(&self) -> f64 {
        self.completions as f64 / self.secs
    }
}

fn measure(rt: Service, shape: Shape, seed: u64, window_secs: f64, t: &mut Tracer) -> Window {
    let window = Duration::from_secs_f64(window_secs);
    let cpu = cpu_seconds();
    let completions = t.span("rt.window", |t| {
        closed_loop(&rt, shape, seed, Until::Deadline(Instant::now() + window), t)
    });
    let cpu_secs = cpu_seconds() - cpu;
    let start = Instant::now();
    let settled = t.span("rt.settle", |_| rt.await_settled(Duration::from_secs(60)));
    let settle_ms = start.elapsed().as_secs_f64() * 1e3;
    let histogram = rt.latency_histogram();
    let start = Instant::now();
    let report = t.span("rt.shutdown", |_| rt.shutdown());
    let shutdown_ms = start.elapsed().as_secs_f64() * 1e3;
    Window {
        completions,
        secs: window.as_secs_f64(),
        cpu_secs,
        settle_ms,
        shutdown_ms,
        settled,
        report,
        histogram,
    }
}

fn judge(shape: Shape, w: &Window, report: &mut Report) {
    let r = &w.report;
    report.gate(w.settled, || "the runtime did not settle after the window".into());
    report.gate(r.safety.is_clean(), || format!("safety oracle: {:?}", r.safety.violations()));
    report
        .gate(r.liveness.is_clean(), || format!("liveness oracle: {:?}", r.liveness.violations()));
    report.gate(r.requests_injected == r.requests_completed + r.requests_abandoned, || {
        format!(
            "injected {} != completed {} + abandoned {}",
            r.requests_injected, r.requests_completed, r.requests_abandoned
        )
    });
    report.gate(r.requests_abandoned == 0, || {
        format!("{} requests abandoned without a fault", r.requests_abandoned)
    });
    match shape {
        Shape::Dispatch => report.gate(r.messages_sent == 0, || {
            format!("the dispatch ceiling sent {} protocol messages", r.messages_sent)
        }),
        Shape::Contended => {
            report.gate(r.messages_sent > 0, || "the contended cell never moved the token".into())
        }
    }
    report
        .operations(r.requests_injected, r.requests_injected.saturating_sub(r.requests_completed));
}

/// Per-acquisition ratios over the service's whole life (warm-up, window
/// and drain run the same loop), and the latency quantiles.
fn ratios(w: &Window) -> Vec<(&'static str, f64)> {
    let done = w.report.requests_completed as f64;
    let events_per_acq = w.report.events_processed as f64 / done;
    let us = |q: f64| w.histogram.quantile(q) as f64 / 1e3;
    vec![
        ("rt.msgs_per_acq", w.report.messages_sent as f64 / done),
        ("rt.events_per_acq", events_per_acq),
        ("rt.events_per_s", events_per_acq * w.acq_per_s()),
        ("rt.cpu_us_per_acq", w.cpu_secs * 1e6 / w.completions as f64),
        ("rt.grant_p50_us", us(0.5)),
        ("rt.grant_p90_us", us(0.9)),
        ("rt.grant_p99_us", us(0.99)),
        ("rt.grant_samples", w.histogram.count() as f64),
        ("rt.settle_ms", w.settle_ms),
        ("rt.shutdown_ms", w.shutdown_ms),
    ]
}

pub fn run(shape: Shape, args: &Args) -> Report {
    if args.trace {
        return run_traced(shape, args);
    }
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let (setups, rt) =
        timed_setups(None, || setup(shape, args.seed, &mut off), |rt| drop(rt.shutdown()));
    let w = measure(rt, shape, args.seed, args.window_secs(), &mut off);
    judge(shape, &w, &mut report);
    report.end_to_end(setups, w.acq_per_s(), peak_rss_mb());
    report.diagnostics.extend(ratios(&w));
    report
}

fn run_traced(shape: Shape, args: &Args) -> Report {
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let plain =
        measure(setup(shape, args.seed, &mut off), shape, args.seed, args.window_secs(), &mut off);
    report.gate(plain.report.is_clean(), || "the untraced reference window was not clean".into());

    let mut t = Tracer::new(true);
    let rt = t.span("setup", |t| setup(shape, args.seed, t));
    let w = measure(rt, shape, args.seed, args.window_secs(), &mut t);
    judge(shape, &w, &mut report);

    // A fixed window: tracing costs completions, not seconds.
    let overhead = trace_overhead(1.0 / plain.completions as f64, 1.0 / w.completions as f64);
    let mut values = ratios(&w);
    let events_per_s = values.iter().find(|v| v.0 == "rt.events_per_s").map_or(0.0, |v| v.1);
    values.extend([
        ("rt.start_ms", t.total("rt.start_multi").total_ns as f64 / 1e6),
        ("rt.submit_ns", t.total("rt.submit").mean_ns()),
        ("rt.completion_wait_us", t.total("rt.completion_wait").mean_ns() / 1e3),
        ("trace_overhead", overhead),
        ("traced.acq_per_s", w.acq_per_s()),
        ("traced.events_per_s", events_per_s),
    ]);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let arrivals = (0..200_000).map(|_| shape.pick(&mut rng));
    values.extend(probes::algo(&mut t, shape.protocol(), arrivals).0);
    values.push(("traced.spans", t.spans().len() as f64));
    report.per_layer(&values);
    write_trace(&t, shape.name());
    report
}
