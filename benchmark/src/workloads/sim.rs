//! `sim-scale` and `sim-faults`: one `oc_sim::World` on the serial
//! driver and the bucketed queue, everything scheduled before the first
//! step, run to quiescence. Sizes are fixed by `--seconds`, so every
//! count repeats exactly for a seed.

use std::time::Instant;

use oc_algo::{Config, OpenCubeNode};
use oc_sim::{
    check_liveness, ArrivalSchedule, DelayModel, FailurePlan, SimConfig, SimDuration, SimTime,
    World,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, SeedableRng};

use super::{probes, timed_setups, trace_overhead, write_trace, Args, Report};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::reference::{HostSpeed, Kernel};
use crate::spans::Tracer;
use crate::stats::quantile;

/// The experiments' tick constants (`oc_bench::DELTA`, `CS_TICKS`).
const DELTA: SimDuration = SimDuration::from_ticks(oc_bench::DELTA);
const CS: SimDuration = SimDuration::from_ticks(oc_bench::CS_TICKS);

/// A `World::step` slower than this is counted as slow: three orders of
/// magnitude above a steady-state step, it is a crash purging the queue.
const SLOW_STEP_NS: f64 = 50_000.0;

/// Steps between two looks at the clock of the host-speed sampler: 80 us
/// of steady-state stepping, and no more than one crash purge.
const POLL_EVERY: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// E7's shape: n = 2^20, uniform arrivals every 25 ticks, Section 5
    /// machinery off.
    Scale,
    /// E3's shape: n = 64, a crash/recover pair every 20 000 ticks and an
    /// arrival every 2 000, contention slack 1 000.
    Faults,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Scale => "sim-scale",
            Shape::Faults => "sim-faults",
        }
    }

    fn protocol(self) -> Config {
        match self {
            Shape::Scale => Config::without_fault_tolerance(1 << 20, DELTA, CS),
            Shape::Faults => {
                Config::new(64, DELTA, CS).with_contention_slack(SimDuration::from_ticks(1_000))
            }
        }
    }

    /// Events per slice when the traced pass alternates its two worlds.
    fn slice_events(self) -> usize {
        match self {
            Shape::Scale => 1 << 20,
            Shape::Faults => 1 << 16,
        }
    }

    /// Steps per span in the traced pass. A clock read costs about a
    /// sixth of a steady-state step, so `sim-scale` times batches;
    /// `sim-faults` times every step, to see the slow ones.
    fn steps_per_span(self) -> usize {
        match self {
            Shape::Scale => 256,
            Shape::Faults => 1,
        }
    }
}

struct Inputs {
    schedule: ArrivalSchedule,
    failures: FailurePlan,
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        delay: DelayModel::Uniform { min: SimDuration::from_ticks(1), max: DELTA },
        cs_duration: CS,
        seed,
        max_events: 2_000_000_000,
        ..SimConfig::default()
    }
}

fn inputs(shape: Shape, args: &Args) -> Inputs {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let n = shape.protocol().n;
    match shape {
        Shape::Scale => Inputs {
            schedule: ArrivalSchedule::uniform(
                &mut rng,
                n,
                args.sized(4 << 20),
                SimDuration::from_ticks(25),
            ),
            failures: FailurePlan::none(),
        },
        Shape::Faults => {
            let failures = args.sized(20_000);
            Inputs {
                schedule: ArrivalSchedule::uniform(
                    &mut rng,
                    n,
                    failures * 10 + 20,
                    SimDuration::from_ticks(2_000),
                ),
                failures: FailurePlan::random_singles(
                    &mut rng,
                    n,
                    NodeId::new(1),
                    failures,
                    SimTime::from_ticks(1_000),
                    SimDuration::from_ticks(20_000),
                    SimDuration::from_ticks(6_000),
                ),
            }
        }
    }
}

/// Set-up: inputs from the seed, the population, the world, and every
/// arrival and failure filed into its queue.
fn setup(shape: Shape, args: &Args, t: &mut Tracer) -> (Inputs, World<OpenCubeNode>) {
    let inputs = t.span("input.generate", |_| inputs(shape, args));
    let nodes = t.span("topology.build_all", |_| OpenCubeNode::build_all(shape.protocol()));
    let mut world = t.span("sim.world_new", |_| World::new(sim_config(args.seed), nodes));
    t.span("sim.schedule", |_| {
        world.schedule_workload(&inputs.schedule);
        world.schedule_failures(&inputs.failures);
    });
    (inputs, world)
}

/// Oracles and accounting of a finished run, plus the counts that must
/// repeat exactly.
fn judge(
    shape: Shape,
    world: &World<OpenCubeNode>,
    inputs: &Inputs,
    drained: bool,
    report: &mut Report,
) {
    let m = world.metrics();
    let injected = world.requests_injected();
    let failures = inputs.failures.crash_count() as u64;
    report.gate(drained, || "the run hit max_events before quiescence".into());
    let liveness = check_liveness(world, drained);
    let safety = world.oracle_report();
    let findings = (safety.violations().len() + liveness.violations().len()) as u64;
    match shape {
        Shape::Scale => {
            report.gate(safety.is_clean(), || format!("safety oracle: {:?}", safety.violations()));
            report.gate(liveness.is_clean(), || {
                format!("liveness oracle: {:?}", liveness.violations())
            });
        }
        // Thousands of failures in one run reach protocol races that the
        // experiments' few hundred never did (about one seed in seven
        // trips the token census at this size). The driver picks the
        // seeds, so a finding cannot fail the run; it is printed, counted
        // exactly and added to `failed` below, where a change that
        // causes more of them shows.
        Shape::Faults => {
            report.exact_num("sim.oracle_violations", findings as f64);
            if findings > 0 {
                report.notes.push(format!(
                    "ORACLE FINDING: {} safety and {} liveness violations; first: {}",
                    safety.violations().len(),
                    liveness.violations().len(),
                    safety.violations().first().map_or_else(
                        || format!("{:?}", liveness.violations()[0]),
                        |v| format!("{v:?}")
                    ),
                ));
            }
        }
    }
    report
        .gate(injected == inputs.schedule.len() as u64, || "not every arrival was injected".into());
    report.gate(injected == m.cs_entries + m.requests_abandoned, || {
        format!(
            "injected {injected} != served {} + abandoned {}",
            m.cs_entries, m.requests_abandoned
        )
    });
    report.gate(m.crashes == failures && m.recoveries == failures, || {
        format!(
            "planned {failures} failures, saw {} crashes and {} recoveries",
            m.crashes, m.recoveries
        )
    });
    if shape == Shape::Scale {
        let bound = f64::from(oc_topology::dimension(world.len())) + 1.0;
        report.gate(m.requests_abandoned == 0, || "requests abandoned without a crash".into());
        report.gate(m.messages_per_cs() <= bound, || {
            format!("{} messages per CS exceeds log2 n + 1 = {bound}", m.messages_per_cs())
        });
    }
    // Failed: every request that never entered its critical section —
    // abandoned by its node's crash, or still unserved at the end — and
    // every oracle finding.
    report.operations(injected, injected - m.cs_entries + findings);
    report.exact_num("sim.events", m.events_processed as f64);
    report.exact_num("sim.messages", m.total_sent() as f64);
    report.exact_num("sim.lost_to_crashes", m.lost_to_crashes as f64);
    report.exact_num("sim.injected", injected as f64);
    report.exact_num("sim.served", m.cs_entries as f64);
    report.exact_num("sim.abandoned", m.requests_abandoned as f64);
    report.exact_num("sim.virt_msgs_per_cs", m.messages_per_cs());
    report.exact_num("sim.virt_wait_ticks_mean", m.mean_waiting_ticks());
    report.exact_num("sim.failed_share", report.failed_share());
    if failures > 0 {
        report.exact_num(
            "sim.virt_overhead_msgs_per_failure",
            m.overhead_messages() as f64 / failures as f64,
        );
    }
}

/// Up to `n` steps; `false` once the queue is empty.
fn steps(world: &mut World<OpenCubeNode>, n: usize) -> bool {
    (0..n).all(|_| world.step())
}

pub fn run(shape: Shape, args: &Args) -> Report {
    if args.trace {
        return run_traced(shape, args);
    }
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let (setups, (inputs, mut world)) =
        timed_setups(Some(Kernel::new()), || setup(shape, args, &mut off), drop);
    let cap = sim_config(args.seed).max_events;
    let cpu = cpu_seconds();
    let mut host = HostSpeed::start();
    let mut drained = false;
    while !drained && world.metrics().events_processed < cap {
        drained = !steps(&mut world, POLL_EVERY);
        host.poll();
    }
    let measured = host.finish();
    let cpu = cpu_seconds() - cpu - measured.kernel_s;
    judge(shape, &world, &inputs, drained, &mut report);
    let m = world.metrics();
    let grants = m.cs_entries as f64;
    report.end_to_end(setups, measured.calm_rate(grants), peak_rss_mb());
    report.diagnostics.extend(measured.diagnostics(grants));
    report.rates(m.events_processed as f64, grants, measured.work_s, cpu);
    report.diagnostics.push(("sim.wall_s", measured.work_s));
    report.diagnostics.push(("sim.mem_bytes_per_node", world.mem_bytes_per_node() as f64));
    report
}

/// The traced pass: the same world twice at a third of the size — once
/// stepped bare, once stepped under spans — then the layer probes on this
/// workload's inputs.
fn run_traced(shape: Shape, args: &Args) -> Report {
    let mut report = Report::default();
    let mut t = Tracer::new(true);

    // Both worlds advance in alternating slices of equal event counts, so
    // each sees the same mix of the host's fast and slow spells and the
    // difference between them is the cost of the spans alone.
    let (_, mut plain) = setup(shape, args, &mut Tracer::new(false));
    let (inputs, mut world) = t.span("setup", |t| setup(shape, args, t));
    let per_span = shape.steps_per_span();
    let spans_per_slice = shape.slice_events() / per_span;
    let cap = sim_config(args.seed).max_events;
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let (mut plain_more, mut traced_more) = (true, true);
    let mut slice = 0;
    while (plain_more || traced_more) && world.metrics().events_processed < cap {
        for traced_turn in [slice % 2 == 0, slice % 2 != 0] {
            let start = Instant::now();
            if traced_turn && traced_more {
                t.span("sim.slice", |t| {
                    t.enter("sim.steps");
                    for k in 0..spans_per_slice {
                        if k > 0 {
                            t.lap();
                        }
                        traced_more = steps(&mut world, per_span);
                        if !traced_more {
                            break;
                        }
                    }
                    t.exit();
                });
                traced_wall += start.elapsed().as_secs_f64();
            } else if !traced_turn && plain_more {
                plain_more = steps(&mut plain, shape.slice_events());
                untraced_wall += start.elapsed().as_secs_f64();
            }
        }
        slice += 1;
    }
    let drained = !traced_more;
    report.gate(!plain_more, || "the untraced reference run did not drain".into());
    let untraced_events = plain.metrics().events_processed;
    drop(plain);
    judge(shape, &world, &inputs, drained, &mut report);
    let m = world.metrics().clone();
    drop(world);
    report.gate(m.events_processed == untraced_events, || {
        format!("traced pass processed {} events, untraced {untraced_events}", m.events_processed)
    });

    let events = m.events_processed as f64;
    let steps = t.total("sim.steps");
    let step_mean = steps.total_ns as f64 / events;
    let mut per_step: Vec<f64> =
        t.durations_ns("sim.steps").into_iter().map(|d| d / per_span as f64).collect();
    let slow_ns = per_step.iter().filter(|d| **d > SLOW_STEP_NS).fold(0.0, |sum, d| sum + d)
        * per_span as f64;
    let mut values = vec![
        ("sim.step_ns_mean", step_mean),
        ("sim.step_ns_p99", quantile(&mut per_step, 0.99)),
        ("sim.slow_step_share", slow_ns / steps.total_ns as f64),
        ("trace_overhead", trace_overhead(untraced_wall, traced_wall)),
        ("traced.events_per_s", events / traced_wall),
        ("traced.acq_per_s", m.cs_entries as f64 / traced_wall),
    ];
    for (name, value) in &report.exact {
        if crate::metrics::PER_LAYER.iter().any(|p| p.name == *name) {
            values.push((name, crate::json::as_f64(value).unwrap_or(0.0)));
        }
    }

    let arrivals = inputs.schedule.arrivals();
    let (algo, _) = probes::algo(&mut t, shape.protocol(), arrivals.iter().map(|a| a.1));
    let on_event = algo.iter().find(|v| v.0 == "algo.on_event_ns").map_or(0.0, |v| v.1);
    values.extend(algo);
    values.push(("sim.engine_ns_per_event", step_mean - on_event));
    let mut stamps: Vec<SimTime> = arrivals.iter().map(|a| a.0).collect();
    values.extend(probes::queue(&mut t, &stamps));
    if shape == Shape::Faults {
        // What `World` holds when the first crash purges it: every
        // arrival, and a crash and a recovery per failure.
        stamps.extend(
            inputs.failures.events().iter().flat_map(|f| [f.at, f.recover_at.unwrap_or(f.at)]),
        );
        values.extend(probes::retain(&mut t, &stamps));
    }
    values.push(("traced.spans", t.spans().len() as f64));

    if shape == Shape::Scale {
        // Without crashes the replay runs the same protocol steps as the
        // world, so step time splits into protocol and engine self time.
        let untraced_step = untraced_wall * 1e9 / events;
        report.gate((step_mean / untraced_step - 1.0).abs() <= 0.10, || {
            format!("traced step mean {step_mean:.1} ns is not within 10 % of the bare {untraced_step:.1} ns")
        });
        report.notes.push(format!(
            "reconcile: algo.on_event_ns {on_event:.1} + sim.engine_ns_per_event {:.1} = sim.step_ns_mean {step_mean:.1}; untraced wall / events = {untraced_step:.1} ns ({:+.1} %)",
            step_mean - on_event,
            (step_mean / untraced_step - 1.0) * 100.0,
        ));
    }
    report.per_layer(&values);
    write_trace(&t, shape.name());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::as_f64;

    fn exact(report: &Report, name: &str) -> f64 {
        report.exact.iter().find(|e| e.0 == name).and_then(|e| as_f64(&e.1)).expect(name)
    }

    /// A small `sim-faults` (133 failures, 1 350 arrivals): the result
    /// line's `failed` counts every request a crash kept from its
    /// critical section, and `failed / attempted` is `sim.failed_share`
    /// to the last digit.
    #[test]
    fn failed_counts_what_the_crashes_cost() {
        let report = run(Shape::Faults, &Args { seed: 42, seconds: 0.1, trace: false });
        assert!(report.correct(), "{:?}", report.misses);
        let unserved = exact(&report, "sim.injected") - exact(&report, "sim.served");
        assert!(unserved > 0.0, "no crash cost a request: the test shows nothing");
        assert_eq!(report.attempted as f64, exact(&report, "sim.injected"));
        assert_eq!(report.failed as f64, unserved + exact(&report, "sim.oracle_violations"));
        assert_eq!(
            report.failed as f64 / report.attempted as f64,
            exact(&report, "sim.failed_share")
        );
    }
}
