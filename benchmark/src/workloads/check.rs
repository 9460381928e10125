//! `check-battery`: the blind explorer's loop on one thread — generate
//! scenario `i` of the default space from the master seed, run it, fold
//! the verdict — over a budget fixed by `--seconds`.

use std::time::Instant;

use oc_algo::{Config, Mutation};
use oc_check::{run_scenario, Scenario, Space};
use oc_sim::{DelayModel, Fnv64, SimConfig, SimDuration};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use super::{probes, timed_setups, trace_overhead, write_trace, Args, Report};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::json::Value;
use crate::reference::{HostSpeed, Kernel};
use crate::spans::Tracer;

/// Scenarios run and thrown away before the battery, so the allocator
/// and caches are warm when the clock starts. They come from indices
/// past the battery's end, so no measured scenario is run twice.
const WARM_UP: u64 = 2_000;
/// Scenarios between two looks at the clock of the host-speed sampler
/// (a scenario takes about 20 us).
const POLL_EVERY: u64 = 16;
/// Scenarios per turn when the traced pass alternates its two batteries.
const CHUNK: u64 = 4_096;

#[derive(Default)]
struct Battery {
    scenarios: u64,
    events: u64,
    messages: u64,
    cs_entries: u64,
    violations: u64,
    failing: u64,
    first_failing: Option<String>,
    fold: Fnv64,
}

impl Battery {
    fn run(&mut self, space: &Space, seed: u64, indices: std::ops::Range<u64>, t: &mut Tracer) {
        for index in indices {
            let scenario = t.span("check.generate", |_| Scenario::generate(space, seed, index));
            let outcome = t.span("check.run", |_| run_scenario(&scenario, Mutation::None));
            self.scenarios += 1;
            self.events += outcome.events;
            self.messages += outcome.messages;
            self.cs_entries += outcome.cs_entries;
            self.fold.write_u64(outcome.fingerprint());
            if !outcome.is_clean() {
                self.failing += 1;
                self.violations += outcome.violation_count() as u64;
                self.first_failing.get_or_insert_with(|| scenario.id());
            }
        }
    }

    /// The explorer's findings are this workload's measurement: they are
    /// reported, loudly, counted as the result line's `failed`, and never
    /// fail the run.
    fn judge(&self, report: &mut Report) {
        let fingerprint = self.fold.finish();
        report.operations(self.scenarios, self.failing);
        report.exact_num("check.scenarios", self.scenarios as f64);
        report.exact_num("check.events", self.events as f64);
        report.exact_num("check.messages", self.messages as f64);
        report.exact_num("check.cs_entries", self.cs_entries as f64);
        report.exact.push(("check.fingerprint", Value::str(format!("{fingerprint:#018x}"))));
        report.exact_num("check.violations", self.violations as f64);
        report.exact_num("check.failing_scenarios", self.failing as f64);
        report.exact_num("check.failed_share", report.failed_share());
        if let Some(id) = &self.first_failing {
            report.exact.push(("check.first_failing_id", Value::str(id.clone())));
            report.notes.push(format!(
                "EXPLORER FINDING: {} of {} scenarios fail their oracles ({} violations); first: {id}",
                self.failing, self.scenarios, self.violations
            ));
        }
    }
}

pub fn run(args: &Args) -> Report {
    let space = Space::default();
    let budget = args.sized(800_000) as u64;
    let warm_up =
        |t: &mut Tracer| Battery::default().run(&space, args.seed, budget..budget + WARM_UP, t);
    if args.trace {
        return run_traced(args, &space, budget, warm_up);
    }
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let (setups, ()) = timed_setups(Some(Kernel::new()), || warm_up(&mut off), drop);
    let mut battery = Battery::default();
    let cpu = cpu_seconds();
    let mut host = HostSpeed::start();
    for from in (0..budget).step_by(POLL_EVERY as usize) {
        battery.run(&space, args.seed, from..(from + POLL_EVERY).min(budget), &mut off);
        host.poll();
    }
    let measured = host.finish();
    let cpu = cpu_seconds() - cpu - measured.kernel_s;
    battery.judge(&mut report);
    let grants = battery.cs_entries as f64;
    report.end_to_end(setups, measured.calm_rate(grants), peak_rss_mb());
    report.diagnostics.extend(measured.diagnostics(grants));
    report.rates(battery.events as f64, grants, measured.work_s, cpu);
    report.diagnostics.push(("check.scenarios_per_s", battery.scenarios as f64 / measured.work_s));
    report
}

fn run_traced(args: &Args, space: &Space, budget: u64, warm_up: impl Fn(&mut Tracer)) -> Report {
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    warm_up(&mut off);
    // The bare and the traced battery alternate over chunks of the same
    // scenarios, so each sees the same mix of the host's fast and slow
    // spells and the difference between them is the cost of the spans.
    let mut t = Tracer::new(true);
    let (mut plain, mut battery) = (Battery::default(), Battery::default());
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    for (k, from) in (0..budget).step_by(CHUNK as usize).enumerate() {
        let chunk = from..(from + CHUNK).min(budget);
        for traced_turn in [k % 2 == 0, k % 2 != 0] {
            let start = Instant::now();
            if traced_turn {
                t.span("check.chunk", |t| battery.run(space, args.seed, chunk.clone(), t));
                traced_wall += start.elapsed().as_secs_f64();
            } else {
                plain.run(space, args.seed, chunk.clone(), &mut off);
                untraced_wall += start.elapsed().as_secs_f64();
            }
        }
    }
    battery.judge(&mut report);
    report.gate(plain.fold.finish() == battery.fold.finish(), || {
        "the traced and untraced batteries folded different fingerprints".into()
    });

    let scenarios = battery.scenarios as f64;
    let mut values = vec![
        ("check.scenarios_per_s", scenarios / traced_wall),
        ("check.generate_ns", t.total("check.generate").mean_ns()),
        ("check.run_ns", t.total("check.run").mean_ns()),
        ("check.events_per_scenario", battery.events as f64 / scenarios),
        ("check.fingerprint", (battery.fold.finish() & ((1 << 53) - 1)) as f64),
        ("check.violations", battery.violations as f64),
        ("check.failing_scenarios", battery.failing as f64),
        ("check.failed_share", battery.failing as f64 / scenarios),
        ("trace_overhead", trace_overhead(untraced_wall, traced_wall)),
        ("traced.events_per_s", battery.events as f64 / traced_wall),
        ("traced.acq_per_s", battery.cs_entries as f64 / traced_wall),
    ];

    // The layers under the explorer, at a population just above the
    // largest the default space draws.
    let n = 64;
    let delta = SimDuration::from_ticks(10);
    let cfg = Config::new(n, delta, SimDuration::from_ticks(50))
        .with_contention_slack(SimDuration::from_ticks(1_000));
    let sim = SimConfig {
        delay: DelayModel::Uniform { min: SimDuration::from_ticks(1), max: delta },
        seed: args.seed,
        ..SimConfig::default()
    };
    values.extend(probes::small_world(&mut t, &sim, &cfg));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let arrivals = (0..100_000).map(|_| NodeId::new(rng.random_range(1..=n as u32)));
    values.extend(probes::algo(&mut t, cfg, arrivals).0);
    values.push(("traced.spans", t.spans().len() as f64));
    report.per_layer(&values);
    write_trace(&t, "check-battery");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 43's verdict at full size: the failing scenarios are the
    /// result line's `failed`, `failed / attempted` is
    /// `check.failed_share`, and the run stays correct.
    #[test]
    fn failed_is_the_failing_scenarios() {
        let battery = Battery {
            scenarios: 800_000,
            failing: 2,
            violations: 21,
            first_failing: Some("oc1-08a6".into()),
            ..Battery::default()
        };
        let mut report = Report::default();
        battery.judge(&mut report);
        assert!(report.correct());
        assert_eq!((report.attempted, report.failed), (800_000, 2));
        let share = report.exact.iter().find(|e| e.0 == "check.failed_share").map(|e| &e.1);
        assert_eq!(share, Some(&Value::Num(2.0 / 800_000.0)));
    }
}
