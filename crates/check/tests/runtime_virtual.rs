//! The threaded runtime's own worker code in virtual time: the cores of
//! `oc_runtime`'s workers — delay queues, live timers, batch books,
//! fault script and oracle monitors — stepped on one thread through
//! `run_scenario_runtime_virtual` and held to `run_scenario`'s verdict
//! on the explorer's default battery.
//!
//! The two substrates draw different message delays (the runtime
//! uniformly below δ, the simulator from the scenario's delay envelope),
//! so their counters of messages and events differ; what a scenario
//! asks of any substrate — the same requests served or abandoned, the
//! same crashes and recoveries, the same drained verdict, clean or not —
//! must not. A scenario on which they disagree is a finding: shrink it
//! and pin its `oc1-` id here with the reason.

use std::time::{Duration, Instant};

use oc_algo::Mutation;
use oc_check::{run_scenario, run_scenario_runtime_virtual, Outcome, Scenario, Space};

/// The runtime's workers per virtual run of the battery.
const WORKERS: usize = 2;

/// What a scenario asks of every substrate.
fn verdict(outcome: &Outcome) -> (bool, u64, u64, u64, u64, bool) {
    (
        outcome.drained,
        outcome.cs_entries,
        outcome.abandoned,
        outcome.crashes,
        outcome.recoveries,
        outcome.is_clean(),
    )
}

/// The 2 000-scenario default battery at `seed` through both runners;
/// panics on the first scenario they disagree on.
fn battery(seed: u64) -> Vec<Outcome> {
    let mut virtual_time = Duration::ZERO;
    let runs: Vec<Outcome> = (0..2_000)
        .map(|index| {
            let scenario = Scenario::generate(&Space::default(), seed, index);
            let sim = run_scenario(&scenario, Mutation::None);
            let start = Instant::now();
            let run = run_scenario_runtime_virtual(&scenario, Mutation::None, WORKERS);
            virtual_time += start.elapsed();
            assert_eq!(
                verdict(&run),
                verdict(&sim),
                "the runtime's workers diverged from the simulator on index {index}, {}: {run:?}",
                scenario.id()
            );
            run
        })
        .collect();
    let sum = |read: fn(&Outcome) -> u64| runs.iter().map(read).sum::<u64>();
    eprintln!(
        "runtime virtual battery seed={seed} workers={WORKERS} scenarios={} failures={} \
         drained={} cs={} abandoned={} messages={} events={} crashes={} recoveries={} \
         duplicated={} runtime_wall={:.3}s",
        runs.len(),
        runs.iter().filter(|run| !run.is_clean()).count(),
        runs.iter().filter(|run| run.drained).count(),
        sum(|run| run.cs_entries),
        sum(|run| run.abandoned),
        sum(|run| run.messages),
        sum(|run| run.events),
        sum(|run| run.crashes),
        sum(|run| run.recoveries),
        sum(|run| run.duplicated),
        virtual_time.as_secs_f64(),
    );
    runs
}

#[test]
fn the_seed_42_default_battery_agrees_with_the_simulator_twice_over() {
    let first = battery(42);
    assert!(first.iter().any(|run| run.crashes > 0), "the battery crashes nodes");
    assert!(first.iter().any(|run| run.duplicated > 0), "the battery duplicates messages");
    assert_eq!(first, battery(42), "two runs of the battery differ");
}

#[test]
fn the_seed_43_default_battery_agrees_with_the_simulator() {
    battery(43);
}
