//! One battery, every substrate: the explorer's 2 000-scenario default
//! battery, played through `oc_check::run` on virtual-time ends beside
//! the simulator and held to the simulator's outcome, index by index.
//! `nodeproc.rs` runs it on `Nodeproc` and `NodeprocLogs`,
//! `runtime_virtual.rs` on `Runtime { workers: 2 }`.
//!
//! What each end must match:
//!
//! * `nodeproc` — the socket node's own code (`oc_transport::Proc`:
//!   codec, clock, log, `--recover` path, gateway queue), judged by the
//!   world's oracles: the simulator's outcome field for field, but for
//!   the protocol counts of `coverage` (a `Proc` drops them). Both ends
//!   schedule every arrival, so they inject the same requests.
//! * `nodeproc-logs` — the same run judged post hoc from the nodes' event
//!   logs: the same requests served and abandoned, clean or not alike.
//! * `runtime:W` — the threaded runtime's worker cores: the same requests
//!   served or abandoned, the same crashes and recoveries, the same
//!   drained verdict, clean or not. Its links draw their delays from the
//!   scenario's envelope as the simulator's do, but each worker from a
//!   stream of its own, in an order a seeded scheduler interleaves: its
//!   draws, and with them its counters of messages and events, differ.
//!
//! Every run, the simulator's too, draws from its seed through a blank
//! tape that records the draws, and is played again from that tape: the
//! replay must give the identical outcome, on every end.
//!
//! A scenario on which an end disagrees is a finding: shrink it and pin
//! its `oc1-` id with the reason.

use std::time::{Duration, Instant};

use oc_check::{run, Outcome, Run, Scenario, Space, Substrate};
use oc_sim::Tape;

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

/// Panics unless `outcome`, from `substrate`, agrees with the simulator's
/// `sim` on `scenario` as far as that end can (see the module docs).
pub fn assert_agrees(substrate: Substrate, scenario: &Scenario, sim: &Outcome, outcome: &Outcome) {
    let id = scenario.id();
    match substrate {
        Substrate::Nodeproc => {
            let world = Outcome { coverage: sim.coverage.clone(), ..outcome.clone() };
            assert_eq!(&world, sim, "the world's judgement diverged on {id}");
        }
        Substrate::NodeprocLogs => assert_eq!(
            (outcome.cs_entries, outcome.abandoned, outcome.is_clean()),
            (sim.cs_entries, sim.abandoned, sim.is_clean()),
            "the log judgement diverged on {id}: {outcome:?}"
        ),
        Substrate::Runtime { .. } => assert_eq!(
            verdict(outcome),
            verdict(sim),
            "the runtime's workers diverged from the simulator on {id}: {outcome:?}"
        ),
        Substrate::Sim => unreachable!("the simulator is the reference"),
    }
}

/// One end's share of a battery.
#[derive(Default)]
pub struct End {
    /// Its outcomes, index by index.
    pub outcomes: Vec<Outcome>,
    /// The wall time its runs took, each recorded and replayed, the
    /// simulator's not counted.
    pub wall: Duration,
}

/// Plays `scenario` as `how` says from its seed, recording its draws,
/// and returns the outcome once the tape of those draws has replayed it.
fn recorded_and_replayed(scenario: &Scenario, how: Run) -> Outcome {
    let mut tape = Tape::blank();
    let recorded = run(scenario, how, None, Some(&mut tape));
    let replayed = run(scenario, how, None, Some(&mut tape));
    assert_eq!(replayed, recorded, "its tape replays {} differently", scenario.id());
    recorded
}

/// The 2 000-scenario default battery at `seed` on every end of
/// `substrates`, in their order; panics on the first scenario an end
/// disagrees with the simulator on, or a tape replays differently.
pub fn battery<const N: usize>(seed: u64, substrates: [Substrate; N]) -> [End; N] {
    let mut ends: [End; N] = std::array::from_fn(|_| End::default());
    for index in 0..2_000 {
        let scenario = Scenario::generate(&Space::default(), seed, index);
        let sim = recorded_and_replayed(&scenario, Run::SIM);
        for (substrate, end) in substrates.into_iter().zip(&mut ends) {
            let start = Instant::now();
            let outcome = recorded_and_replayed(&scenario, Run { substrate, ..Run::SIM });
            end.wall += start.elapsed();
            assert_agrees(substrate, &scenario, &sim, &outcome);
            end.outcomes.push(outcome);
        }
    }
    ends
}

/// The sum of `read` over `runs`.
pub fn sum(runs: &[Outcome], read: fn(&Outcome) -> u64) -> u64 {
    runs.iter().map(read).sum()
}

/// How many of `runs` are not clean.
pub fn failures(runs: &[Outcome]) -> usize {
    runs.iter().filter(|run| !run.is_clean()).count()
}
