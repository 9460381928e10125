//! A reset world is a new world: one thread runs a mix of scenarios
//! through its one kept `World` (reset in place by every runner), and each
//! verdict must equal, field for field, the one a world built by
//! `World::new` gives — here, the one a fresh thread gives, since a thread
//! that has run nothing holds no world to reset.
//!
//! The mix is chosen so that whatever a run leaves behind would show in
//! the next one if a reset missed it: sizes rise and fall (2 → 64 → 4),
//! nodes crash and recover or stay dead, a partition phase precedes a
//! duplication phase, quorum hardening and a planted mutation leave oracle
//! violations behind, an undrained run is cut off by its event cap with
//! events, timers and pending requests still in flight, a trace is
//! recorded and then not, and a baseline protocol takes the thread's slot
//! between two open-cube runs.

use std::thread;

use oc_algo::{Hardening, Mutation};
use oc_baselines::RaymondNode;
use oc_check::{run, run_scenario_with, Outcome, Run, Scenario, ScenarioCrash, Space};
use oc_sim::{FaultPhase, FaultPhaseKind, SimTime, Trace};

/// One call of a runner.
#[derive(Debug, Clone)]
enum Call {
    Plain(Scenario, Mutation, Hardening),
    Traced(Scenario, Mutation, Hardening),
    Raymond(Scenario),
}

impl Call {
    fn scenario(&self) -> &Scenario {
        match self {
            Call::Plain(scenario, ..) | Call::Traced(scenario, ..) | Call::Raymond(scenario) => {
                scenario
            }
        }
    }
}

/// The run's outcome, and its trace's length and hash when it recorded
/// one.
fn play(call: &Call) -> (Outcome, Option<(usize, u64)>) {
    let on_sim = |mutation, hardening| Run { mutation, hardening, ..Run::SIM };
    match call {
        Call::Plain(scenario, mutation, hardening) => {
            (run(scenario, on_sim(*mutation, *hardening), None, None), None)
        }
        Call::Traced(scenario, mutation, hardening) => {
            let mut trace = Trace::default();
            let outcome = run(scenario, on_sim(*mutation, *hardening), Some(&mut trace), None);
            (outcome, Some((trace.records().len(), trace.hash64())))
        }
        Call::Raymond(scenario) => {
            (run_scenario_with(scenario, |s| RaymondNode::build_all(s.n)), None)
        }
    }
}

/// `n` nodes, `arrivals` requests spread over them, nothing else.
fn scenario(n: usize, seed: u64, arrivals: u64) -> Scenario {
    Scenario {
        n,
        seed,
        delay_min: 1,
        delay_max: 10,
        cs_ticks: 30,
        contention_slack: 2_000,
        max_events: 1_000_000,
        arrivals: (0..arrivals).map(|k| (1 + 7 * k, (k % n as u64) as u32 + 1)).collect(),
        crashes: Vec::new(),
        phases: Vec::new(),
    }
}

fn phase(from: u64, until: u64, kind: FaultPhaseKind) -> FaultPhase {
    FaultPhase { from: SimTime::from_ticks(from), until: SimTime::from_ticks(until), kind }
}

fn crash(node: u32, at: u64, recover_at: Option<u64>) -> ScenarioCrash {
    ScenarioCrash { node, at, recover_at }
}

/// The hand-made part of the mix, in the order one thread runs it.
fn hand_made() -> Vec<Call> {
    let none = (Mutation::None, Hardening::None);
    let crash_and_recover =
        Scenario { crashes: vec![crash(2, 40, Some(400))], ..scenario(2, 1, 12) };
    let partition_then_duplication = Scenario {
        phases: vec![
            phase(20, 200, FaultPhaseKind::GroupPartition { p: 3 }),
            phase(
                300,
                900,
                FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 500 },
            ),
        ],
        crashes: vec![crash(9, 60, Some(700))],
        ..scenario(64, 2, 90)
    };
    let quorum = Scenario {
        crashes: vec![crash(1, 25, Some(900)), crash(3, 1_500, Some(1_900))],
        ..scenario(4, 3, 20)
    };
    // Node 3 stays dead: a world that kept its flags would abandon the
    // next scenario's requests there.
    let permanent = Scenario { crashes: vec![crash(3, 50, None)], ..scenario(16, 5, 30) };
    let undrained = Scenario { max_events: 200, ..scenario(32, 6, 60) };
    let small = scenario(2, 7, 4);
    // The lender's regeneration is planted away and the borrower dies
    // with the token: the horizon reads the token census, which a world
    // that kept the last run's holders or in-flight tokens would get
    // wrong.
    let wedge = Scenario { crashes: vec![crash(2, 30, None)], ..scenario(4, 11, 1) };
    let mut runs = vec![
        Call::Plain(crash_and_recover.clone(), none.0, none.1),
        Call::Plain(partition_then_duplication.clone(), none.0, none.1),
        // Traffic inside both phases' windows, with no script of its own.
        Call::Plain(scenario(64, 10, 90), none.0, none.1),
        Call::Plain(quorum.clone(), Mutation::None, Hardening::Quorum),
        Call::Plain(scenario(8, 4, 16), Mutation::KeepTokenOnTransit, Hardening::None),
        Call::Plain(permanent, none.0, none.1),
        Call::Plain(scenario(4, 8, 12), none.0, none.1),
        Call::Plain(undrained.clone(), none.0, none.1),
        Call::Plain(small.clone(), none.0, none.1),
        Call::Traced(partition_then_duplication.clone(), none.0, Hardening::Quorum),
        Call::Plain(partition_then_duplication, none.0, Hardening::Quorum),
        Call::Raymond(scenario(8, 9, 16)),
        Call::Traced(undrained, Mutation::SkipTokenRegeneration, Hardening::None),
        Call::Plain(crash_and_recover, Mutation::SkipTokenRegeneration, Hardening::None),
        Call::Raymond(small),
        Call::Plain(quorum, none.0, none.1),
    ];
    for max_events in [150, 175, 225, 250] {
        let cut_off = Scenario { max_events, ..scenario(32, 6, 60) };
        runs.push(Call::Plain(cut_off, none.0, none.1));
        runs.push(Call::Plain(wedge.clone(), Mutation::SkipTokenRegeneration, Hardening::None));
    }
    runs.push(Call::Plain(scenario(8, 12, 8), none.0, none.1));
    runs.push(Call::Plain(wedge, Mutation::SkipTokenRegeneration, Hardening::None));
    runs
}

/// Generated scenarios from the widest space the explorer samples
/// (overlapping crashes, loss, partitions), modes rotating. A tight event
/// cap keeps the test quick and cuts more runs off mid-flight.
fn generated() -> Vec<Call> {
    let space = Space {
        allow_loss: true,
        overlapping_crashes: true,
        partitions: true,
        max_events: 20_000,
        ..Space::default()
    };
    (0..120)
        .map(|index| {
            let scenario = Scenario::generate(&space, 42, index);
            match index % 4 {
                0 => Call::Plain(scenario, Mutation::None, Hardening::None),
                1 => Call::Plain(scenario, Mutation::None, Hardening::Quorum),
                2 => Call::Traced(scenario, Mutation::None, Hardening::None),
                _ => Call::Plain(scenario, Mutation::KeepTokenOnTransit, Hardening::None),
            }
        })
        .collect()
}

#[test]
fn a_reset_world_judges_like_a_new_one() {
    let runs: Vec<Call> = hand_made().into_iter().chain(generated()).collect();
    // One thread, one kept world, every run in order.
    let reused = thread::scope(|s| s.spawn(|| runs.iter().map(play).collect::<Vec<_>>()).join())
        .expect("the reusing thread finished");
    let (mut dirty, mut undrained, mut cut, mut duplicated) = (0, 0, 0, 0);
    for (k, (run, kept)) in runs.iter().zip(&reused).enumerate() {
        // A thread that has run nothing builds its world with `World::new`.
        let fresh =
            thread::scope(|s| s.spawn(|| play(run)).join()).expect("a fresh thread finished");
        assert_eq!(*kept, fresh, "run {k} differs from a new world's: {run:?}");
        assert!(fresh.1.is_none_or(|(records, _)| records > 0), "run {k} recorded no trace");
        assert!(fresh.0.events <= run.scenario().max_events, "run {k} outran its event cap");
        dirty += usize::from(!fresh.0.is_clean());
        undrained += usize::from(!fresh.0.drained);
        cut += usize::from(fresh.0.lost_to_partition > 0);
        duplicated += usize::from(fresh.0.duplicated > 0);
    }
    // The mix does leave something behind to be reset.
    assert!(dirty >= 3, "{dirty} runs with violations");
    assert!(undrained >= 2, "{undrained} runs cut off by their event cap");
    assert!(
        cut >= 1 && duplicated >= 1,
        "{cut} runs lost messages to a cut, {duplicated} duplicated"
    );
}
