//! The enumerating source walks every tape of a run: each draw — a
//! delay, a fate, the order of events due at one tick — is an index
//! below its range, so a depth-first walk over those indices visits
//! every run a tiny scenario has, once each.
//!
//! The walk is played in a world built as `oc_check::run` builds it, and
//! every tape it visits is played again through `oc_check::run`, on the
//! simulator and on the socket node's code: the replay must draw the very
//! same tape, and both ends must agree on its outcome.

#[allow(dead_code)] // `assert_agrees` alone is used here.
mod battery;

use std::collections::{BTreeMap, BTreeSet};

use battery::assert_agrees;
use oc_algo::{Hardening, Mutation, OpenCubeNode};
use oc_check::{run, run_scenario, Outcome, Run, Scenario, Space, Substrate};
use oc_sim::{Choices, DelayModel, Draw, SimConfig, SimDuration, SimTime, Tape, World};
use oc_topology::NodeId;

/// A scenario of `n` nodes, with `arrivals` and every delay in
/// `[delay_min, delay_max]`, no crash and no fault.
fn tiny(n: usize, delay_min: u64, delay_max: u64, arrivals: &[(u64, u32)]) -> Scenario {
    Scenario {
        n,
        seed: 1,
        delay_min,
        delay_max,
        cs_ticks: 50,
        contention_slack: 2_000,
        max_events: 100_000,
        arrivals: arrivals.to_vec(),
        crashes: Vec::new(),
        phases: Vec::new(),
    }
}

/// The world `oc_check::run` plays `scenario` in on the simulator,
/// drawing from `choices`.
fn world(scenario: &Scenario, choices: Choices) -> World<OpenCubeNode> {
    let sim = SimConfig {
        delay: DelayModel::Uniform {
            min: SimDuration::from_ticks(scenario.delay_min),
            max: SimDuration::from_ticks(scenario.delay_max),
        },
        cs_duration: SimDuration::from_ticks(scenario.cs_ticks),
        seed: scenario.seed,
        record_trace: false,
        max_events: scenario.max_events,
        script: scenario.fault_script(),
    };
    let config = scenario.config(Mutation::None, Hardening::None);
    let mut world = World::new(sim, OpenCubeNode::build_all(config));
    for (at, node) in &scenario.arrivals {
        world.schedule_request(SimTime::from_ticks(*at), NodeId::new(*node));
    }
    for crash in &scenario.crashes {
        let node = NodeId::new(crash.node);
        world.schedule_failure(SimTime::from_ticks(crash.at), node);
        if let Some(recover_at) = crash.recover_at {
            world.schedule_recovery(SimTime::from_ticks(recover_at), node);
        }
    }
    world.set_choices(choices);
    world
}

/// One tie of a run: the tick, and how many events were due at it when
/// the order draw was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tie {
    at: u64,
    k: u64,
}

/// The ties `scenario`'s seeded run meets, in the order met. The seeded
/// run leaves each in `seq` order without drawing, so it is played
/// twice: once from its recorded draws with an empty order stream, which
/// is the seeded run and says after which draws each tie falls, then by
/// the enumerating source from the same draws with a zero at each tie,
/// which is the seeded run again and records each tie's width.
fn seeded_ties(scenario: &Scenario) -> Vec<Tie> {
    let mut recorded = Tape::blank();
    let _ = run(scenario, Run::SIM, None, Some(&mut recorded));
    let draws = recorded.streams()[0].clone();
    let taped = Tape::new(vec![draws.clone(), Vec::new()]);
    let mut taped = world(scenario, taped.world_choices(scenario.seed));
    let (mut prefix, mut seen, mut at) = (Vec::new(), [0, 0], Vec::new());
    while taped.metrics().events_processed < scenario.max_events && taped.step() {
        let streams = taped.choices().streams();
        if streams[1].len() > seen[1] {
            prefix.push(0);
            at.push(taped.now().ticks());
        }
        prefix.extend(&streams[0][seen[0]..]);
        seen = [streams[0].len(), streams[1].len()];
    }
    let mut enumerated =
        world(scenario, Choices::Enumerate { prefix: prefix.into(), log: Vec::new() });
    enumerated.run_to_quiescence();
    let streams = enumerated.choices().streams();
    assert_eq!(streams, [draws, vec![0; at.len()]], "{}", scenario.id());
    let Choices::Enumerate { log, .. } = enumerated.choices() else { unreachable!() };
    let widths = log.iter().filter(|draw| draw.order).map(|draw| draw.max + 1);
    at.into_iter().zip(widths).map(|(at, k)| Tie { at, k }).collect()
}

/// One tape of the walk: what it drew, stream by stream and in the order
/// drawn, and its outcome.
struct Visit {
    tape: Tape,
    outcome: Outcome,
    log: Vec<Draw>,
}

/// Every tape of `scenario`'s run, in the order the walk visits them,
/// each replayed through `oc_check::run` on the simulator and on the
/// socket node's code.
fn walk(scenario: &Scenario) -> Vec<Visit> {
    let mut visits = Vec::new();
    let mut next = Some(Choices::enumerate());
    while let Some(choices) = next {
        let mut world = world(scenario, choices);
        assert!(world.run_to_quiescence(), "a tiny run drains");
        let mut tape = Tape::blank();
        tape.keep([world.choices()]);
        let Choices::Enumerate { log, .. } = world.choices() else { unreachable!() };
        let mut replayed = tape.clone();
        let outcome = run(scenario, Run::SIM, None, Some(&mut replayed));
        assert_eq!(replayed, tape, "the replay draws the walk's tape");
        let nodeproc = Run { substrate: Substrate::Nodeproc, ..Run::SIM };
        let mut on_nodeproc = tape.clone();
        let socket = run(scenario, nodeproc, None, Some(&mut on_nodeproc));
        assert_eq!(on_nodeproc, tape, "the socket node's code draws the walk's tape");
        assert_agrees(Substrate::Nodeproc, scenario, &outcome, &socket);
        visits.push(Visit { tape, outcome, log: log.clone() });
        next = world.choices().next_sibling();
        assert!(visits.len() <= 100_000, "the walk ends");
    }
    visits
}

/// The distinct outcomes of `visits`, each with how many tapes reach it.
fn outcomes(visits: &[Visit]) -> BTreeMap<String, usize> {
    let mut seen = BTreeMap::new();
    for visit in visits {
        *seen.entry(format!("{:?}", visit.outcome)).or_default() += 1;
    }
    seen
}

/// Panics if the walk visited a tape twice.
fn assert_distinct(visits: &[Visit]) {
    let tapes: BTreeSet<String> = visits.iter().map(|visit| visit.tape.to_string()).collect();
    assert_eq!(tapes.len(), visits.len(), "the walk visits no tape twice");
}

#[test]
fn a_constant_delay_run_is_walked_through_every_same_tick_order() {
    // Two requests at one tick, every delay 5: ties at t = 1 and
    // wherever two messages meet again.
    let scenario = tiny(4, 5, 5, &[(1, 2), (1, 3)]);
    let visits = walk(&scenario);
    assert_distinct(&visits);
    // A constant delay leaves nothing to draw but the order of ties.
    for visit in &visits {
        assert!(visit.log.iter().all(|draw| draw.order || draw.max == 0), "{:?}", visit.log);
    }
    // The walk starts at the all-zero tape, the seq order, which is the
    // seeded run: a constant delay draws the same from any source.
    let seq_order = &visits[0];
    assert!(seq_order.log.iter().all(|draw| draw.value == 0));
    assert_eq!(seq_order.outcome, run_scenario(&scenario, Mutation::None));
    let seen = outcomes(&visits);
    println!(
        "constant delay: {} tapes, {} distinct outcomes, {} ties on the seq-order run",
        visits.len(),
        seen.len(),
        seq_order.log.iter().filter(|draw| draw.order).count()
    );
    assert!(seen.contains_key(&format!("{:?}", seq_order.outcome)));
    // Three ties on the seq-order run; twelve orders in all, which end
    // in two outcomes.
    assert_eq!((visits.len(), seen.len()), (12, 2), "{seen:#?}");
}

#[test]
fn a_two_valued_delay_walk_holds_every_tape_a_random_tape_draws() {
    // Requests at t = 1 and t = 2, every delay 1 or 2: whether two
    // messages tie depends on the delays drawn before them.
    let scenario = tiny(4, 1, 2, &[(1, 2), (2, 3)]);
    let visits = walk(&scenario);
    assert_distinct(&visits);
    assert_eq!(visits.len(), 80);
    // Order draws and delay draws interleave on one tape, and the walk
    // keeps them in the order drawn: a tie some delays make, others
    // do not.
    assert!(visits.iter().any(|visit| {
        let first_order = visit.log.iter().position(|draw| draw.order);
        first_order.is_some_and(|at| visit.log[at..].iter().any(|draw| !draw.order))
            && visit.log.iter().position(|draw| !draw.order) < first_order
    }));
    let walked: BTreeSet<String> = visits.iter().map(|visit| visit.tape.to_string()).collect();
    let longest = visits.iter().map(|visit| visit.log.len()).max().unwrap_or(0);
    // A splitmix64 stream: 1 000 random tapes of two streams, entries
    // up to 2 (some clamped), each as long as the longest walked run.
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut drawn = BTreeSet::new();
    for _ in 0..1_000 {
        let streams = (0..2).map(|_| (0..longest).map(|_| next() % 3).collect()).collect();
        let mut tape = Tape::new(streams);
        let _ = run(&scenario, Run::SIM, None, Some(&mut tape));
        let tape = tape.to_string();
        assert!(walked.contains(&tape), "a random tape drew {tape}, which the walk missed");
        drawn.insert(tape);
    }
    assert_eq!(drawn.len(), visits.len(), "at this size random tapes reach every run");
    println!(
        "delays in [1, 2]: {} tapes, {} distinct outcomes; 1 000 random tapes drew {} of them",
        visits.len(),
        outcomes(&visits).len(),
        drawn.len()
    );
}

/// EXPERIMENTS.md E8's *Same-tick ties*, pinned: how many ties the
/// seeded runs of the explorer's default battery at seed 42 meet, and
/// how wide each is — the width a walk over same-tick order must
/// enumerate — and what reversing ROADMAP item 1(b)'s t = 118 tie does to
/// its witness. `--nocapture` prints the figures.
#[test]
fn same_tick_ties_of_the_default_battery() {
    let (mut tied, mut points, mut most_points, mut widths, mut widest) = (0, 0, 0, 0, 0);
    for index in 0..2_000 {
        let ties = seeded_ties(&Scenario::generate(&Space::default(), 42, index));
        tied += usize::from(!ties.is_empty());
        points += ties.len();
        most_points = most_points.max(ties.len());
        widths += ties.iter().map(|tie| tie.k).sum::<u64>();
        widest = widest.max(ties.iter().map(|tie| tie.k).max().unwrap_or(0));
    }
    println!(
        "seed 42, 2 000 scenarios: {tied} meet a tie; {points} tie points, {most_points} at most \
         in one scenario; k sums to {widths}, {widest} at most"
    );
    assert_eq!((tied, points, most_points, widths, widest), (879, 4_615, 57, 13_549, 16));

    // The duplicate of `request(8)` lands at node 7 in the tick of the
    // request it copies: the witness's first tie.
    let witness = Scenario::from_id(
        "oc1-0884b8e6f2d2e79bc6b10118182af81590a10f34dc01009601055e088d0103bc0106eb0104c9020500",
    )
    .expect("the witness decodes");
    assert_eq!(seeded_ties(&witness)[0], Tie { at: 118, k: 2 });
    let mut recorded = Tape::blank();
    let seeded = run(&witness, Run::SIM, None, Some(&mut recorded));
    let mut reversed = Tape::new(vec![recorded.streams()[0].clone(), vec![1]]);
    let outcome = run(&witness, Run::SIM, None, Some(&mut reversed));
    // The two events are one message delivered twice, so their order
    // cannot matter: the reversed run is the seeded one, still dirty.
    assert_eq!(outcome, seeded);
    assert_eq!(seeded.violation_count(), 10);
}
