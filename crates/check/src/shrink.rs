//! Deterministic shrink-to-minimal: greedy reduction of a failing
//! scenario, then of its run's draws, re-running the pure
//! `(scenario, run, tape)` function at every step.

use std::cell::Cell;
use std::ops::Range;

use oc_sim::{FaultPhase, FaultPhaseKind, Tape, Violation};
use oc_topology::NodeId;

use crate::{
    run::{run, Outcome, Run},
    scenario::Scenario,
};

/// The result of shrinking one failing scenario.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal scenario: still failing, but no single candidate
    /// reduction keeps it failing.
    pub scenario: Scenario,
    /// The minimal scenario's oracle verdict, drawn from its seed.
    pub outcome: Outcome,
    /// The minimal scenario's draws shrunk further, and the verdict of
    /// the run that plays them — `None` when no reduction of the seeded
    /// draws still fails (the scenario's ID alone is then the minimum).
    /// Each stream is trimmed of its trailing zeros: its length is the
    /// number of draws the run still needs from it.
    pub tape: Option<(Tape, Outcome)>,
    /// Accepted reductions, of the scenario and of the tape.
    pub steps: u32,
    /// Runs spent (accepted + rejected candidates, and the one recording
    /// the minimal scenario's draws).
    pub runs: u32,
}

/// Hard cap on shrink candidate runs — a backstop, far above what the
/// greedy pass needs for explorer-sized scenarios.
const MAX_RUNS: u32 = 4_000;

/// Smallest event cap the shrinker reduces `max_events` to: enough for
/// any explorer-sized scenario's legitimate run plus a detectable
/// livelock margin.
const MIN_SHRUNK_EVENT_CAP: u64 = 50_000;

/// Shrinks a failing scenario to a local minimum, then its draws. A
/// candidate is accepted only if it still fails, and still breaks safety
/// when the scenario did.
///
/// Scenario candidates are tried in a fixed order — tighten the event
/// cap, cut every input after the first safety violation, drop one
/// crash, clear one recovery, drop a contiguous chunk of arrivals
/// (halves, then quarters, … then single arrivals), halve the system
/// size, drop one fault phase (the link-fault window is one), strip the
/// whole fault program — and the first candidate that still fails is
/// accepted, restarting the pass. The pass ends when it accepts nothing.
///
/// The tape pass follows: the minimal scenario's draws are recorded,
/// and candidate tapes — delete a chunk of one stream's entries, zero a
/// chunk, then lower one entry — are played against it. A candidate is
/// accepted when it still fails and the draws its run made, trimmed,
/// are shortlex-smaller than the current tape, so the pass ends. Each
/// search resumes where the last one accepted (an entry lowered by a
/// stride is tried at that stride again), and the pass ends on a full
/// search that accepts nothing.
///
/// Both passes are deterministic: equal inputs shrink to equal minima
/// and equal tapes. Every candidate is played as `how` says, so a
/// scenario shrinks on the substrate, mutation and hardening it failed
/// under. Both passes share one budget of 4 000 runs.
///
/// # Panics
///
/// Panics if `scenario` does not fail under `how` — shrinking a passing
/// scenario is a caller bug.
#[must_use]
pub fn shrink(scenario: &Scenario, how: Run) -> ShrinkResult {
    let runs = Cell::new(0u32);
    let first = run(scenario, how, None, None);
    assert!(!first.is_clean(), "shrink requires a failing scenario (the caller checks)");
    // A safety failure shrinks to a safety failure: a tighter event cap
    // or a cut input must not trade it for a run the cap cut short.
    let unsafe_run = !first.safety.is_clean();
    let fails = |candidate: &Scenario, tape: Option<&mut Tape>| {
        runs.set(runs.get() + 1);
        let outcome = run(candidate, how, None, tape);
        (!outcome.is_clean() && (!unsafe_run || !outcome.safety.is_clean())).then_some(outcome)
    };
    runs.set(1);
    let mut outcome = first;
    let mut current = scenario.clone();
    let mut steps = 0u32;
    while let Some((_, (candidate, failing))) =
        first_failing(candidates(&current, &outcome), 0, &runs, |candidate| {
            let failing = fails(&candidate, None)?;
            Some((candidate, failing))
        })
    {
        (current, outcome) = (candidate, failing);
        steps += 1;
    }
    let mut tape = None;
    if runs.get() < MAX_RUNS {
        let mut seeded = Tape::blank();
        let _ = fails(&current, Some(&mut seeded));
        let (mut best, mut verdict) = (seeded.trimmed(), None);
        let mut from = 0;
        loop {
            let accepted = first_failing(tape_edits(&best), from, &runs, |edit| {
                let mut candidate = edit.apply(&best);
                let failing = fails(&current, Some(&mut candidate))?;
                let candidate = candidate.trimmed();
                (shortlex(&candidate) < shortlex(&best)).then_some((candidate, failing))
            });
            match accepted {
                Some((at, (candidate, failing))) => {
                    (best, verdict) = (candidate, Some(failing));
                    (from, steps) = (at, steps + 1);
                }
                None if from > 0 => from = 0,
                None => break,
            }
        }
        tape = verdict.map(|failing| (best, failing));
    }
    ShrinkResult { scenario: current, outcome, tape, steps, runs: runs.get() }
}

/// One greedy step: the first of `candidates`, from position `from` on,
/// that `accept` accepts, with its position and what `accept` made of
/// it — `None` when none is accepted or the run budget is spent first.
fn first_failing<T, R>(
    candidates: impl Iterator<Item = T>,
    from: usize,
    runs: &Cell<u32>,
    mut accept: impl FnMut(T) -> Option<R>,
) -> Option<(usize, R)> {
    candidates
        .enumerate()
        .skip(from)
        .take_while(|_| runs.get() < MAX_RUNS)
        .find_map(|(at, candidate)| Some(at).zip(accept(candidate)))
}

/// The order tapes shrink in: fewer draws first, then the smaller
/// entries stream by stream.
fn shortlex(tape: &Tape) -> (usize, &[Vec<u64>]) {
    (tape.streams().iter().map(Vec::len).sum(), tape.streams())
}

/// `0..len` in contiguous chunks of halving size, ddmin-style: halves,
/// then quarters, … then single entries.
fn chunks(len: usize) -> impl Iterator<Item = Range<usize>> {
    let sizes = std::iter::successors((len > 0).then_some((len / 2).max(1)), |&size| {
        (size > 1).then_some(size / 2)
    });
    sizes.flat_map(move |size| (0..len).step_by(size).map(move |at| at..(at + size).min(len)))
}

/// The ordered candidate reductions of one scenario whose run gave
/// `outcome`, made one at a time.
fn candidates<'a>(
    scenario: &'a Scenario,
    outcome: &Outcome,
) -> impl Iterator<Item = Scenario> + 'a {
    let edit = move |apply: &dyn Fn(&mut Scenario)| {
        let mut candidate = scenario.clone();
        apply(&mut candidate);
        candidate
    };
    // 0. Tighten the event cap. For livelock failures (horizon
    //    exhaustion) every still-failing candidate otherwise runs the
    //    full cap — millions of events per candidate, billions per
    //    shrink. The cap is part of the scenario (and its ID), so an
    //    accepted reduction also makes the minimal repro cheap to
    //    replay; failures that genuinely need a long run reject it.
    let cap = (scenario.max_events / 8 >= MIN_SHRUNK_EVENT_CAP)
        .then(|| edit(&|c| c.max_events = scenario.max_events / 8));
    // 1. Cut every arrival and crash after the first safety violation:
    //    the run up to it is unchanged, so it still happens.
    let first_violation = outcome.safety.violations().first().map(|violation| match violation {
        Violation::MutualExclusion { at, .. } | Violation::TokenDuplication { at, .. } => {
            at.ticks()
        }
    });
    let cut = first_violation
        .filter(|&at| {
            scenario.arrivals.iter().any(|(t, _)| *t > at)
                || scenario.crashes.iter().any(|crash| crash.at > at)
        })
        .map(|at| {
            edit(&|c| {
                c.arrivals.retain(|(t, _)| *t <= at);
                c.crashes.retain(|crash| crash.at <= at);
            })
        })
        .filter(|candidate| !candidate.arrivals.is_empty());
    // 2. Drop one crash event.
    let drop_crash = (0..scenario.crashes.len()).map(move |index| {
        edit(&|c| {
            c.crashes.remove(index);
        })
    });
    // 3. Clear one recovery (a permanent failure is simpler to reason
    //    about than a crash/recover pair).
    let clear_recovery = (0..scenario.crashes.len())
        .filter(|&index| scenario.crashes[index].recover_at.is_some())
        .map(move |index| edit(&|c| c.crashes[index].recover_at = None));
    // 4. Truncate the workload: drop contiguous chunks, halving the
    //    granularity down to single arrivals (ddmin-style).
    let drop_arrivals = chunks(scenario.arrivals.len())
        .filter(|range| range.len() < scenario.arrivals.len())
        .map(move |range| {
            edit(&|c| {
                c.arrivals.drain(range.clone());
            })
        });
    // 5. Halve the system, dropping events that reference removed nodes
    //    (scripted phases are remapped: members above the fold are cut,
    //    group levels clamped, and phases that become vacuous dropped).
    let halve = (scenario.n >= 4)
        .then(|| {
            let half = scenario.n / 2;
            edit(&|c| {
                c.n = half;
                c.arrivals.retain(|(_, node)| *node <= half as u32);
                c.crashes.retain(|crash| crash.node <= half as u32);
                c.phases = scenario
                    .phases
                    .iter()
                    .filter_map(|phase| shrink_phase_to(phase, half))
                    .collect();
            })
        })
        .filter(|candidate| !candidate.arrivals.is_empty());
    // 6. Drop one fault phase — the link-fault window is one.
    let drop_phase = (0..scenario.phases.len()).map(move |index| {
        edit(&|c| {
            c.phases.remove(index);
        })
    });
    // 7. Strip the whole fault program at once.
    let strip = (scenario.phases.len() > 1).then(|| edit(&|c| c.phases.clear()));
    cap.into_iter()
        .chain(cut)
        .chain(drop_crash)
        .chain(clear_recovery)
        .chain(drop_arrivals)
        .chain(halve)
        .chain(drop_phase)
        .chain(strip)
}

/// One candidate reduction of one stream of a tape.
enum TapeEdit {
    /// Delete a chunk of entries.
    Delete(usize, Range<usize>),
    /// Zero a chunk of entries.
    Zero(usize, Range<usize>),
    /// Set one entry to a lower value.
    Lower(usize, usize, u64),
}

impl TapeEdit {
    /// `tape` with this edit made.
    fn apply(&self, tape: &Tape) -> Tape {
        let mut streams = tape.streams().to_vec();
        match self {
            TapeEdit::Delete(s, range) => drop(streams[*s].drain(range.clone())),
            TapeEdit::Zero(s, range) => streams[*s][range.clone()].fill(0),
            TapeEdit::Lower(s, at, value) => streams[*s][*at] = *value,
        }
        Tape::new(streams)
    }
}

/// The ordered candidate reductions of a tape: for each stream, delete
/// a chunk of entries; then zero a chunk that is not zero already; then
/// lower one entry `v` by `v/2`, `v/4`, … down to 1 — resumed where the
/// last accepted, a descent that keeps its stride while it holds.
fn tape_edits(tape: &Tape) -> impl Iterator<Item = TapeEdit> + '_ {
    let streams = tape.streams().iter().enumerate();
    let delete = streams
        .clone()
        .flat_map(|(s, stream)| chunks(stream.len()).map(move |range| TapeEdit::Delete(s, range)));
    let zero = streams.clone().flat_map(|(s, stream)| {
        chunks(stream.len())
            .filter(|range| stream[range.clone()].iter().any(|&entry| entry != 0))
            .map(move |range| TapeEdit::Zero(s, range))
    });
    let lower = streams.flat_map(|(s, stream)| {
        stream.iter().enumerate().flat_map(move |(at, &value)| {
            (1..u64::BITS)
                .map(move |shift| value >> shift)
                .take_while(|&step| step > 0)
                .map(move |step| TapeEdit::Lower(s, at, value - step))
        })
    });
    delete.chain(zero).chain(lower)
}

/// Remaps one fault phase onto a halved system, or drops it when the
/// remap would make it vacuous or malformed.
fn shrink_phase_to(phase: &FaultPhase, n: usize) -> Option<FaultPhase> {
    let keep = |nodes: &[NodeId]| -> Vec<NodeId> {
        nodes.iter().copied().filter(|node| node.get() <= n as u32).collect()
    };
    let kind = match &phase.kind {
        FaultPhaseKind::GroupPartition { p } => {
            FaultPhaseKind::GroupPartition { p: (*p).min(oc_topology::dimension(n)) }
        }
        FaultPhaseKind::Split { members } => {
            let members = keep(members);
            if members.is_empty() {
                return None;
            }
            FaultPhaseKind::Split { members }
        }
        FaultPhaseKind::Degrade { from, to, loss_per_mille } => {
            let (from, to) = (keep(from), keep(to));
            if from.is_empty() || to.is_empty() {
                return None;
            }
            FaultPhaseKind::Degrade { from, to, loss_per_mille: *loss_per_mille }
        }
        FaultPhaseKind::LossDup { .. } => phase.kind.clone(),
    };
    Some(FaultPhase { from: phase.from, until: phase.until, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioCrash, Space};
    use oc_algo::Mutation;

    /// The skip-regeneration planted bug on the simulator.
    const SKIP: Run = Run { mutation: Mutation::SkipTokenRegeneration, ..Run::SIM };

    /// A deliberately bloated failing scenario under the skip-regeneration
    /// mutation: the crash of borrower 2 matters, the rest is noise. The
    /// tight event cap keeps the livelocking intermediate candidates
    /// cheap — a legitimate run of this size needs well under 10k events.
    fn bloated() -> Scenario {
        Scenario {
            n: 8,
            seed: 3,
            delay_min: 1,
            delay_max: 10,
            cs_ticks: 50,
            contention_slack: 5_000,
            max_events: 40_000,
            arrivals: (0..8u64).map(|i| (1 + i * 40, (i % 7) as u32 + 2)).collect(),
            crashes: vec![
                ScenarioCrash { node: 2, at: 30, recover_at: None },
                ScenarioCrash { node: 5, at: 4_000, recover_at: Some(6_000) },
                ScenarioCrash { node: 7, at: 9_000, recover_at: None },
            ],
            phases: Vec::new(),
        }
    }

    #[test]
    fn shrink_reaches_a_failing_local_minimum() {
        let result = shrink(&bloated(), SKIP);
        assert!(!result.outcome.is_clean(), "the minimum must still fail");
        assert!(result.steps > 0, "the bloated scenario must shrink at all");
        assert!(
            result.scenario.arrivals.len() < 8,
            "most of the workload is noise: {:?}",
            result.scenario
        );
        assert!(result.scenario.crashes.len() <= 2, "noise crashes must be dropped");
        // Minimality: every single further reduction passes.
        for candidate in super::candidates(&result.scenario, &result.outcome) {
            assert!(
                run(&candidate, SKIP, None, None).is_clean(),
                "a further reduction still fails — not a local minimum"
            );
        }
    }

    #[test]
    fn shrink_is_deterministic() {
        let a = shrink(&bloated(), SKIP);
        let b = shrink(&bloated(), SKIP);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!((a.steps, a.runs), (b.steps, b.runs));
    }

    #[test]
    fn shrunk_scenario_replays_from_its_id_alone() {
        let result = shrink(&bloated(), SKIP);
        let replayed = Scenario::from_id(&result.scenario.id()).expect("id decodes");
        assert_eq!(replayed, result.scenario);
        let outcome = run(&replayed, SKIP, None, None);
        assert_eq!(outcome, result.outcome, "replay must be byte-identical");
        assert_eq!(outcome.fingerprint(), result.outcome.fingerprint());
    }

    #[test]
    #[should_panic(expected = "failing scenario")]
    fn shrinking_a_passing_scenario_is_rejected() {
        let clean = Scenario::generate(&Space::default(), 1, 0);
        // Index 0 of the default space happens to be clean; if that ever
        // changes, pick another — the panic is what matters.
        assert!(run(&clean, Run::SIM, None, None).is_clean());
        let _ = shrink(&clean, Run::SIM);
    }
}
