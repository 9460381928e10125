//! Deterministic shrink-to-minimal: greedy reduction of a failing
//! scenario, re-running the pure `(scenario, run)` function at every
//! step.

use oc_sim::{FaultPhase, FaultPhaseKind};
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
    /// The minimal scenario's oracle verdict.
    pub outcome: Outcome,
    /// Accepted reductions.
    pub steps: u32,
    /// Scenario runs spent (accepted + rejected candidates).
    pub runs: u32,
}

/// Hard cap on shrink candidate runs — a backstop, far above what the
/// greedy pass needs for explorer-sized scenarios.
const MAX_RUNS: u32 = 4_000;

/// Smallest event cap the shrinker reduces `max_events` to: enough for
/// any explorer-sized scenario's legitimate run plus a detectable
/// livelock margin.
const MIN_SHRUNK_EVENT_CAP: u64 = 50_000;

/// Shrinks a failing scenario to a local minimum.
///
/// Candidates are tried in a fixed order — drop one crash, clear one
/// recovery, drop a contiguous chunk of arrivals (halves, then quarters,
/// … then single arrivals), halve the system size, drop one fault phase
/// (the link-fault window is one), strip the whole fault program — and
/// the first candidate that still fails is accepted,
/// restarting the pass. The loop ends when a full pass accepts nothing,
/// so the result is deterministic: equal inputs shrink to equal minima.
/// Every candidate is played as `how` says, so a scenario shrinks on the
/// substrate, mutation and hardening it failed under.
///
/// # Panics
///
/// Panics if `scenario` does not fail under `how` — shrinking a passing
/// scenario is a caller bug.
#[must_use]
pub fn shrink(scenario: &Scenario, how: Run) -> ShrinkResult {
    fn fails(candidate: &Scenario, how: Run, runs: &mut u32) -> Option<Outcome> {
        *runs += 1;
        let outcome = run(candidate, how, None);
        (!outcome.is_clean()).then_some(outcome)
    }
    let mut runs = 0u32;
    let mut outcome = fails(scenario, how, &mut runs)
        .expect("shrink requires a failing scenario (the caller checks)");
    let mut current = scenario.clone();
    let mut steps = 0u32;
    'outer: loop {
        if runs >= MAX_RUNS {
            break;
        }
        for candidate in candidates(&current) {
            if runs >= MAX_RUNS {
                break 'outer;
            }
            if let Some(failing) = fails(&candidate, how, &mut runs) {
                current = candidate;
                outcome = failing;
                steps += 1;
                continue 'outer;
            }
        }
        break; // full pass without an accepted reduction: local minimum
    }
    ShrinkResult { scenario: current, outcome, steps, runs }
}

/// The ordered candidate reductions of one scenario.
fn candidates(scenario: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // 0. Tighten the event cap. For livelock failures (horizon
    //    exhaustion) every still-failing candidate otherwise runs the
    //    full cap — millions of events per candidate, billions per
    //    shrink. The cap is part of the scenario (and its ID), so an
    //    accepted reduction also makes the minimal repro cheap to
    //    replay; failures that genuinely need a long run reject it.
    if scenario.max_events / 8 >= MIN_SHRUNK_EVENT_CAP {
        let mut candidate = scenario.clone();
        candidate.max_events = scenario.max_events / 8;
        out.push(candidate);
    }
    // 1. Drop one crash event.
    for index in 0..scenario.crashes.len() {
        let mut candidate = scenario.clone();
        candidate.crashes.remove(index);
        out.push(candidate);
    }
    // 2. Clear one recovery (a permanent failure is simpler to reason
    //    about than a crash/recover pair).
    for (index, crash) in scenario.crashes.iter().enumerate() {
        if crash.recover_at.is_some() {
            let mut candidate = scenario.clone();
            candidate.crashes[index].recover_at = None;
            out.push(candidate);
        }
    }
    // 3. Truncate the workload: drop contiguous chunks, halving the
    //    granularity down to single arrivals (ddmin-style).
    let len = scenario.arrivals.len();
    let mut chunk = len / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let mut candidate = scenario.clone();
            candidate.arrivals.drain(start..end);
            if !candidate.arrivals.is_empty() {
                out.push(candidate);
            }
            start = end;
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    // 4. Halve the system, dropping events that reference removed nodes
    //    (scripted phases are remapped: members above the fold are cut,
    //    group levels clamped, and phases that become vacuous dropped).
    if scenario.n >= 4 {
        let half = scenario.n / 2;
        let mut candidate = scenario.clone();
        candidate.n = half;
        candidate.arrivals.retain(|(_, node)| *node <= half as u32);
        candidate.crashes.retain(|crash| crash.node <= half as u32);
        candidate.phases =
            scenario.phases.iter().filter_map(|phase| shrink_phase_to(phase, half)).collect();
        if !candidate.arrivals.is_empty() {
            out.push(candidate);
        }
    }
    // 5. Drop one fault phase — the link-fault window is one.
    for index in 0..scenario.phases.len() {
        let mut candidate = scenario.clone();
        candidate.phases.remove(index);
        out.push(candidate);
    }
    // 6. Strip the whole fault program at once.
    if scenario.phases.len() > 1 {
        let mut candidate = scenario.clone();
        candidate.phases.clear();
        out.push(candidate);
    }
    out
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
        for candidate in super::candidates(&result.scenario) {
            assert!(
                run(&candidate, SKIP, None).is_clean(),
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
        let outcome = run(&replayed, SKIP, None);
        assert_eq!(outcome, result.outcome, "replay must be byte-identical");
        assert_eq!(outcome.fingerprint(), result.outcome.fingerprint());
    }

    #[test]
    #[should_panic(expected = "failing scenario")]
    fn shrinking_a_passing_scenario_is_rejected() {
        let clean = Scenario::generate(&Space::default(), 1, 0);
        // Index 0 of the default space happens to be clean; if that ever
        // changes, pick another — the panic is what matters.
        assert!(run(&clean, Run::SIM, None).is_clean());
        let _ = shrink(&clean, Run::SIM);
    }
}
