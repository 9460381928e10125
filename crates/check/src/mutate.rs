//! Structure-aware scenario mutators — the guided explorer's move set.
//!
//! Every mutator rewrites one aspect of a [`Scenario`] while preserving
//! the invariants [`Scenario::from_id`] enforces (arrivals non-empty and
//! in range, a sane delay envelope, recoveries after their crashes,
//! well-formed phases), so every mutant — like every corpus entry — stays
//! a portable, replayable `oc1-` ID. The debug builds re-validate each
//! mutant through the codec to keep that promise honest.
//!
//! The move set is biased toward the protocol's fault machinery: the
//! highest-yield mutator plants a crash right after a workload arrival
//! (the borrowed-token-dies-with-its-borrower shape behind most of the
//! explorer's historical findings), and the rest perturb timing, victims,
//! contention, fault windows, and — via corpus splicing — partition
//! phases.

use oc_sim::{FaultPhase, FaultPhaseKind, SimTime};
use rand::{rngs::StdRng, Rng, RngExt};

use crate::scenario::{Scenario, ScenarioCrash, MAX_DECODED_TICKS};

/// Hard cap on mutated workload length, so stacked `add_arrival` calls
/// cannot grow scenarios without bound.
const MAX_ARRIVALS: usize = 64;

/// Hard cap on mutated crash plans.
const MAX_CRASHES: usize = 8;

/// Produces one mutant of `parent`, drawing every choice from `rng` — a
/// pure function of `(parent, donor, rng state)`. `donor` (usually
/// another corpus entry) feeds the splice mutator; it is only consulted
/// when its system size matches the parent's, which keeps every borrowed
/// phase valid without re-projection.
#[must_use]
pub fn mutate(parent: &Scenario, donor: Option<&Scenario>, rng: &mut StdRng) -> Scenario {
    let mut s = parent.clone();
    // Stack one or two moves, fuzzer-style; retry draws that turned out
    // inapplicable (an empty crash list, a full workload) a few times so
    // nearly every call returns a genuine mutant.
    let want = 1 + usize::from(rng.random_range(0..3u32) == 0);
    let mut applied = 0;
    for _ in 0..8 {
        if applied == want {
            break;
        }
        if apply_one(&mut s, donor, rng) {
            applied += 1;
        }
    }
    debug_assert_eq!(
        Scenario::from_id(&s.id()).as_ref(),
        Ok(&s),
        "mutants must stay portable replayable IDs"
    );
    s
}

/// Applies one randomly chosen mutator; `false` if the draw was
/// inapplicable to this scenario.
fn apply_one(s: &mut Scenario, donor: Option<&Scenario>, rng: &mut StdRng) -> bool {
    let n = s.n as u32;
    let span = s.arrivals.iter().map(|(at, _)| *at).max().unwrap_or(0).max(1);
    match rng.random_range(0..12u32) {
        // Re-roll the delay/interleaving dice without touching structure.
        0 => {
            s.seed = rng.next_u64();
            true
        }
        // Shift one arrival by up to a few delay bounds.
        1 => {
            let i = rng.random_range(0..s.arrivals.len());
            let delta = rng.random_range(1..=4 * s.delay_max);
            let (at, _) = &mut s.arrivals[i];
            *at = if rng.random_range(0..2u32) == 0 {
                at.saturating_add(delta)
            } else {
                at.saturating_sub(delta)
            };
            true
        }
        // Add an arrival somewhere in (or just past) the current span.
        2 => {
            if s.arrivals.len() >= MAX_ARRIVALS {
                return false;
            }
            let at = rng.random_range(0..=span + 4 * s.cs_ticks);
            let node = rng.random_range(1..=n);
            s.arrivals.push((at, node));
            true
        }
        // Pile a near-simultaneous second request onto an arrival — the
        // contention mutator.
        3 => {
            if s.arrivals.len() >= MAX_ARRIVALS {
                return false;
            }
            let (at, _) = s.arrivals[rng.random_range(0..s.arrivals.len())];
            let at = at.saturating_add(rng.random_range(0..=2 * s.delay_max));
            let node = rng.random_range(1..=n);
            s.arrivals.push((at, node));
            true
        }
        // Drop an arrival (a scenario must keep at least one).
        4 => {
            if s.arrivals.len() < 2 {
                return false;
            }
            let i = rng.random_range(0..s.arrivals.len());
            s.arrivals.remove(i);
            true
        }
        // Crash a requester right after its arrival — the borrowed-token-
        // dies-with-its-borrower shape. The recovery lands after a full
        // repair window so the crash is the story, not the churn.
        5 => {
            if s.crashes.len() >= MAX_CRASHES {
                return false;
            }
            let (arrival_at, node) = s.arrivals[rng.random_range(0..s.arrivals.len())];
            let at = arrival_at.saturating_add(rng.random_range(0..=s.cs_ticks + 4 * s.delay_max));
            let hi = (span.max(2) + s.contention_slack).max(s.cs_ticks);
            let downtime = rng.random_range(s.cs_ticks..=hi);
            s.crashes.push(ScenarioCrash { node, at, recover_at: Some(at + downtime) });
            true
        }
        // Re-aim an existing crash at a requesting node.
        6 => {
            if s.crashes.is_empty() {
                return false;
            }
            let i = rng.random_range(0..s.crashes.len());
            let (_, node) = s.arrivals[rng.random_range(0..s.arrivals.len())];
            s.crashes[i].node = node;
            true
        }
        // Slide a crash window in time, downtime preserved.
        7 => {
            if s.crashes.is_empty() {
                return false;
            }
            let i = rng.random_range(0..s.crashes.len());
            let delta = rng.random_range(1..=span);
            let crash = &mut s.crashes[i];
            let downtime = crash.recover_at.map(|r| r - crash.at);
            crash.at = if rng.random_range(0..2u32) == 0 {
                crash.at.saturating_add(delta)
            } else {
                crash.at.saturating_sub(delta)
            };
            crash.recover_at = downtime.map(|d| crash.at + d);
            true
        }
        // Stretch a downtime — or, rarely, make the failure permanent
        // (a probe move; the guided loop's differential filter keeps
        // mutation detection honest about genuine-vs-planted failures).
        8 => {
            if s.crashes.is_empty() {
                return false;
            }
            let i = rng.random_range(0..s.crashes.len());
            let crash = &mut s.crashes[i];
            if rng.random_range(0..8u32) == 0 {
                crash.recover_at = None;
            } else {
                let downtime = rng.random_range(1..=2 * span.max(2));
                crash.recover_at = Some(crash.at + downtime);
            }
            true
        }
        // Perturb the delay envelope / CS length.
        9 => {
            match rng.random_range(0..3u32) {
                0 => {
                    s.delay_max = rng.random_range(2..=25);
                    s.delay_min = s.delay_min.clamp(1, s.delay_max);
                }
                1 => s.delay_min = rng.random_range(1..=s.delay_max),
                _ => s.cs_ticks = rng.random_range(10..=80),
            }
            true
        }
        // Scale the contention slack (suspicion patience) up or down —
        // never past the tick ceiling `Scenario::from_id` accepts.
        10 => {
            let slack = s.contention_slack.max(1);
            s.contention_slack = if rng.random_range(0..2u32) == 0 {
                slack / 2
            } else {
                slack.saturating_mul(2).min(MAX_DECODED_TICKS)
            };
            true
        }
        // Fault windows and phase splicing.
        _ => {
            if let Some(donor) = donor.filter(|d| d.n == s.n && !d.split_window().1.is_empty()) {
                // Keep the parent's window and borrow the donor's scripted
                // phases wholesale; same n, so every member set and group
                // level stays valid.
                s.phases.truncate(usize::from(s.split_window().0.is_some()));
                s.phases.extend_from_slice(donor.split_window().1);
                return true;
            }
            let from = rng.random_range(0..=span);
            let until = from + rng.random_range(1..=span.max(2));
            let (from, until) = (SimTime::from_ticks(from), SimTime::from_ticks(until));
            let idle = FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 0 };
            let window =
                s.phases.first_mut().filter(|ph| matches!(ph.kind, FaultPhaseKind::LossDup { .. }));
            match window {
                // Widen/narrow/slide a window that injects.
                Some(window) if window.kind != idle => (window.from, window.until) = (from, until),
                // Open a duplication window, over an inert one if there is
                // one (sound for non-token traffic; loss stays off — it is
                // a different probe space).
                window => {
                    let duplicate_per_mille = [50u16, 150, 400][rng.random_range(0..3usize)];
                    let kind = FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille };
                    let opened = FaultPhase { from, until, kind };
                    match window {
                        Some(inert) => *inert = opened,
                        None => s.phases.insert(0, opened),
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Space;
    use rand::SeedableRng;

    #[test]
    fn mutants_are_deterministic() {
        let parent = Scenario::generate(&Space::default(), 3, 17);
        let a = mutate(&parent, None, &mut StdRng::seed_from_u64(9));
        let b = mutate(&parent, None, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = mutate(&parent, None, &mut StdRng::seed_from_u64(10));
        // Overwhelmingly likely to differ; equality would suggest the rng
        // is being ignored.
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn mutants_round_trip_the_codec() {
        let space = Space { partitions: true, ..Space::default() };
        let mut rng = StdRng::seed_from_u64(77);
        for index in 0..24 {
            let parent = Scenario::generate(&space, 5, index);
            let donor = Scenario::generate(&space, 5, index + 100);
            for _ in 0..16 {
                let mutant = mutate(&parent, Some(&donor), &mut rng);
                let id = mutant.id();
                let decoded = Scenario::from_id(&id)
                    .unwrap_or_else(|err| panic!("mutant id {id} must decode: {err}"));
                assert_eq!(decoded, mutant, "decode must be the identity");
            }
        }
    }

    #[test]
    fn mutants_respect_size_caps() {
        let parent = Scenario::generate(&Space::default(), 8, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = parent;
        for _ in 0..512 {
            s = mutate(&s, None, &mut rng);
        }
        assert!(s.arrivals.len() <= MAX_ARRIVALS);
        assert!(s.crashes.len() <= MAX_CRASHES);
        assert!(!s.arrivals.is_empty());
    }
}
