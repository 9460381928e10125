//! Property tests for the shrinker: over arbitrary failing scenarios
//! from the default space, shrinking is deterministic — equal inputs
//! shrink to equal scenarios and equal tapes — monotone under the
//! scenario size metric, and the shrunk scenario reproduces its
//! violation fingerprint byte-identically from the portable `oc1-` ID
//! alone, as its shrunk tape reproduces the verdict it was kept with.

use oc_algo::Mutation;
use oc_check::{run, run_scenario, shrink, Outcome, Run, Scenario, Space};
use proptest::prelude::*;

/// The size metric the monotonicity property is judged under: every
/// shrink candidate removes or halves a component, so no accepted
/// reduction may grow any term.
fn size(s: &Scenario) -> u64 {
    s.n as u64 + s.arrivals.len() as u64 + s.crashes.len() as u64 + s.phases.len() as u64
}

/// Which oracle categories fired: `(safety, liveness)`.
fn violation_shape(outcome: &Outcome) -> (bool, bool) {
    (!outcome.safety.is_clean(), !outcome.liveness.is_clean())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shrinker's three contracts, over arbitrary failing scenarios.
    /// The kept-token mutation trips on nearly any multi-node run, so
    /// the default space at a random index is a rich source of failing
    /// inputs of every shape the generator produces.
    #[test]
    fn shrink_is_deterministic_monotone_and_replayable(
        master in 0u64..64,
        index in 0u64..96,
    ) {
        // Not every generated scenario trips the planted bug (a
        // single-arrival run has no transit grant), so probe forward to
        // the first failing index — the case fails loudly, rather than
        // passing vacuously, if the neighbourhood is all clean.
        let mutation = Mutation::KeepTokenOnTransit;
        let (scenario, outcome) = (index..index + 32)
            .map(|probe| Scenario::generate(&Space::default(), master, probe))
            .find_map(|s| {
                let o = run_scenario(&s, mutation);
                (!o.is_clean()).then_some((s, o))
            })
            .expect("the kept token must trip within 32 consecutive scenarios");

        // Deterministic: equal inputs shrink to equal minima and equal
        // tapes, spending the same run budget.
        let how = Run { mutation, ..Run::SIM };
        let result = shrink(&scenario, how);
        let again = shrink(&scenario, how);
        prop_assert_eq!(&result.scenario, &again.scenario);
        prop_assert_eq!(&result.outcome, &again.outcome);
        prop_assert_eq!(&result.tape, &again.tape);
        prop_assert_eq!((result.steps, result.runs), (again.steps, again.runs));

        // Monotone: the minimum is never larger than the input under the
        // size metric, the event cap never grows, and a scenario must
        // keep at least one arrival to be a scenario at all.
        prop_assert!(!result.outcome.is_clean(), "the minimum must still fail");
        prop_assert!(size(&result.scenario) <= size(&scenario),
            "shrink grew the scenario: {} -> {}", size(&scenario), size(&result.scenario));
        prop_assert!(result.scenario.max_events <= scenario.max_events);
        prop_assert!(!result.scenario.arrivals.is_empty());

        // Replayable: the `oc1-` ID carries the whole scenario, and the
        // decoded replay reproduces the violation fingerprint bit for
        // bit — violations, counters, coverage block, everything.
        let id = result.scenario.id();
        let replayed = Scenario::from_id(&id).expect("shrunk scenario id must decode");
        prop_assert_eq!(&replayed, &result.scenario);
        let replay_outcome = run_scenario(&replayed, mutation);
        prop_assert_eq!(&replay_outcome, &result.outcome);
        prop_assert_eq!(replay_outcome.fingerprint(), result.outcome.fingerprint());

        // The shrunk tape, played on the minimal scenario, gives the
        // verdict it was kept with — a safety failure still.
        if let Some((tape, taped)) = &result.tape {
            let mut played = tape.clone();
            prop_assert_eq!(&run(&replayed, how, None, Some(&mut played)), taped);
            prop_assert!(!taped.safety.is_clean() || result.outcome.safety.is_clean());
        }

        // The planted bug is a safety bug: shrinking must preserve the
        // safety-violation shape, not trade it for a different failure.
        let (safety_in, _) = violation_shape(&outcome);
        let (safety_out, _) = violation_shape(&result.outcome);
        if safety_in {
            prop_assert!(safety_out, "shrink traded a safety violation away: {:?}", result.outcome);
        }
    }
}
