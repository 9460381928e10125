//! The explorer's acceptance self-checks.
//!
//! An oracle suite that only ever passes is worthless evidence, so these
//! tests prove the explorer's teeth on three axes:
//!
//! 1. **Mutation detection** — with a single protocol obligation
//!    deliberately disabled ([`oc_algo::Mutation`]), a fixed seed budget
//!    over the *default* scenario space finds a violating scenario,
//!    shrinks it deterministically, and replays the shrunk
//!    counterexample byte-identically from its scenario ID alone.
//! 2. **Regression pinning** — the real protocol bugs the explorer
//!    surfaced during development (each fixed in `oc-algo`) stay fixed:
//!    their shrunk scenario IDs replay clean.
//! 3. **Model-violation sensitivity** — scenarios outside the paper's
//!    model (message loss, the hot-contention × permanent-crash
//!    quadrant) are *detected* as violations, not silently absorbed.

use oc_algo::{Hardening, Mutation};
use oc_check::{
    explore_guided, explore_serial, run_scenario, run_scenario_hardened, shrink, Scenario, Space,
    HEALED_PARTITION_PINS,
};
use oc_sim::{FaultPhase, FaultPhaseKind, SimTime};

/// Budget within which each planted mutation must be caught. The
/// liveness mutation (skipped regeneration) needs a scenario where a
/// loaned token dies with its borrower — index 618 of the default space
/// at master seed 42 is the first; the safety mutation trips on the
/// first transit grant (index 0).
const MUTATION_BUDGET: u64 = 700;

fn detect_shrink_and_replay(mutation: Mutation) -> (Scenario, oc_check::Outcome) {
    let space = Space::default();
    let failure = explore_serial(&space, 42, MUTATION_BUDGET, mutation)
        .unwrap_or_else(|| panic!("{mutation:?} must be detected within {MUTATION_BUDGET}"));
    assert!(!failure.outcome.is_clean());

    // Shrink deterministically...
    let result = shrink(&failure.scenario, mutation);
    assert!(!result.outcome.is_clean(), "the minimum must still fail");
    let again = shrink(&failure.scenario, mutation);
    assert_eq!(result.scenario, again.scenario, "shrinking must be deterministic");

    // ...and replay byte-identically from the scenario ID alone.
    let id = result.scenario.id();
    let replayed = Scenario::from_id(&id).expect("shrunk scenario id must decode");
    assert_eq!(replayed, result.scenario, "the id must carry the whole scenario");
    let outcome = run_scenario(&replayed, mutation);
    assert_eq!(outcome, result.outcome, "replay must be byte-identical");
    assert_eq!(outcome.fingerprint(), result.outcome.fingerprint());

    // The very same scenario is clean without the planted bug: the
    // verdict is the mutation's, not the scenario's.
    assert!(
        run_scenario(&replayed, Mutation::None).is_clean(),
        "the shrunk scenario must be clean under the faithful protocol"
    );
    (result.scenario, outcome)
}

/// Budget within which the *guided* explorer must catch each planted
/// mutation: a quarter of the blind budget. The differential
/// Mutation::None verification runs are charged against it too, so this
/// is a genuine apples-to-apples scenario-execution budget.
const GUIDED_BUDGET: u64 = MUTATION_BUDGET / 4;

fn detect_guided_shrink_and_replay(mutation: Mutation) -> (Scenario, oc_check::Outcome, u64) {
    let space = Space::default();
    let result = explore_guided(&space, 42, GUIDED_BUDGET, mutation);
    let failure = result
        .failure
        .unwrap_or_else(|| panic!("{mutation:?} must be guided-detected within {GUIDED_BUDGET}"));
    assert!(!failure.outcome.is_clean());
    assert!(
        result.runs <= GUIDED_BUDGET,
        "guided spent {} runs against a budget of {GUIDED_BUDGET}",
        result.runs
    );

    // Same contract as the blind path: shrink deterministically and
    // replay the minimum byte-identically from its ID alone.
    let shrunk = shrink(&failure.scenario, mutation);
    assert!(!shrunk.outcome.is_clean(), "the minimum must still fail");
    let again = shrink(&failure.scenario, mutation);
    assert_eq!(shrunk.scenario, again.scenario, "shrinking must be deterministic");
    let id = shrunk.scenario.id();
    let replayed = Scenario::from_id(&id).expect("shrunk scenario id must decode");
    let outcome = run_scenario(&replayed, mutation);
    assert_eq!(outcome, shrunk.outcome, "replay must be byte-identical");

    // The guided loop's differential filter already vouched for the
    // found scenario; the shrunk minimum must stay attributable too.
    assert!(
        run_scenario(&replayed, Mutation::None).is_clean(),
        "the shrunk scenario must be clean under the faithful protocol"
    );
    (shrunk.scenario, outcome, failure.index)
}

/// The tentpole's detection-budget claim, liveness half: blind sampling
/// first reaches a borrowed-token-dies-with-its-borrower scenario at
/// index 618; the guided loop's crash-near-arrival mutator builds one
/// within a quarter of that budget (index 74 at seed 42 as of this pin).
#[test]
fn guided_finds_skipped_regeneration_within_a_quarter_budget() {
    let (scenario, outcome, index) =
        detect_guided_shrink_and_replay(Mutation::SkipTokenRegeneration);
    assert!(!outcome.liveness.is_clean(), "expected liveness violations: {outcome:?}");
    assert!(!scenario.crashes.is_empty(), "the trigger is a crashed borrower");
    assert!(
        index < GUIDED_BUDGET,
        "detection at index {index} must fit the guided budget {GUIDED_BUDGET}"
    );
    assert!(
        index < 618,
        "guided detection (index {index}) must beat the blind explorer's index 618"
    );
}

/// The safety half trips on the first transit grant either way — the
/// guided loop must not be *worse* than blind on an easy bug.
#[test]
fn guided_finds_kept_token_within_a_quarter_budget() {
    let (_, outcome, index) = detect_guided_shrink_and_replay(Mutation::KeepTokenOnTransit);
    assert!(!outcome.safety.is_clean(), "expected safety violations: {outcome:?}");
    assert_eq!(index, 0, "the safety mutation trips on the first scenario, guided or blind");
}

#[test]
fn skipped_token_regeneration_is_detected_shrunk_and_replayed() {
    let (scenario, outcome) = detect_shrink_and_replay(Mutation::SkipTokenRegeneration);
    // A liveness bug: the wedged lender and its starved claimants.
    assert!(!outcome.liveness.is_clean(), "expected liveness violations: {outcome:?}");
    assert!(!scenario.crashes.is_empty(), "the trigger is a crashed borrower");
}

#[test]
fn kept_token_on_transit_is_detected_shrunk_and_replayed() {
    let (_, outcome) = detect_shrink_and_replay(Mutation::KeepTokenOnTransit);
    // A safety bug: two live tokens.
    assert!(!outcome.safety.is_clean(), "expected safety violations: {outcome:?}");
}

/// The shrunk counterexamples behind the protocol hardenings in
/// `oc-algo` (see `search.rs` and `enquiry.rs`). Each of these scenarios
/// produced mutual-exclusion violations, duplicate tokens, or permanent
/// livelocks when it was found; each must stay clean forever.
const FIXED_COUNTEREXAMPLES: [(&str, &str); 6] = [
    // Token dies at rest with its crashed holder; nobody asks again.
    // Pinned the demand-gated token-conservation oracle (lazy
    // regeneration is the algorithm's rest state, not a violation).
    ("token-at-rest", "oc1-0295ddadffe2c4ccebbd010404249c0e80897a00000000014e0201026800"),
    // An anomaly bounce from a distant non-father started the search
    // above the claimant's own ring, skipping the live root: double
    // mint. Fixed by starting anomaly searches at power + 1.
    (
        "anomaly-overshoot",
        "oc1-10f183aa9edcabf5bf51081912b13c80897a0000000004690ea80110910201a6020a010dbf0100",
    ),
    // A race-installed father let a partial sweep conclude "root" while
    // the real token lived two rings below. Fixed by the full-sweep
    // guard (a sweep that began above ring 1 restarts from ring 1
    // before concluding root).
    (
        "partial-sweep-mint",
        "oc1-10f183aa9edcabf5bf51081912b13c80897a00000000095404690e7e05930110e70104fc0101910201a6020aa40306010dbf0100",
    ),
    // b-transformations rotated the live root into a searcher's
    // believed subtree; its ratified-looking partial sweep minted a
    // duplicate. Same fix as above, plus token custody answering
    // try-later instead of staying silent.
    (
        "root-rotation",
        "oc1-10f183aa9edcabf5bf51081912b13c80897a0000000006690e7e05e5020ffa02068f030aa40306020dbf010005ab0501a40b",
    ),
    // Overlapping crashes: two concurrent full sweeps both exhausted
    // (their probes crossed in time) and both minted. Fixed by the
    // identity-ordered promise rules: the smallest active searcher is
    // the unique node whose sweep runs to completion.
    (
        "concurrent-sweeps",
        "oc1-04b391c5b5abbf9ec7d40109111b842080897a0000000002ed0102f8040403019d0201aa090283020003c60701af12",
    ),
    // Accumulated claimants re-parented each other forever after the
    // token died (promise-ok merry-go-round): 6k+ searches, zero
    // regenerations, permanent livelock. Same fix, plus bounded
    // try-later patience.
    (
        "merry-go-round",
        "oc1-10ffaacfa0cafebfacc3010f1446982a80897a00000000098c1f08d22e0d983e03de4d06b07c09f68b0105bc9b0107d4d9010f9ae9010201019f5300",
    ),
];

/// The `oc1-` codec was extended with an optional phase section (the
/// partition scripting PR). This pin is the backward-compat contract:
/// every pre-extension ID still decodes, re-encodes to the *same
/// bytes*, and replays through the engine deterministically — the
/// golden fingerprint below must never drift while the ID format says
/// `oc1` and the outcome schema is unchanged.
#[test]
fn old_ids_reencode_and_replay_byte_identically() {
    for (name, id) in FIXED_COUNTEREXAMPLES {
        let scenario = Scenario::from_id(id).expect("pre-extension id decodes");
        assert!(scenario.phases.is_empty(), "{name}: old ids carry no phases");
        assert_eq!(scenario.id(), id, "{name}: decode→encode must be the identity");
    }
    // One golden replay fingerprint, pinning that the extension changed
    // nothing about how a phase-free scenario executes.
    let scenario = Scenario::from_id(FIXED_COUNTEREXAMPLES[0].1).expect("decodes");
    let outcome = run_scenario(&scenario, Mutation::None);
    assert_eq!(
        outcome.fingerprint(),
        0x76db_61af_cf52_fe2b,
        "token-at-rest replay drifted after the codec extension"
    );
}

#[test]
fn fixed_counterexamples_stay_fixed() {
    for (name, id) in FIXED_COUNTEREXAMPLES {
        let scenario = Scenario::from_id(id)
            .unwrap_or_else(|err| panic!("{name}: pinned id must decode: {err}"));
        let outcome = run_scenario(&scenario, Mutation::None);
        assert!(
            outcome.is_clean(),
            "{name}: regression — the fixed counterexample fails again: {outcome:?}"
        );
        assert!(outcome.drained, "{name}: must reach quiescence");
    }
}

/// The hardened fixed list: every healed-partition double-mint the
/// seed-42 battery ever pinned replays **clean** under
/// [`Hardening::Quorum`]. These are the former `partitions.rs` findings,
/// promoted here the day quorum-gated regeneration closed the window —
/// a minority-side searcher can no longer assemble `n/2 + 1` mint
/// grants, so the cut produces a parked minter instead of a second
/// token, and the fencing epoch retires any stale token at the heal.
/// The baseline direction (the same IDs must *keep failing* under
/// [`Hardening::None`]) stays pinned in `partitions.rs`.
#[test]
fn hardened_partition_counterexamples_stay_fixed() {
    for (name, id) in HEALED_PARTITION_PINS {
        let scenario = Scenario::from_id(id)
            .unwrap_or_else(|err| panic!("{name}: pinned id must decode: {err}"));
        let outcome = run_scenario_hardened(&scenario, Mutation::None, Hardening::Quorum);
        assert!(
            outcome.is_clean(),
            "{name}: regression — the quorum-hardened replay fails again: {outcome:?}"
        );
        assert!(outcome.drained, "{name}: must reach quiescence");
    }
}

#[test]
fn loss_outside_the_model_is_detected_not_absorbed() {
    // A total-loss window destroys the request of a live node: the
    // liveness oracle must flag the starved request. Loss between live
    // nodes violates the paper's reliable-channel assumption, so this is
    // an oracle-sensitivity probe (`explore --loss`), not a soundness
    // regression.
    let total_loss = |from, until| FaultPhase {
        from: SimTime::from_ticks(from),
        until: SimTime::from_ticks(until),
        kind: FaultPhaseKind::LossDup { loss_per_mille: 1_000, duplicate_per_mille: 0 },
    };
    let scenario = Scenario {
        n: 4,
        seed: 5,
        delay_min: 5,
        delay_max: 5,
        cs_ticks: 50,
        contention_slack: 0,
        max_events: 100_000,
        arrivals: vec![(1, 3)],
        crashes: Vec::new(),
        phases: vec![total_loss(0, 4)],
    };
    // The node's own request to its father is dropped in the window; the
    // claimant's suspicion machinery then heals by searching — so the
    // run must either starve (detected) or recover (clean); with
    // fault tolerance on, recovery is the expected outcome, and the
    // drop must be visible in the counters either way.
    let outcome = run_scenario(&scenario, Mutation::None);
    assert_eq!(outcome.lost_to_faults, 1, "the loss must have happened: {outcome:?}");
    assert!(outcome.is_clean(), "Section 5 heals a lost request: {outcome:?}");

    // Losing the *token* on the wire to a live node is healed too: the
    // starved claimant's search exhausts and regenerates.
    let token_loss = Scenario { phases: vec![total_loss(6, 12)], ..scenario };
    let outcome = run_scenario(&token_loss, Mutation::None);
    assert!(outcome.lost_to_faults >= 1, "the token must have been dropped: {outcome:?}");
    assert!(outcome.is_clean(), "regeneration must heal a lost token: {outcome:?}");
}

#[test]
fn hard_quadrant_finding_stays_fixed() {
    // A pinned finding from `explore --hard` (hot workload × permanent
    // crash): the accumulated claimants' regeneration race, once a live
    // finding outside the paper's repeated-single-failure model. Clean
    // since a son whose re-sent claim waits at its prober answers
    // silence, not try-later (`search.rs`): the prober stops re-probing
    // it until its patience runs out.
    let scenario = Scenario::from_id(
        "oc1-0898baeccbdec6c68cc401131611d31c80897a000000000a1805240730063c0348086c0178028401049001069c01050104940100",
    )
    .expect("pinned id must decode");
    let outcome = run_scenario(&scenario, Mutation::None);
    assert!(outcome.is_clean(), "the hard-quadrant race is back: {outcome:?}");
    assert!(outcome.drained, "must reach quiescence");
}
