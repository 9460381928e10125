//! The partition battery's regression pins.
//!
//! A scripted partition destroys every message crossing the cut, so it
//! steps outside the paper's reliable-channel model exactly like message
//! loss — and the adversarial regime it opens is *heal time*: while the
//! cut isolates the token, the far side's suspicion machinery runs its
//! full course, concludes the silent nodes dead, and regenerates; the
//! instant the partition heals, two tokens meet. No token algorithm
//! without quorum can tell "silent because dead" from "silent because
//! partitioned", so under [`Hardening::None`] these double-mints are
//! expected findings, not regressions — and the *oracles must keep
//! seeing them*. Each pinned ID in
//! [`oc_check::HEALED_PARTITION_PINS`] is a shrunk counterexample from
//! the 5000-scenario partition battery (`explore --partitions --budget
//! 5000 --seed 42`); each must keep failing, deterministically, under
//! the baseline protocol.
//!
//! Under [`Hardening::Quorum`] the same IDs replay **clean** — that
//! flip lives in `self_check.rs`'s hardened fixed list, which is the
//! other half of this contract. A pin that a protocol change makes clean
//! under the baseline too moves to
//! [`oc_check::RETIRED_PARTITION_PINS`], pinned clean under both.

use oc_algo::Hardening;
use oc_check::{run, Run, Scenario, Space, HEALED_PARTITION_PINS, RETIRED_PARTITION_PINS};
use oc_sim::FaultPhaseKind;

/// Replays every pinned healed-partition finding under the given
/// hardening and asserts the expected verdict: baseline must keep
/// failing with a safety violation, quorum must be clean. Both
/// directions replay byte-identically from the same `oc1-` ID —
/// hardening is a run-time parameter, not part of the scenario codec.
fn replay_pins(hardening: Hardening, expect_clean: bool) {
    for (name, id) in HEALED_PARTITION_PINS {
        let scenario = Scenario::from_id(id)
            .unwrap_or_else(|err| panic!("{name}: pinned id must decode: {err}"));
        assert!(
            !scenario.phases.is_empty(),
            "{name}: a partition finding must carry its fault script"
        );
        let outcome = run(&scenario, Run { hardening, ..Run::SIM }, None, None);
        if expect_clean {
            assert!(
                outcome.is_clean(),
                "{name}: quorum regeneration must close the double-mint window: {outcome:?}"
            );
        } else {
            assert!(
                !outcome.is_clean(),
                "{name}: the healed-partition finding disappeared under the baseline — \
                 a hardening leaked into Hardening::None"
            );
            assert!(
                !outcome.safety.is_clean(),
                "{name}: expected a safety violation (the post-heal double-mint): {outcome:?}"
            );
        }
        // The replay is byte-identical: same scenario, same hardening,
        // same verdict.
        let again = run(&scenario, Run { hardening, ..Run::SIM }, None, None);
        assert_eq!(outcome, again, "{name}: replay must be deterministic");
        assert_eq!(outcome.fingerprint(), again.fingerprint());
    }
}

#[test]
fn partition_findings_stay_detected() {
    replay_pins(Hardening::None, false);
}

#[test]
fn partition_findings_flip_clean_under_quorum() {
    replay_pins(Hardening::Quorum, true);
}

#[test]
fn retired_partition_pins_replay_clean() {
    for (name, id) in RETIRED_PARTITION_PINS {
        let scenario = Scenario::from_id(id)
            .unwrap_or_else(|err| panic!("{name}: pinned id must decode: {err}"));
        for hardening in [Hardening::None, Hardening::Quorum] {
            let outcome = run(&scenario, Run { hardening, ..Run::SIM }, None, None);
            assert!(
                outcome.is_clean() && outcome.drained,
                "{name}: the retired finding fails again under {hardening:?}: {outcome:?}"
            );
        }
    }
}

#[test]
fn partition_scenarios_count_their_cut_losses() {
    // Any finding's replay must show the cut actually ate traffic —
    // the lost_to_partition counter is how a battery reads the cut.
    let (_, id) = HEALED_PARTITION_PINS[0];
    let scenario = Scenario::from_id(id).expect("pinned id decodes");
    let outcome = run(&scenario, Run::SIM, None, None);
    assert!(outcome.lost_to_partition > 0, "the cut must destroy something: {outcome:?}");
}

/// Scans the battery for failures and prints pin lines — the generator
/// of [`HEALED_PARTITION_PINS`], kept for refreshing the pins after
/// protocol changes. Run with:
/// `cargo test --release -p oc-check --test partitions -- --ignored --nocapture`
#[test]
#[ignore = "battery-sized; regenerates the pinned findings"]
fn hunt_partition_findings() {
    let space = Space { partitions: true, ..Space::default() };
    let mut found = 0usize;
    for index in 0..5_000u64 {
        let scenario = Scenario::generate(&space, 42, index);
        let outcome = run(&scenario, Run::SIM, None, None);
        if outcome.is_clean() {
            continue;
        }
        found += 1;
        let shrunk = oc_check::shrink(&scenario, Run::SIM);
        let kinds: Vec<&str> = shrunk
            .scenario
            .phases
            .iter()
            .map(|ph| match ph.kind {
                FaultPhaseKind::GroupPartition { .. } => "group",
                FaultPhaseKind::Split { .. } => "split",
                FaultPhaseKind::Degrade { .. } => "degrade",
                FaultPhaseKind::LossDup { .. } => "lossdup",
            })
            .collect();
        println!(
            "    // index {index}: n={}, {} arrival(s), {} crash(es), phases {:?},\n    // {:?}\n    (\"partition-{index}\", \"{}\"),",
            shrunk.scenario.n,
            shrunk.scenario.arrivals.len(),
            shrunk.scenario.crashes.len(),
            kinds,
            outcome.safety.violations().first(),
            shrunk.scenario.id(),
        );
    }
    println!("// {found} failing scenario(s) in the 5000-scenario battery");
}
