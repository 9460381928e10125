//! # oc-check — adversarial scenario explorer
//!
//! The paper's claim is *fault tolerance*: mutual exclusion and eventual
//! CS entry must survive **any** crash/delay interleaving, not just the
//! hand-written schedules in `tests/`. This crate cashes that claim in as
//! a seeded fuzz/model-check harness over the deterministic simulator:
//!
//! 1. **Generate** — [`Scenario::generate`] derives a complete, concrete
//!    scenario (system size, delay envelope, workload arrivals,
//!    crash/recovery plan, link faults) from a `(space, master seed,
//!    index)` triple. Everything is materialized: a scenario is plain
//!    data, independent of the generator that produced it.
//! 2. **Run** — [`run_scenario`] plays the scenario through
//!    [`oc_sim::World`] and returns an [`Outcome`]: the safety oracle's
//!    report, the liveness oracle's report
//!    ([`oc_sim::check_liveness`]), and the run's headline counters. Equal
//!    scenarios produce equal outcomes, bit for bit.
//! 3. **Shrink** — on failure, [`shrink`] greedily minimizes the scenario
//!    (drop crash events, truncate the workload, halve the system, strip
//!    faults), re-running the pure `(scenario, mutation)` function at
//!    every step, until no single reduction still fails.
//! 4. **Replay** — [`Scenario::id`] encodes the whole scenario into a
//!    portable `oc1-…` string; [`Scenario::from_id`] decodes it.
//!    [`repro_snippet`] renders a minimal Rust test reproducing the
//!    failure from the ID alone.
//!
//! The explorer must also *prove its own teeth*: [`oc_algo::Mutation`]
//! plants single protocol bugs (skipped token regeneration, a kept token
//! on transit), and the self-check tests assert a bounded seed budget
//! finds, shrinks, and byte-identically replays a counterexample for each.
//!
//! On top of the blind sampler sits the **coverage-guided** loop
//! ([`explore_guided`]): each outcome folds into hashed coverage
//! features ([`Coverage`]), a [`Corpus`] keeps the scenarios that
//! reached new features, and structure-aware mutators ([`mutate`])
//! bend kept scenarios toward the protocol's fault machinery. Epochs
//! are seed-deterministic and thread-invariant, and the self-checks
//! pin that the guided loop finds both planted mutations within a
//! quarter of the blind budget.
//!
//! Sharded exploration (thousands of scenarios across threads) lives in
//! the `explore` binary of `oc-bench`, which drives this crate through
//! `oc_bench::sweep`.
//!
//! **One scenario language, one verdict, three runners.** A [`Scenario`]
//! is the only description of adversarial work in the tree and an
//! [`Outcome`] the only answer, whatever carries the messages:
//!
//! * [`run_scenario`] — the deterministic simulator; fills every field
//!   of the outcome, bit-identically per scenario;
//! * [`run_scenario_runtime`] — the threaded lock service
//!   (`oc_runtime::Runtime`), ticks mapped to wall time by a
//!   [`RuntimeProfile`];
//! * `oc_bench::orchestrator::run_scenario_sockets` — one `oc-node`
//!   process per node over TCP or Unix sockets, crashes by SIGKILL (it
//!   lives in `oc-bench` because it needs the node binary).
//!
//! They are plain functions of one shape, not a trait: no caller is
//! generic over substrates. The socket deployment's cells are
//! [`GateScenario`] shapes that materialise into scenarios, and
//! [`conforms`] is the contract the three outcomes are held to (see
//! [`netgate`]). Which counters a runtime or socket outcome cannot know
//! is written on [`Outcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod guided;
mod mutate;
pub mod netgate;
mod run;
mod scenario;
mod shrink;
mod threaded;

pub use coverage::{Corpus, CorpusEntry, Coverage};
pub use guided::{explore_guided, explore_guided_with, GuidedEpoch, GuidedResult};
pub use mutate::mutate;
pub use netgate::{conforms, GateKill, GateScenario};
pub use run::{
    run_scenario, run_scenario_hardened, run_scenario_observed, run_scenario_with, CoverageStats,
    Outcome,
};
pub use scenario::{Scenario, ScenarioCrash, ScenarioPhase, ScenarioPhaseKind, Space};
pub use shrink::{shrink, ShrinkResult};
pub use threaded::{run_scenario_runtime, RuntimeProfile};

use oc_algo::Mutation;

/// The shrunk healed-partition findings of the seed-42 partition battery
/// (`explore --partitions --budget 5000 --seed 42`), one `(name, oc1-id)`
/// per failing index. Every one is a safety violation (token duplication
/// or mutual exclusion) born at or after a partition heal — the
/// double-mint window: the isolated side's suspicion machinery concludes
/// the silent nodes dead and regenerates, and the heal delivers two
/// tokens into one cube.
///
/// These IDs are the shared contract of three suites: the partition
/// regression pins assert they **keep failing** under
/// [`oc_algo::Hardening::None`] (the oracles must keep seeing the
/// double-mint), the hardened fixed list asserts they **replay clean**
/// under [`oc_algo::Hardening::Quorum`] (quorum-gated regeneration closes
/// the window), and CI replays both directions on every push.
pub const HEALED_PARTITION_PINS: &[(&str, &str)] = &[
    // index 1021: n=16, 2 arrivals, 0 crashes — a cut alone suffices.
    (
        "partition-1021",
        "oc1-10d2dc91beb99ff1a7fe01090d37cc3f90a10f0000000002df0a0d960b0c0002af0882280003bfbf01e7c7010001",
    ),
    // index 1032: n=2, 1 arrival, 1 crash, one split cut.
    ("partition-1032", "oc1-02ebfcdeb99ae3a9cc1b02111d6190a10f000000000100010102000102010023010102"),
    // index 1610: n=2, 1 arrival, 1 crash, one group cut.
    ("partition-1610", "oc1-02a8d3e2fc9da3adcb790405243890a10f0000000001000201020101020100110000"),
    // index 1656: n=4, 1 arrival, 1 crash, one group cut.
    (
        "partition-1656",
        "oc1-04d3cbbb97fdfff4f3581215287c90a10f000000000100030101cc0501cd0501820693060000",
    ),
    // index 2648: n=8, 1 arrival, 1 crash, one group cut.
    ("partition-2648", "oc1-0894d0f5eaefe3a4bdd2010210337390a10f0000000001000301030101030102360000"),
    // index 2910: n=8, 1 arrival, 1 crash, one split cut.
    (
        "partition-2910",
        "oc1-08ccd089f4c19ed8a77f0507223e90a10f000000000100050101dc0201dd0201f902960301020104",
    ),
    // index 3037: n=2, 1 arrival, 1 crash, one group cut.
    ("partition-3037", "oc1-0285f5e0aea6e8cbc5460b192f930190a10f0000000001000201020001020100040000"),
    // index 4960: n=4, 1 arrival, 1 crash, one split cut.
    ("partition-4960", "oc1-04bef693d489c8fd90c001181842a20190a10f00000000010004010201010201024a010101"),
];

/// Derives the i-th scenario seed from a master seed: a splitmix64
/// finalizer over the golden-ratio-scrambled index — statistically
/// independent streams for adjacent indices, and a pure function of
/// `(master, index)`. `oc_bench::sweep::derive_seed` is this function
/// (`oc-bench` depends on this crate, not the other way around).
#[must_use]
pub fn scenario_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One failing scenario found by exploration.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The scenario's index within the exploration budget.
    pub index: u64,
    /// The generated (un-shrunk) scenario.
    pub scenario: Scenario,
    /// Its oracle verdict.
    pub outcome: Outcome,
}

/// Explores `budget` scenarios serially and returns the first failure, if
/// any. The sharded equivalent (same scenarios, any thread count) is the
/// `explore` binary in `oc-bench`; this entry point exists for tests and
/// for shrinking, which is inherently sequential.
#[must_use]
pub fn explore_serial(
    space: &Space,
    master_seed: u64,
    budget: u64,
    mutation: Mutation,
) -> Option<Failure> {
    for index in 0..budget {
        let scenario = Scenario::generate(space, master_seed, index);
        let outcome = run_scenario(&scenario, mutation);
        if !outcome.is_clean() {
            return Some(Failure { index, scenario, outcome });
        }
    }
    None
}

/// Renders a minimal, self-contained Rust repro for a failing scenario:
/// decode the ID, run, assert clean. Paste it into any test module with
/// `oc-check` and `oc-algo` available.
#[must_use]
pub fn repro_snippet(scenario: &Scenario, mutation: Mutation) -> String {
    format!(
        "#[test]\n\
         fn shrunk_counterexample_replays() {{\n\
         \x20   // Scenario ID is the complete scenario: n={n}, {arrivals} arrival(s), \
         {crashes} crash(es).\n\
         \x20   let scenario = oc_check::Scenario::from_id(\n\
         \x20       \"{id}\",\n\
         \x20   )\n\
         \x20   .expect(\"valid scenario id\");\n\
         \x20   let outcome = oc_check::run_scenario(&scenario, oc_algo::Mutation::{mutation:?});\n\
         \x20   assert!(outcome.is_clean(), \"violations: {{outcome:?}}\");\n\
         }}\n",
        n = scenario.n,
        arrivals = scenario.arrivals.len(),
        crashes = scenario.crashes.len(),
        id = scenario.id(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seeds_are_stable_and_distinct() {
        assert_eq!(scenario_seed(42, 0), scenario_seed(42, 0));
        assert_ne!(scenario_seed(42, 0), scenario_seed(42, 1));
        assert_ne!(scenario_seed(42, 7), scenario_seed(43, 7));
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..4_096 {
            assert!(seen.insert(scenario_seed(42, index)), "collision at {index}");
        }
    }

    #[test]
    fn repro_snippet_contains_the_id_and_mutation() {
        let scenario = Scenario::generate(&Space::default(), 1, 0);
        let text = repro_snippet(&scenario, Mutation::SkipTokenRegeneration);
        assert!(text.contains(&scenario.id()));
        assert!(text.contains("Mutation::SkipTokenRegeneration"));
        assert!(text.contains("oc_check::run_scenario"));
    }
}
