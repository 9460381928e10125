//! The coverage-guided exploration loop: seed → mutate → run →
//! keep-if-new-coverage, in deterministic epochs.
//!
//! # Determinism and thread invariance
//!
//! Each epoch prepares a *batch* of candidate scenarios up front, as a
//! pure function of `(master seed, candidate ordinal, corpus state)`:
//! the first [`SEED_RUNS`] candidates are blind
//! [`Scenario::generate`] draws (the corpus needs something to mutate),
//! and every later candidate mutates a corpus entry under an ordinal-
//! seeded RNG. The batch then runs through a caller-supplied runner —
//! serial here, [`oc_bench::sweep`]-sharded in the `explore` binary —
//! and the results are folded *serially in slot order*: coverage
//! admission, the failure check, and the epoch curve never observe
//! execution order. A batch's candidates cannot depend on outcomes from
//! the same batch, so `--guided` is byte-identical at any `--threads`.
//!
//! # Failure attribution
//!
//! Mutants can leave the default space's soundness envelope (permanent
//! crashes, spliced partitions), where the protocol has *genuine* known
//! limits. When hunting a planted [`Mutation`], a violating run only
//! counts as a detection if the same scenario is clean under
//! [`Mutation::None`] — the differential check the self-check suite
//! applies to shrunk counterexamples, moved up front. The verification
//! run is charged against the budget.

use oc_algo::Mutation;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::coverage::{Corpus, Coverage};
use crate::mutate::mutate;
use crate::run::Outcome;
use crate::scenario::{Scenario, Space};
use crate::{run_scenario, scenario_seed, Failure};

/// Seed-stream salt separating mutation RNG from scenario generation.
const GUIDED_STREAM: u64 = 0x6775_6964_6564_2e31; // "guided.1"

/// Candidates per epoch. One epoch is one runner call — the unit of
/// parallelism. With [`SEED_RUNS`], what the committed detection-budget
/// pins and the CI battery run under.
pub const BATCH: usize = 16;
/// Blind `Scenario::generate` draws before mutation starts.
pub const SEED_RUNS: u64 = 24;

/// One point of the corpus growth curve: the state after an epoch.
#[derive(Debug, Clone, Copy)]
pub struct GuidedEpoch {
    /// Epoch ordinal (0 = the first, all-blind batch).
    pub epoch: u64,
    /// Cumulative scenario runs after this epoch.
    pub runs: u64,
    /// Corpus entries after this epoch.
    pub corpus: usize,
    /// Distinct coverage features after this epoch.
    pub features: usize,
}

/// What a guided exploration found.
#[derive(Debug, Clone)]
pub struct GuidedResult {
    /// The first attributable failure, if any. Its `index` is the number
    /// of runs spent *before* the failing one — "found within N runs"
    /// means `index < N`.
    pub failure: Option<Failure>,
    /// Total scenario runs consumed (including differential checks).
    pub runs: u64,
    /// The corpus growth curve, one row per completed epoch.
    pub curve: Vec<GuidedEpoch>,
    /// Final corpus size.
    pub corpus: usize,
    /// Final distinct feature count.
    pub features: usize,
}

/// Runs the guided loop with the serial in-process runner. The sharded
/// equivalent lives in `oc-bench`'s `explore --guided`, which supplies a
/// `sweep`-based runner through [`explore_guided_with`] and is pinned
/// byte-identical to this at any thread count.
#[must_use]
pub fn explore_guided(
    space: &Space,
    master_seed: u64,
    budget: u64,
    mutation: Mutation,
) -> GuidedResult {
    explore_guided_with(space, master_seed, budget, mutation, &mut |b| {
        b.iter().map(|scenario| run_scenario(scenario, mutation)).collect()
    })
}

/// The guided loop with an explicit batch runner. The
/// runner must return one [`Outcome`] per candidate, in slot order, each
/// equal to `run_scenario(&batch[slot], mutation)` — everything else
/// (candidate construction, coverage folding, failure attribution) is
/// computed here, serially.
pub fn explore_guided_with(
    space: &Space,
    master_seed: u64,
    budget: u64,
    mutation: Mutation,
    runner: &mut dyn FnMut(&[Scenario]) -> Vec<Outcome>,
) -> GuidedResult {
    let mut corpus = Corpus::new();
    let mut runs: u64 = 0;
    let mut scheduled: u64 = 0;
    let mut curve = Vec::new();
    let mut epoch: u64 = 0;
    let mut failure = None;

    'epochs: while scheduled < budget {
        let batch_len =
            usize::try_from((budget - scheduled).min(BATCH as u64)).expect("batch fits usize");
        let mut batch = Vec::with_capacity(batch_len);
        for slot in 0..batch_len {
            let ordinal = scheduled + slot as u64;
            if ordinal < SEED_RUNS || corpus.is_empty() {
                batch.push(Scenario::generate(space, master_seed, ordinal));
            } else {
                let mut rng =
                    StdRng::seed_from_u64(scenario_seed(master_seed ^ GUIDED_STREAM, ordinal));
                let parent_at = select_parent(&corpus, &mut rng);
                let donor_at = rng.random_range(0..corpus.len());
                let parent = &corpus.entries()[parent_at].scenario;
                let donor = (donor_at != parent_at).then(|| &corpus.entries()[donor_at].scenario);
                batch.push(mutate(parent, donor, &mut rng));
            }
        }
        scheduled += batch_len as u64;

        let outcomes = runner(&batch);
        assert_eq!(outcomes.len(), batch.len(), "the runner must answer every candidate");

        // Serial fold, slot order: this is the only place corpus state
        // advances, so candidate construction above never races it.
        for (scenario, outcome) in batch.iter().zip(&outcomes) {
            let index = runs;
            runs += 1;
            if !outcome.is_clean() {
                let attributable = mutation == Mutation::None || {
                    runs += 1; // the differential check is a run too
                    run_scenario(scenario, Mutation::None).is_clean()
                };
                if attributable {
                    failure = Some(Failure {
                        index,
                        scenario: scenario.clone(),
                        outcome: outcome.clone(),
                    });
                    break 'epochs;
                }
                // A genuine (mutation-independent) failure of an
                // out-of-envelope mutant: not this hunt's quarry, but
                // its coverage still steers the corpus.
            }
            corpus.admit(scenario, &Coverage::from_outcome(scenario, outcome));
        }
        curve.push(GuidedEpoch {
            epoch,
            runs,
            corpus: corpus.len(),
            features: corpus.feature_count(),
        });
        epoch += 1;
    }

    GuidedResult { failure, runs, curve, corpus: corpus.len(), features: corpus.feature_count() }
}

/// Picks a corpus entry to mutate: half the time one of the most recent
/// admissions (fresh coverage is the best lead), otherwise uniform over
/// the whole corpus weighted implicitly by admission (old multi-feature
/// entries stay reachable).
fn select_parent(corpus: &Corpus, rng: &mut StdRng) -> usize {
    let len = corpus.len();
    debug_assert!(len > 0);
    if rng.random_range(0..2u32) == 0 {
        let tail = len.min(8);
        len - 1 - rng.random_range(0..tail)
    } else {
        rng.random_range(0..len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guided_is_deterministic() {
        let space = Space::default();
        let a = explore_guided(&space, 42, 48, Mutation::None);
        let b = explore_guided(&space, 42, 48, Mutation::None);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.features, b.features);
        assert_eq!(a.curve.len(), b.curve.len());
        for (x, y) in a.curve.iter().zip(&b.curve) {
            assert_eq!(
                (x.epoch, x.runs, x.corpus, x.features),
                (y.epoch, y.runs, y.corpus, y.features)
            );
        }
        assert_eq!(
            a.failure.as_ref().map(|f| (f.index, f.scenario.id())),
            b.failure.as_ref().map(|f| (f.index, f.scenario.id()))
        );
    }

    #[test]
    fn guided_matches_any_runner_batching() {
        // The thread-invariance contract, tested without threads: a
        // runner that answers candidates in reversed execution order
        // (but returns them in slot order, as required) changes nothing.
        let space = Space::default();
        let serial = explore_guided(&space, 7, 48, Mutation::None);
        let shuffled = explore_guided_with(&space, 7, 48, Mutation::None, &mut |batch| {
            let mut out: Vec<(usize, Outcome)> = batch
                .iter()
                .enumerate()
                .rev()
                .map(|(slot, s)| (slot, run_scenario(s, Mutation::None)))
                .collect();
            out.sort_by_key(|(slot, _)| *slot);
            out.into_iter().map(|(_, o)| o).collect()
        });
        assert_eq!(serial.runs, shuffled.runs);
        assert_eq!(serial.corpus, shuffled.corpus);
        assert_eq!(serial.features, shuffled.features);
    }

    #[test]
    fn corpus_grows_across_epochs() {
        let space = Space::default();
        let result = explore_guided(&space, 42, 64, Mutation::None);
        assert!(result.failure.is_none(), "the default space is clean under the faithful protocol");
        assert!(result.corpus >= 2, "a 64-run exploration must keep several scenarios");
        assert!(!result.curve.is_empty());
        let first = result.curve.first().unwrap();
        let last = result.curve.last().unwrap();
        assert!(last.features >= first.features, "coverage is monotone");
        assert!(last.runs == result.runs);
    }
}
