//! The parallel deterministic sweep engine.
//!
//! Every experiment is a set of independent *cells* — one (configuration,
//! size, seed) combination each — and the sweep shards those cells across
//! `std::thread::scope` workers. Three properties make the parallelism
//! safe for a measurement harness:
//!
//! 1. **Determinism is per-cell.** A cell's entire randomness comes from
//!    its own seed, derived from the master seed and the cell's identity
//!    by [`derive_seed`] — never from which worker ran it or when.
//! 2. **Order is restored.** Workers pull cells dynamically (an atomic
//!    cursor, so long cells don't serialize behind short ones) but results
//!    are returned in cell order, so every aggregate computed from a
//!    [`SweepOutcome`] is byte-identical at any thread count.
//! 3. **Panics propagate.** A cell that fails its internal assertions
//!    fails the whole sweep, exactly like the serial loop it replaces.
//!
//! The outcome also carries the sweep's wall-clock time and the summed
//! per-cell busy time; their ratio is the measured parallel speedup
//! reported in the `BENCH_E*.json` artifacts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Results of one sweep, in cell order, plus its timing.
#[derive(Debug, Clone)]
pub struct SweepOutcome<T> {
    /// One result per cell, in the order the cells were given.
    pub results: Vec<T>,
    /// How long the sweep took, for the speedup report.
    pub timing: Timing,
}

/// The timing of one sweep — the sweep-timed half of an artifact's
/// envelope and the footer under its table.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Cells run.
    pub cells: usize,
    /// Worker threads actually used (clamped to the cell count).
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// Sum of per-cell execution seconds — what a single thread would
    /// have spent. `busy_secs / wall_secs` is the parallel speedup.
    pub busy_secs: f64,
}

impl Timing {
    /// The measured parallel speedup: total cell time over wall time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.busy_secs / self.wall_secs
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "   [{} cells on {} thread(s): {:.2}s wall, {:.2}s busy, speedup {:.2}x]",
            self.cells,
            self.threads,
            self.wall_secs,
            self.busy_secs,
            self.speedup(),
        )
    }
}

/// Runs `run(index, &cells[index])` for every cell on `threads` scoped
/// worker threads and returns the results in cell order.
///
/// `threads` is clamped to `1..=cells.len()`; `threads == 1` runs inline
/// with no thread machinery at all. The `run` closure is shared by
/// reference across workers, so it must be `Sync` (borrow its inputs
/// immutably — cell-local state belongs in the cell or the result).
pub fn sweep<C, T, F>(cells: &[C], threads: usize, run: F) -> SweepOutcome<T>
where
    C: Sync,
    T: Send,
    F: Fn(usize, &C) -> T + Sync,
{
    let threads = threads.clamp(1, cells.len().max(1));
    let start = Instant::now();
    let mut tagged: Vec<(usize, f64, T)> = Vec::with_capacity(cells.len());
    if threads == 1 {
        for (index, cell) in cells.iter().enumerate() {
            let cell_start = Instant::now();
            let result = run(index, cell);
            tagged.push((index, cell_start.elapsed().as_secs_f64(), result));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let shards: Vec<Vec<(usize, f64, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(index) else {
                                return local;
                            };
                            let cell_start = Instant::now();
                            let result = run(index, cell);
                            local.push((index, cell_start.elapsed().as_secs_f64(), result));
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        });
        for shard in shards {
            tagged.extend(shard);
        }
        tagged.sort_by_key(|(index, _, _)| *index);
    }
    let busy_secs = tagged.iter().map(|(_, secs, _)| secs).sum();
    let timing =
        Timing { cells: cells.len(), threads, wall_secs: start.elapsed().as_secs_f64(), busy_secs };
    SweepOutcome { results: tagged.into_iter().map(|(_, _, result)| result).collect(), timing }
}

/// Derives a cell's RNG seed from the master seed and the cell's stable
/// identity (an experiment-chosen stream number: typically the cell index,
/// or a hash of `(n, seed_index)`) — a pure function of `(master,
/// stream)`, so reordering or resharding cells can never change a cell's
/// seed. The explorer's scenario seeds are the same derivation.
pub use oc_check::scenario_seed as derive_seed;

/// Composes a stable stream number from an experiment tag and up to two
/// cell coordinates, for use with [`derive_seed`]. The tag keeps different
/// experiments' streams disjoint even at equal coordinates.
#[must_use]
pub fn stream_id(experiment: u64, a: u64, b: u64) -> u64 {
    // Distinct odd multipliers per coordinate; collisions would need a
    // 64-bit wraparound coincidence.
    experiment
        .wrapping_mul(0x00FF_51AF_D7ED_558D)
        .wrapping_add(a.wrapping_mul(0x0000_0100_0000_01B3))
        .wrapping_add(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_cell_order_at_any_thread_count() {
        let cells: Vec<u64> = (0..97).collect();
        let serial = sweep(&cells, 1, |i, c| (i as u64) * 1_000 + c * 3);
        for threads in [2, 3, 4, 8, 64] {
            let parallel = sweep(&cells, threads, |i, c| (i as u64) * 1_000 + c * 3);
            assert_eq!(serial.results, parallel.results, "threads={threads}");
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let outcome = sweep(&[1, 2, 3], 99, |_, c| *c);
        assert_eq!(outcome.timing.threads, 3);
        assert_eq!(outcome.results, vec![1, 2, 3]);
        let empty: Vec<i32> = Vec::new();
        let outcome = sweep(&empty, 4, |_, c: &i32| *c);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.timing.threads, 1);
    }

    #[test]
    fn timing_is_populated() {
        let outcome = sweep(&[0u64; 8], 2, |i, _| {
            // A little real work so busy time is nonzero.
            (0..10_000u64).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        });
        assert!(outcome.timing.wall_secs >= 0.0);
        assert!(outcome.timing.busy_secs >= 0.0);
        assert!(outcome.timing.speedup() > 0.0);
        assert_eq!(outcome.timing.cells, 8);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        // Pinned values: these feed every experiment's cells, so silently
        // changing the derivation would silently change every table.
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..10_000 {
            assert!(seen.insert(derive_seed(7, stream)), "collision at {stream}");
        }
    }

    #[test]
    fn stream_ids_separate_experiments_and_coordinates() {
        let mut seen = std::collections::BTreeSet::new();
        for exp in 1..=7u64 {
            for a in 0..20u64 {
                for b in 0..20u64 {
                    assert!(seen.insert(stream_id(exp, a, b)), "collision {exp}/{a}/{b}");
                }
            }
        }
    }
}
