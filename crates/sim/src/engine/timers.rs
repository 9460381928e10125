//! Per-node timer state for both kinds of clock.
//!
//! **Virtual time** ([`TimerTable`], the simulator): arming a timer
//! records a fresh *generation* for its id and schedules a timer event
//! carrying that generation; cancelling (or re-arming) bumps the recorded
//! generation so stale events are ignored when they surface — the event
//! queue is never searched. The seed kept a `HashMap<id, generation>` per
//! node — hashing on every timer touch, and one heap allocation per node
//! per map. Protocols arm a handful of well-known timer ids (the
//! open-cube algorithm uses four), so a small linear-scanned vec per node
//! ([`TimerRow`]) is both faster and denser.
//!
//! **Wall-clock time** ([`DeadlineSet`], `oc-runtime`'s workers and
//! `oc-transport`'s node process): the set holds *live* armings only.
//! Cancel, re-arm and crash remove the entry on the spot, so the set is
//! bounded by owners × timer ids however fast timers are armed and
//! however long their timeouts run — the Section 5 timeouts are armed per
//! claim and cancelled when the token arrives, and a cancelled timer must
//! cost nothing.

use std::collections::BTreeSet;
use std::time::Instant;

/// One node's armed timers: `(timer id, live generation)` pairs.
///
/// Linear scan: protocols use a handful of distinct ids, and rows retain
/// their capacity across crashes, so steady state allocates nothing.
#[derive(Debug, Default)]
pub struct TimerRow {
    slots: Vec<(u64, u64)>,
}

impl Clone for TimerRow {
    fn clone(&self) -> Self {
        TimerRow { slots: self.slots.clone() }
    }

    /// Into the slots this row already owns: a restored table reallocates
    /// no row.
    fn clone_from(&mut self, source: &Self) {
        let TimerRow { slots } = source;
        self.slots.clone_from(slots);
    }
}

impl TimerRow {
    /// An empty row.
    #[must_use]
    pub fn new() -> Self {
        TimerRow::default()
    }

    /// Records `generation` as the only one that may fire for `id`,
    /// superseding any previous arming.
    pub fn arm(&mut self, id: u64, generation: u64) {
        for slot in &mut self.slots {
            if slot.0 == id {
                slot.1 = generation;
                return;
            }
        }
        self.slots.push((id, generation));
    }

    /// Disarms `id` (no-op if not armed).
    pub fn cancel(&mut self, id: u64) {
        self.slots.retain(|slot| slot.0 != id);
    }

    /// `true` if `(id, generation)` is the live arming. Does not disarm.
    #[must_use]
    pub fn is_live(&self, id: u64, generation: u64) -> bool {
        self.slots.contains(&(id, generation))
    }

    /// Consumes a firing: returns `true` and disarms `id` exactly when
    /// `(id, generation)` is the live arming; stale generations return
    /// `false` and leave the row untouched.
    pub fn fire(&mut self, id: u64, generation: u64) -> bool {
        if let Some(k) = self.slots.iter().position(|slot| *slot == (id, generation)) {
            self.slots.swap_remove(k);
            true
        } else {
            false
        }
    }

    /// Disarms everything (fail-stop: volatile state is lost). Capacity is
    /// retained.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Number of armed timers.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.slots.len()
    }
}

/// Node-indexed timer rows plus per-node generation counters, for the
/// simulator.
///
/// Generations are per node, not global: a generation only ever guards
/// firings on its own row.
#[derive(Debug)]
pub struct TimerTable {
    rows: Vec<TimerRow>,
    gens: Vec<u64>,
}

impl Clone for TimerTable {
    fn clone(&self) -> Self {
        TimerTable { rows: self.rows.clone(), gens: self.gens.clone() }
    }

    /// Row by row ([`TimerRow::clone_from`]), keeping both vectors.
    fn clone_from(&mut self, source: &Self) {
        let TimerTable { rows, gens } = source;
        self.rows.clone_from(rows);
        self.gens.clone_from(gens);
    }
}

impl TimerTable {
    /// A table for `n` nodes (indexed `0..n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        TimerTable { rows: vec![TimerRow::new(); n], gens: vec![0; n] }
    }

    /// Heap bytes held by the table: the two node-indexed vectors plus
    /// every row's slot capacity. For the memory-footprint report.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<TimerRow>()
            + self.gens.capacity() * std::mem::size_of::<u64>()
            + self
                .rows
                .iter()
                .map(|row| row.slots.capacity() * std::mem::size_of::<(u64, u64)>())
                .sum::<usize>()
    }

    /// Arms `id` on node `idx`, returning the generation the scheduled
    /// timer event must carry to fire.
    pub fn arm(&mut self, idx: usize, id: u64) -> u64 {
        self.gens[idx] += 1;
        let generation = self.gens[idx];
        self.rows[idx].arm(id, generation);
        generation
    }

    /// Disarms `id` on node `idx`.
    pub fn cancel(&mut self, idx: usize, id: u64) {
        self.rows[idx].cancel(id);
    }

    /// Consumes a firing on node `idx` — see [`TimerRow::fire`].
    pub fn fire(&mut self, idx: usize, id: u64, generation: u64) -> bool {
        self.rows[idx].fire(id, generation)
    }

    /// Disarms everything on node `idx` (crash).
    pub fn clear_node(&mut self, idx: usize) {
        self.rows[idx].clear();
    }
}

/// The wall-clock deadlines of every *live* timer arming of a group of
/// owners (one worker's nodes; the one node of a process).
///
/// Two views of the same armings: `due` orders them for firing, and
/// `rows[owner]` finds an owner's arming of an id so that cancel and
/// re-arm can take the old entry out of `due` at once. Rows are scanned
/// linearly and keep their capacity, like [`TimerRow`].
#[derive(Debug, Default)]
pub struct DeadlineSet {
    due: BTreeSet<(Instant, u32, u64)>,
    rows: Vec<Vec<(u64, Instant)>>,
}

impl DeadlineSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        DeadlineSet::default()
    }

    /// Arms timer `id` of `owner` to fire at `deadline`. Returns `true`
    /// if this superseded a live arming of the same timer (whose entry
    /// is gone), `false` if the timer was not armed.
    pub fn arm(&mut self, owner: u32, id: u64, deadline: Instant) -> bool {
        if self.rows.len() <= owner as usize {
            self.rows.resize_with(owner as usize + 1, Vec::new);
        }
        self.due.insert((deadline, owner, id));
        let row = &mut self.rows[owner as usize];
        match row.iter_mut().find(|slot| slot.0 == id) {
            Some(slot) => {
                let old = std::mem::replace(&mut slot.1, deadline);
                if old != deadline {
                    self.due.remove(&(old, owner, id));
                }
                true
            }
            None => {
                row.push((id, deadline));
                false
            }
        }
    }

    /// Disarms timer `id` of `owner`. Returns `true` if it was armed.
    pub fn cancel(&mut self, owner: u32, id: u64) -> bool {
        let Some(row) = self.rows.get_mut(owner as usize) else { return false };
        let Some(k) = row.iter().position(|slot| slot.0 == id) else { return false };
        let (_, deadline) = row.swap_remove(k);
        self.due.remove(&(deadline, owner, id));
        true
    }

    /// Disarms everything `owner` has armed (fail-stop: volatile state
    /// is lost) and returns how many armings that was.
    pub fn clear_owner(&mut self, owner: u32) -> usize {
        let Some(row) = self.rows.get_mut(owner as usize) else { return 0 };
        for &(id, deadline) in row.iter() {
            self.due.remove(&(deadline, owner, id));
        }
        let cleared = row.len();
        row.clear();
        cleared
    }

    /// The earliest deadline of any live arming.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.due.first().map(|entry| entry.0)
    }

    /// Takes the earliest arming out of the set if it is due at `now`,
    /// yielding its `(owner, id)`. Call again for the next one: a timer
    /// popped later is checked against what the handlers of the earlier
    /// ones cancelled or re-armed in between.
    pub fn pop_due(&mut self, now: Instant) -> Option<(u32, u64)> {
        if self.due.first()?.0 > now {
            return None;
        }
        let (_, owner, id) = self.due.pop_first()?;
        let row = &mut self.rows[owner as usize];
        let k = row.iter().position(|slot| slot.0 == id).expect("every due entry has its row slot");
        row.swap_remove(k);
        Some((owner, id))
    }

    /// Live armings in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// `true` if nothing is armed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::time::Duration;

    #[test]
    fn rearm_supersedes() {
        let mut table = TimerTable::new(2);
        let g1 = table.arm(0, 7);
        let g2 = table.arm(0, 7);
        assert_ne!(g1, g2);
        assert!(!table.fire(0, 7, g1), "stale generation must not fire");
        assert!(table.fire(0, 7, g2));
        assert!(!table.fire(0, 7, g2), "a firing consumes the arming");
    }

    #[test]
    fn cancel_disarms() {
        let mut table = TimerTable::new(1);
        let g = table.arm(0, 3);
        table.cancel(0, 3);
        assert!(!table.fire(0, 3, g));
    }

    #[test]
    fn nodes_are_independent() {
        let mut table = TimerTable::new(2);
        let g0 = table.arm(0, 1);
        let g1 = table.arm(1, 1);
        table.clear_node(0);
        assert!(!table.fire(0, 1, g0));
        assert!(table.fire(1, 1, g1));
    }

    #[test]
    fn row_tracks_distinct_ids() {
        let mut row = TimerRow::new();
        row.arm(1, 10);
        row.arm(2, 11);
        assert_eq!(row.armed(), 2);
        assert!(row.is_live(1, 10));
        assert!(!row.is_live(1, 11));
        row.cancel(1);
        assert_eq!(row.armed(), 1);
        row.clear();
        assert_eq!(row.armed(), 0);
    }

    fn drain(set: &mut DeadlineSet, now: Instant) -> Vec<(u32, u64)> {
        std::iter::from_fn(|| set.pop_due(now)).collect()
    }

    #[test]
    fn deadline_rearm_supersedes() {
        let t0 = Instant::now();
        let mut set = DeadlineSet::new();
        assert!(!set.arm(0, 7, t0 + Duration::from_secs(60)));
        assert!(set.arm(0, 7, t0), "the second arming replaces the first");
        assert_eq!(set.len(), 1, "a superseded arming leaves nothing behind");
        assert_eq!(drain(&mut set, t0), vec![(0, 7)]);
        assert!(set.is_empty());
        assert_eq!(set.next_deadline(), None);
        // Re-arming at the very same instant keeps the one entry.
        assert!(!set.arm(0, 7, t0));
        assert!(set.arm(0, 7, t0));
        assert_eq!(drain(&mut set, t0), vec![(0, 7)]);
        // Mixed: of two due timers one is cancelled and one re-armed
        // while a third is far off — exactly one firing, and the next
        // deadline is the far one, not a leftover.
        set.arm(0, 7, t0);
        set.arm(0, 8, t0);
        set.cancel(0, 8);
        set.arm(0, 9, t0 + Duration::from_secs(60));
        set.arm(0, 7, t0);
        assert_eq!(drain(&mut set, t0), vec![(0, 7)]);
        assert_eq!(set.next_deadline(), Some(t0 + Duration::from_secs(60)));
    }

    #[test]
    fn deadline_cancel_removes() {
        let t0 = Instant::now();
        let mut set = DeadlineSet::new();
        set.arm(0, 3, t0);
        set.arm(0, 4, t0);
        assert!(set.cancel(0, 3));
        assert!(!set.cancel(0, 3), "already gone");
        assert!(!set.cancel(5, 3), "an owner that never armed anything");
        assert_eq!(set.len(), 1);
        assert_eq!(drain(&mut set, t0), vec![(0, 4)]);
    }

    #[test]
    fn deadline_pop_due_is_ordered_and_skips_the_cancelled() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut set = DeadlineSet::new();
        set.arm(2, 1, at(30));
        set.arm(0, 1, at(10));
        set.arm(1, 9, at(20));
        set.arm(1, 1, at(15));
        set.arm(0, 2, at(99));
        assert_eq!(set.next_deadline(), Some(at(10)));
        assert_eq!(set.pop_due(at(5)), None, "nothing is due yet");
        // A handler that runs between two pops cancels a due timer: it
        // must not surface afterwards.
        assert_eq!(set.pop_due(at(50)), Some((0, 1)));
        set.cancel(1, 9);
        assert_eq!(drain(&mut set, at(50)), vec![(1, 1), (2, 1)]);
        assert_eq!(set.next_deadline(), Some(at(99)));
    }

    #[test]
    fn deadline_clear_owner_leaves_the_others() {
        let t0 = Instant::now();
        let mut set = DeadlineSet::new();
        set.arm(0, 1, t0);
        set.arm(0, 2, t0);
        set.arm(1, 1, t0);
        assert_eq!(set.clear_owner(0), 2);
        assert_eq!(set.clear_owner(0), 0);
        assert_eq!(set.clear_owner(9), 0);
        assert_eq!(drain(&mut set, t0), vec![(1, 1)]);
        // The cleared owner arms again from scratch.
        assert!(!set.arm(0, 1, t0));
    }

    #[test]
    fn deadline_set_agrees_with_a_naive_vec() {
        // Model test: random arm/cancel/clear/pop scripts against a flat
        // list of `(deadline, owner, id)` searched linearly.
        let t0 = Instant::now();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = DeadlineSet::new();
            let mut model: Vec<(Instant, u32, u64)> = Vec::new();
            let mut now = t0;
            for step in 0..400 {
                let owner = rng.random_range(0..4u32);
                let id = rng.random_range(0..3u64);
                let live = model.iter().position(|e| (e.1, e.2) == (owner, id));
                match rng.random_range(0..10u32) {
                    0..=4 => {
                        let deadline = now + Duration::from_micros(rng.random_range(0..500));
                        assert_eq!(set.arm(owner, id, deadline), live.is_some(), "step {step}");
                        if let Some(k) = live {
                            model.swap_remove(k);
                        }
                        model.push((deadline, owner, id));
                    }
                    5..=6 => {
                        assert_eq!(set.cancel(owner, id), live.is_some(), "step {step}");
                        if let Some(k) = live {
                            model.swap_remove(k);
                        }
                    }
                    7 => {
                        let before = model.len();
                        model.retain(|e| e.1 != owner);
                        assert_eq!(set.clear_owner(owner), before - model.len(), "step {step}");
                    }
                    _ => {
                        now += Duration::from_micros(rng.random_range(0..300));
                        model.sort_unstable();
                        let due = model.iter().take_while(|e| e.0 <= now).count();
                        let expected: Vec<(u32, u64)> =
                            model.drain(..due).map(|e| (e.1, e.2)).collect();
                        assert_eq!(drain(&mut set, now), expected, "seed {seed} step {step}");
                    }
                }
                assert_eq!(set.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(set.next_deadline(), model.iter().map(|e| e.0).min());
            }
        }
    }
}
