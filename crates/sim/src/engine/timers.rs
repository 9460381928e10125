//! Timer state for both kinds of clock.
//!
//! **Virtual time** ([`TimerTable`], the simulator): arming a timer
//! records a fresh *generation* for it and schedules a timer event
//! carrying that generation; cancelling (or re-arming) replaces or drops
//! the record, so stale events are ignored when they surface — the event
//! queue is never searched. The table holds the armed timers and nothing
//! else: one entry per `(node, timer id)` that is armed right now, none
//! for the nodes that have nothing armed, so a population of millions
//! that arms few timers, or none, pays for few or none.
//!
//! **Real time** ([`DeadlineSet`], `oc-runtime`'s workers and
//! `oc-transport`'s node process): deadlines are `u64` nanoseconds on
//! the owner's clock — the wall clock on threads and in processes, a
//! virtual one when `oc-runtime` plays a run on one thread. The set
//! holds *live* armings only.
//! Cancel, re-arm and crash remove the entry on the spot, so the set is
//! bounded by owners × timer ids however fast timers are armed and
//! however long their timeouts run — the Section 5 timeouts are armed per
//! claim and cancelled when the token arrives, and a cancelled timer must
//! cost nothing.

use std::collections::{hash_map::Entry, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Which timer: a node index and one of its timer ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerKey {
    node: u32,
    id: u64,
}

impl Hash for TimerKey {
    /// One word: the id in the high half, the node in the low — distinct
    /// for every key whose id fits 32 bits, as protocol timer ids do.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.id.rotate_left(32) ^ u64::from(self.node));
    }
}

/// Multiply-rotate hashing of [`TimerKey`]s. A timer touch is on the
/// per-event path, so a key costs one multiply, not a SipHash; the keys
/// come from the simulator itself, never from outside it, so resistance to
/// crafted collisions buys nothing; and a fixed hash makes the table grow
/// and rehash at the same points on every run, so the allocation audit's
/// pinned counts stay exact.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(u64::from(*byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The simulator's armed timers: `(node index, timer id)` → the one
/// generation that may fire.
///
/// Generations come from one counter for the whole table, so each arming
/// anywhere gets a number no other arming ever had; they never leave the
/// simulator, which is what lets the numbering be global.
#[derive(Debug, Default)]
pub struct TimerTable {
    armed: HashMap<TimerKey, u64, BuildHasherDefault<KeyHasher>>,
    last_generation: u64,
}

impl Clone for TimerTable {
    fn clone(&self) -> Self {
        TimerTable { armed: self.armed.clone(), last_generation: self.last_generation }
    }

    /// Into the table this one already owns: a restore reallocates
    /// nothing unless the source holds more than this table ever did.
    fn clone_from(&mut self, source: &Self) {
        let TimerTable { armed, last_generation } = source;
        self.armed.clear();
        self.armed.extend(armed.iter().map(|(key, generation)| (*key, *generation)));
        self.last_generation = *last_generation;
    }
}

impl TimerTable {
    /// An empty table: nothing is stored until something is armed.
    #[must_use]
    pub fn new() -> Self {
        TimerTable::default()
    }

    /// Empties the table and restarts its generations, as
    /// [`TimerTable::new`] would, keeping the map's capacity. The map is
    /// only probed and `retain`ed, never iterated into behaviour, so the
    /// slots a larger earlier run left behind change nothing a run does.
    pub(crate) fn reset(&mut self) {
        let TimerTable { armed, last_generation } = self;
        armed.clear();
        *last_generation = 0;
    }

    /// Heap bytes held by the table (slots and control bytes), for the
    /// memory-footprint report.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.armed.capacity() * (std::mem::size_of::<(TimerKey, u64)>() + 1)
    }

    /// Arms `id` on node `idx`, superseding any previous arming of it, and
    /// returns the generation the scheduled timer event must carry to
    /// fire.
    pub fn arm(&mut self, idx: usize, id: u64) -> u64 {
        self.last_generation += 1;
        self.armed.insert(TimerKey { node: idx as u32, id }, self.last_generation);
        self.last_generation
    }

    /// Disarms `id` on node `idx` (no-op if not armed).
    pub fn cancel(&mut self, idx: usize, id: u64) {
        self.armed.remove(&TimerKey { node: idx as u32, id });
    }

    /// Consumes a firing: returns `true` and disarms `id` on node `idx`
    /// exactly when `generation` is its live arming; a stale generation
    /// returns `false` and changes nothing.
    pub fn fire(&mut self, idx: usize, id: u64, generation: u64) -> bool {
        match self.armed.entry(TimerKey { node: idx as u32, id }) {
            Entry::Occupied(live) if *live.get() == generation => {
                live.remove();
                true
            }
            _ => false,
        }
    }

    /// Disarms everything on node `idx` (fail-stop: volatile state is
    /// lost). Capacity is retained.
    pub fn clear_node(&mut self, idx: usize) {
        let node = idx as u32;
        self.armed.retain(|key, _| key.node != node);
    }
}

/// The deadlines of every *live* timer arming of a group of owners (one
/// worker's nodes; the one node of a process), in nanoseconds on the
/// owners' clock.
///
/// Two views of the same armings: `due` orders them for firing, and
/// `rows[owner]` finds an owner's arming of an id so that cancel and
/// re-arm can take the old entry out of `due` at once. Rows are scanned
/// linearly (a node arms a handful of ids) and keep their capacity.
#[derive(Debug, Default)]
pub struct DeadlineSet {
    due: BTreeSet<(u64, u32, u64)>,
    rows: Vec<Vec<(u64, u64)>>,
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
    pub fn arm(&mut self, owner: u32, id: u64, deadline: u64) -> bool {
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
    pub fn next_deadline(&self) -> Option<u64> {
        self.due.first().map(|entry| entry.0)
    }

    /// Takes the earliest arming out of the set if it is due at `now`,
    /// yielding its `(owner, id)`. Call again for the next one: a timer
    /// popped later is checked against what the handlers of the earlier
    /// ones cancelled or re-armed in between.
    pub fn pop_due(&mut self, now: u64) -> Option<(u32, u64)> {
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

    #[test]
    fn rearm_supersedes() {
        let mut table = TimerTable::new();
        let g1 = table.arm(0, 7);
        let g2 = table.arm(0, 7);
        assert_ne!(g1, g2);
        assert_eq!(table.armed.len(), 1, "a re-arming replaces the entry");
        assert!(!table.fire(0, 7, g1), "stale generation must not fire");
        assert!(table.fire(0, 7, g2));
        assert!(!table.fire(0, 7, g2), "a firing consumes the arming");
        assert_eq!(table.armed.len(), 0);
    }

    #[test]
    fn cancel_disarms() {
        let mut table = TimerTable::new();
        let g = table.arm(0, 3);
        table.cancel(0, 3);
        assert!(!table.fire(0, 3, g));
    }

    #[test]
    fn nodes_are_independent() {
        let mut table = TimerTable::new();
        let g0 = table.arm(0, 1);
        let g1 = table.arm(1, 1);
        table.clear_node(0);
        assert!(!table.fire(0, 1, g0));
        assert!(table.fire(1, 1, g1));
    }

    #[test]
    fn an_idle_population_stores_nothing() {
        let mut table = TimerTable::new();
        assert_eq!(table.heap_bytes(), 0);
        table.clear_node(1 << 20);
        table.cancel(1 << 20, 1);
        assert_eq!(table.heap_bytes(), 0, "disarming what was never armed allocates nothing");
    }

    #[test]
    fn timer_table_agrees_with_per_node_rows() {
        // Model test: random arm/cancel/fire/clear scripts over interleaved
        // nodes against one `Vec<(id, generation)>` per node, searched
        // linearly. Firings are offered every generation ever handed out,
        // so stale ones are exercised.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes = 6usize;
            let mut table = TimerTable::new();
            let mut rows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes];
            let mut issued: Vec<(usize, u64, u64)> = Vec::new();
            let mut snapshot = None;
            for step in 0..600 {
                let idx = rng.random_range(0..nodes);
                let id = rng.random_range(1..5u64);
                match rng.random_range(0..12u32) {
                    0..=3 => {
                        let generation = table.arm(idx, id);
                        assert!(issued.iter().all(|e| e.2 != generation), "fresh generation");
                        rows[idx].retain(|slot| slot.0 != id);
                        rows[idx].push((id, generation));
                        issued.push((idx, id, generation));
                    }
                    4..=5 => {
                        table.cancel(idx, id);
                        rows[idx].retain(|slot| slot.0 != id);
                    }
                    6..=8 if !issued.is_empty() => {
                        let (idx, id, generation) = issued[rng.random_range(0..issued.len())];
                        let live = rows[idx].contains(&(id, generation));
                        assert_eq!(
                            table.fire(idx, id, generation),
                            live,
                            "seed {seed} step {step}"
                        );
                        rows[idx].retain(|slot| *slot != (id, generation));
                    }
                    9 => {
                        table.clear_node(idx);
                        rows[idx].clear();
                    }
                    10 => snapshot = Some((table.clone(), rows.clone(), issued.clone())),
                    _ => {
                        // A rewind: generations handed out since the
                        // snapshot belong to an abandoned future.
                        if let Some((saved, saved_rows, saved_issued)) = &snapshot {
                            let capacity = table.armed.capacity();
                            table.clone_from(saved);
                            rows.clone_from(saved_rows);
                            issued.clone_from(saved_issued);
                            assert!(
                                table.armed.capacity() >= capacity,
                                "clone_from keeps the buffer it had"
                            );
                        }
                    }
                }
                let armed: usize = rows.iter().map(Vec::len).sum();
                assert_eq!(table.armed.len(), armed, "seed {seed} step {step}");
                for (idx, row) in rows.iter().enumerate() {
                    for &(id, generation) in row {
                        let key = TimerKey { node: idx as u32, id };
                        assert_eq!(table.armed.get(&key), Some(&generation));
                    }
                }
            }
        }
    }

    fn drain(set: &mut DeadlineSet, now: u64) -> Vec<(u32, u64)> {
        std::iter::from_fn(|| set.pop_due(now)).collect()
    }

    #[test]
    fn deadline_rearm_supersedes() {
        let t0 = 1_000_000u64;
        let mut set = DeadlineSet::new();
        assert!(!set.arm(0, 7, t0 + 60_000_000_000));
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
        set.arm(0, 9, t0 + 60_000_000_000);
        set.arm(0, 7, t0);
        assert_eq!(drain(&mut set, t0), vec![(0, 7)]);
        assert_eq!(set.next_deadline(), Some(t0 + 60_000_000_000));
    }

    #[test]
    fn deadline_cancel_removes() {
        let t0 = 1_000_000u64;
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
        let t0 = 1_000_000u64;
        let at = |ms: u64| t0 + ms * 1_000_000;
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
        let t0 = 1_000_000u64;
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
        let t0 = 1_000_000u64;
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = DeadlineSet::new();
            let mut model: Vec<(u64, u32, u64)> = Vec::new();
            let mut now = t0;
            for step in 0..400 {
                let owner = rng.random_range(0..4u32);
                let id = rng.random_range(0..3u64);
                let live = model.iter().position(|e| (e.1, e.2) == (owner, id));
                match rng.random_range(0..10u32) {
                    0..=4 => {
                        let deadline = now + rng.random_range(0..500u64) * 1_000;
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
                        now += rng.random_range(0..300u64) * 1_000;
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
