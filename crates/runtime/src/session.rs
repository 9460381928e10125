//! The client-facing session table: request identities, per-request
//! lifecycle, and the latency histogram.
//!
//! Every `acquire` (immediate or scheduled) opens a request slot. A
//! request's lifecycle is strictly
//! `Pending → Granted → Completed`, short-circuited to `Abandoned` when
//! its node crashes first (or the runtime shuts down before service) —
//! the same accounting the simulator's `World` keeps, so the liveness
//! oracle's `served + abandoned == injected` equation judges both
//! substrates identically.
//!
//! Grant order is per-node FIFO, matching the simulator's
//! `pending_request_times` queues: when a node enters the CS, its oldest
//! *activated* request is the one being served.
//!
//! Two batched-hot-path extras ride on each slot:
//!
//! * **auto-release** — the request exits the CS immediately after entry
//!   instead of waiting out a wall-clock lease, so a closed-loop client
//!   measures acquisition throughput rather than lease pacing;
//! * **watchers** — a registered completion channel is notified once,
//!   when the request reaches a terminal state, replacing status
//!   sleep-polling in closed-loop clients.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use oc_topology::NodeId;

use crate::histogram::{LatencyHistogram, LatencySummary};

/// Identity of one `acquire` call, unique within its runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The raw index (dense, in issue order).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw index (crate-internal: ids travel in
    /// worker commands as plain `u64`s).
    pub(crate) fn from_index(index: u64) -> Self {
        RequestId(index)
    }
}

/// Lifecycle state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Issued, not yet granted.
    Pending = 0,
    /// Inside the critical section right now.
    Granted = 1,
    /// Served: the critical section completed (terminal).
    Completed = 2,
    /// Never served: its node crashed while it waited, it was issued to a
    /// crashed node, or the runtime shut down first (terminal).
    Abandoned = 3,
}

impl RequestStatus {
    /// `true` for the terminal states.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, RequestStatus::Completed | RequestStatus::Abandoned)
    }
}

/// A terminal-state notification: `(request, its terminal status)`.
pub(crate) type Completion = (RequestId, RequestStatus);

/// One record per request ever issued — the table's only per-request
/// memory, kept for the runtime's whole life so that every
/// [`RequestId`] stays answerable. Sixteen bytes.
#[derive(Debug)]
struct RequestSlot {
    /// Issue time in nanoseconds since the runtime's epoch — for
    /// scheduled arrivals, the *scheduled* delivery instant, so open-loop
    /// latency includes queueing behind the lock but not the schedule's
    /// lead time.
    t0: u64,
    node: NodeId,
    /// Status in the low two bits, the auto-release flag (exit the CS
    /// immediately after entry, no wall-clock lease) in bit 2, and above
    /// them the index of the completion channel to notify at the terminal
    /// transition ([`NO_WATCHER`] for none).
    packed: u32,
}

const _: () = assert!(std::mem::size_of::<RequestSlot>() <= 16);

const STATUS_MASK: u32 = 0b11;
const AUTO_RELEASE: u32 = 0b100;
const WATCHER_SHIFT: u32 = 3;
const NO_WATCHER: u32 = u32::MAX >> WATCHER_SHIFT;

impl RequestSlot {
    fn status(&self) -> RequestStatus {
        match self.packed & STATUS_MASK {
            0 => RequestStatus::Pending,
            1 => RequestStatus::Granted,
            2 => RequestStatus::Completed,
            _ => RequestStatus::Abandoned,
        }
    }

    fn set_status(&mut self, status: RequestStatus) {
        self.packed = (self.packed & !STATUS_MASK) | status as u32;
    }

    fn auto_release(&self) -> bool {
        self.packed & AUTO_RELEASE != 0
    }

    fn watcher(&self) -> Option<u32> {
        Some(self.packed >> WATCHER_SHIFT).filter(|&w| w != NO_WATCHER)
    }
}

struct SessionInner {
    slots: Vec<RequestSlot>,
    /// Activated-but-ungranted requests per node, FIFO.
    pending: Vec<VecDeque<u64>>,
    /// The request currently inside the CS per node, if any.
    current: Vec<Option<u64>>,
    /// Registered completion channels, indexed by `RequestSlot::watcher`.
    /// `None` marks a watcher whose receiver hung up: the slot is pruned
    /// on the first failed send (the index stays reserved so later
    /// registrations keep their identities) and never sent to again.
    watchers: Vec<Option<Sender<Completion>>>,
    histogram: LatencyHistogram,
    /// Requests not yet terminal (pending or granted).
    live: u64,
    /// The node space cut into contiguous buckets (the runtime's
    /// namespaces): bucket `k` starts at zero-based node index
    /// `offsets[k]` and runs to the next offset, the last to infinity.
    offsets: Vec<u32>,
    /// Running `(injected, completed, abandoned)` per bucket, moved at
    /// the transitions — the liveness horizon's starvation equation, one
    /// namespace at a time, without a scan of `slots`.
    counts: Vec<(u64, u64, u64)>,
}

impl SessionInner {
    fn bucket_of(&self, node: NodeId) -> usize {
        self.offsets.partition_point(|&off| off <= node.zero_based()).saturating_sub(1)
    }

    /// The one terminal transition: records the status, moves the running
    /// counters, and fires the slot's completion notification if a
    /// watcher is registered — each slot notifies at most once because
    /// terminal states never transition again. A disconnected watcher is
    /// pruned: its sender is dropped on the first failed send, so a
    /// departed client's channel does not keep accumulating (and silently
    /// failing) terminal notifications for the rest of the runtime's
    /// life.
    fn finish(&mut self, id: u64, status: RequestStatus) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(status.is_terminal() && !slot.status().is_terminal());
        slot.set_status(status);
        let (node, watcher) = (slot.node, slot.watcher());
        self.live -= 1;
        let bucket = self.bucket_of(node);
        if status == RequestStatus::Completed {
            self.counts[bucket].1 += 1;
        } else {
            self.counts[bucket].2 += 1;
        }
        let Some(w) = watcher else { return };
        if let Some(tx) = &self.watchers[w as usize] {
            if tx.send((RequestId(id), status)).is_err() {
                self.watchers[w as usize] = None;
            }
        }
    }

    /// Watchers whose receiver is still connected (or has never been
    /// sent to since it hung up) — observability for the prune.
    #[cfg(test)]
    fn live_watchers(&self) -> usize {
        self.watchers.iter().filter(|w| w.is_some()).count()
    }
}

/// Shared, mutex-protected session state (see module docs).
pub(crate) struct SessionTable {
    inner: Mutex<SessionInner>,
}

impl SessionTable {
    /// A table over `n` nodes whose request accounting is kept per
    /// bucket of the node space (see `SessionInner::offsets`).
    pub(crate) fn new(n: usize, offsets: Vec<u32>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "the first bucket starts at node index 0");
        SessionTable {
            inner: Mutex::new(SessionInner {
                slots: Vec::new(),
                pending: vec![VecDeque::new(); n],
                current: vec![None; n],
                watchers: Vec::new(),
                histogram: LatencyHistogram::new(),
                live: 0,
                counts: vec![(0, 0, 0); offsets.len()],
                offsets,
            }),
        }
    }

    /// Locks the table, recovering from poison: the table's invariants
    /// are per-slot and every verdict that matters is re-checked by the
    /// oracles at shutdown, so a worker that panicked while holding the
    /// guard must not cascade into panics in every client thread and the
    /// gateway — they read whatever state the panicking writer left,
    /// which is no worse than what any concurrent reader could see.
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a completion channel; terminal transitions of slots
    /// opened with the returned index are sent to it.
    pub(crate) fn register_watcher(&self) -> (u32, Receiver<Completion>) {
        let (tx, rx) = channel();
        let mut inner = self.lock();
        let idx = inner.watchers.len() as u32;
        assert!(idx < NO_WATCHER, "watcher index does not fit its request-slot field");
        inner.watchers.push(Some(tx));
        (idx, rx)
    }

    /// Opens a new request slot (status `Pending`, not yet activated).
    /// `t0` is in nanoseconds since the runtime's epoch.
    pub(crate) fn open(
        &self,
        node: NodeId,
        t0: u64,
        auto_release: bool,
        watcher: Option<u32>,
    ) -> RequestId {
        let mut inner = self.lock();
        let id = inner.slots.len() as u64;
        let packed = RequestStatus::Pending as u32
            | if auto_release { AUTO_RELEASE } else { 0 }
            | watcher.unwrap_or(NO_WATCHER) << WATCHER_SHIFT;
        inner.slots.push(RequestSlot { t0, node, packed });
        inner.live += 1;
        let bucket = inner.bucket_of(node);
        inner.counts[bucket].0 += 1;
        RequestId(id)
    }

    /// Activates a request at its node: it joins the node's FIFO grant
    /// queue. Called by the owning worker when the `Acquire` command is
    /// processed, so queue order matches processing order.
    pub(crate) fn activate(&self, id: RequestId) {
        let mut inner = self.lock();
        let node = inner.slots[id.0 as usize].node;
        inner.pending[node.zero_based() as usize].push_back(id.0);
    }

    /// Abandons one request (issued to a crashed node). Returns `true`
    /// if it was still pending.
    pub(crate) fn abandon(&self, id: RequestId) -> bool {
        let mut inner = self.lock();
        let pending = inner.slots[id.0 as usize].status() == RequestStatus::Pending;
        if pending {
            inner.finish(id.0, RequestStatus::Abandoned);
        }
        pending
    }

    /// Grants the node's oldest activated request at `now` (nanoseconds
    /// since the runtime's epoch): pops the FIFO, marks it `Granted`, and
    /// records its latency. Returns the request, its latency, and whether
    /// it auto-releases — or `None` if the node entered the CS with no
    /// session request queued.
    pub(crate) fn grant(&self, node: NodeId, now: u64) -> Option<(RequestId, u64, bool)> {
        let mut inner = self.lock();
        let idx = node.zero_based() as usize;
        let id = inner.pending[idx].pop_front()?;
        let slot = &mut inner.slots[id as usize];
        slot.set_status(RequestStatus::Granted);
        let (latency, auto) = (now.saturating_sub(slot.t0), slot.auto_release());
        inner.current[idx] = Some(id);
        inner.histogram.record(latency);
        Some((RequestId(id), latency, auto))
    }

    /// Completes the node's granted request (CS exit). Returns it, if
    /// one was current.
    pub(crate) fn complete_current(&self, node: NodeId) -> Option<RequestId> {
        let mut inner = self.lock();
        let id = inner.current[node.zero_based() as usize].take()?;
        inner.finish(id, RequestStatus::Completed);
        Some(RequestId(id))
    }

    /// `true` if `id` is the request currently holding `node`'s critical
    /// section — the release-path validity check.
    pub(crate) fn is_current(&self, id: RequestId, node: NodeId) -> bool {
        let inner = self.lock();
        inner.current[node.zero_based() as usize] == Some(id.0)
    }

    /// `true` if the request currently holding `node`'s critical section
    /// was opened auto-release — the worker's immediate-exit check.
    pub(crate) fn current_is_auto(&self, node: NodeId) -> bool {
        let inner = self.lock();
        inner.current[node.zero_based() as usize]
            .is_some_and(|id| inner.slots[id as usize].auto_release())
    }

    /// The node a request was issued against.
    pub(crate) fn node_of(&self, id: RequestId) -> Option<NodeId> {
        let inner = self.lock();
        inner.slots.get(id.0 as usize).map(|slot| slot.node)
    }

    /// Crash of `node`: every activated-but-ungranted request is
    /// abandoned (returns the count), and a granted request is completed
    /// — its critical section was served, however abruptly it ended.
    pub(crate) fn crash_node(&self, node: NodeId) -> u64 {
        let mut inner = self.lock();
        let idx = node.zero_based() as usize;
        let mut abandoned = 0;
        while let Some(id) = inner.pending[idx].pop_front() {
            inner.finish(id, RequestStatus::Abandoned);
            abandoned += 1;
        }
        if let Some(id) = inner.current[idx].take() {
            inner.finish(id, RequestStatus::Completed);
        }
        abandoned
    }

    /// Shutdown: force every non-terminal request terminal — `Pending`
    /// becomes `Abandoned` (returns how many), `Granted` becomes
    /// `Completed`. After this, `injected == completed + abandoned`
    /// holds unconditionally.
    pub(crate) fn finalize(&self) -> u64 {
        let mut inner = self.lock();
        let mut newly_abandoned = 0;
        // A request opened but not yet activated sits in no queue, so
        // the stragglers can only be found by a scan — which stops at
        // the last of them, and which a settled run skips.
        let mut id = 0;
        while inner.live > 0 {
            match inner.slots[id as usize].status() {
                RequestStatus::Pending => {
                    inner.finish(id, RequestStatus::Abandoned);
                    newly_abandoned += 1;
                }
                RequestStatus::Granted => inner.finish(id, RequestStatus::Completed),
                _ => {}
            }
            id += 1;
        }
        for queue in &mut inner.pending {
            queue.clear();
        }
        for current in &mut inner.current {
            *current = None;
        }
        newly_abandoned
    }

    /// One request's status.
    pub(crate) fn status(&self, id: RequestId) -> Option<RequestStatus> {
        let inner = self.lock();
        inner.slots.get(id.0 as usize).map(RequestSlot::status)
    }

    /// `true` if no request is pending or granted.
    pub(crate) fn all_terminal(&self) -> bool {
        self.lock().live == 0
    }

    /// Terminal counts: `(completed, abandoned)`.
    pub(crate) fn terminal_counts(&self) -> (u64, u64) {
        let inner = self.lock();
        inner.counts.iter().fold((0, 0), |(c, a), bucket| (c + bucket.1, a + bucket.2))
    }

    /// `(injected, completed, abandoned)` per bucket of the node space.
    pub(crate) fn counts_by_bucket(&self) -> Vec<(u64, u64, u64)> {
        self.lock().counts.clone()
    }

    /// Requests opened so far.
    pub(crate) fn opened(&self) -> u64 {
        self.lock().slots.len() as u64
    }

    /// Snapshot of the latency summary.
    pub(crate) fn latency_summary(&self) -> LatencySummary {
        self.lock().histogram.summary()
    }

    /// Clones the full histogram (for merging across runs in harnesses).
    pub(crate) fn histogram(&self) -> LatencyHistogram {
        self.lock().histogram.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four nodes in two buckets: nodes {1, 2} and {3, 4}.
    fn table() -> SessionTable {
        SessionTable::new(4, vec![0, 2])
    }

    fn open(t: &SessionTable, node: u32) -> RequestId {
        t.open(NodeId::new(node), 0, false, None)
    }

    #[test]
    fn lifecycle_pending_granted_completed() {
        let t = table();
        let now = 1_000;
        let id = open(&t, 2);
        assert_eq!(t.status(id), Some(RequestStatus::Pending));
        t.activate(id);
        let (granted, latency, auto) = t.grant(NodeId::new(2), now).expect("queued request");
        assert_eq!(granted, id);
        assert_eq!(latency, now, "opened at 0 ns, granted at `now` ns");
        assert!(!auto);
        assert_eq!(t.status(id), Some(RequestStatus::Granted));
        assert!(t.is_current(id, NodeId::new(2)));
        assert!(!t.current_is_auto(NodeId::new(2)));
        assert_eq!(t.complete_current(NodeId::new(2)), Some(id));
        assert_eq!(t.status(id), Some(RequestStatus::Completed));
        assert!(t.all_terminal());
    }

    #[test]
    fn grant_order_is_fifo_per_node() {
        let t = table();
        let now = 1_000;
        let a = open(&t, 1);
        let b = open(&t, 1);
        t.activate(a);
        t.activate(b);
        assert_eq!(t.grant(NodeId::new(1), now).unwrap().0, a);
        t.complete_current(NodeId::new(1));
        assert_eq!(t.grant(NodeId::new(1), now).unwrap().0, b);
    }

    #[test]
    fn crash_abandons_pending_and_completes_current() {
        let t = table();
        let now = 1_000;
        let served = open(&t, 3);
        let starved = open(&t, 3);
        t.activate(served);
        t.activate(starved);
        t.grant(NodeId::new(3), now).unwrap();
        assert_eq!(t.crash_node(NodeId::new(3)), 1);
        assert_eq!(t.status(served), Some(RequestStatus::Completed));
        assert_eq!(t.status(starved), Some(RequestStatus::Abandoned));
        assert_eq!(t.terminal_counts(), (1, 1));
    }

    #[test]
    fn finalize_terminates_everything() {
        let t = table();
        let now = 1_000;
        let pending = open(&t, 1);
        let granted = open(&t, 2);
        t.activate(granted);
        t.grant(NodeId::new(2), now).unwrap();
        assert_eq!(t.finalize(), 1);
        assert_eq!(t.status(pending), Some(RequestStatus::Abandoned));
        assert_eq!(t.status(granted), Some(RequestStatus::Completed));
        assert!(t.all_terminal());
        assert_eq!(t.opened(), 2);
    }

    #[test]
    fn grant_without_session_request_is_none() {
        let t = table();
        assert!(t.grant(NodeId::new(1), 0).is_none());
        assert!(t.complete_current(NodeId::new(1)).is_none());
    }

    #[test]
    fn auto_release_flag_travels_through_grant() {
        let t = table();
        let id = t.open(NodeId::new(1), 0, true, None);
        t.activate(id);
        let (_, _, auto) = t.grant(NodeId::new(1), 0).unwrap();
        assert!(auto);
        assert!(t.current_is_auto(NodeId::new(1)));
    }

    #[test]
    fn watcher_sees_every_terminal_transition_once() {
        let t = table();
        let (w, rx) = t.register_watcher();
        let completed = t.open(NodeId::new(1), 0, false, Some(w));
        let crashed = t.open(NodeId::new(2), 0, false, Some(w));
        let finalized = t.open(NodeId::new(3), 0, false, Some(w));
        let unwatched = open(&t, 4);
        t.activate(completed);
        t.grant(NodeId::new(1), 0).unwrap();
        t.complete_current(NodeId::new(1));
        t.activate(crashed);
        t.crash_node(NodeId::new(2));
        t.finalize();
        let mut got: Vec<Completion> = Vec::new();
        while let Ok(completion) = rx.try_recv() {
            got.push(completion);
        }
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(
            got,
            vec![
                (completed, RequestStatus::Completed),
                (crashed, RequestStatus::Abandoned),
                (finalized, RequestStatus::Abandoned),
            ]
        );
        let _ = unwatched;
    }

    #[test]
    fn dropped_watcher_is_pruned_on_first_failed_send() {
        // Regression: `register_watcher` pushed senders that were never
        // pruned — a dropped `Watcher` left a dead sender that was
        // re-sent (its error silently ignored) on every terminal
        // transition forever. The first failed send must retire it.
        let t = table();
        let (w, rx) = t.register_watcher();
        let (live_w, live_rx) = t.register_watcher();
        assert_eq!(t.lock().live_watchers(), 2);
        let first = t.open(NodeId::new(1), 0, false, Some(w));
        drop(rx);
        // The client left; the first terminal transition hits the dead
        // channel and prunes the sender.
        assert!(t.abandon(first));
        assert_eq!(t.lock().live_watchers(), 1);
        assert!(t.lock().watchers[w as usize].is_none());
        // Churn: hundreds of further terminal transitions against the
        // dead watcher id stay pruned (no resurrection, no panic), and a
        // live watcher keeps its identity and its notifications.
        for i in 0..300 {
            let id = t.open(NodeId::new(1 + (i % 4)), 0, false, Some(w));
            t.abandon(id);
        }
        assert_eq!(t.lock().live_watchers(), 1);
        let watched = t.open(NodeId::new(2), 0, false, Some(live_w));
        t.abandon(watched);
        assert_eq!(live_rx.try_recv().ok(), Some((watched, RequestStatus::Abandoned)));
    }

    #[test]
    fn poisoned_table_still_answers_status() {
        // Regression: `lock()` used `expect("session table poisoned")`,
        // so one panicking worker cascaded into panics in every client
        // thread. The guard is recovered via `PoisonError::into_inner`;
        // the table's invariants are per-slot and re-checked by the
        // oracles, so readers keep working.
        let t = std::sync::Arc::new(table());
        let id = open(&t, 3);
        let poisoner = std::sync::Arc::clone(&t);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies holding the session lock");
        })
        .join();
        assert!(t.inner.lock().is_err(), "the mutex must actually be poisoned");
        assert_eq!(t.status(id), Some(RequestStatus::Pending));
        // Mutation through the recovered guard still works too.
        t.activate(id);
        assert!(t.grant(NodeId::new(3), 0).is_some());
        assert_eq!(t.status(id), Some(RequestStatus::Granted));
    }

    #[test]
    fn counts_by_bucket_partitions_the_node_space() {
        let t = table();
        let a = open(&t, 1);
        let b = open(&t, 3);
        let c = open(&t, 4);
        t.activate(a);
        t.grant(NodeId::new(1), 0).unwrap();
        t.complete_current(NodeId::new(1));
        t.activate(b);
        t.crash_node(NodeId::new(3));
        assert_eq!(t.counts_by_bucket(), vec![(1, 1, 0), (2, 0, 1)]);
        assert_eq!(t.terminal_counts(), (1, 1));
        assert!(!t.all_terminal(), "the request at node 4 is still pending");
        assert_eq!(t.finalize(), 1);
        assert_eq!(t.counts_by_bucket(), vec![(1, 1, 0), (2, 0, 2)]);
        assert!(t.all_terminal());
        let _ = c;
    }
}
