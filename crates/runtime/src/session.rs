//! Client requests: identities, tickets, watchers and the running
//! accounts.
//!
//! Every `acquire` (immediate or scheduled) issues a [`Ticket`] that
//! travels *with* its command: it rides inside the `Acquire` to its
//! node's worker, waits in that node's own FIFO grant queue, becomes the
//! node's current ticket when the node enters the critical section, and
//! is consumed by [`Sessions::close`] — exactly once, by whoever ends the
//! request — into the [`Notice`] that [`Sessions::notify`] appends to its
//! watcher's [`Inbox`]. A request ends
//! `Completed` when its critical section is over (lease expiry, early
//! release, auto-release, a crash of the node inside it, shutdown) and
//! `Abandoned` when it can never be served (its node crashed while it
//! waited, it was issued to a crashed node, or the runtime shut down
//! first) — the same accounting the simulator's `World` keeps, so the
//! liveness oracle's `served + abandoned == injected` equation judges
//! both substrates identically.
//!
//! Nothing is kept per request once it has ended: what outlives a ticket
//! is a handful of counters and the latency histograms.
//!
//! What a thread writes per request is laid out so that no other thread
//! writes the same cache line. Each namespace's [`Books`] — its monitor,
//! its served, ended and delivered counts, all written by the one worker
//! that runs the namespace's nodes (or the few that run its blocks) — sit
//! on lines of their own, as does each namespace's client-written record
//! of requests issued and claims taken, and each worker's latency
//! histogram. No count is global: a request's index is its namespace's
//! issue count, and "every request has ended" is read off the
//! per-namespace counts ([`Sessions::all_ended`]).
//!
//! Two extras ride on each ticket:
//!
//! * **auto-release** — the request exits the CS immediately after entry
//!   instead of waiting out a wall-clock lease, so a closed-loop client
//!   measures acquisition throughput rather than lease pacing;
//! * **a watcher key** — the slot of a [`Watcher`]'s [`Inbox`] in the
//!   runtime's [`Watchers`] and the generation of the watcher that holds
//!   it: the request's one completion notice goes there. A key is two
//!   integers, so issuing a watched request writes no reference count.
//!
//! A worker hands a client the notices of one batch in one step: it locks
//! each inbox the batch's notices go to once, appends all of them, and
//! wakes the client only if it was asleep on the inbox — no allocation,
//! and no syscall while the client is busy.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use oc_sim::Oracle;
use oc_topology::NodeId;

use crate::histogram::LatencyHistogram;

/// Identity of one `acquire` call, unique within its runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    index: u64,
    /// The (global) node the request was issued at: a release finds its
    /// worker, and a completion its namespace, from the id alone.
    node: NodeId,
}

impl RequestId {
    /// The raw index: dense per namespace, in issue order. Two requests
    /// of different namespaces may share an index; the id as a whole,
    /// which also names the node, is unique.
    #[must_use]
    pub fn index(self) -> u64 {
        self.index
    }

    pub(crate) fn node(self) -> NodeId {
        self.node
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Served: the critical section completed.
    Completed,
    /// Never served: its node crashed while it waited, it was issued to a
    /// crashed node, or the runtime shut down first.
    Abandoned,
}

/// A completion notice: `(request, how it ended)`.
pub(crate) type Completion = (RequestId, RequestStatus);

/// Where a watcher's completions wait for it: appended by the workers,
/// a batch at a time, and taken by the watcher's client, the whole list
/// at once.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    /// Signalled when completions arrive for a client that waits.
    ready: Condvar,
}

#[derive(Debug, Default)]
struct InboxState {
    /// Completions not yet taken, in the order they ended.
    items: Vec<Completion>,
    /// `true` while the client is blocked on [`Inbox::ready`].
    waiting: bool,
    /// The generation of the watcher that holds the inbox's slot: bumped
    /// when a watcher lets go of it, so a notice for an earlier holder
    /// is told apart from one for the current. It wraps after 2^32
    /// holders of one slot; a notice would have to outlive all of them
    /// to reach the wrong one.
    generation: u32,
}

impl Inbox {
    /// Locks the inbox, recovering from poison: each update is one push,
    /// one flag or one bump, so the state is valid whatever step a
    /// panicking holder had reached.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Swaps the completions waiting here into `taken`, which must be
    /// empty — both lists keep their capacity. If none waits, sleeps up
    /// to `timeout` for some (`None`: returns at once). `false` if none
    /// came.
    fn take(&self, taken: &mut Vec<Completion>, timeout: Option<Duration>) -> bool {
        debug_assert!(taken.is_empty(), "a watcher takes only when it has handed out all");
        let mut state = self.lock();
        if state.items.is_empty() {
            let Some(timeout) = timeout else { return false };
            let deadline = Instant::now().checked_add(timeout);
            while state.items.is_empty() {
                let left =
                    deadline.map_or(timeout, |d| d.saturating_duration_since(Instant::now()));
                if left.is_zero() {
                    return false;
                }
                state.waiting = true;
                state =
                    self.ready.wait_timeout(state, left).unwrap_or_else(PoisonError::into_inner).0;
                state.waiting = false;
            }
        }
        std::mem::swap(taken, &mut state.items);
        true
    }
}

/// Which watcher a request reports to: the slot of its inbox in the
/// runtime's [`Watchers`], and the generation of the watcher that held
/// the slot when the request was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WatcherKey {
    slot: u32,
    generation: u32,
}

/// The runtime's watcher inboxes, one slot per watcher alive at once.
/// A [`Watcher`] holds its slot while it lives; a dropped watcher's slot
/// goes to the next one created, behind a new generation. A slot's inbox
/// is never replaced or freed, so an inbox a worker has looked up stays
/// the slot's for the runtime's life: inbox memory is bounded by the
/// peak number of watchers held at once.
#[derive(Debug, Default)]
pub(crate) struct Watchers {
    slots: Mutex<Slots>,
}

#[derive(Debug, Default)]
struct Slots {
    inboxes: Vec<Arc<Inbox>>,
    /// Slots whose watcher has been dropped.
    free: Vec<u32>,
}

impl Watchers {
    /// Locks the slots, recovering from poison: each update is one push
    /// or one pop.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A new watcher, on a free slot if there is one.
    pub(crate) fn register(self: &Arc<Self>) -> Watcher {
        let (slot, inbox) = {
            let mut slots = self.lock();
            match slots.free.pop() {
                Some(slot) => (slot, Arc::clone(&slots.inboxes[slot as usize])),
                None => {
                    let slot = u32::try_from(slots.inboxes.len()).expect("too many watchers");
                    let inbox = Arc::<Inbox>::default();
                    slots.inboxes.push(Arc::clone(&inbox));
                    (slot, inbox)
                }
            }
        };
        let generation = inbox.lock().generation;
        Watcher {
            inbox,
            key: WatcherKey { slot, generation },
            watchers: Arc::clone(self),
            local: RefCell::default(),
        }
    }

    /// `true` if `watcher` holds one of these slots.
    pub(crate) fn owns(self: &Arc<Self>, watcher: &Watcher) -> bool {
        Arc::ptr_eq(self, &watcher.watchers)
    }
}

/// A copy of [`Watchers`]' inboxes, by slot, kept by a worker so that
/// delivering a notice locks its inbox and nothing else: no registry
/// lock, no reference count. Slots only grow and never change inbox, so
/// the copy is refreshed only when a notice names a slot past its end.
#[derive(Default)]
pub(crate) struct InboxCache(Vec<Arc<Inbox>>);

impl InboxCache {
    fn get(&mut self, watchers: &Watchers, slot: u32) -> &Inbox {
        let slot = slot as usize;
        if slot >= self.0.len() {
            let slots = watchers.lock();
            self.0.extend(slots.inboxes[self.0.len()..].iter().cloned());
        }
        &self.0[slot]
    }
}

/// A completion stream: every request issued through
/// [`crate::Runtime::acquire_watched`] with this watcher delivers exactly
/// one `(id, how it ended)` pair here when it completes or is abandoned —
/// the only way to learn how a request ended, and what closed-loop
/// clients block on. Each ticket carries the watcher's key: the slot of
/// its inbox in the runtime's registry and the watcher's generation.
/// A request that a worker ends is announced when that worker settles the
/// batch that ended it, with the batch's other notices for this watcher,
/// in the order they ended, under one lock of the inbox. The watcher
/// takes the inbox's whole list at once and hands it out one completion
/// at a time.
///
/// Dropping a watcher clears what waits in its inbox and hands the slot
/// to the next watcher created; the notices of its requests still to
/// end are dropped on arrival, never delivered to the slot's next
/// holder. The inbox itself stays with the runtime.
pub struct Watcher {
    inbox: Arc<Inbox>,
    key: WatcherKey,
    watchers: Arc<Watchers>,
    /// Completions taken from the inbox, and how many of them have been
    /// handed out.
    local: RefCell<(Vec<Completion>, usize)>,
}

impl Watcher {
    /// Blocks up to `timeout` for the next completion.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(RequestId, RequestStatus)> {
        self.next(Some(timeout))
    }

    /// Takes one completion if one is already queued.
    #[must_use]
    pub fn try_recv(&self) -> Option<(RequestId, RequestStatus)> {
        self.next(None)
    }

    /// What a ticket carries to name this watcher.
    pub(crate) fn key(&self) -> WatcherKey {
        self.key
    }

    /// The next completion taken, or, once all are handed out, the first
    /// of the inbox's list, swapped in whole ([`Inbox::take`]).
    fn next(&self, timeout: Option<Duration>) -> Option<Completion> {
        let mut local = self.local.borrow_mut();
        let (taken, read) = &mut *local;
        if *read == taken.len() {
            taken.clear();
            *read = 0;
            if !self.inbox.take(taken, timeout) {
                return None;
            }
        }
        *read += 1;
        Some(taken[*read - 1])
    }
}

impl Drop for Watcher {
    /// Moves the slot on to a new generation under the inbox lock — so a
    /// worker that delivers after this drops what it brings — clears what
    /// waits there, and frees the slot.
    fn drop(&mut self) {
        {
            let mut state = self.inbox.lock();
            state.generation = state.generation.wrapping_add(1);
            state.items.clear();
        }
        self.watchers.lock().free.push(self.key.slot);
    }
}

/// A request that has ended and whose watcher has not been told yet. Its
/// namespace does not count it delivered until [`Sessions::notify`] has
/// put it in its watcher's inbox (or found the watcher gone).
pub(crate) struct Notice {
    /// Its ticket's watcher; taken when the notice is delivered.
    watcher: Option<WatcherKey>,
    /// The namespace that counts it delivered.
    ns: usize,
    completion: Completion,
}

/// One live request — all the memory it ever costs.
#[derive(Debug)]
pub(crate) struct Ticket {
    pub(crate) id: RequestId,
    /// Issue time in nanoseconds since the runtime's epoch — for
    /// scheduled arrivals, the *scheduled* delivery instant, so open-loop
    /// latency includes queueing behind the lock but not the schedule's
    /// lead time.
    pub(crate) t0: u64,
    /// Exit the CS immediately after entry, no wall-clock lease.
    pub(crate) auto_release: bool,
    /// The watcher its notice goes to, by key: a ticket holds no
    /// reference to the inbox.
    watcher: Option<WatcherKey>,
}

/// A value on cache lines of its own: aligned to 128 bytes (a pair of
/// 64-byte lines, which some CPUs fetch together), so what one thread
/// writes to it never shares a line with what another thread writes.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Padded<T>(pub(crate) T);

/// Everything the workers write about one namespace as they serve it, in
/// one record on lines of its own. `Relaxed` counts are pure statistics,
/// summed after the workers are joined (or polled, for `cs_entries`).
pub(crate) struct Books {
    /// The namespace's linearization point: every CS entry/exit and crash
    /// of the namespace takes this lock, and the lock's acquisition order
    /// *is* the linear order in which the unmodified `oc_sim` safety
    /// oracle observes the namespace's run. Each namespace has its own,
    /// so tenants never contend on it.
    monitor: Mutex<Oracle>,
    /// Completed critical sections.
    pub(crate) cs_entries: AtomicU64,
    /// Requests ended `Completed` and `Abandoned` — with the client-written
    /// `injected`, the liveness horizon's starvation equation.
    completed: AtomicU64,
    abandoned: AtomicU64,
    /// Requests whose notice has been delivered. `SeqCst`: with
    /// `injected`, part of the `Runtime::settled` predicate.
    delivered: AtomicU64,
}

impl Books {
    pub(crate) fn lock_monitor(&self) -> MutexGuard<'_, Oracle> {
        self.monitor.lock().expect("monitor poisoned")
    }
}

/// What a namespace's clients write: one record on lines of its own.
/// Both counts only grow, and are `SeqCst`: each is part of the
/// `Runtime::settled` predicate.
#[derive(Default)]
struct Issued {
    /// Requests issued — and the next request's index.
    injected: AtomicU64,
    /// In-flight claims taken for commands sent straight to a worker
    /// (acquires, releases, crashes, recoveries).
    claims: AtomicU64,
}

/// What the runtime keeps about requests across threads.
pub(crate) struct Sessions {
    /// Per namespace, what its clients write.
    issued: Vec<Padded<Issued>>,
    /// Per namespace, what its workers write.
    books: Vec<Padded<Books>>,
    /// Per worker, the acquire-to-grant latencies of the grants it made:
    /// locked by that worker as it grants and by readers, which merge
    /// them.
    histograms: Vec<Padded<Mutex<LatencyHistogram>>>,
    /// The watchers' inboxes.
    pub(crate) watchers: Arc<Watchers>,
}

impl Sessions {
    pub(crate) fn new(namespaces: usize, workers: usize) -> Self {
        let books = || Books {
            monitor: Mutex::new(Oracle::new()),
            cs_entries: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        };
        Sessions {
            issued: (0..namespaces).map(|_| Padded::default()).collect(),
            books: (0..namespaces).map(|_| Padded(books())).collect(),
            histograms: (0..workers).map(|_| Padded::default()).collect(),
            watchers: Arc::default(),
        }
    }

    /// Namespace `ns`'s books.
    pub(crate) fn books(&self, ns: usize) -> &Books {
        &self.books[ns].0
    }

    /// Issues the ticket of a new request at (global) `node` of
    /// namespace `ns`. `t0` is in nanoseconds since the runtime's epoch.
    pub(crate) fn open(
        &self,
        ns: usize,
        node: NodeId,
        t0: u64,
        auto_release: bool,
        watcher: Option<WatcherKey>,
    ) -> Ticket {
        let index = self.issued[ns].0.injected.fetch_add(1, Ordering::SeqCst);
        Ticket { id: RequestId { index, node }, t0, auto_release, watcher }
    }

    /// Takes one in-flight claim for a command a client of namespace `ns`
    /// sends straight to a worker.
    pub(crate) fn claim(&self, ns: usize) {
        self.issued[ns].0.claims.fetch_add(1, Ordering::SeqCst);
    }

    /// Every claim namespaces' clients have taken so far.
    pub(crate) fn claims_taken(&self) -> u64 {
        self.issued.iter().map(|issued| issued.0.claims.load(Ordering::SeqCst)).sum()
    }

    /// Ends a request of namespace `ns`: books it and returns its notice,
    /// which the namespace counts delivered only once [`Sessions::notify`]
    /// has delivered it. A worker collects the notices of a batch and
    /// delivers them when it settles the batch.
    pub(crate) fn close(&self, ns: usize, ticket: Ticket, status: RequestStatus) -> Notice {
        let books = self.books(ns);
        match status {
            RequestStatus::Completed => books.completed.fetch_add(1, Ordering::Relaxed),
            RequestStatus::Abandoned => books.abandoned.fetch_add(1, Ordering::Relaxed),
        };
        Notice { watcher: ticket.watcher, ns, completion: (ticket.id, status) }
    }

    /// Delivers each notice to its watcher's inbox, found through
    /// `inboxes`, and only then counts it delivered in its namespace —
    /// once [`Sessions::all_ended`] holds, every notice has been
    /// delivered. Each inbox is locked once: at its first notice, which
    /// is appended with every later one for the same inbox, in the order
    /// they ended; its client is woken after the unlock, and only if it
    /// was waiting and got something. A notice for a watcher that has
    /// been dropped (its generation is stale) is dropped here, and still
    /// counted delivered. The notices are left spent, for the caller to
    /// clear.
    pub(crate) fn notify(&self, notices: &mut [Notice], inboxes: &mut InboxCache) {
        for first in 0..notices.len() {
            let Some(key) = notices[first].watcher.take() else { continue };
            let inbox = inboxes.get(&self.watchers, key.slot);
            let wake = {
                let mut state = inbox.lock();
                let current = state.generation;
                let before = state.items.len();
                if key.generation == current {
                    state.items.push(notices[first].completion);
                }
                for later in &mut notices[first + 1..] {
                    if let Some(other) = later.watcher.filter(|other| other.slot == key.slot) {
                        later.watcher = None;
                        if other.generation == current {
                            state.items.push(later.completion);
                        }
                    }
                }
                state.waiting && state.items.len() > before
            };
            if wake {
                inbox.ready.notify_one();
            }
        }
        for run in notices.chunk_by(|a, b| a.ns == b.ns) {
            self.books(run[0].ns).delivered.fetch_add(run.len() as u64, Ordering::SeqCst);
        }
    }

    /// `true` if no request is waiting or inside its critical section:
    /// in every namespace, every request issued has been delivered. Each
    /// namespace's delivered count is read before its issued count; both
    /// only grow, and a request is delivered only after it was issued,
    /// so equal counts mean none of the namespace's requests was live at
    /// the instant between the two reads.
    pub(crate) fn all_ended(&self) -> bool {
        self.books.iter().zip(&self.issued).all(|(books, issued)| {
            let delivered = books.0.delivered.load(Ordering::SeqCst);
            delivered == issued.0.injected.load(Ordering::SeqCst)
        })
    }

    /// `(injected, completed, abandoned)` of namespace `ns`.
    pub(crate) fn counts(&self, ns: usize) -> (u64, u64, u64) {
        let books = self.books(ns);
        (
            self.issued[ns].0.injected.load(Ordering::Relaxed),
            books.completed.load(Ordering::Relaxed),
            books.abandoned.load(Ordering::Relaxed),
        )
    }

    /// Locks worker `worker`'s histogram, recovering from poison: it is a
    /// bag of counters, so whatever a panicking writer left is as good as
    /// what a concurrent reader could have seen, and one dead worker must
    /// not cascade into panics in every client thread.
    pub(crate) fn histogram(&self, worker: usize) -> MutexGuard<'_, LatencyHistogram> {
        self.histograms[worker].0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every worker's histogram merged into one.
    pub(crate) fn latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for worker in 0..self.histograms.len() {
            merged.merge(&self.histogram(worker));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use oc_algo::{Config, OpenCubeNode};
    use oc_sim::SimDuration;

    use super::*;
    use crate::{Runtime, RuntimeConfig};

    /// Four nodes, one worker, a lease nobody outwaits: a granted request
    /// stays granted until something other than the clock ends it. Node 1
    /// holds the token from the start, so a request there is granted on
    /// arrival.
    fn leased() -> Runtime<OpenCubeNode> {
        let protocol = Config::new(4, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
            .with_contention_slack(SimDuration::from_ticks(100_000_000));
        let config = RuntimeConfig {
            workers: 1,
            cs_duration: Duration::from_secs(3_600),
            ..RuntimeConfig::default()
        };
        Runtime::start(config, OpenCubeNode::build_all(protocol))
    }

    const SOON: Duration = Duration::from_secs(30);

    #[test]
    fn lifecycle_pending_granted_completed() {
        let rt = leased();
        let (w, node) = (rt.watcher(), NodeId::new);
        let holder = rt.acquire_watched(0, node(1), &w, false);
        let waiter = rt.acquire_watched(0, node(3), &w, false);
        assert!(rt.await_cs_entries(1, SOON));
        std::thread::sleep(Duration::from_millis(20));
        // One granted, one pending behind it: neither has ended.
        assert_eq!(rt.cs_entries(), 1);
        assert_eq!(w.try_recv(), None);
        assert!(!rt.settled());
        rt.release(holder);
        assert_eq!(w.recv_timeout(SOON), Some((holder, RequestStatus::Completed)));
        // The waiter is granted next, and stays granted until released.
        assert!(rt.await_cs_entries(2, SOON));
        assert_eq!(w.try_recv(), None);
        rt.release(waiter);
        assert_eq!(w.recv_timeout(SOON), Some((waiter, RequestStatus::Completed)));
        // (Not settled: the two dead leases sit out their hour.)
        assert!(rt.shutdown().safety.is_clean());
    }

    #[test]
    fn grant_order_is_fifo_per_node() {
        let rt = leased();
        let w = rt.watcher();
        let ids: Vec<RequestId> =
            (0..3).map(|_| rt.acquire_watched(0, NodeId::new(1), &w, false)).collect();
        for &id in &ids {
            assert!(rt.await_cs_entries(id.index() + 1, SOON));
            assert_eq!(w.try_recv(), None, "request {} is granted, not over", id.index());
            rt.release(id);
            assert_eq!(w.recv_timeout(SOON), Some((id, RequestStatus::Completed)));
        }
        // A release of a request that is not the node's current one (here:
        // long over) is ignored.
        rt.release(ids[0]);
        let report = rt.shutdown();
        assert_eq!((report.cs_entries, report.requests_completed), (3, 3));
        assert!(report.safety.is_clean(), "safety: {report:?}");
    }

    #[test]
    fn crash_abandons_pending_and_completes_current() {
        let rt = leased();
        let w = rt.watcher();
        let served = rt.acquire_watched(0, NodeId::new(1), &w, false);
        let starved = rt.acquire_watched(0, NodeId::new(1), &w, false);
        assert!(rt.await_cs_entries(1, SOON));
        rt.crash(NodeId::new(1));
        // Issued at a node that is down: refused on arrival.
        let refused = rt.acquire_watched(0, NodeId::new(1), &w, false);
        let mut got: Vec<Completion> = (0..3).filter_map(|_| w.recv_timeout(SOON)).collect();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(
            got,
            vec![
                (served, RequestStatus::Completed),
                (starved, RequestStatus::Abandoned),
                (refused, RequestStatus::Abandoned),
            ]
        );
        let report = rt.shutdown();
        assert_eq!(
            (report.requests_injected, report.requests_completed, report.requests_abandoned),
            (3, 1, 2)
        );
        assert_eq!(w.try_recv(), None, "a request that has ended is not ended again");
    }

    #[test]
    fn finalize_terminates_everything() {
        // Shutdown ends what is still live: the granted request was
        // served, the ones queued behind it (at its node and elsewhere)
        // never will be.
        let rt = leased();
        let w = rt.watcher();
        let granted = rt.acquire_watched(0, NodeId::new(1), &w, false);
        let queued = rt.acquire_watched(0, NodeId::new(1), &w, false);
        let elsewhere = rt.acquire_watched(0, NodeId::new(4), &w, false);
        let unwatched = rt.acquire(NodeId::new(2));
        assert!(rt.await_cs_entries(1, SOON));
        let report = rt.shutdown();
        let mut got: Vec<Completion> = std::iter::from_fn(|| w.try_recv()).collect();
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(
            got,
            vec![
                (granted, RequestStatus::Completed),
                (queued, RequestStatus::Abandoned),
                (elsewhere, RequestStatus::Abandoned),
            ]
        );
        assert_eq!(
            (report.requests_injected, report.requests_completed, report.requests_abandoned),
            (4, 1, 3)
        );
        let _ = unwatched;
    }

    #[test]
    fn auto_release_flag_travels_through_grant() {
        // Under an hour's lease only the auto-release flag can end these.
        let rt = leased();
        let w = rt.watcher();
        for node in [1, 3, 1] {
            let id = rt.acquire_watched(0, NodeId::new(node), &w, true);
            assert_eq!(w.recv_timeout(SOON), Some((id, RequestStatus::Completed)));
        }
        assert!(rt.await_settled(SOON));
        assert!(rt.shutdown().is_clean());
    }

    #[test]
    fn one_batch_reaches_each_watcher_whole_and_in_end_order() {
        // Node 1 holds the token: `a`'s first request is granted, and
        // four more of two watchers queue behind it. The crash ends all
        // five in one batch — the queued ones abandoned in FIFO order,
        // then the granted one — and each watcher's inbox takes its
        // own share under one lock.
        let rt = leased();
        let (a, b, node) = (rt.watcher(), rt.watcher(), NodeId::new(1));
        let a1 = rt.acquire_watched(0, node, &a, false);
        let b1 = rt.acquire_watched(0, node, &b, false);
        let a2 = rt.acquire_watched(0, node, &a, false);
        let b2 = rt.acquire_watched(0, node, &b, false);
        let a3 = rt.acquire_watched(0, node, &a, false);
        assert!(rt.await_cs_entries(1, SOON));
        rt.crash(node);
        // `b`'s inbox is filled first (its notice ended first), so once
        // `a` has its first, both lists are whole; `try_recv` hands out
        // the rest of each from what the first take swapped in.
        assert_eq!(a.recv_timeout(SOON), Some((a2, RequestStatus::Abandoned)));
        assert_eq!(b.try_recv(), Some((b1, RequestStatus::Abandoned)));
        assert_eq!(a.try_recv(), Some((a3, RequestStatus::Abandoned)));
        assert_eq!(b.try_recv(), Some((b2, RequestStatus::Abandoned)));
        assert_eq!(b.try_recv(), None);
        assert_eq!(a.try_recv(), Some((a1, RequestStatus::Completed)));
        assert_eq!(a.try_recv(), None);
        let report = rt.shutdown();
        assert_eq!(
            (report.requests_injected, report.requests_completed, report.requests_abandoned),
            (5, 1, 4)
        );
        assert_eq!((a.try_recv(), b.try_recv()), (None, None), "each request ends once");
    }

    #[test]
    fn an_empty_watcher_times_out() {
        let rt = leased();
        let w = rt.watcher();
        let wait = Duration::from_millis(30);
        let asked = Instant::now();
        assert_eq!(w.recv_timeout(wait), None);
        assert!(asked.elapsed() >= wait, "returned after {:?}", asked.elapsed());
        assert_eq!(w.recv_timeout(Duration::ZERO), None);
        assert_eq!(w.try_recv(), None);
        assert!(rt.shutdown().is_clean());
    }

    /// Ends a request and delivers its notice at once, as a worker's
    /// batch of one does.
    fn end(sessions: &Sessions, ns: usize, ticket: Ticket, status: RequestStatus) {
        sessions.notify(&mut [sessions.close(ns, ticket, status)], &mut InboxCache::default());
    }

    #[test]
    fn watcher_sees_every_terminal_transition_once() {
        let sessions = Sessions::new(1, 1);
        let watcher = sessions.watchers.register();
        let node = NodeId::new(1);
        let completed = sessions.open(0, node, 0, false, Some(watcher.key()));
        let abandoned = sessions.open(0, node, 0, true, Some(watcher.key()));
        let unwatched = sessions.open(0, node, 0, false, None);
        let (first, second) = (completed.id, abandoned.id);
        assert!(first < second, "ids are dense, in issue order");
        end(&sessions, 0, completed, RequestStatus::Completed);
        end(&sessions, 0, abandoned, RequestStatus::Abandoned);
        end(&sessions, 0, unwatched, RequestStatus::Completed);
        let mut taken = Vec::new();
        assert!(watcher.inbox.take(&mut taken, None));
        assert_eq!(taken, [(first, RequestStatus::Completed), (second, RequestStatus::Abandoned)]);
        taken.clear();
        assert!(!watcher.inbox.take(&mut taken, None), "a request is announced once");
        // A watcher dropped with requests still queued: what waited in
        // its inbox is cleared, its slot goes to the next watcher under a
        // new generation, and the notices of its requests never reach
        // that watcher. They are dropped, and still accounted.
        let key = watcher.key();
        let waited = sessions.open(0, node, 0, false, Some(key));
        let queued = sessions.open(0, node, 0, false, Some(key));
        end(&sessions, 0, waited, RequestStatus::Completed);
        drop(watcher);
        let next = sessions.watchers.register();
        assert_eq!(next.key().slot, key.slot, "the freed slot is taken again");
        assert_ne!(next.key().generation, key.generation);
        let mine = sessions.open(0, node, 0, false, Some(next.key()));
        let mine_id = mine.id;
        // One batch that holds both: only the current holder's notice is
        // delivered.
        let mut batch = [
            sessions.close(0, queued, RequestStatus::Abandoned),
            sessions.close(0, mine, RequestStatus::Completed),
        ];
        sessions.notify(&mut batch, &mut InboxCache::default());
        assert_eq!(next.try_recv(), Some((mine_id, RequestStatus::Completed)));
        assert_eq!(next.try_recv(), None, "a dropped watcher's notices never reach its slot");
        assert_eq!(sessions.counts(0), (6, 4, 2));
        assert!(sessions.all_ended());
        // Watchers created and dropped in a loop reuse the slots: the
        // registry is no larger than the peak held at once.
        let held: Vec<Watcher> = (0..3).map(|_| sessions.watchers.register()).collect();
        drop(held);
        for _ in 0..100 {
            let pair = (sessions.watchers.register(), sessions.watchers.register());
            drop(pair);
        }
        assert_eq!(sessions.watchers.lock().inboxes.len(), 4, "peak: `next` and three held");
    }

    #[test]
    fn counts_by_bucket_partitions_the_node_space() {
        let sessions = Sessions::new(2, 1);
        let a = sessions.open(0, NodeId::new(1), 0, false, None);
        let b = sessions.open(1, NodeId::new(3), 0, false, None);
        let c = sessions.open(1, NodeId::new(4), 0, false, None);
        end(&sessions, 0, a, RequestStatus::Completed);
        end(&sessions, 1, b, RequestStatus::Abandoned);
        assert_eq!((sessions.counts(0), sessions.counts(1)), ((1, 1, 0), (2, 0, 1)));
        assert!(!sessions.all_ended(), "the request at node 4 is still live");
        end(&sessions, 1, c, RequestStatus::Abandoned);
        assert_eq!(sessions.counts(1), (2, 0, 2));
        assert!(sessions.all_ended());
    }
}
