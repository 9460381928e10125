//! Client requests: identities, tickets, and the running accounts.
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
//! What a worker writes as it grants is laid out so that no other thread
//! writes the same cache line: each namespace's [`Books`] — its monitor,
//! its served count and its ended counts, all written by the one worker
//! that runs the namespace's nodes (or the few that run its blocks) — sit
//! on lines of their own, as does each namespace's client-written
//! `injected` count and each worker's latency histogram.
//!
//! Two extras ride on each ticket:
//!
//! * **auto-release** — the request exits the CS immediately after entry
//!   instead of waiting out a wall-clock lease, so a closed-loop client
//!   measures acquisition throughput rather than lease pacing;
//! * **a watcher** — a handle on a [`crate::Watcher`]'s [`Inbox`], which
//!   receives the request's one completion notice.
//!
//! A worker hands a client the notices of one batch in one step: it locks
//! each inbox the batch's notices go to once, appends all of them, and
//! wakes the client only if it was asleep on the inbox — no allocation,
//! and no syscall while the client is busy.

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
    /// The raw index (dense, in issue order).
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
}

impl Inbox {
    /// Locks the inbox, recovering from poison: each update is one push
    /// or one flag, so the state is valid whatever step a panicking
    /// holder had reached.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Swaps the completions waiting here into `taken`, which must be
    /// empty — both lists keep their capacity. If none waits, sleeps up
    /// to `timeout` for some (`None`: returns at once). `false` if none
    /// came.
    pub(crate) fn take(&self, taken: &mut Vec<Completion>, timeout: Option<Duration>) -> bool {
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

/// A request that has ended and whose watcher has not been told yet. It
/// holds its request's live count until [`Sessions::notify`] delivers it.
pub(crate) struct Notice {
    inbox: Option<Arc<Inbox>>,
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
    inbox: Option<Arc<Inbox>>,
}

/// A value on cache lines of its own: aligned to 128 bytes (a pair of
/// 64-byte lines, which some CPUs fetch together), so what one thread
/// writes to it never shares a line with what another thread writes.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Padded<T>(pub(crate) T);

/// Everything the workers write about one namespace as they serve it, in
/// one record on lines of its own. `Relaxed` counts: pure statistics,
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
}

impl Books {
    pub(crate) fn lock_monitor(&self) -> MutexGuard<'_, Oracle> {
        self.monitor.lock().expect("monitor poisoned")
    }
}

/// What the runtime keeps about requests across threads.
pub(crate) struct Sessions {
    next_index: AtomicU64,
    /// Requests issued and not yet ended. `SeqCst`: part of the
    /// `Runtime::settled` predicate.
    live: AtomicU64,
    /// Per namespace, requests issued: written by the clients.
    injected: Vec<Padded<AtomicU64>>,
    /// Per namespace, what its workers write.
    books: Vec<Padded<Books>>,
    /// Per worker, the acquire-to-grant latencies of the grants it made:
    /// locked by that worker as it grants and by readers, which merge
    /// them.
    histograms: Vec<Padded<Mutex<LatencyHistogram>>>,
}

impl Sessions {
    pub(crate) fn new(namespaces: usize, workers: usize) -> Self {
        let books = || Books {
            monitor: Mutex::new(Oracle::new()),
            cs_entries: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
        };
        Sessions {
            next_index: AtomicU64::new(0),
            live: AtomicU64::new(0),
            injected: (0..namespaces).map(|_| Padded::default()).collect(),
            books: (0..namespaces).map(|_| Padded(books())).collect(),
            histograms: (0..workers).map(|_| Padded::default()).collect(),
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
        inbox: Option<Arc<Inbox>>,
    ) -> Ticket {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::SeqCst);
        self.injected[ns].0.fetch_add(1, Ordering::Relaxed);
        Ticket { id: RequestId { index, node }, t0, auto_release, inbox }
    }

    /// Ends a request of namespace `ns`: books it and returns its notice,
    /// which still holds the request's live count until
    /// [`Sessions::notify`] delivers it. A worker collects the notices of
    /// a batch and delivers them when it settles the batch.
    pub(crate) fn close(&self, ns: usize, ticket: Ticket, status: RequestStatus) -> Notice {
        let books = self.books(ns);
        match status {
            RequestStatus::Completed => books.completed.fetch_add(1, Ordering::Relaxed),
            RequestStatus::Abandoned => books.abandoned.fetch_add(1, Ordering::Relaxed),
        };
        Notice { inbox: ticket.inbox, completion: (ticket.id, status) }
    }

    /// Delivers each notice to its watcher's inbox, and only then lets go
    /// of their live counts — once [`Sessions::all_ended`] holds, every
    /// notice has been delivered. Each inbox is locked once: at its first
    /// notice, which is appended with every later one for the same inbox,
    /// in the order they ended; its client is woken after the unlock, and
    /// only if it was waiting. A client that hung up is not read; its
    /// inbox goes with its last ticket. The notices are left spent, for
    /// the caller to clear.
    pub(crate) fn notify(&self, notices: &mut [Notice]) {
        for first in 0..notices.len() {
            let Some(inbox) = notices[first].inbox.take() else { continue };
            let waiting = {
                let mut state = inbox.lock();
                state.items.push(notices[first].completion);
                for later in &mut notices[first + 1..] {
                    if later.inbox.as_ref().is_some_and(|other| Arc::ptr_eq(other, &inbox)) {
                        later.inbox = None;
                        state.items.push(later.completion);
                    }
                }
                state.waiting
            };
            if waiting {
                inbox.ready.notify_one();
            }
        }
        if !notices.is_empty() {
            self.live.fetch_sub(notices.len() as u64, Ordering::SeqCst);
        }
    }

    /// Ends a request and delivers its notice at once: [`Sessions::close`]
    /// then [`Sessions::notify`], for requests ended outside a worker's
    /// batch.
    pub(crate) fn end(&self, ns: usize, ticket: Ticket, status: RequestStatus) {
        self.notify(&mut [self.close(ns, ticket, status)]);
    }

    /// `true` if no request is waiting or inside its critical section.
    pub(crate) fn all_ended(&self) -> bool {
        self.live.load(Ordering::SeqCst) == 0
    }

    /// `(injected, completed, abandoned)` of namespace `ns`.
    pub(crate) fn counts(&self, ns: usize) -> (u64, u64, u64) {
        let books = self.books(ns);
        (
            self.injected[ns].0.load(Ordering::Relaxed),
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

    #[test]
    fn watcher_sees_every_terminal_transition_once() {
        let sessions = Sessions::new(1, 1);
        let inbox = Arc::new(Inbox::default());
        let node = NodeId::new(1);
        let completed = sessions.open(0, node, 0, false, Some(Arc::clone(&inbox)));
        let abandoned = sessions.open(0, node, 0, true, Some(Arc::clone(&inbox)));
        let unwatched = sessions.open(0, node, 0, false, None);
        let (first, second) = (completed.id, abandoned.id);
        assert!(first < second, "ids are dense, in issue order");
        sessions.end(0, completed, RequestStatus::Completed);
        sessions.end(0, abandoned, RequestStatus::Abandoned);
        sessions.end(0, unwatched, RequestStatus::Completed);
        let mut taken = Vec::new();
        assert!(inbox.take(&mut taken, None));
        assert_eq!(taken, [(first, RequestStatus::Completed), (second, RequestStatus::Abandoned)]);
        taken.clear();
        assert!(!inbox.take(&mut taken, None), "a request is announced once");
        // A ticket holds the only other handle: with the tickets gone and
        // ours dropped, the inbox is freed, not merely empty.
        let freed = Arc::downgrade(&inbox);
        drop(inbox);
        assert!(freed.upgrade().is_none());
        // A client that hung up is not read, and is still accounted; its
        // inbox goes with its last ticket.
        let inbox = Arc::new(Inbox::default());
        let freed = Arc::downgrade(&inbox);
        let orphan = sessions.open(0, node, 0, false, Some(inbox));
        sessions.end(0, orphan, RequestStatus::Abandoned);
        assert!(freed.upgrade().is_none());
        assert_eq!(sessions.counts(0), (4, 2, 2));
        assert!(sessions.all_ended());
    }

    #[test]
    fn counts_by_bucket_partitions_the_node_space() {
        let sessions = Sessions::new(2, 1);
        let a = sessions.open(0, NodeId::new(1), 0, false, None);
        let b = sessions.open(1, NodeId::new(3), 0, false, None);
        let c = sessions.open(1, NodeId::new(4), 0, false, None);
        sessions.end(0, a, RequestStatus::Completed);
        sessions.end(1, b, RequestStatus::Abandoned);
        assert_eq!((sessions.counts(0), sessions.counts(1)), ((1, 1, 0), (2, 0, 1)));
        assert!(!sessions.all_ended(), "the request at node 4 is still live");
        sessions.end(1, c, RequestStatus::Abandoned);
        assert_eq!(sessions.counts(1), (2, 0, 2));
        assert!(sessions.all_ended());
    }
}
