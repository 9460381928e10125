//! Client requests: identities, tickets, and the running accounts.
//!
//! Every `acquire` (immediate or scheduled) issues a [`Ticket`] that
//! travels *with* its command: it rides inside the `Acquire` to its
//! node's worker, waits in that node's own FIFO grant queue, becomes the
//! node's current ticket when the node enters the critical section, and
//! is consumed by [`Sessions::end`] — exactly once, by whoever ends the
//! request. A request ends `Completed` when its critical section is over
//! (lease expiry, early release, auto-release, a crash of the node
//! inside it, shutdown) and `Abandoned` when it can never be served (its
//! node crashed while it waited, it was issued to a crashed node, or the
//! runtime shut down first) — the same accounting the simulator's
//! `World` keeps, so the liveness oracle's
//! `served + abandoned == injected` equation judges both substrates
//! identically.
//!
//! Nothing is kept per request once it has ended: what outlives a ticket
//! is a handful of counters and the latency histogram.
//!
//! Two extras ride on each ticket:
//!
//! * **auto-release** — the request exits the CS immediately after entry
//!   instead of waiting out a wall-clock lease, so a closed-loop client
//!   measures acquisition throughput rather than lease pacing;
//! * **a watcher** — the sending half of a [`crate::Watcher`]'s channel,
//!   which receives the request's one completion notice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    watcher: Option<Sender<Completion>>,
}

/// `(injected, completed, abandoned)` of one namespace — the liveness
/// horizon's starvation equation. `Relaxed`: pure statistics, summed
/// after the workers are joined.
#[derive(Default)]
struct Account {
    injected: AtomicU64,
    completed: AtomicU64,
    abandoned: AtomicU64,
}

/// What the runtime keeps about requests across threads.
pub(crate) struct Sessions {
    next_index: AtomicU64,
    /// Requests issued and not yet ended. `SeqCst`: part of the
    /// `Runtime::settled` predicate.
    live: AtomicU64,
    accounts: Vec<Account>,
    /// Acquire-to-grant latencies, recorded by the granting worker and
    /// read by clients while the service runs.
    histogram: Mutex<LatencyHistogram>,
}

impl Sessions {
    pub(crate) fn new(namespaces: usize) -> Self {
        Sessions {
            next_index: AtomicU64::new(0),
            live: AtomicU64::new(0),
            accounts: (0..namespaces).map(|_| Account::default()).collect(),
            histogram: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// Issues the ticket of a new request at (global) `node` of
    /// namespace `ns`. `t0` is in nanoseconds since the runtime's epoch.
    pub(crate) fn open(
        &self,
        ns: usize,
        node: NodeId,
        t0: u64,
        auto_release: bool,
        watcher: Option<Sender<Completion>>,
    ) -> Ticket {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::SeqCst);
        self.accounts[ns].injected.fetch_add(1, Ordering::Relaxed);
        Ticket { id: RequestId { index, node }, t0, auto_release, watcher }
    }

    /// Ends a request of namespace `ns`: books it, then notifies its
    /// watcher (a client that hung up is simply not told), and only then
    /// lets go of the live count — once [`Sessions::all_ended`] holds,
    /// every notice has been sent.
    pub(crate) fn end(&self, ns: usize, ticket: Ticket, status: RequestStatus) {
        let account = &self.accounts[ns];
        match status {
            RequestStatus::Completed => account.completed.fetch_add(1, Ordering::Relaxed),
            RequestStatus::Abandoned => account.abandoned.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(watcher) = ticket.watcher {
            let _ = watcher.send((ticket.id, status));
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// `true` if no request is waiting or inside its critical section.
    pub(crate) fn all_ended(&self) -> bool {
        self.live.load(Ordering::SeqCst) == 0
    }

    /// `(injected, completed, abandoned)` of namespace `ns`.
    pub(crate) fn counts(&self, ns: usize) -> (u64, u64, u64) {
        let account = &self.accounts[ns];
        (
            account.injected.load(Ordering::Relaxed),
            account.completed.load(Ordering::Relaxed),
            account.abandoned.load(Ordering::Relaxed),
        )
    }

    /// Locks the histogram, recovering from poison: it is a bag of
    /// counters, so whatever a panicking writer left is as good as what a
    /// concurrent reader could have seen, and one dead worker must not
    /// cascade into panics in every client thread.
    pub(crate) fn histogram(&self) -> MutexGuard<'_, LatencyHistogram> {
        self.histogram.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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
    fn watcher_sees_every_terminal_transition_once() {
        let sessions = Sessions::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        let node = NodeId::new(1);
        let completed = sessions.open(0, node, 0, false, Some(tx.clone()));
        let abandoned = sessions.open(0, node, 0, true, Some(tx.clone()));
        let unwatched = sessions.open(0, node, 0, false, None);
        let (first, second) = (completed.id, abandoned.id);
        assert!(first < second, "ids are dense, in issue order");
        sessions.end(0, completed, RequestStatus::Completed);
        sessions.end(0, abandoned, RequestStatus::Abandoned);
        sessions.end(0, unwatched, RequestStatus::Completed);
        assert_eq!(rx.try_recv().ok(), Some((first, RequestStatus::Completed)));
        assert_eq!(rx.try_recv().ok(), Some((second, RequestStatus::Abandoned)));
        // A ticket holds the only other sender: with the tickets gone
        // and ours dropped, the channel is closed, not merely empty.
        drop(tx);
        assert_eq!(rx.try_recv(), Err(std::sync::mpsc::TryRecvError::Disconnected));
        // A client that hung up is not told, and is still accounted.
        let (tx, rx) = std::sync::mpsc::channel();
        let orphan = sessions.open(0, node, 0, false, Some(tx));
        drop(rx);
        sessions.end(0, orphan, RequestStatus::Abandoned);
        assert_eq!(sessions.counts(0), (4, 2, 2));
        assert!(sessions.all_ended());
    }

    #[test]
    fn counts_by_bucket_partitions_the_node_space() {
        let sessions = Sessions::new(2);
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
