//! Property: `Runtime::settled` never holds while a completion notice is
//! unsent. A worker sends the notices of the requests it ends when it
//! settles the batch, not when each one ends; whenever `settled()` reads
//! `true`, every request issued so far must already have its notice on
//! its watcher — each exactly once.
//!
//! Two closed-loop clients keep one auto-release acquisition outstanding
//! each, at random nodes of a 16-node cube behind two workers, while a
//! poller thread calls `settled()` in a loop. The poller holds both
//! clients' locks across the call and its check, so no client can take a
//! notice off its watcher or issue its next request in between: what the
//! check finds on the watchers is what had been sent when `settled()`
//! answered.
//!
//! A second case runs the same check over three namespaces, with one
//! client dropping its watcher mid-run while requests it issued are
//! still out: `settled()` then sums claims its clients took on their
//! namespaces' lines and claims each worker took and released on its
//! own, and reads each namespace's delivered count against its issued
//! count — and a dropped watcher's requests must still be delivered
//! (dropped on arrival) for the service to settle.
//!
//! The tests after it hold the same predicate in virtual time, where a
//! run's whole state can be read between batches: `settled()` reads it
//! exactly, the planted bugs still show, and the width of the worker
//! pool changes no verdict.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use oc_algo::{Config, Mutation, OpenCubeNode};
use oc_check::{explore_serial, run, shrink, Run, Scenario, Space, Substrate};
use oc_runtime::{RequestId, RequestStatus, Runtime, RuntimeConfig, Watcher};
use oc_sim::{DelayModel, SimDuration};
use oc_topology::NodeId;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

const N: u32 = 16;

/// One closed-loop client: its watcher, and what it has issued and been
/// told.
struct Client {
    watcher: Watcher,
    issued: Vec<RequestId>,
    received: HashSet<RequestId>,
    /// The request whose notice has not been taken off the watcher yet.
    outstanding: Option<RequestId>,
    /// Requests issued on a watcher since dropped: never to be told.
    orphaned: HashSet<RequestId>,
}

impl Client {
    /// Takes every notice already on the watcher: each must be the
    /// outstanding request's, completed, and new.
    fn take_notices(&mut self) {
        while let Some((id, status)) = self.watcher.try_recv() {
            assert_eq!(status, RequestStatus::Completed, "nothing crashes here");
            assert_eq!(self.outstanding.take(), Some(id), "a notice for a request not outstanding");
            assert!(self.received.insert(id), "request {} notified twice", id.index());
        }
    }

    /// Every issued request has been received, but those orphaned.
    fn all_received(&self) -> bool {
        self.outstanding.is_none() && self.received.len() + self.orphaned.len() == self.issued.len()
    }

    fn new(rt: &Runtime<OpenCubeNode>) -> Mutex<Self> {
        Mutex::new(Client {
            watcher: rt.watcher(),
            issued: Vec::new(),
            received: HashSet::new(),
            outstanding: None,
            orphaned: HashSet::new(),
        })
    }

    /// Issues `count` watched requests at random places and drops the
    /// watcher with them out; the next watcher takes its slot.
    fn orphan_a_burst(
        &mut self,
        rt: &Runtime<OpenCubeNode>,
        count: usize,
        mut place: impl FnMut() -> (usize, NodeId),
    ) {
        for _ in 0..count {
            let (ns, node) = place();
            let id = rt.acquire_watched(ns, node, &self.watcher, true);
            self.issued.push(id);
            self.orphaned.insert(id);
        }
        self.orphaned.extend(self.outstanding.take());
        // A stand-in holds a fresh slot while the old watcher is dropped,
        // so the next watcher opened takes the old one's.
        let stand_in = rt.watcher();
        drop(std::mem::replace(&mut self.watcher, stand_in));
        self.watcher = rt.watcher();
    }
}

fn lock(client: &Mutex<Client>) -> MutexGuard<'_, Client> {
    client.lock().expect("a thread panicked holding a client")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn settled_never_holds_while_a_notice_is_unsent(
        (per_client, seed) in (200usize..=400, 0u64..u64::MAX)
    ) {
        let (delta, cs) = (SimDuration::from_ticks(16), SimDuration::from_ticks(25));
        let protocol = Config::new(N as usize, delta, cs)
            .with_contention_slack(SimDuration::from_ticks(50_000));
        let rt = Runtime::start(
            RuntimeConfig {
                workers: 2,
                tick: Duration::from_micros(20),
                max_network_delay: DelayModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_ticks(10),
                },
                seed,
                ..RuntimeConfig::default()
            },
            OpenCubeNode::build_all(protocol),
        );
        let clients: [Mutex<Client>; 2] = std::array::from_fn(|_| Client::new(&rt));
        let (done, holds) = (AtomicBool::new(false), AtomicU64::new(0));

        std::thread::scope(|scope| {
            let (rt, clients, done, holds) = (&rt, &clients, &done, &holds);
            let poller = scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let mut locked = clients.each_ref().map(lock);
                    if rt.settled() {
                        holds.fetch_add(1, Ordering::Relaxed);
                        for client in &mut locked {
                            client.take_notices();
                            assert!(
                                client.all_received(),
                                "settled() held while request {:?} had no notice",
                                client.outstanding
                            );
                        }
                    }
                    drop(locked);
                    std::thread::yield_now();
                }
            });
            let loops: Vec<_> = (0..2)
                .map(|k| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (k as u64 + 1));
                        loop {
                            let mut client = lock(&clients[k]);
                            client.take_notices();
                            if client.outstanding.is_none() {
                                if client.issued.len() == per_client {
                                    return;
                                }
                                let node = NodeId::new(rng.random_range(1..=N));
                                let id = rt.acquire_watched(0, node, &client.watcher, true);
                                client.issued.push(id);
                                client.outstanding = Some(id);
                            }
                            drop(client);
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            let drove = loops.into_iter().all(|client_loop| client_loop.join().is_ok());
            // Every notice is in: the service settles, and the poller
            // gets to look at it settled before it stops. (It is told to
            // stop whatever happened, or the scope would wait for it.)
            let settled = drove && rt.await_settled(Duration::from_secs(30));
            let seen = holds.load(Ordering::Relaxed);
            while settled && holds.load(Ordering::Relaxed) == seen && !poller.is_finished() {
                std::thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
            assert!(drove, "a client thread panicked");
            assert!(settled, "the service must settle");
        });

        for client in &clients {
            let client = lock(client);
            prop_assert!(client.all_received());
            prop_assert_eq!(client.issued.len(), per_client);
            prop_assert_eq!(client.watcher.try_recv(), None);
        }
        let report = rt.shutdown();
        prop_assert!(report.is_clean(), "oracles: {:?}", report);
        prop_assert_eq!(report.requests_completed, 2 * per_client as u64);
    }
}

/// Three 16-node namespaces over two workers, two closed-loop clients at
/// random namespaces and nodes, and a poller as above. Halfway through,
/// client 0 issues a burst and drops its watcher with the burst out: the
/// next watcher takes the slot and must never see one of those notices,
/// and the service must still settle with every request ended.
#[test]
fn settled_never_holds_early_across_namespaces_or_a_dropped_watcher() {
    const NAMESPACES: usize = 3;
    const PER_CLIENT: usize = 300;
    const BURST: usize = 8;
    for seed in [3, 17, 40] {
        let protocol =
            Config::new(N as usize, SimDuration::from_ticks(16), SimDuration::from_ticks(25))
                .with_contention_slack(SimDuration::from_ticks(50_000));
        let rt = Runtime::start_multi(
            RuntimeConfig {
                workers: 2,
                tick: Duration::from_micros(20),
                max_network_delay: DelayModel::Uniform {
                    min: SimDuration::ZERO,
                    max: SimDuration::from_ticks(10),
                },
                seed,
                ..RuntimeConfig::default()
            },
            (0..NAMESPACES).map(|_| OpenCubeNode::build_all(protocol)).collect(),
        );
        let clients: [Mutex<Client>; 2] = std::array::from_fn(|_| Client::new(&rt));
        let (done, holds) = (AtomicBool::new(false), AtomicU64::new(0));

        std::thread::scope(|scope| {
            let (rt, clients, done, holds) = (&rt, &clients, &done, &holds);
            let poller = scope.spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    let mut locked = clients.each_ref().map(lock);
                    if rt.settled() {
                        holds.fetch_add(1, Ordering::Relaxed);
                        for client in &mut locked {
                            client.take_notices();
                            assert!(
                                client.all_received(),
                                "settled() held while request {:?} had no notice",
                                client.outstanding
                            );
                        }
                    }
                    drop(locked);
                    std::thread::yield_now();
                }
            });
            let loops: Vec<_> = (0..2)
                .map(|k| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (k as u64 + 1));
                        let mut place = move || {
                            let ns = rng.random_range(0..NAMESPACES);
                            (ns, NodeId::new(rng.random_range(1..=N)))
                        };
                        loop {
                            let mut client = lock(&clients[k]);
                            client.take_notices();
                            if client.outstanding.is_none() {
                                if client.issued.len() >= PER_CLIENT {
                                    return;
                                }
                                if k == 0 && client.issued.len() == PER_CLIENT / 2 {
                                    client.orphan_a_burst(rt, BURST, &mut place);
                                }
                                let (ns, node) = place();
                                let id = rt.acquire_watched(ns, node, &client.watcher, true);
                                client.issued.push(id);
                                client.outstanding = Some(id);
                            }
                            drop(client);
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            let drove = loops.into_iter().all(|client_loop| client_loop.join().is_ok());
            let settled = drove && rt.await_settled(Duration::from_secs(30));
            let seen = holds.load(Ordering::Relaxed);
            while settled && holds.load(Ordering::Relaxed) == seen && !poller.is_finished() {
                std::thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
            assert!(drove, "a client thread panicked");
            assert!(settled, "the service must settle, the dropped watcher's requests ended too");
        });

        let issued: usize = clients.iter().map(|client| lock(client).issued.len()).sum();
        assert_eq!(lock(&clients[0]).orphaned.len(), BURST);
        for client in &clients {
            let client = lock(client);
            assert!(client.all_received(), "seed {seed}");
            assert_eq!(client.watcher.try_recv(), None, "seed {seed}");
        }
        let report = rt.shutdown();
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        assert_eq!(report.requests_injected, issued as u64, "seed {seed}");
        assert_eq!(report.requests_completed, issued as u64, "seed {seed}");
        assert!(report.messages_sent > 0, "the tokens have to move: {report:?}");
    }
}

// --------------------------------------------------------------------
// Virtual time
// --------------------------------------------------------------------

/// Runs `scenario` in virtual time at one, two and `n` workers.
fn at_every_width(scenario: &Scenario, mutation: Mutation) -> [oc_check::Outcome; 3] {
    [1, 2, scenario.n].map(|workers| {
        run(
            scenario,
            Run { substrate: Substrate::Runtime { workers }, mutation, ..Run::SIM },
            None,
            None,
        )
    })
}

/// `settled()` is exact in virtual time: after every batch of a virtual
/// run, the driver asserts that it reads what the run's state says —
/// every mailbox, batch queue and delay queue empty, no timer live, no
/// request live, every live node idle — and panics otherwise. These runs
/// cover the default space, and the probe spaces whose runs end dirty,
/// are cut at their event horizon or run out of work unsettled: the
/// books must balance on every path.
#[test]
fn settled_is_exact_after_every_virtual_batch() {
    let probe = Space {
        allow_loss: true,
        overlapping_crashes: true,
        partitions: true,
        max_events: 5_000,
        ..Space::default()
    };
    let mut cut = 0;
    for (space, seed) in [(Space::default(), 42), (probe, 7)] {
        for index in 0..150 {
            let scenario = Scenario::generate(&space, seed, index);
            for run in at_every_width(&scenario, Mutation::None) {
                cut += usize::from(!run.drained);
            }
        }
    }
    assert!(cut > 0, "no run ended unsettled, so the cut paths went unchecked");
}

/// Both planted bugs come back dirty in virtual time, at every width:
/// the simulator finds each within the self-check's budget, and its
/// shrunk witness fails on the runtime's workers too.
#[test]
fn planted_mutations_come_back_dirty_in_virtual_time() {
    for mutation in [Mutation::KeepTokenOnTransit, Mutation::SkipTokenRegeneration] {
        let on_sim = Run { mutation, ..Run::SIM };
        let found = explore_serial(&Space::default(), 42, 700, on_sim).expect("detected");
        let witness = shrink(&found.scenario, on_sim).scenario;
        for run in at_every_width(&witness, mutation) {
            assert!(!run.is_clean(), "{mutation:?} is clean on {}: {run:?}", witness.id());
        }
        for run in at_every_width(&witness, Mutation::None) {
            assert!(run.is_clean(), "{} is dirty without {mutation:?}: {run:?}", witness.id());
        }
    }
}

/// One worker (every message stays in its sender's delay queue), two,
/// and one per node (every message crosses a mailbox) agree on what the
/// default battery's first 200 scenarios serve, abandon and judge.
#[test]
fn worker_counts_agree_in_virtual_time() {
    for index in 0..200 {
        let scenario = Scenario::generate(&Space::default(), 42, index);
        let [one, two, every] = at_every_width(&scenario, Mutation::None)
            .map(|run| (run.drained, run.cs_entries, run.abandoned, run.is_clean()));
        assert_eq!(one, two, "W = 1 and W = 2 differ on {}", scenario.id());
        assert_eq!(one, every, "W = 1 and W = n differ on {}", scenario.id());
    }
}
