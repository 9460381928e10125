//! Property: `Runtime::shutdown` always joins all workers and ends every
//! request exactly once — one notice on its watcher, one entry in the
//! report — whatever instant it is called at: before anything was
//! served, mid-grant, with messages and timers in flight, with a node
//! crashed, or with leases, live timers and scheduled arrivals an hour
//! away sitting in the workers' delay queues.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_runtime::{RequestId, RequestStatus, Runtime, RuntimeConfig};
use oc_sim::{ArrivalSchedule, SimDuration, SimTime};
use oc_topology::NodeId;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shutdown_joins_and_drains_at_any_point(
        (p, workers, requests, delay_us, seed) in
            (1u32..=4, 1usize..=4, 0usize..=12, 0u64..3_000, 0u64..u64::MAX)
    ) {
        let n = 1usize << p;
        let (crash_first, auto_release) = (seed % 2 == 1, seed % 4 >= 2);
        let protocol =
            Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
                .with_contention_slack(SimDuration::from_ticks(20_000));
        let rt = Runtime::start(
            RuntimeConfig { workers, seed, ..RuntimeConfig::default() },
            OpenCubeNode::build_all(protocol),
        );
        prop_assert!(rt.workers() <= workers.max(1));
        let mut rng = StdRng::seed_from_u64(seed);
        let watcher = rt.watcher();
        let issued: Vec<RequestId> = (0..requests)
            .map(|_| {
                let node = NodeId::new(rng.random_range(1..=n as u32));
                rt.acquire_watched(0, node, &watcher, auto_release)
            })
            .collect();
        if crash_first {
            rt.crash(NodeId::new(rng.random_range(1..=n as u32)));
        }
        std::thread::sleep(Duration::from_micros(delay_us));

        // If a worker failed to join, this call would hang the test
        // harness; returning at all is the join property.
        let report = rt.shutdown();

        // Drain property: every request has ended, none lost.
        prop_assert_eq!(report.requests_injected, requests as u64);
        prop_assert_eq!(
            report.requests_completed + report.requests_abandoned,
            requests as u64
        );
        // Exactly once: each request's one notice is on the watcher by
        // the time shutdown returns, and the notices are the report.
        let mut ended: Vec<(RequestId, RequestStatus)> =
            std::iter::from_fn(|| watcher.try_recv()).collect();
        let completed = ended.iter().filter(|(_, s)| *s == RequestStatus::Completed).count();
        prop_assert_eq!(completed as u64, report.requests_completed);
        ended.sort_by_key(|(id, _)| *id);
        prop_assert_eq!(ended.into_iter().map(|(id, _)| id).collect::<Vec<_>>(), issued);
        // Mutual exclusion must have held up to the cut, however abrupt.
        prop_assert!(report.mutual_exclusion_held());
        // The latency histogram saw exactly the requests that were ever
        // granted, and shutdown completes a granted request.
        prop_assert_eq!(report.latency.count, report.requests_completed);
    }

    #[test]
    fn shutdown_discards_what_workers_hold_for_later(
        (p, workers, waiters, scheduled, delay_us) in
            (2u32..=4, 1usize..=4, 1u32..=3, 1u64..=20, 0u64..5_000)
    ) {
        // Everything a worker keeps for later is live at the cut: a CS
        // lease (node 1 holds the lock for an hour), the token-wait and
        // loan timers of the claims queued behind it, and scheduled
        // arrivals an hour away. A worker asleep until the earliest of
        // those must still wake for its Stop, and drop them all.
        let n = 1usize << p;
        let hour = Duration::from_secs(3_600);
        let protocol =
            Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
                .with_contention_slack(SimDuration::from_ticks(100_000_000));
        let rt = Runtime::start(
            RuntimeConfig { workers, cs_duration: hour, ..RuntimeConfig::default() },
            OpenCubeNode::build_all(protocol),
        );
        let _ = rt.acquire(NodeId::new(1));
        prop_assert!(rt.await_cs_entries(1, Duration::from_secs(30)));
        for node in 2..=1 + waiters {
            let _ = rt.acquire(NodeId::new(node));
        }
        let hour_ticks = (hour.as_nanos() / RuntimeConfig::default().tick.as_nanos()) as u64;
        let mut schedule = ArrivalSchedule::new();
        for k in 0..scheduled {
            let node = NodeId::new((k % n as u64) as u32 + 1);
            schedule = schedule.then(SimTime::from_ticks(hour_ticks + k), node);
        }
        prop_assert_eq!(rt.schedule_workload(&schedule).len() as u64, scheduled);
        std::thread::sleep(Duration::from_micros(delay_us));
        prop_assert!(!rt.settled(), "a lease, timers and arrivals are all outstanding");

        let cut = Instant::now();
        let report = rt.shutdown();
        prop_assert!(cut.elapsed() < Duration::from_secs(5), "shutdown took {:?}", cut.elapsed());
        prop_assert!(!report.drained);
        let injected = 1 + u64::from(waiters) + scheduled;
        prop_assert_eq!(report.requests_injected, injected);
        prop_assert_eq!(report.requests_completed + report.requests_abandoned, injected);
        prop_assert_eq!(report.requests_completed, 1, "only the lease holder was ever served");
        prop_assert!(report.mutual_exclusion_held());
    }
}
