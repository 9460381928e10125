//! The runtime hot-path allocation budget: after a warmup stretch has
//! grown every capacity (worker batch and delay queues, grant queues,
//! watcher channels, latency histogram), a measured stretch of
//! auto-release acquisitions must stay under a small fixed allocation
//! budget per acquisition — and must keep none of what it allocates: a
//! request is a ticket in a command, and nothing after its completion.
//!
//! Unlike the simulator's gate this is a *bound*, not zero: a
//! `std::sync::mpsc` channel heap-allocates as it sends (one block per
//! 31 messages), one acquisition crosses at least two channels (client →
//! worker, worker → watcher), and on the contended stretches every
//! message for another worker's node rides a `Mail::Many` burst whose
//! `Vec` is allocated by the sender and freed by the receiver. The
//! budget asserts the batched dispatch path adds nothing beyond those
//! constitutive sends — no per-event buffers, no per-batch Vec churn
//! beyond the reused queues, no stats boxing. A regression that
//! allocates per message or per event lands well above the ceiling and
//! fails reproducibly.
//!
//! Three stretches: the dispatch ceiling (every request at the token's
//! holder: no message, no timer), and a contended lock (n = 16, requests
//! at random nodes, so the token moves and every claim arms and cancels
//! its timeouts) on one worker — no message touches a channel — and on
//! two. Every stretch also holds *live* heap bytes level, and as level
//! over four times as many acquisitions: a per-request record, or a
//! delay queue or deadline set that kept dead entries for a suspicion
//! slack's length, would churn no more than a healthy run, but grow.
//!
//! `harness = false` for the same reason as `steady_state`: libtest's
//! own thread machinery allocates while the measured window runs.

use std::time::{Duration, Instant};

use oc_algo::{Config, OpenCubeNode};
use oc_audit::CountingAlloc;
use oc_runtime::{Runtime, RuntimeConfig};
use oc_sim::SimDuration;
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Generous ceiling on heap allocations per steady-state acquisition.
/// The constitutive cost is the acquire command, the watcher completion
/// and — contended, two workers — a burst per batch that has messages
/// for the other worker (~4 messages per acquisition); 16 leaves room
/// for allocator-internal noise while still catching any per-event or
/// per-message buffer introduced into the dispatch loop.
const MAX_ALLOCS_PER_ACQUISITION: u64 = 16;

const WARMUP: u64 = 2_000;
const MEASURED: u64 = 10_000;
/// Acquisitions the contended stretches keep outstanding, so the lock is
/// always wanted and timeouts are armed and cancelled at the rate the
/// token moves.
const OUTSTANDING: u64 = 8;

/// Ceiling on the growth of live heap bytes over a measured stretch,
/// however long: room for a channel block or a queue that doubles once
/// more, nothing that scales with the number of requests (at 16 bytes
/// per request, `MEASURED` of them would already be 160 KB).
const MAX_LIVE_GROWTH: i64 = 64 * 1024;

fn start(n: usize, workers: usize) -> Runtime<OpenCubeNode> {
    let protocol = Config::new(n, SimDuration::from_ticks(16), SimDuration::from_ticks(25))
        .with_contention_slack(SimDuration::from_ticks(50_000));
    Runtime::start(
        RuntimeConfig {
            workers,
            tick: Duration::from_micros(20),
            max_network_delay: Duration::from_micros(200),
            cs_duration: Duration::from_micros(500),
            seed: 42,
            ..RuntimeConfig::default()
        },
        OpenCubeNode::build_all(protocol),
    )
}

/// `count` auto-release acquisitions, `outstanding` at a time, each at
/// the node `pick` names.
fn acquire_burst(
    rt: &Runtime<OpenCubeNode>,
    count: u64,
    outstanding: u64,
    mut pick: impl FnMut() -> NodeId,
) {
    let watcher = rt.watcher();
    for done in 0..count + outstanding {
        if done >= outstanding {
            assert!(
                watcher.recv_timeout(Duration::from_secs(30)).is_some(),
                "steady-state acquisition wedged"
            );
        }
        if done < count {
            let _ = rt.acquire_watched(0, pick(), &watcher, true);
        }
    }
}

/// Warm up, measure `measured` acquisitions (holding allocations per
/// acquisition to the budget and live heap growth to the ceiling),
/// settle, shut down.
fn stretch(
    name: &str,
    rt: Runtime<OpenCubeNode>,
    outstanding: u64,
    measured: u64,
    mut pick: impl FnMut() -> NodeId,
) {
    // Warmup: grant queues, histogram buckets, batch and delay queues,
    // watcher channel — every capacity the measured stretch will reuse.
    acquire_burst(&rt, WARMUP, outstanding, &mut pick);

    let (before, live_before) = (ALLOC.snapshot(), ALLOC.live_bytes());
    acquire_burst(&rt, measured, outstanding, &mut pick);
    let (after, live_after) = (ALLOC.snapshot(), ALLOC.live_bytes());

    let allocs = after.0 - before.0;
    let per_acq = allocs / measured;
    assert!(
        per_acq <= MAX_ALLOCS_PER_ACQUISITION,
        "{name}: runtime hot path allocates too much: {allocs} allocations / {measured} \
         acquisitions = {per_acq}/acq (budget {MAX_ALLOCS_PER_ACQUISITION}/acq, bytes {} -> {})",
        before.1,
        after.1
    );
    let grown = live_after as i64 - live_before as i64;
    assert!(
        grown <= MAX_LIVE_GROWTH,
        "{name}: live heap grew {grown} bytes over {measured} acquisitions (ceiling \
         {MAX_LIVE_GROWTH}): something keeps entries past their use"
    );

    assert!(rt.await_settled(Duration::from_secs(30)), "{name}: runtime did not settle");
    let t0 = Instant::now();
    let report = rt.shutdown();
    assert!(report.is_clean(), "{name}: oracle violations: {:?}", report.safety.violations());
    assert_eq!(report.requests_completed, WARMUP + measured);
    println!(
        "runtime steady-state audit, {name}: {per_acq} allocs/acquisition across {measured} \
         (budget {MAX_ALLOCS_PER_ACQUISITION}), live heap {grown:+} bytes, {:.2} msgs/acq — ok \
         (shutdown {:?})",
        report.messages_sent as f64 / report.requests_completed as f64,
        t0.elapsed()
    );
}

fn main() {
    for measured in [MEASURED, 4 * MEASURED] {
        stretch("dispatch", start(4, 1), 1, measured, || NodeId::new(1));

        for workers in [1, 2] {
            let mut rng = StdRng::seed_from_u64(42);
            let name = format!("contended x{workers}");
            stretch(&name, start(16, workers), OUTSTANDING, measured, || {
                NodeId::new(rng.random_range(1..=16))
            });
        }
    }
}
