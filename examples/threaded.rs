//! The same open-cube state machine running as a sharded lock service:
//! 16 nodes over 4 worker threads, a client session API with request
//! ids and latency tracking, a crash/recovery of the token holder, and
//! the unmodified simulator oracles judging the whole run at shutdown.
//!
//! ```text
//! cargo run --release --example threaded
//! ```

use std::time::Duration;

use opencube::algo::{Config, OpenCubeNode};
use opencube::runtime::{Runtime, RuntimeConfig};
use opencube::sim::SimDuration;
use opencube::topology::NodeId;

fn main() {
    let n = 16;
    // δ = 40 ticks × 50µs/tick = 2ms ≥ the runtime's 1ms max delay.
    let config = Config::new(n, SimDuration::from_ticks(40), SimDuration::from_ticks(20))
        .with_contention_slack(SimDuration::from_ticks(50_000));
    let rt = Runtime::start(
        RuntimeConfig { workers: 4, ..RuntimeConfig::default() },
        OpenCubeNode::build_all(config),
    );
    println!("lock service up: {} nodes over {} workers", rt.len(), rt.workers());

    println!("phase 1: all {n} nodes acquire once, concurrently");
    // The first request is followed to its end through a watcher; the
    // others are fire-and-forget.
    let watcher = rt.watcher();
    let first = rt.acquire_watched(0, NodeId::new(1), &watcher, false);
    for i in 2..=n as u32 {
        let _ = rt.acquire(NodeId::new(i));
    }
    let (id, status) = watcher.recv_timeout(Duration::from_secs(60)).expect("request 0 ends");
    assert_eq!(id, first);
    println!("  -> request {} is {status:?}", id.index());
    assert!(rt.await_cs_entries(n as u64, Duration::from_secs(60)), "phase 1 did not complete");
    println!("  -> {} critical sections served", rt.cs_entries());

    println!("phase 2: crash node 5, wait, recover it, keep acquiring");
    rt.crash(NodeId::new(5));
    std::thread::sleep(Duration::from_millis(50));
    rt.recover(NodeId::new(5));
    for i in [2u32, 9, 12, 7] {
        let _ = rt.acquire(NodeId::new(i));
    }
    assert!(
        rt.await_cs_entries(n as u64 + 4, Duration::from_secs(120)),
        "phase 2 did not complete"
    );
    println!("  -> {} critical sections served", rt.cs_entries());

    assert!(rt.await_settled(Duration::from_secs(120)), "service did not settle");
    let report = rt.shutdown();
    println!("\n--- report ---");
    println!("critical sections : {}", report.cs_entries);
    println!(
        "requests          : {} completed, {} abandoned",
        report.requests_completed, report.requests_abandoned
    );
    println!("messages sent     : {}", report.messages_sent);
    println!("crash / recovery  : {} / {}", report.crashes, report.recoveries);
    println!("terminal census   : {} token(s)", report.terminal_token_census);
    println!(
        "grant latency     : p50 {:.1}µs  p99 {:.1}µs  p999 {:.1}µs  max {:.1}µs",
        report.latency.p50_nanos as f64 / 1_000.0,
        report.latency.p99_nanos as f64 / 1_000.0,
        report.latency.p999_nanos as f64 / 1_000.0,
        report.latency.max_nanos as f64 / 1_000.0,
    );
    println!("safety oracle     : {}", if report.safety.is_clean() { "clean" } else { "VIOLATED" });
    println!(
        "liveness oracle   : {}",
        if report.liveness.is_clean() { "clean" } else { "VIOLATED" }
    );
    assert!(report.is_clean(), "oracle violations: {report:?}");
}
