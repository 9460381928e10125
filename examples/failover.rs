//! Fault tolerance in action (Section 5): the root crashes while holding
//! the token; the survivors detect it, search for new fathers, regenerate
//! the token, and keep serving. Then the crashed node recovers and is
//! stitched back in — including the anomaly repair for a stale descendant.
//!
//! ```text
//! cargo run --example failover
//! ```

use opencube::algo::{Config, OpenCubeNode};
use opencube::sim::{Counter, MsgKind, Protocol, SimConfig, SimDuration, SimTime, World};
use opencube::topology::NodeId;

fn main() {
    let config = Config::new(16, SimDuration::from_ticks(10), SimDuration::from_ticks(50))
        .with_contention_slack(SimDuration::from_ticks(500));
    let mut world = World::new(
        SimConfig { record_trace: true, ..SimConfig::default() },
        OpenCubeNode::build_all(config),
    );

    println!("t=100   : node 1 (the root, holding the token) crashes");
    world.schedule_failure(SimTime::from_ticks(100), NodeId::new(1));

    println!("t=200   : nodes 10 and 12 request the critical section");
    world.schedule_request(SimTime::from_ticks(200), NodeId::new(10));
    world.schedule_request(SimTime::from_ticks(200), NodeId::new(12));

    println!("t=20000 : node 1 recovers and re-joins as a leaf");
    world.schedule_recovery(SimTime::from_ticks(20_000), NodeId::new(1));

    println!("t=30000 : node 2 requests through its stale father 1");
    world.schedule_request(SimTime::from_ticks(30_000), NodeId::new(2));

    assert!(world.run_to_quiescence());

    println!("\n--- outcome ---");
    let m = world.metrics();
    println!("critical sections completed : {}", m.cs_entries);
    println!("searches run                : {}", m.counted(Counter::SearchesStarted));
    println!("nodes probed (test msgs)    : {}", m.sent(MsgKind::Test));
    println!("tokens regenerated          : {}", m.counted(Counter::TokensRegenerated));
    println!("anomaly repairs             : {}", m.counted(Counter::AnomaliesReceived));
    println!("overhead messages           : {}", m.overhead_messages());
    println!(
        "safety                      : {}",
        if world.oracle_report().is_clean() { "clean" } else { "VIOLATED" }
    );

    println!("\n--- final tree (live view) ---");
    for id in NodeId::all(16) {
        let node = world.node(id);
        match node.father() {
            Some(f) => println!("father({id:>2}) = {f}"),
            None => println!(
                "father({id:>2}) = nil (root{})",
                if node.holds_token() { ", holds token" } else { "" }
            ),
        }
    }
}
