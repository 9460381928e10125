//! Per-layer probes for the traced pass: each times one layer alone,
//! through its public items, on inputs taken from the workload that asks.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;

use oc_algo::{codec, Config, Msg, OpenCubeNode};
use oc_sim::{
    drive, ActionSink, EventQueue, NodeEvent, Outbox, QueueBackend, SimConfig, SimDuration,
    SimTime, World,
};
use oc_topology::NodeId;
use oc_transport::{
    frame::{read_frame, write_frame},
    wire, Endpoint, Frame, Hlc, LogRecord, LogWriter,
};

use crate::spans::Tracer;

type Values = Vec<(&'static str, f64)>;

/// Messages kept from a replay for the codec and wire probes.
const CAPTURED: usize = 4_096;
/// Arrivals replayed at most; the probe needs a mean, not the whole run.
const REPLAYED: usize = 1 << 19;

/// The benchmark's own substrate for `oc_sim::drive`: a FIFO of pending
/// events and nothing else — no clock, queue order, RNG, oracle or
/// metrics — so a replay through it costs the protocol step plus a
/// `VecDeque` push and pop. Timers are dropped: without crashes no
/// suspicion timer is ever needed to make progress.
#[derive(Default)]
struct FifoSink {
    pending: VecDeque<(NodeId, NodeEvent<Msg>)>,
    captured: Vec<(NodeId, Msg)>,
    grants: u64,
}

impl ActionSink<Msg> for FifoSink {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        if self.captured.len() < CAPTURED {
            self.captured.push((from, msg.clone()));
        }
        self.pending.push_back((to, NodeEvent::Deliver { from, msg }));
    }

    fn enter_cs(&mut self, node: NodeId, _token_epoch: u64) {
        self.grants += 1;
        self.pending.push_back((node, NodeEvent::ExitCs));
    }

    fn set_timer(&mut self, _node: NodeId, _id: u64, _delay: SimDuration) {}

    fn cancel_timer(&mut self, _node: NodeId, _id: u64) {}
}

/// `oc-topology` and `oc-algo`: builds the population, replays the
/// workload's arrival nodes one request at a time through
/// `oc_sim::drive`, then times the codec on the messages that replay
/// sent. Returns the metrics and the captured messages.
pub fn algo(
    t: &mut Tracer,
    cfg: Config,
    arrivals: impl Iterator<Item = NodeId>,
) -> (Values, Vec<(NodeId, Msg)>) {
    // Small populations are built many times over, so the per-node time
    // is a mean over at least 2^16 nodes.
    let builds = ((1 << 16) / cfg.n).max(1);
    let mut nodes = Vec::new();
    t.span("probe.build_all", |_| {
        for _ in 0..builds {
            nodes = OpenCubeNode::build_all(cfg);
        }
    });
    let mut sink = FifoSink::default();
    let mut out = Outbox::new();
    let (mut events, mut requests) = (0u64, 0u64);
    t.span("algo.replay", |_| {
        for node in arrivals.take(REPLAYED) {
            requests += 1;
            sink.pending.push_back((node, NodeEvent::RequestCs));
            while let Some((to, event)) = sink.pending.pop_front() {
                drive(&mut nodes[to.zero_based() as usize], event, &mut out, &mut sink);
                events += 1;
            }
        }
    });
    assert_eq!(sink.grants, requests, "the failure-free replay must serve every request");
    let mut values = vec![
        (
            "topology.build_ns_per_node",
            t.total("probe.build_all").total_ns as f64 / (builds * cfg.n) as f64,
        ),
        ("algo.on_event_ns", t.total("algo.replay").total_ns as f64 / events as f64),
        ("algo.events_per_request", events as f64 / requests as f64),
    ];

    let messages = std::mem::take(&mut sink.captured);
    if !messages.is_empty() {
        let rounds = (1_000_000 / messages.len()).max(1);
        let encoded: Vec<_> = messages.iter().map(|(_, m)| codec::encode(m)).collect();
        t.span("algo.codec_encode", |_| {
            for _ in 0..rounds {
                for (_, msg) in &messages {
                    black_box(codec::encode(black_box(msg)));
                }
            }
        });
        t.span("algo.codec_decode", |_| {
            for _ in 0..rounds {
                for bytes in &encoded {
                    black_box(codec::decode(black_box(bytes)).expect("own encoding decodes"));
                }
            }
        });
        let ops = (rounds * messages.len()) as f64;
        values.push(("algo.codec_encode_ns", t.total("algo.codec_encode").total_ns as f64 / ops));
        values.push(("algo.codec_decode_ns", t.total("algo.codec_decode").total_ns as f64 / ops));
    }
    (values, messages)
}

/// `oc_sim::EventQueue` on both backends with the workload's own
/// timestamp stream: every stamp pushed, then every entry popped.
pub fn queue(t: &mut Tracer, stamps: &[SimTime]) -> Values {
    let mut values = Values::new();
    for (backend, push, pop, push_ns, pop_ns) in [
        (
            QueueBackend::Bucketed,
            "sim.queue_push",
            "sim.queue_pop",
            "sim.queue_push_ns",
            "sim.queue_pop_ns",
        ),
        (
            QueueBackend::Heap,
            "sim.heap_push",
            "sim.heap_pop",
            "sim.heap_push_ns",
            "sim.heap_pop_ns",
        ),
    ] {
        let mut q = EventQueue::<u32>::with_backend(backend);
        t.span(push, |_| {
            for (i, at) in stamps.iter().enumerate() {
                q.push(*at, i as u32);
            }
        });
        t.span(pop, |_| while black_box(q.pop()).is_some() {});
        values.push((push_ns, t.total(push).total_ns as f64 / stamps.len() as f64));
        values.push((pop_ns, t.total(pop).total_ns as f64 / stamps.len() as f64));
    }
    values
}

/// `EventQueue::retain` keeping everything, on a queue holding the
/// workload's pending events: the scan `World` runs on every crash.
pub fn retain(t: &mut Tracer, stamps: &[SimTime]) -> Values {
    let mut q = EventQueue::<u32>::new();
    for (i, at) in stamps.iter().enumerate() {
        q.push(*at, i as u32);
    }
    let rounds = (20_000_000 / stamps.len()).clamp(1, 200);
    t.span("sim.retain", |_| {
        for _ in 0..rounds {
            black_box(q.retain(|_| true));
        }
    });
    vec![(
        "sim.retain_ns_per_entry",
        t.total("sim.retain").total_ns as f64 / (rounds * stamps.len()) as f64,
    )]
}

/// `World::new`, `checkpoint` and `restore` at the explorer's scale.
pub fn small_world(t: &mut Tracer, sim: &SimConfig, cfg: &Config) -> Values {
    const ROUNDS: usize = 500;
    let populations: Vec<_> = (0..ROUNDS).map(|_| OpenCubeNode::build_all(*cfg)).collect();
    let mut world = None;
    for nodes in populations {
        t.enter("sim.world_new");
        let fresh = World::new(sim.clone(), nodes);
        t.exit();
        world = Some(fresh);
    }
    let mut world = world.expect("ROUNDS > 0");
    for raw in 1..=cfg.n as u32 {
        world.schedule_request(SimTime::from_ticks(u64::from(raw)), NodeId::new(raw));
    }
    for _ in 0..4 * cfg.n {
        world.step();
    }
    let mut checkpoint = world.checkpoint();
    for _ in 0..ROUNDS {
        checkpoint = t.span("sim.checkpoint", |_| world.checkpoint());
        t.span("sim.restore", |_| world.restore(&checkpoint));
    }
    black_box(checkpoint);
    vec![
        ("sim.world_new_us", t.total("sim.world_new").mean_ns() / 1e3),
        ("sim.checkpoint_us", t.total("sim.checkpoint").mean_ns() / 1e3),
        ("sim.restore_us", t.total("sim.restore").mean_ns() / 1e3),
    ]
}

/// `oc-transport` alone: a two-thread echo over a Unix socket (the floor
/// under every hop), the wire envelope around real protocol messages,
/// the hybrid clock, a flushed log append, and the post-hoc judgement
/// (`read_log` + `merge` + `replay`) of logs as long as the run's own.
pub fn transport(
    t: &mut Tracer,
    dir: &Path,
    messages: &[(NodeId, Msg)],
    n: u32,
    served: u64,
) -> Values {
    std::fs::create_dir_all(dir).expect("probe directory");
    let mut values = Values::new();

    const ROUND_TRIPS: usize = 5_000;
    let endpoint = Endpoint::Uds(dir.join("echo.sock"));
    let listener = endpoint.bind().expect("bind echo socket");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut stream = listener.accept().expect("accept echo client");
            while let Ok(Some(payload)) = read_frame(&mut stream) {
                if write_frame(&mut stream, &payload).is_err() {
                    break;
                }
            }
        });
        let mut stream = endpoint.connect().expect("connect echo socket");
        let payload = [0x5a_u8; 40];
        t.span("transport.uds_echo", |_| {
            for _ in 0..ROUND_TRIPS {
                write_frame(&mut stream, &payload).expect("echo write");
                black_box(read_frame(&mut stream).expect("echo read"));
            }
        });
        stream.shutdown();
    });
    values.push((
        "transport.uds_rtt_us",
        t.total("transport.uds_echo").total_ns as f64 / ROUND_TRIPS as f64 / 1e3,
    ));

    let mut hlc = Hlc::new(1);
    const TICKS: usize = 1_000_000;
    t.span("transport.hlc_tick", |_| {
        for _ in 0..TICKS {
            black_box(hlc.tick());
        }
    });
    values.push((
        "transport.hlc_tick_ns",
        t.total("transport.hlc_tick").total_ns as f64 / TICKS as f64,
    ));

    if !messages.is_empty() {
        let frames: Vec<Frame> = messages
            .iter()
            .map(|(from, msg)| Frame::Peer {
                from: from.get(),
                ns: 0,
                stamp: hlc.tick(),
                msg: msg.clone(),
            })
            .collect();
        let encoded: Vec<Vec<u8>> = frames.iter().map(wire::encode).collect();
        let rounds = (500_000 / frames.len()).max(1);
        t.span("transport.wire_encode", |_| {
            for _ in 0..rounds {
                for frame in &frames {
                    black_box(wire::encode(black_box(frame)));
                }
            }
        });
        t.span("transport.wire_decode", |_| {
            for _ in 0..rounds {
                for bytes in &encoded {
                    black_box(wire::decode(black_box(bytes)).expect("own encoding decodes"));
                }
            }
        });
        let ops = (rounds * frames.len()) as f64;
        values.push((
            "transport.wire_encode_ns",
            t.total("transport.wire_encode").total_ns as f64 / ops,
        ));
        values.push((
            "transport.wire_decode_ns",
            t.total("transport.wire_decode").total_ns as f64 / ops,
        ));
    }

    // One log per node, written the way a node process writes it (one
    // flushed append per record), holding an enter and an exit for each
    // critical section the run served, in one global order.
    let paths: Vec<_> = (1..=n).map(|id| dir.join(format!("probe-{id}.log"))).collect();
    let mut writers: Vec<LogWriter> =
        paths.iter().map(|p| LogWriter::open(p).expect("open probe log")).collect();
    t.span("transport.log_append", |_| {
        for k in 0..served {
            let node = (k % u64::from(n)) as u32 + 1;
            let writer = &mut writers[(node - 1) as usize];
            writer
                .append(&LogRecord::EnterCs { stamp: hlc.tick(), node, epoch: 0 })
                .expect("append");
            writer.append(&LogRecord::ExitCs { stamp: hlc.tick(), node }).expect("append");
        }
    });
    drop(writers);
    values.push((
        "transport.log_append_ns",
        t.total("transport.log_append").total_ns as f64 / (2 * served) as f64,
    ));
    let verdict = t.span("transport.judge", |_| {
        let logs =
            paths.iter().map(|p| oc_transport::read_log(p).expect("read probe log")).collect();
        oc_transport::replay(&oc_transport::merge(logs), 1)
    });
    assert!(verdict.safety.is_clean() && verdict.served == served, "probe logs must judge clean");
    values.push(("transport.judge_ms", t.total("transport.judge").total_ns as f64 / 1e6));
    let _ = std::fs::remove_dir_all(dir);
    values
}
