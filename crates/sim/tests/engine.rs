//! Engine conformance tests: `EventQueue` on either backend must be
//! observationally identical to a sorted map keyed by `(time, seq)` —
//! same pops, same peeks, same lengths, same purge counts — under
//! arbitrary interleavings of pushes into both tiers, time-ordered
//! schedules filed by reference, pops, crash-style retains and
//! `clone_from`.

use std::collections::BTreeMap;

use oc_sim::queue::{EventQueue, QueueBackend};
use oc_sim::{ArrivalSchedule, SimDuration, SimTime};
use oc_topology::NodeId;
use proptest::prelude::*;

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// `push` at this tick (payload is the script index, so every entry is
    /// distinguishable and FIFO ties are observable).
    Push(u64),
    /// `push_input` at this tick: same order, out of `retain`'s reach.
    PushInput(u64),
    /// `count` calls of `push_input` at strictly increasing ticks, `start`
    /// then `gap` apart: a schedule filed in time order, the shape the
    /// input tier keeps in its sorted run.
    InputBurst { start: u64, gap: u64, count: u64 },
    /// The same shape collected into an explicit-time schedule and filed
    /// whole with `push_schedule` (`gap` may be 0: ties within it). Every
    /// arrival names node `index + 1`, which pops as that payload. The
    /// model files it arrival by arrival, so the schedule must pop exactly
    /// as that burst would.
    Listed { start: u64, gap: u64, count: u64 },
    /// A generated schedule — `count` arrivals from tick 0, `gap` apart,
    /// stored as node ids alone — filed whole the same way.
    Spaced { gap: u64, count: u64 },
    /// Pop once from both queues and compare with the model's minimum.
    Pop,
    /// Drop all generated payloads divisible by the modulus (like a crash
    /// destroying in-flight messages), comparing drop counts.
    Retain(u8),
    /// Replace each queue by a `clone_from` of it into a queue of the same
    /// backend that held something else (see [`reshaped`]), as
    /// `World::restore` overwrites a world's queue in place.
    CloneFrom,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near-future times: land in calendar buckets.
        (0u64..10_000).prop_map(Op::Push),
        // Far-future times: exercise the overflow heap and window refills.
        (1_000_000u64..100_000_000).prop_map(Op::Push),
        // Inputs over both ranges, so the two tiers' heads keep trading
        // places; a narrow range makes equal-time ties across tiers common.
        (0u64..10_000).prop_map(Op::PushInput),
        (0u64..40).prop_map(Op::PushInput),
        (0u64..40).prop_map(Op::Push),
        (1_000_000u64..100_000_000).prop_map(Op::PushInput),
        // Monotone bursts: each extends the sorted run if it starts above
        // the run's end and lands among the latecomers if not.
        (0u64..20_000, 1u64..60, 2u64..24).prop_map(|(start, gap, count)| Op::InputBurst {
            start,
            gap,
            count
        }),
        // Schedules by reference, from none to dozens of arrivals, some
        // all one tick; a generated one starts at tick 0, so past the
        // script's opening it mostly splits into the latecomers.
        (0u64..20_000, 0u64..60, 1u64..48).prop_map(|(start, gap, count)| Op::Listed {
            start,
            gap,
            count
        }),
        (0u64..60, 0u64..48).prop_map(|(gap, count)| Op::Spaced { gap, count }),
        // Twice, so pops keep pace with the six kinds of single push.
        Just(Op::Pop),
        Just(Op::Pop),
        (2u8..7).prop_map(Op::Retain),
        Just(Op::CloneFrom),
    ]
}

/// The most entries the heap backend keeps sorted in front of its heap
/// (`FRONT` in `queue.rs`): a generated tier longer than this spills.
const FRONT: u64 = 16;

/// Beyond every tick `op_strategy` draws: an input here, filed first, is
/// the end of the sorted run for the rest of the script, so every later
/// input is a latecomer.
const FAR_FIRST: u64 = 1 << 40;

/// A script of `op_strategy` operations; every other one opens by filing
/// one far-future input (the input tier's worst case: all heap, no run).
fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    (0u8..2, proptest::collection::vec(op_strategy(), 0..400)).prop_map(|(far_first, mut ops)| {
        if far_first == 1 {
            ops.insert(0, Op::PushInput(FAR_FIRST));
        }
        ops
    })
}

/// The model's entry: payload, and whether it sits in the input tier.
type Model = BTreeMap<(u64, u64), (usize, bool)>;

/// Files `payload` at each of `ticks`, in order, into both queues and the
/// model: through `push_input` if `input`, through `push` if not.
fn file(
    queues: &mut [EventQueue<usize>; 2],
    model: &mut Model,
    next_seq: &mut u64,
    payload: usize,
    input: bool,
    ticks: impl IntoIterator<Item = u64>,
) {
    for t in ticks {
        for q in queues.iter_mut() {
            if input {
                q.push_input(SimTime::from_ticks(t), payload);
            } else {
                q.push(SimTime::from_ticks(t), payload);
            }
        }
        model.insert((t, *next_seq), (payload, input));
        *next_seq += 1;
    }
}

/// Files `schedule` whole into both queues, and arrival by arrival into
/// the model, each arrival's payload its node id.
fn file_schedule(
    queues: &mut [EventQueue<usize>; 2],
    model: &mut Model,
    next_seq: &mut u64,
    schedule: &ArrivalSchedule,
) {
    for q in queues.iter_mut() {
        q.push_schedule(schedule);
    }
    for (at, node) in schedule.arrivals().iter() {
        model.insert((at.ticks(), *next_seq), (usize::from(node), true));
        *next_seq += 1;
    }
}

/// A queue on `backend` that holds more than a run's queue usually does —
/// a generated tier beyond the heap backend's sorted front, inputs in
/// both stores — overwritten with `clone_from(source)`.
fn reshaped(source: &EventQueue<usize>) -> EventQueue<usize> {
    let mut target = EventQueue::with_backend(source.backend());
    for k in (0..5 * FRONT).rev() {
        target.push(SimTime::from_ticks(k * 3), usize::MAX);
        target.push_input(SimTime::from_ticks(k * 5), usize::MAX);
    }
    target.pop();
    target.clone_from(source);
    target
}

fn run_script(script: &[Op]) {
    let mut queues = [QueueBackend::Heap, QueueBackend::Bucketed].map(EventQueue::with_backend);
    let mut model = Model::new();
    let mut next_seq = 0u64;

    for (i, op) in script.iter().enumerate() {
        match op {
            Op::Push(t) => file(&mut queues, &mut model, &mut next_seq, i, false, [*t]),
            Op::PushInput(t) => file(&mut queues, &mut model, &mut next_seq, i, true, [*t]),
            Op::InputBurst { start, gap, count } => {
                let ticks = (0..*count).map(|k| start + k * gap);
                file(&mut queues, &mut model, &mut next_seq, i, true, ticks);
            }
            Op::Listed { start, gap, count } => {
                let node = NodeId::new(i as u32 + 1);
                let schedule: ArrivalSchedule =
                    (0..*count).map(|k| (SimTime::from_ticks(start + k * gap), node)).collect();
                file_schedule(&mut queues, &mut model, &mut next_seq, &schedule);
            }
            Op::Spaced { gap, count } => {
                let node = NodeId::new(i as u32 + 1);
                let schedule =
                    ArrivalSchedule::repeated(node, *count as usize, SimDuration::from_ticks(*gap));
                file_schedule(&mut queues, &mut model, &mut next_seq, &schedule);
            }
            Op::Pop => {
                // Exact (time, seq) order across both tiers: the pop is
                // the model's first key, whichever tier holds it.
                let expected =
                    model.pop_first().map(|((t, _), (e, _))| (SimTime::from_ticks(t), e));
                for q in &mut queues {
                    assert_eq!(q.pop(), expected, "wrong pop on {:?} at op {i}", q.backend());
                }
            }
            Op::Retain(modulus) => {
                let m = usize::from(*modulus);
                let before = model.len();
                model.retain(|_, (e, input)| *input || *e % m != 0);
                for q in &mut queues {
                    let dropped = q.retain(|e| e % m != 0);
                    assert_eq!(dropped, before - model.len(), "{:?} at op {i}", q.backend());
                }
            }
            Op::CloneFrom => {
                for q in &mut queues {
                    *q = reshaped(q);
                }
            }
        }
        let head = model.first_key_value().map(|((t, _), _)| SimTime::from_ticks(*t));
        for q in &queues {
            assert_eq!(q.len(), model.len(), "len on {:?} at op {i}", q.backend());
            assert_eq!(q.is_empty(), model.is_empty());
            assert_eq!(q.peek_time(), head, "peek on {:?} at op {i}", q.backend());
        }
    }

    // Drain what's left: both backends must follow the model to the end.
    while let Some(((t, _), (e, _))) = model.pop_first() {
        for q in &mut queues {
            assert_eq!(q.pop(), Some((SimTime::from_ticks(t), e)), "{:?} draining", q.backend());
        }
    }
    for q in &mut queues {
        assert_eq!(q.pop(), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings: the calendar queue is indistinguishable
    /// from the heap, and both pop in exact `(time, seq)` order.
    #[test]
    fn bucketed_queue_matches_heap(script in script_strategy()) {
        run_script(&script);
    }
}

/// Deterministic regression script: dense ties, far-future churn, retains.
#[test]
fn bucketed_queue_matches_heap_dense_ties() {
    let mut script = Vec::new();
    for round in 0..50u64 {
        for _ in 0..20 {
            script.push(Op::Push(round * 3)); // heavy (time) ties
        }
        script.push(Op::Push(50_000_000 + round));
        script.push(Op::Pop);
        script.push(Op::Pop);
        if round % 7 == 0 {
            script.push(Op::Retain(3));
        }
    }
    for _ in 0..200 {
        script.push(Op::Pop);
    }
    run_script(&script);
}

/// Equal-time ties whose sequence numbers alternate between the tiers pop
/// in push order: one counter numbers both.
#[test]
fn ties_across_tiers_pop_in_push_order() {
    let mut script = Vec::new();
    for t in [7u64, 7, 2_000_000] {
        for _ in 0..10 {
            script.push(Op::Push(t));
            script.push(Op::PushInput(t));
        }
        script.push(Op::Pop);
        script.push(Op::Retain(2)); // every generated payload is even
    }
    run_script(&script);
}

/// Once a pop has lifted the calendar's `split` past a tick, later pushes
/// at or below it — in either tier — still come out in order.
#[test]
fn pushes_below_the_calendar_split_still_order() {
    run_script(&[
        Op::Push(100),
        Op::PushInput(5_000),
        Op::Pop, // drains bucket 1: split is now 128
        Op::Push(101),
        Op::PushInput(100),
        Op::Push(100),
        Op::PushInput(127),
        Op::Push(128),
        Op::Pop,
        Op::Retain(2),
    ]);
}

/// A purge that empties the calendar's `near` heap while buckets, overflow
/// and inputs still hold events must re-establish the head, and must leave
/// inputs alone even where the predicate rejects them.
#[test]
fn retain_that_empties_near_leaves_buckets_and_inputs() {
    run_script(&[
        Op::Push(5),              // payload 0: the whole of `near`, rejected
        Op::Push(1_000),          // payload 1: bucketed, kept
        Op::PushInput(3),         // payload 2: rejected by the predicate, kept by the tier
        Op::Push(70_000_000),     // payload 3: overflow, kept
        Op::PushInput(2_000_000), // payload 4
        Op::Push(1_000),          // payload 5: bucketed, kept
        Op::Push(6),              // payload 6: `near`, rejected
        Op::Retain(2),
        Op::Pop,
        Op::Retain(5),
    ]);
}

/// At `u64::MAX` the calendar falls back to pure heap order with generated
/// events in `near`; an input tied with them at the end of time must still
/// come out by sequence number, not behind them.
#[test]
fn ties_at_the_end_of_time_keep_push_order() {
    run_script(&[
        Op::Push(u64::MAX),
        Op::PushInput(u64::MAX),
        Op::Push(5),
        Op::Push(u64::MAX),
        Op::PushInput(u64::MAX - 1),
        Op::Pop, // tick 5; refilling the window engages the fallback
        Op::PushInput(u64::MAX),
        Op::Push(u64::MAX),
        Op::Retain(2),
    ]);
}

/// The shape of a faulty run, start to end: an ascending arrival schedule
/// (all of it the sorted run), then a crash/recover plan across the same
/// span (all of it latecomers), generated events tied with both — then,
/// mid-drain, inputs filed at, below and above both input heads and past
/// the run's end, with equal-tick ties across all three stores.
#[test]
fn schedule_then_plan_then_mid_drain_inputs_keep_order() {
    let mut script: Vec<Op> = vec![Op::InputBurst { start: 0, gap: 10, count: 400 }];
    for k in 0..40u64 {
        script.push(Op::PushInput(k * 100)); // crash: ties with an arrival
        script.push(Op::PushInput(k * 100 + 55)); // recover: between two
    }
    for k in 0..40u64 {
        script.push(Op::Push(k * 100)); // three-way tie, sequence decides
    }
    // Thirteen entries per hundred ticks: eight hundreds popped leave all
    // three stores with their head at tick 800.
    script.extend(std::iter::repeat_n(Op::Pop, 104));
    script.extend([
        Op::PushInput(800),   // at both input heads: behind them by sequence
        Op::Push(800),        // and a generated event behind that
        Op::PushInput(795),   // below both heads: the next pop
        Op::PushInput(805),   // above both heads, below the run's end
        Op::PushInput(5_000), // past the run's end: extends the run
        Op::PushInput(4_500), // and now below it again: a latecomer
        Op::InputBurst { start: 4_990, gap: 10, count: 5 }, // straddles the end
        Op::Retain(2),
    ]);
    for i in 0..600u64 {
        script.push(Op::Pop);
        match i % 7 {
            0 => script.push(Op::PushInput(800 + i * 6)),
            3 => script.push(Op::Push(800 + i * 6)),
            5 => script.push(Op::PushInput(6_000 + i)),
            _ => {}
        }
        if i % 150 == 0 {
            script.push(Op::Retain(3));
        }
    }
    run_script(&script);
}

/// The worst case end to end: one far-future input filed first, so the
/// whole schedule behind it is latecomers, then a descending tail.
#[test]
fn far_future_first_and_descending_inputs_keep_order() {
    let mut script =
        vec![Op::PushInput(FAR_FIRST), Op::InputBurst { start: 0, gap: 3, count: 300 }];
    script.extend((0..300u64).rev().map(|t| Op::PushInput(t * 3 + 1)));
    script.extend((0..50u64).map(|t| Op::Push(t * 18)));
    script.extend(std::iter::repeat_n(Op::Pop, 400));
    script.extend([Op::PushInput(FAR_FIRST), Op::PushInput(FAR_FIRST + 1), Op::Retain(2)]);
    run_script(&script);
}

/// Thousands of inputs in no order at all, with more filed on either side
/// of the run's end while the queue drains: run and latecomers hand over
/// without reordering.
#[test]
fn unordered_inputs_by_the_thousand_keep_order() {
    let mut script: Vec<Op> = (0..2_500u64).map(|i| Op::PushInput(i * 37 % 5_000)).collect();
    for i in 0..3_000u64 {
        script.push(Op::Pop);
        match i % 5 {
            0 => script.push(Op::PushInput(i * 13 % 5_000)),
            1 => script.push(Op::Push(i * 7 % 5_000)),
            2 => script.push(Op::PushInput(10_000 + i)),
            _ => {}
        }
        if i % 500 == 0 {
            script.push(Op::Retain(3));
        }
    }
    run_script(&script);
}

/// `sim-faults`' shape with the schedule filed by reference: one generated
/// schedule for the arrivals, then a plan filed input by input across its
/// span, then schedules that start below, at and past the run's end while
/// it drains.
#[test]
fn a_list_then_plan_then_more_lists_keep_order() {
    let mut script: Vec<Op> = vec![Op::Spaced { gap: 10, count: 400 }];
    for k in 0..40u64 {
        script.push(Op::PushInput(k * 100));
        script.push(Op::PushInput(k * 100 + 55));
        script.push(Op::Push(k * 100));
    }
    script.extend(std::iter::repeat_n(Op::Pop, 104));
    script.extend([
        Op::Listed { start: 700, gap: 5, count: 30 }, // front below the run's end
        Op::Listed { start: 3_990, gap: 0, count: 4 }, // all at the run's last tick
        Op::Listed { start: 9_000, gap: 1, count: 10 }, // past it: a second stretch
        Op::PushInput(9_005),                         // below that stretch's end
        Op::PushInput(9_500),                         // past it again
        Op::Spaced { gap: 40, count: 300 },           // from tick 0: front late, tail run
        Op::Spaced { gap: 0, count: 3 },              // all at tick 0: all late
        Op::Spaced { gap: 7, count: 0 },              // empty: files nothing
        Op::Retain(2),
    ]);
    for i in 0..700u64 {
        script.push(Op::Pop);
        if i % 9 == 0 {
            script.push(Op::Push(800 + i * 6));
        }
    }
    run_script(&script);
}

/// A generated tier several times the heap backend's sorted front, filed
/// in descending order so that every push past the sixteenth evicts the
/// front's largest entry to the heap, with equal-time ties in and across
/// tiers, a crash-style purge and a `clone_from` while the tier overflows.
/// Far-future events filed once the front has drained land in its free
/// room above the heap's head: a pop must then take the heap's.
#[test]
fn a_generated_tier_beyond_the_front_keeps_order() {
    let mut script = Vec::new();
    for round in 1..=4u64 {
        let base = round * 10_000;
        for k in (0..5 * FRONT).rev() {
            script.push(Op::Push(base + k * 10));
            if k % 9 == 0 {
                script.push(Op::Push(base + k * 10)); // a tie behind it
            }
            if k % 13 == 0 {
                script.push(Op::PushInput(base + k * 10)); // a tie across tiers
            }
        }
        script.push(Op::Retain(3));
        script.push(Op::CloneFrom);
        script.extend(std::iter::repeat_n(Op::Pop, 3 * FRONT as usize));
        script.extend((0..FRONT / 2).map(|k| Op::Push(1_000_000 * round + k)));
        script.extend(std::iter::repeat_n(Op::Pop, FRONT as usize));
        script.push(Op::Push(base + 5)); // below everything left
        script.push(Op::CloneFrom);
    }
    run_script(&script); // and drains whatever is left
}
