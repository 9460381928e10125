//! Engine conformance tests: `EventQueue` on either backend must be
//! observationally identical to a sorted map keyed by `(time, seq)` —
//! same pops, same peeks, same lengths, same purge counts — under
//! arbitrary interleavings of pushes into both tiers, pops and
//! crash-style retains.

use std::collections::BTreeMap;

use oc_sim::queue::{EventQueue, QueueBackend};
use oc_sim::SimTime;
use proptest::prelude::*;

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// `push` at this tick (payload is the script index, so every entry is
    /// distinguishable and FIFO ties are observable).
    Push(u64),
    /// `push_input` at this tick: same order, out of `retain`'s reach.
    PushInput(u64),
    /// Pop once from both queues and compare with the model's minimum.
    Pop,
    /// Drop all generated payloads divisible by the modulus (like a crash
    /// destroying in-flight messages), comparing drop counts.
    Retain(u8),
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
        // Twice, so pops keep pace with the six kinds of push.
        Just(Op::Pop),
        Just(Op::Pop),
        (2u8..7).prop_map(Op::Retain),
    ]
}

/// The model's entry: payload, and whether it sits in the input tier.
type Model = BTreeMap<(u64, u64), (usize, bool)>;

fn run_script(script: &[Op]) {
    let mut queues = [QueueBackend::Heap, QueueBackend::Bucketed].map(EventQueue::with_backend);
    let mut model = Model::new();
    let mut next_seq = 0u64;

    for (i, op) in script.iter().enumerate() {
        match op {
            Op::Push(t) | Op::PushInput(t) => {
                let input = matches!(op, Op::PushInput(_));
                for q in &mut queues {
                    if input {
                        q.push_input(SimTime::from_ticks(*t), i);
                    } else {
                        q.push(SimTime::from_ticks(*t), i);
                    }
                }
                model.insert((*t, next_seq), (i, input));
                next_seq += 1;
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
    fn bucketed_queue_matches_heap(script in proptest::collection::vec(op_strategy(), 0..400)) {
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

/// More inputs than one refill burst moves: the in-order run and the heap
/// behind it hand over without reordering, while late inputs land on
/// either side of the run's end.
#[test]
fn inputs_beyond_one_refill_burst_keep_order() {
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
