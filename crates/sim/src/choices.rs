//! The one seam for nondeterminism: every draw a run makes — a message's
//! delay, a link's fate, which of the events due at one tick a world
//! handles first, which ready worker runs and where its batch is cut —
//! goes through one [`Choices`], the counterpart of the one
//! [`crate::ActionSink`] seam for effects.
//!
//! A `Choices` has three sources. The seeded generator makes exactly the
//! draws `StdRng::random_range` would, and leaves same-tick events in
//! the queue's `seq` order without drawing, so a seeded run is the run it
//! always was. A tape plays recorded draws back, one entry per draw, so
//! a run can be replayed — and shrunk — draw by draw; a world's tape
//! holds its same-tick order in a stream of its own. The enumerating
//! source walks every tape of a run, depth first: it replays a prefix,
//! answers zero past it, and records each draw's range, which is all it
//! needs to step to the next tape.
//!
//! Every draw is an index into its outcomes, simplest first: a zero
//! entry, or a draw past the tape's end, gives the shortest delay, no
//! loss, no duplicate, the earliest-filed of the tied events, the first
//! ready worker and the smallest batch cut, and an entry beyond its
//! range is clamped. So every edit of a tape is a valid run.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Where a run's draws come from. An enum, not a trait: a caller picks a
/// source by value.
#[derive(Debug, Clone)]
pub enum Choices {
    /// The seeded generator. With `record`, every draw is also kept
    /// there, as the index a tape would replay it from. It makes no order
    /// draw: ties stay in `seq` order.
    Seeded {
        /// The generator.
        rng: StdRng,
        /// The draws made so far, when recording.
        record: Option<Vec<u64>>,
    },
    /// A tape of draws, played from its start.
    Tape {
        /// Entry `k` is draw `k`.
        entries: Arc<[u64]>,
        /// The draws made so far, each as it was taken: clamped, and zero
        /// past the end of `entries`.
        drawn: Vec<u64>,
        /// A world's order stream, entry `k` for its `k`-th tie, and the
        /// order draws made so far, as `drawn` keeps the others; `None`
        /// when the tape has none, which leaves ties in `seq` order and
        /// records nothing.
        order: Option<Box<OrderStream>>,
    },
    /// One tape of a depth-first walk over every tape of a run
    /// ([`Choices::enumerate`], [`Choices::next_sibling`]).
    Enumerate {
        /// The values to replay, draw by draw across both streams, in
        /// the order the run draws them; zero past its end.
        prefix: Arc<[u64]>,
        /// Every draw made so far, in the order made.
        log: Vec<Draw>,
    },
}

/// A tape's order stream and the order draws made from it. Boxed in
/// [`Choices::Tape`], so that a `Choices` stays 64 bytes: at 88 the
/// explorer's battery, which resets a world per scenario, ran about 2 %
/// slower.
type OrderStream = (Arc<[u64]>, Vec<u64>);

/// One draw of an enumerated run: its stream, what it took and the most
/// it could have taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// `true` for a same-tick order draw, `false` for a delay or a fate.
    pub order: bool,
    /// The index taken.
    pub value: u64,
    /// The largest index the draw allowed.
    pub max: u64,
}

impl Choices {
    /// The seeded generator, recording nothing.
    #[must_use]
    pub fn seeded(seed: u64) -> Choices {
        Choices::Seeded { rng: StdRng::seed_from_u64(seed), record: None }
    }

    /// The first tape of a depth-first walk over every tape of a run:
    /// every draw zero.
    #[must_use]
    pub fn enumerate() -> Choices {
        Choices::Enumerate { prefix: Arc::from([]), log: Vec::new() }
    }

    /// The tape the walk visits after the one this enumerating source has
    /// just played: its last draw that is below its range raised by one,
    /// every draw after it cut. `None` once every draw is at its range —
    /// the walk is over — and from any other source. A run must be a
    /// function of its draws, so that replaying the kept prefix makes
    /// the same draws with the same ranges; then the walk visits every
    /// tape once, in lexicographic order.
    #[must_use]
    pub fn next_sibling(&self) -> Option<Choices> {
        let Choices::Enumerate { log, .. } = self else { return None };
        let last = log.iter().rposition(|draw| draw.value < draw.max)?;
        let prefix = log[..last].iter().map(|draw| draw.value).chain([log[last].value + 1]);
        Some(Choices::Enumerate { prefix: prefix.collect(), log: Vec::new() })
    }

    /// One draw in `0..=max`, zero the simplest. From the generator this
    /// is `random_range(0..=max)`: one 64-bit draw reduced modulo the
    /// span.
    ///
    /// Inlined always, as [`Choices::chance`] is: the seeded arm is on
    /// every send's path, and left to the inliner the whole match is
    /// called out of line, which costs the simulator's crash-heavy runs
    /// about 4 % of their throughput.
    #[inline(always)]
    pub fn up_to(&mut self, max: u64) -> u64 {
        let (value, record) = match self {
            Choices::Seeded { rng, record } => {
                let draw = rng.next_u64();
                (max.checked_add(1).map_or(draw, |span| draw % span), record.as_mut())
            }
            Choices::Tape { entries, drawn, .. } => {
                (entries.get(drawn.len()).map_or(0, |&entry| entry.min(max)), Some(drawn))
            }
            Choices::Enumerate { prefix, log } => {
                let value = prefix.get(log.len()).map_or(0, |&entry| entry.min(max));
                log.push(Draw { order: false, value, max });
                return value;
            }
        };
        if let Some(record) = record {
            record.push(value);
        }
        value
    }

    /// One coin that lands `true` with probability `per_mille`/1000;
    /// `false` is the simpler side, so a zero entry gives it. From the
    /// generator this is `random_range(0..1000) < per_mille`. A certain
    /// coin (`per_mille >= 1000`) lands `true` whatever the entry, so it
    /// has one outcome to enumerate, every other coin two.
    #[inline(always)]
    pub fn chance(&mut self, per_mille: u16) -> bool {
        let certain = per_mille >= 1000;
        let (hit, record) = match self {
            Choices::Seeded { rng, record } => {
                (rng.next_u64() % 1000 < u64::from(per_mille), record.as_mut())
            }
            Choices::Tape { entries, drawn, .. } => {
                (certain || entries.get(drawn.len()).is_some_and(|&entry| entry > 0), Some(drawn))
            }
            Choices::Enumerate { prefix, log } => {
                let hit = certain || prefix.get(log.len()).is_some_and(|&entry| entry > 0);
                log.push(Draw { order: false, value: u64::from(hit), max: u64::from(!certain) });
                return hit;
            }
        };
        if let Some(record) = record {
            record.push(u64::from(hit));
        }
        hit
    }

    /// `true` when this source may hand a tie out of `seq` order: a tape
    /// with an order stream, or the enumerating source. A world asks
    /// [`Choices::order`] only then, so a seeded run never pays for a tie.
    #[inline]
    #[must_use]
    pub fn orders_ties(&self) -> bool {
        match self {
            Choices::Seeded { .. } => false,
            Choices::Tape { order, .. } => order.is_some(),
            Choices::Enumerate { .. } => true,
        }
    }

    /// Which of the `ties` events due at one tick runs first, as an index
    /// into their `seq` order: zero, the earliest filed, is the simplest.
    /// The seeded generator answers zero without drawing, as does a tape
    /// without an order stream.
    ///
    /// # Panics
    ///
    /// Debug-panics unless `ties >= 2`.
    pub fn order(&mut self, ties: usize) -> usize {
        debug_assert!(ties >= 2, "an order draw picks among two events or more");
        let max = ties as u64 - 1;
        let value = match self {
            Choices::Seeded { .. } | Choices::Tape { order: None, .. } => return 0,
            Choices::Tape { order: Some(order), .. } => {
                let (entries, ordered) = &mut **order;
                let value = entries.get(ordered.len()).map_or(0, |&entry| entry.min(max));
                ordered.push(value);
                value
            }
            Choices::Enumerate { prefix, log } => {
                let value = prefix.get(log.len()).map_or(0, |&entry| entry.min(max));
                log.push(Draw { order: true, value, max });
                value
            }
        };
        value as usize
    }

    /// The draws made so far, one vector per stream, as a tape replays
    /// them: one stream from the generator (empty unless recording) and
    /// from a tape without an order stream, two — draws, then order — from
    /// a tape with one and from the enumerating source.
    #[must_use]
    pub fn streams(&self) -> Vec<Vec<u64>> {
        match self {
            Choices::Seeded { record, .. } => vec![record.clone().unwrap_or_default()],
            Choices::Tape { drawn, order, .. } => {
                let order = order.as_ref().map(|order| order.1.clone());
                [drawn.clone()].into_iter().chain(order).collect()
            }
            Choices::Enumerate { log, .. } => [false, true]
                .map(|order| log.iter().filter(|d| d.order == order).map(|d| d.value).collect())
                .into(),
        }
    }
}

/// The draws of one run, one stream per draw stream: on a world its draws
/// and, if the tape orders ties, their order; on `W` runtime workers
/// `W + 1` — one per worker, then the scheduler's.
///
/// A *blank* tape asks the run to draw from its seed and record; after a
/// run a tape holds the draws the run made, so recording a run and
/// playing its tape again replays it. Its text form is hex over varints:
/// the stream count, then each stream's length and entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tape {
    /// `None` while blank.
    streams: Option<Vec<Vec<u64>>>,
}

impl Tape {
    /// A blank tape: the run draws from its seed, and the tape records.
    #[must_use]
    pub fn blank() -> Tape {
        Tape::default()
    }

    /// A tape of the given streams.
    #[must_use]
    pub fn new(streams: Vec<Vec<u64>>) -> Tape {
        Tape { streams: Some(streams) }
    }

    /// The streams, in draw-stream order (none while blank).
    #[must_use]
    pub fn streams(&self) -> &[Vec<u64>] {
        self.streams.as_deref().unwrap_or_default()
    }

    /// The source of draw stream `stream`, whose seeded generator starts
    /// from `seed`: that generator, recording, on a blank tape; the
    /// stream's entries (none past the tape's streams) otherwise.
    #[must_use]
    pub fn choices(&self, stream: usize, seed: u64) -> Choices {
        match &self.streams {
            None => Choices::Seeded { rng: StdRng::seed_from_u64(seed), record: Some(Vec::new()) },
            Some(streams) => Choices::Tape {
                entries: streams.get(stream).map_or_else(|| Arc::from([]), |s| Arc::from(&s[..])),
                drawn: Vec::new(),
                order: None,
            },
        }
    }

    /// The source of a world's draws: [`Tape::choices`] of stream 0, and
    /// the order of same-tick events from stream 1 when the tape has one.
    #[must_use]
    pub fn world_choices(&self, seed: u64) -> Choices {
        let mut choices = self.choices(0, seed);
        if let (Choices::Tape { order, .. }, Some(stream)) = (&mut choices, self.streams().get(1)) {
            *order = Some(Box::new((Arc::from(&stream[..]), Vec::new())));
        }
        choices
    }

    /// Keeps what each source of a run drew, in stream order
    /// ([`Choices::streams`]).
    pub fn keep<'a>(&mut self, sources: impl IntoIterator<Item = &'a Choices>) {
        self.streams = Some(sources.into_iter().flat_map(Choices::streams).collect());
    }

    /// The same tape without the trailing zeros of each stream, which a
    /// draw past the end gives anyway.
    #[must_use]
    pub fn trimmed(&self) -> Tape {
        let mut tape = self.clone();
        for stream in tape.streams.iter_mut().flatten() {
            let len = stream.iter().rposition(|&entry| entry != 0).map_or(0, |last| last + 1);
            stream.truncate(len);
        }
        tape
    }
}

impl fmt::Display for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut bytes = Vec::new();
        push_varint(&mut bytes, self.streams().len() as u64);
        for stream in self.streams() {
            push_varint(&mut bytes, stream.len() as u64);
            for &entry in stream {
                push_varint(&mut bytes, entry);
            }
        }
        bytes.iter().try_for_each(|byte| write!(f, "{byte:02x}"))
    }
}

impl FromStr for Tape {
    type Err = String;

    /// Decodes the text form (a blank tape prints as one of no streams).
    fn from_str(hex: &str) -> Result<Tape, String> {
        let bytes = hex_bytes(hex)?;
        let mut cursor = 0;
        let count = read_varint(&bytes, &mut cursor)?;
        let mut streams = Vec::new();
        for _ in 0..count {
            let len = read_varint(&bytes, &mut cursor)?;
            let mut stream = Vec::new();
            for _ in 0..len {
                stream.push(read_varint(&bytes, &mut cursor)?);
            }
            streams.push(stream);
        }
        if cursor != bytes.len() {
            return Err(format!("{} trailing byte(s)", bytes.len() - cursor));
        }
        Ok(Tape::new(streams))
    }
}

/// The bytes of an even-length hex string.
///
/// # Errors
///
/// An odd length or a character that is not a hex digit.
pub fn hex_bytes(hex: &str) -> Result<Vec<u8>, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    (0..hex.len() / 2)
        .map(|i| {
            hex.get(2 * i..2 * i + 2)
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| format!("bad hex at byte {i}"))
        })
        .collect()
}

/// Appends `value` as an LEB128 varint — the integer encoding of both
/// portable forms, a tape's and a scenario's `oc1-` id.
pub fn push_varint(bytes: &mut Vec<u8>, mut value: u64) {
    loop {
        let mut byte = (value & 0x7f) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        bytes.push(byte);
        if value == 0 {
            return;
        }
    }
}

/// Reads one LEB128 varint at `cursor`, advancing it.
///
/// # Errors
///
/// A varint cut short by the end of `bytes`, or longer than 64 bits.
pub fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, String> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = bytes.get(*cursor) else {
            return Err(format!("truncated varint at byte {cursor}"));
        };
        *cursor += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(format!("varint too long at byte {cursor}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn seeded_draws_are_the_generators_ranged_draws() {
        let mut choices = Choices::seeded(7);
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..2_000u64 {
            let max = [0, 1, 9, 999, round, u64::MAX - 1, u64::MAX][(round % 7) as usize];
            let expected = if max == u64::MAX {
                rng.random_range(0..=u64::MAX)
            } else {
                rng.random_range(0..=max)
            };
            assert_eq!(choices.up_to(max), expected);
            let per_mille = (round % 1_001) as u16;
            assert_eq!(
                choices.chance(per_mille),
                rng.random_range(0..1000u32) < u32::from(per_mille)
            );
        }
        assert_eq!(choices.order(5), 0, "the generator keeps ties in seq order");
        assert_eq!(
            choices.streams(),
            [Vec::<u64>::new()],
            "a generator that is not recording keeps nothing"
        );
    }

    #[test]
    fn a_recorded_run_replays_from_its_tape() {
        let mut tape = Tape::blank();
        let mut recorder = tape.choices(0, 11);
        let draws = |choices: &mut Choices| {
            (0..500u64)
                .map(|k| if k % 3 == 0 { u64::from(choices.chance(300)) } else { choices.up_to(k) })
                .collect::<Vec<_>>()
        };
        let recorded = draws(&mut recorder);
        tape.keep([&recorder]);
        assert_eq!(tape.streams().len(), 1);
        let mut player = tape.choices(0, 0);
        assert_eq!(draws(&mut player), recorded);
        assert_eq!(player.streams(), recorder.streams());
    }

    #[test]
    fn zero_is_simplest_and_entries_are_clamped() {
        let tape = Tape::new(vec![vec![0, 0, 5, 9, 1]]);
        let mut choices = tape.choices(0, 0);
        assert_eq!(choices.up_to(10), 0);
        assert!(!choices.chance(999), "zero is no loss");
        assert_eq!(choices.up_to(3), 3, "clamped");
        assert!(choices.chance(1), "a nonzero entry lands the coin");
        assert!(choices.chance(1_000), "a certain coin lands whatever the entry");
        assert_eq!(choices.up_to(10), 0, "past the end");
        assert!(!choices.chance(500), "past the end");
        assert_eq!(choices.order(3), 0, "a tape without an order stream keeps seq order");
        assert_eq!(choices.streams(), [vec![0, 0, 3, 1, 1, 0, 0]]);
        let mut missing = tape.choices(3, 0);
        assert_eq!(missing.up_to(7), 0, "a stream the tape lacks is all zeros");
    }

    #[test]
    fn the_text_form_round_trips_and_refuses_garbage() {
        let tape = Tape::new(vec![vec![0, 1, 300, u64::MAX], vec![], vec![7]]);
        let text = tape.to_string();
        assert_eq!(text.parse::<Tape>(), Ok(tape.clone()));
        assert_eq!(
            Tape::new(vec![vec![3, 0, 0], vec![0]]).trimmed(),
            Tape::new(vec![vec![3], vec![]])
        );
        for garbage in ["zz", "0", "01", "0102", &format!("{text}00")] {
            assert!(garbage.parse::<Tape>().is_err(), "{garbage}");
        }
    }
}
