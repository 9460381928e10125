//! Hybrid logical clock (HLC) — the merge order of per-process event
//! logs.
//!
//! Each node process stamps its log records and outgoing messages with a
//! [`Stamp`]: physical wall time (nanoseconds since the Unix epoch)
//! paired with a logical counter. Receipt of a peer's stamp advances the
//! local clock past it ([`Hlc::observe`]), so causally ordered events
//! always carry increasing stamps even when the processes' wall clocks
//! disagree by more than a message flight time. Sorting the union of all
//! logs by `(wall, logical, node)` therefore yields a linearization
//! consistent with causality — the order the unmodified `oc-sim` safety
//! oracle judges post hoc, playing the same role the runtime's monitor
//! lock plays live.
//!
//! (All processes of one deployment share a machine, so the physical
//! component is nearly synchronized anyway; the logical component exists
//! to break ties and to absorb the scheduler-induced cases where a
//! message is processed within the sender's clock granularity.)

use std::time::{SystemTime, UNIX_EPOCH};

/// One hybrid-logical-clock timestamp. Total order: `(wall_ns, logical,
/// node)` lexicographically — `node` only breaks the tie between
/// genuinely concurrent events, deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    /// Physical component: nanoseconds since the Unix epoch, as observed
    /// (or inherited) when the stamp was issued.
    pub wall_ns: u64,
    /// Logical component: resets when the wall clock advances, increments
    /// while it stands still or runs behind an observed stamp.
    pub logical: u32,
    /// The issuing node (1-based protocol id; 0 = the orchestrator).
    pub node: u32,
}

impl Stamp {
    /// Wire encoding: 16 bytes, little-endian fields in order.
    pub const WIRE_LEN: usize = 16;

    /// Appends the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.wall_ns.to_le_bytes());
        out.extend_from_slice(&self.logical.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
    }

    /// Decodes a stamp from exactly [`Stamp::WIRE_LEN`] bytes.
    #[must_use]
    pub fn decode(bytes: &[u8; Self::WIRE_LEN]) -> Stamp {
        Stamp {
            wall_ns: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            logical: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            node: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
        }
    }
}

/// The clock state one process owns.
#[derive(Debug)]
pub struct Hlc {
    node: u32,
    wall_ns: u64,
    logical: u32,
}

/// The host's wall clock, in nanoseconds since the Unix epoch — the
/// physical reading the node process's OS end hands its clock.
pub(crate) fn physical_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

impl Hlc {
    /// A fresh clock owned by `node`.
    #[must_use]
    pub fn new(node: u32) -> Self {
        Hlc { node, wall_ns: 0, logical: 0 }
    }

    /// Issues a stamp for a local event (a send, a log record): the
    /// maximum of physical now and the last issued stamp, logical
    /// incremented on a standstill.
    pub fn tick(&mut self) -> Stamp {
        self.tick_at(physical_now())
    }

    /// [`Hlc::tick`] with the physical reading `now` (nanoseconds) given
    /// by the caller: the host's clock, or a simulator's virtual time.
    pub fn tick_at(&mut self, now: u64) -> Stamp {
        if now > self.wall_ns {
            self.wall_ns = now;
            self.logical = 0;
        } else {
            self.logical = self.logical.saturating_add(1);
        }
        Stamp { wall_ns: self.wall_ns, logical: self.logical, node: self.node }
    }

    /// Merges a received stamp and issues the stamp for the receipt
    /// event, guaranteed greater than both the remote stamp and every
    /// stamp this clock issued before.
    pub fn observe(&mut self, remote: Stamp) -> Stamp {
        self.observe_at(remote, physical_now())
    }

    /// [`Hlc::observe`] with the physical reading `now` given by the
    /// caller.
    pub fn observe_at(&mut self, remote: Stamp, now: u64) -> Stamp {
        let local = (self.wall_ns, self.logical);
        let theirs = (remote.wall_ns, remote.logical);
        if now > local.0.max(theirs.0) {
            self.wall_ns = now;
            self.logical = 0;
        } else if theirs > local {
            self.wall_ns = remote.wall_ns;
            self.logical = remote.logical.saturating_add(1);
        } else {
            self.logical = self.logical.saturating_add(1);
        }
        Stamp { wall_ns: self.wall_ns, logical: self.logical, node: self.node }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_stamps_are_strictly_increasing() {
        let mut clock = Hlc::new(3);
        let mut last = clock.tick();
        for _ in 0..10_000 {
            let next = clock.tick();
            assert!(next > last, "{next:?} !> {last:?}");
            last = next;
        }
    }

    #[test]
    fn observe_dominates_a_future_remote_clock() {
        let mut clock = Hlc::new(1);
        let ahead = Stamp { wall_ns: physical_now() + 5_000_000_000, logical: 7, node: 2 };
        let receipt = clock.observe(ahead);
        assert!(receipt > ahead, "receipt must be ordered after the send");
        assert_eq!(receipt.node, 1);
        // And subsequent local stamps stay ahead of the inherited wall.
        let next = clock.tick();
        assert!(next > receipt);
    }

    #[test]
    fn stamp_wire_round_trip_preserves_order() {
        let a = Stamp { wall_ns: 42, logical: 9, node: 3 };
        let b = Stamp { wall_ns: 42, logical: 9, node: 4 };
        assert!(a < b);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), Stamp::WIRE_LEN);
        let decoded = Stamp::decode(&buf[..].try_into().unwrap());
        assert_eq!(decoded, a);
    }
}
