//! Optional event tracing, for the worked-example tests (paper §3.2, §5)
//! and for debugging.

use core::fmt;

use oc_topology::NodeId;

use crate::{metrics::MsgKind, time::SimTime};

/// One recorded simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A message was sent.
    Send {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message kind.
        kind: MsgKind,
        /// Debug rendering of the payload.
        desc: String,
    },
    /// A message was delivered.
    Deliver {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message kind.
        kind: MsgKind,
        /// Debug rendering of the payload.
        desc: String,
    },
    /// A node entered the critical section.
    EnterCs(NodeId),
    /// A node left the critical section.
    ExitCs(NodeId),
    /// A node crashed.
    Crash(NodeId),
    /// A node recovered.
    Recover(NodeId),
}

/// A time-ordered log of [`TraceRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<(SimTime, TraceRecord)>,
    enabled: bool,
}

impl Trace {
    /// Creates a trace; records are only kept when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Trace { records: Vec::new(), enabled }
    }

    /// Empties the trace and turns it on or off, as [`Trace::new`] would,
    /// keeping the record buffer's capacity.
    pub(crate) fn reset(&mut self, enabled: bool) {
        self.records.clear();
        self.enabled = enabled;
    }

    /// Appends a record (no-op when disabled).
    pub fn push(&mut self, at: SimTime, record: TraceRecord) {
        if self.enabled {
            self.records.push((at, record));
        }
    }

    /// All records in time order.
    #[must_use]
    pub fn records(&self) -> &[(SimTime, TraceRecord)] {
        &self.records
    }

    /// The subsequence of CS entries, in order — the service order of the
    /// mutual exclusion, for fairness checks.
    pub fn cs_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.records.iter().filter_map(|(_, r)| match r {
            TraceRecord::EnterCs(n) => Some(*n),
            _ => None,
        })
    }

    /// `true` if tracing is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A stable 64-bit FNV-1a hash over an explicit byte encoding of every
    /// record — the determinism fingerprint of a run.
    ///
    /// Two runs with equal configuration and seed must produce equal
    /// hashes; the engine's golden tests pin this. The encoding is defined here (tag byte, then
    /// fields little-endian, strings length-prefixed), not derived from
    /// `Debug` formatting, so incidental formatting changes cannot shift
    /// the fingerprint.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        fn eat(h: &mut crate::hash::Fnv64, bytes: &[u8]) {
            h.write(bytes);
        }
        fn eat_node(h: &mut crate::hash::Fnv64, n: NodeId) {
            eat(h, &n.get().to_le_bytes());
        }
        let mut h = crate::hash::Fnv64::new();
        for (at, record) in &self.records {
            eat(&mut h, &at.ticks().to_le_bytes());
            match record {
                TraceRecord::Send { from, to, kind, desc } => {
                    eat(&mut h, &[0x01, *kind as u8]);
                    eat_node(&mut h, *from);
                    eat_node(&mut h, *to);
                    eat(&mut h, &(desc.len() as u64).to_le_bytes());
                    eat(&mut h, desc.as_bytes());
                }
                TraceRecord::Deliver { from, to, kind, desc } => {
                    eat(&mut h, &[0x02, *kind as u8]);
                    eat_node(&mut h, *from);
                    eat_node(&mut h, *to);
                    eat(&mut h, &(desc.len() as u64).to_le_bytes());
                    eat(&mut h, desc.as_bytes());
                }
                TraceRecord::EnterCs(n) => {
                    eat(&mut h, &[0x03]);
                    eat_node(&mut h, *n);
                }
                TraceRecord::ExitCs(n) => {
                    eat(&mut h, &[0x04]);
                    eat_node(&mut h, *n);
                }
                TraceRecord::Crash(n) => {
                    eat(&mut h, &[0x05]);
                    eat_node(&mut h, *n);
                }
                TraceRecord::Recover(n) => {
                    eat(&mut h, &[0x06]);
                    eat_node(&mut h, *n);
                }
            }
        }
        h.finish()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (at, record) in &self.records {
            match record {
                TraceRecord::Send { from, to, desc, .. } => {
                    writeln!(f, "[{at:>8}] {from} -> {to} : send {desc}")?;
                }
                TraceRecord::Deliver { from, to, desc, .. } => {
                    writeln!(f, "[{at:>8}] {to} <- {from} : recv {desc}")?;
                }
                TraceRecord::EnterCs(n) => writeln!(f, "[{at:>8}] {n} ENTERS CS")?,
                TraceRecord::ExitCs(n) => writeln!(f, "[{at:>8}] {n} exits CS")?,
                TraceRecord::Crash(n) => writeln!(f, "[{at:>8}] {n} CRASHES")?,
                TraceRecord::Recover(n) => writeln!(f, "[{at:>8}] {n} recovers")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.push(SimTime::ZERO, TraceRecord::EnterCs(NodeId::new(1)));
        assert!(t.records().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn cs_order_extracts_entries() {
        let mut t = Trace::new(true);
        t.push(SimTime::from_ticks(1), TraceRecord::EnterCs(NodeId::new(3)));
        t.push(SimTime::from_ticks(2), TraceRecord::ExitCs(NodeId::new(3)));
        t.push(SimTime::from_ticks(3), TraceRecord::EnterCs(NodeId::new(7)));
        let order: Vec<NodeId> = t.cs_order().collect();
        assert_eq!(order, vec![NodeId::new(3), NodeId::new(7)]);
    }

    #[test]
    fn display_renders_lines() {
        let mut t = Trace::new(true);
        t.push(
            SimTime::from_ticks(5),
            TraceRecord::Send {
                from: NodeId::new(1),
                to: NodeId::new(2),
                kind: MsgKind::Request,
                desc: "request(1)".into(),
            },
        );
        let text = t.to_string();
        assert!(text.contains("1 -> 2"));
        assert!(text.contains("request(1)"));
    }
}
