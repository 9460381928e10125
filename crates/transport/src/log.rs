//! Per-process event logs and their post-hoc merge into the safety
//! oracle.
//!
//! A live deployment has no monitor lock to linearize critical-section
//! entries across processes, so judgement moves after the fact: every
//! node process appends [`LogRecord`]s — stamped by its [`crate::Hlc`] —
//! to a private append-only file, the orchestrator synthesizes `Crash`
//! records at each SIGKILL, and [`merge`] orders the union by stamp into
//! one linearization consistent with causality. [`replay`] then feeds
//! that sequence to the **unmodified** `oc_sim::Oracle`, exactly as the
//! in-process runtime feeds its monitor records.
//!
//! Why this stays sound under SIGKILL:
//!
//! * an `EnterCs` record is flushed to disk *before* the grant is
//!   actioned, so every CS entry that could have happened is on disk;
//! * a missing `ExitCs` tail (the process died inside or just after the
//!   CS) is covered by the orchestrator's synthesized `Crash` record,
//!   and [`Oracle::exit_cs`] is a no-op for non-occupants, so the
//!   synthetic record can never poison a replay;
//! * a torn final record (killed mid-`write`) is detected by the length
//!   check and dropped — only the unflushed suffix of the dead process's
//!   history is lost, which the crash semantics already declare lost —
//!   and [`LogWriter::open`] cuts it off before the next incarnation
//!   appends, so every record after it stays whole and aligned.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use oc_sim::{Oracle, OracleReport, SimTime};
use oc_topology::NodeId;

use crate::hlc::Stamp;

/// One record of a node process's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    /// The node entered the critical section under `epoch`.
    EnterCs {
        /// The entering node's HLC stamp at entry.
        stamp: Stamp,
        /// The entering node (1-based).
        node: u32,
        /// Token epoch of the entry (0 outside hardened modes).
        epoch: u64,
    },
    /// The node left the critical section.
    ExitCs {
        /// The leaving node's stamp.
        stamp: Stamp,
        /// The leaving node.
        node: u32,
    },
    /// The node restarted after a crash and re-joined.
    Recover {
        /// The recovering node's stamp.
        stamp: Stamp,
        /// The recovering node.
        node: u32,
    },
    /// Orchestrator-synthesized: the node's process was killed at this
    /// moment (orchestrator clock, node 0). Replayed as an exit so a CS
    /// that died with its occupant is vacated.
    Crash {
        /// The orchestrator's stamp at the kill.
        stamp: Stamp,
        /// The killed node.
        node: u32,
    },
}

impl LogRecord {
    /// The record's HLC stamp — the merge key.
    #[must_use]
    pub fn stamp(&self) -> Stamp {
        match *self {
            LogRecord::EnterCs { stamp, .. }
            | LogRecord::ExitCs { stamp, .. }
            | LogRecord::Recover { stamp, .. }
            | LogRecord::Crash { stamp, .. } => stamp,
        }
    }
}

const REC_ENTER: u8 = 1;
const REC_EXIT: u8 = 2;
const REC_RECOVER: u8 = 3;
const REC_CRASH: u8 = 4;

/// Fixed record size on disk: tag + stamp + node + epoch (the epoch is
/// written as 0 for variants that have none, keeping records
/// fixed-width so a torn tail is detected by a simple length check).
pub const REC_LEN: usize = 1 + Stamp::WIRE_LEN + 4 + 8;

/// The bytes of a `len`-byte log that hold whole records: what is left
/// once a torn tail is cut off.
#[must_use]
pub fn whole_len(len: u64) -> u64 {
    len - len % REC_LEN as u64
}

pub(crate) fn encode_record(rec: &LogRecord) -> [u8; REC_LEN] {
    let (tag, stamp, node, epoch) = match *rec {
        LogRecord::EnterCs { stamp, node, epoch } => (REC_ENTER, stamp, node, epoch),
        LogRecord::ExitCs { stamp, node } => (REC_EXIT, stamp, node, 0),
        LogRecord::Recover { stamp, node } => (REC_RECOVER, stamp, node, 0),
        LogRecord::Crash { stamp, node } => (REC_CRASH, stamp, node, 0),
    };
    let mut buf = [0u8; REC_LEN];
    buf[0] = tag;
    let mut body = Vec::with_capacity(Stamp::WIRE_LEN);
    stamp.encode_into(&mut body);
    buf[1..1 + Stamp::WIRE_LEN].copy_from_slice(&body);
    buf[17..21].copy_from_slice(&node.to_le_bytes());
    buf[21..29].copy_from_slice(&epoch.to_le_bytes());
    buf
}

fn decode_record(buf: &[u8; REC_LEN]) -> Option<LogRecord> {
    let stamp = Stamp::decode(buf[1..1 + Stamp::WIRE_LEN].try_into().expect("16 bytes"));
    let node = u32::from_le_bytes(buf[17..21].try_into().expect("4 bytes"));
    let epoch = u64::from_le_bytes(buf[21..29].try_into().expect("8 bytes"));
    match buf[0] {
        REC_ENTER => Some(LogRecord::EnterCs { stamp, node, epoch }),
        REC_EXIT => Some(LogRecord::ExitCs { stamp, node }),
        REC_RECOVER => Some(LogRecord::Recover { stamp, node }),
        REC_CRASH => Some(LogRecord::Crash { stamp, node }),
        _ => None,
    }
}

/// An append-only log writer; every append is flushed before it returns
/// so a SIGKILL can only lose records the caller has not yet acted on.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
}

impl LogWriter {
    /// Opens (appending) or creates the log at `path`. A torn tail — the
    /// part of a record a killed incarnation was writing — is cut off
    /// first, so what this writer appends starts on a record boundary.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        if whole_len(len) != len {
            file.set_len(whole_len(len))?;
        }
        Ok(LogWriter { file })
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn append(&mut self, rec: &LogRecord) -> io::Result<()> {
        self.append_encoded(&encode_record(rec))
    }

    /// Appends one record already encoded and flushes it to the OS.
    pub(crate) fn append_encoded(&mut self, record: &[u8]) -> io::Result<()> {
        debug_assert_eq!(record.len(), REC_LEN, "one whole record per append");
        self.file.write_all(record)?;
        self.file.flush()
    }
}

/// Reads every complete record of a log file in one pass; a torn tail
/// (the writer was SIGKILLed mid-record) or an unknown tag ends the read
/// at the last intact record instead of failing the whole merge.
///
/// # Errors
///
/// Propagates filesystem errors (a missing file is an error — the
/// orchestrator creates each log before spawning its node).
pub fn read_log(path: &Path) -> io::Result<Vec<LogRecord>> {
    Ok(decode_log(&std::fs::read(path)?))
}

/// [`read_log`] over a log's bytes already in memory.
#[must_use]
pub fn decode_log(bytes: &[u8]) -> Vec<LogRecord> {
    let mut records = Vec::with_capacity(bytes.len() / REC_LEN);
    // `chunks_exact` leaves a partial record, a torn tail, unread.
    records.extend(
        bytes
            .chunks_exact(REC_LEN)
            .map_while(|chunk| decode_record(chunk.try_into().expect("REC_LEN bytes"))),
    );
    records
}

/// A record's stamp as one integer that orders as the stamp does:
/// `(wall_ns, logical, node)` lexicographically.
fn merge_key(rec: &LogRecord) -> u128 {
    let stamp = rec.stamp();
    u128::from(stamp.wall_ns) << 64 | u128::from(stamp.logical) << 32 | u128::from(stamp.node)
}

/// Merges per-process logs into one stamp-ordered linearization.
///
/// The HLC guarantees causally ordered events carry increasing stamps,
/// so this order is consistent with causality; concurrent events land in
/// the deterministic `(wall, logical, node)` tie-break order, and records
/// with equal stamps keep the order of `logs`, then of each log — the
/// order a stable sort of the concatenation gives.
///
/// Each process appends in stamp order, so the logs are merged as sorted
/// runs: a heap of one head per log, keyed by `merge_key` computed once
/// per record. A log that is out of order is stably sorted first.
#[must_use]
pub fn merge(mut logs: Vec<Vec<LogRecord>>) -> Vec<LogRecord> {
    for log in &mut logs {
        if !log.is_sorted_by_key(merge_key) {
            log.sort_by_key(merge_key);
        }
    }
    let mut merged = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    let mut next = vec![0usize; logs.len()];
    let mut heads: BinaryHeap<Reverse<(u128, usize)>> = logs
        .iter()
        .enumerate()
        .filter_map(|(k, log)| log.first().map(|rec| Reverse((merge_key(rec), k))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, k)) = *head;
        merged.push(logs[k][next[k]]);
        next[k] += 1;
        match logs[k].get(next[k]) {
            Some(rec) => *head = Reverse((merge_key(rec), k)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
}

/// The verdict of a post-hoc replay.
#[derive(Debug)]
pub struct Replay {
    /// The safety oracle's report over the merged linearization.
    pub safety: OracleReport,
    /// Critical-section entries witnessed (the deployment's `served`).
    pub served: u64,
    /// Crash records replayed.
    pub crashes: u64,
    /// Recover records replayed.
    pub recoveries: u64,
}

/// Replays a merged log through a fresh, unmodified [`Oracle`].
///
/// Timestamps are re-based to the first record's wall clock so the
/// `SimTime`s in any violation report read as nanoseconds into the run.
/// `final_census` is the terminal token count the orchestrator assembled
/// from the nodes' status answers (holders among live nodes), judged by
/// the same `token_census` entry point the runtime uses at shutdown.
#[must_use]
pub fn replay(records: &[LogRecord], final_census: usize) -> Replay {
    let mut oracle = Oracle::new();
    let base = records.first().map_or(0, |r| r.stamp().wall_ns);
    let mut at = SimTime::ZERO;
    let mut served = 0u64;
    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    for rec in records {
        at = SimTime::from_ticks(rec.stamp().wall_ns.saturating_sub(base));
        match *rec {
            LogRecord::EnterCs { node, epoch, .. } => {
                oracle.enter_cs(at, NodeId::new(node), epoch);
                served += 1;
            }
            LogRecord::ExitCs { node, .. } => oracle.exit_cs(NodeId::new(node)),
            LogRecord::Crash { node, .. } => {
                // Vacate whatever the dead process occupied; a no-op if
                // it was not in the CS.
                oracle.exit_cs(NodeId::new(node));
                crashes += 1;
            }
            LogRecord::Recover { .. } => recoveries += 1,
        }
    }
    oracle.token_census(at, final_census);
    Replay { safety: oracle.report().clone(), served, crashes, recoveries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(wall: u64, node: u32) -> Stamp {
        Stamp { wall_ns: wall, logical: 0, node }
    }

    #[test]
    fn write_read_round_trip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("oc-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node-1.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LogWriter::open(&path).unwrap();
            w.append(&LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 2 }).unwrap();
            w.append(&LogRecord::ExitCs { stamp: st(20, 1), node: 1 }).unwrap();
            w.append(&LogRecord::Recover { stamp: st(30, 1), node: 1 }).unwrap();
        }
        // Simulate a SIGKILL mid-record: append half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[REC_ENTER, 1, 2, 3]).unwrap();
        }
        let records = read_log(&path).unwrap();
        assert_eq!(records.len(), 3, "torn tail must be dropped");
        assert_eq!(records[0], LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 2 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_orders_by_stamp_across_logs() {
        let a = vec![
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 0 },
            LogRecord::ExitCs { stamp: st(30, 1), node: 1 },
        ];
        let b = vec![
            LogRecord::EnterCs { stamp: st(40, 2), node: 2, epoch: 0 },
            LogRecord::ExitCs { stamp: st(50, 2), node: 2 },
        ];
        let merged = merge(vec![b, a]);
        assert_eq!(merged.len(), 4);
        assert!(merged.windows(2).all(|w| w[0].stamp() <= w[1].stamp()));
    }

    #[test]
    fn a_log_cut_at_any_byte_reads_as_its_whole_records() {
        let dir = std::env::temp_dir().join(format!("oc-log-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records = [
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: u64::MAX },
            LogRecord::ExitCs { stamp: st(20, 1), node: 1 },
            LogRecord::Recover { stamp: st(30, 1), node: 1 },
            LogRecord::Crash { stamp: st(40, 0), node: 1 },
        ];
        let whole = dir.join("whole.log");
        let _ = std::fs::remove_file(&whole);
        {
            let mut w = LogWriter::open(&whole).unwrap();
            for rec in &records {
                w.append(rec).unwrap();
            }
        }
        let bytes = std::fs::read(&whole).unwrap();
        assert_eq!(bytes.len(), records.len() * REC_LEN);
        let cut = dir.join("cut.log");
        let next = LogRecord::Recover { stamp: st(50, 1), node: 1 };
        for len in 0..=bytes.len() {
            std::fs::write(&cut, &bytes[..len]).unwrap();
            let read = read_log(&cut).unwrap_or_else(|e| panic!("cut at {len}: {e}"));
            assert_eq!(read, records[..len / REC_LEN], "cut at byte {len}");
            // The next incarnation appends after the cut: its record
            // follows the whole ones, on a record boundary.
            LogWriter::open(&cut).unwrap().append(&next).unwrap();
            let mut expected = records[..len / REC_LEN].to_vec();
            expected.push(next);
            assert_eq!(read_log(&cut).unwrap(), expected, "append after a cut at byte {len}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The merge this module used to do: concatenate, then stable-sort
    /// by stamp.
    fn merge_by_sorting(logs: Vec<Vec<LogRecord>>) -> Vec<LogRecord> {
        let mut all: Vec<LogRecord> = logs.into_iter().flatten().collect();
        all.sort_by_key(LogRecord::stamp);
        all
    }

    #[test]
    fn merging_sorted_logs_equals_sorting_their_concatenation() {
        // splitmix64: deterministic cases without a generator crate.
        let mut state = 0x0c0f_fee5_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..500 {
            let processes = 1 + next(9) as usize;
            let logs: Vec<Vec<LogRecord>> = (0..processes)
                .map(|p| {
                    // Few distinct walls, so stamps collide across
                    // processes; a stamp's node is drawn from a small set
                    // (the orchestrator's log stamps as node 0), so whole
                    // stamps collide too and only stability orders them.
                    let mut wall = 0;
                    (0..next(40))
                        .map(|k| {
                            wall += next(3);
                            let stamp = Stamp {
                                wall_ns: wall,
                                logical: next(2) as u32,
                                node: next(3) as u32,
                            };
                            let node = (p * 100 + k as usize) as u32;
                            match next(4) {
                                0 => LogRecord::EnterCs { stamp, node, epoch: k },
                                1 => LogRecord::ExitCs { stamp, node },
                                2 => LogRecord::Recover { stamp, node },
                                _ => LogRecord::Crash { stamp, node },
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .map(|mut log| {
                    log.sort_by_key(LogRecord::stamp);
                    log
                })
                .collect();
            assert_eq!(merge(logs.clone()), merge_by_sorting(logs), "case {case}");
        }
    }

    #[test]
    fn an_unsorted_log_merges_as_the_sort_would() {
        let a = vec![
            LogRecord::ExitCs { stamp: st(30, 1), node: 1 },
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 0 },
        ];
        let b = vec![LogRecord::EnterCs { stamp: st(20, 2), node: 2, epoch: 0 }];
        let logs = vec![a, b];
        assert_eq!(merge(logs.clone()), merge_by_sorting(logs));
    }

    #[test]
    fn replay_is_clean_for_serial_history_and_flags_overlap() {
        let serial = vec![
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 0 },
            LogRecord::ExitCs { stamp: st(20, 1), node: 1 },
            LogRecord::EnterCs { stamp: st(30, 2), node: 2, epoch: 0 },
            LogRecord::ExitCs { stamp: st(40, 2), node: 2 },
        ];
        let verdict = replay(&serial, 1);
        assert!(verdict.safety.is_clean());
        assert_eq!(verdict.served, 2);

        let overlap = vec![
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 0 },
            LogRecord::EnterCs { stamp: st(15, 2), node: 2, epoch: 0 },
            LogRecord::ExitCs { stamp: st(20, 1), node: 1 },
            LogRecord::ExitCs { stamp: st(25, 2), node: 2 },
        ];
        assert!(!replay(&overlap, 1).safety.is_clean());
    }

    #[test]
    fn crash_record_vacates_a_dead_occupant() {
        let history = vec![
            LogRecord::EnterCs { stamp: st(10, 1), node: 1, epoch: 0 },
            // SIGKILL inside the CS: no ExitCs was ever flushed.
            LogRecord::Crash { stamp: st(20, 0), node: 1 },
            LogRecord::Recover { stamp: st(25, 1), node: 1 },
            LogRecord::EnterCs { stamp: st(30, 2), node: 2, epoch: 0 },
            LogRecord::ExitCs { stamp: st(40, 2), node: 2 },
        ];
        let verdict = replay(&history, 1);
        assert!(verdict.safety.is_clean(), "{:?}", verdict.safety);
        assert_eq!((verdict.served, verdict.crashes, verdict.recoveries), (2, 1, 1));
    }
}
