//! The final report of a runtime session: counters, oracle verdicts and
//! latency summary.

use std::time::Duration;

use oc_sim::{LivenessReport, OracleReport, Violation};

use crate::histogram::LatencySummary;

/// Everything a finished runtime session can tell you.
///
/// Multi-tenant runs ([`crate::Runtime::start_multi`]) aggregate: the
/// counters sum over every namespace, `terminal_token_census` counts one
/// expected token *per namespace*, and the safety/liveness reports fold
/// the per-namespace oracle verdicts (each namespace is judged by its
/// own unmodified `oc_sim` oracle — mutual exclusion is a per-lock
/// property).
///
/// The accounting mirrors the simulator's `Metrics` plus the liveness
/// oracle's bookkeeping: `requests_injected == requests_completed +
/// requests_abandoned` holds for every shutdown, however abrupt — a
/// request abandoned by a crash of its node *or by the shutdown itself*
/// is still terminal, never silently dropped.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Completed critical sections.
    pub cs_entries: u64,
    /// Protocol messages sent (each delayed by its sender, then filed
    /// with the destination's worker).
    pub messages_sent: u64,
    /// Of those, the ones sent from a node of one worker to a node of
    /// another: each crossed a mailbox. Placement alone decides which
    /// do — none when every namespace lives whole on one worker.
    pub messages_crossed: u64,
    /// Commands processed across all workers (deliveries, acquisitions,
    /// leases, crashes) plus timers that fired — a cancelled or
    /// superseded timer is never an event. The runtime's events/s
    /// numerator.
    pub events_processed: u64,
    /// Requests issued (`acquire` calls plus scheduled arrivals).
    pub requests_injected: u64,
    /// Requests that entered (and left) the critical section.
    pub requests_completed: u64,
    /// Requests never served: their node crashed while they waited, they
    /// were issued to a crashed node, or the shutdown cut them off.
    pub requests_abandoned: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Recoveries injected.
    pub recoveries: u64,
    /// Messages destroyed because the destination was down at delivery.
    pub lost_to_crashes: u64,
    /// Messages dropped on the wire by injected link faults (loss windows
    /// and scripted degradation/loss phases).
    pub lost_to_faults: u64,
    /// Messages destroyed at a scripted partition boundary
    /// (`Runtime::start_scripted`).
    pub lost_to_partition: u64,
    /// Extra deliveries injected by the duplicate-delivery fault.
    pub duplicated_deliveries: u64,
    /// Live tokens at shutdown: held by live nodes plus in flight,
    /// summed over every namespace (a settled multi-tenant run reports
    /// exactly `namespaces`). The quantity the conformance suite
    /// compares against the simulator's terminal census.
    pub terminal_token_census: usize,
    /// Independent lock namespaces this runtime served (1 unless started
    /// with [`crate::Runtime::start_multi`]).
    pub namespaces: usize,
    /// `true` if the runtime was settled when shutdown began: no
    /// in-flight work, every request terminal, every live node idle.
    /// When `false`, the liveness report contains `HorizonExhausted` (a
    /// forced shutdown is a cut horizon, not convergence).
    pub drained: bool,
    /// The safety oracle's verdict (mutual exclusion, terminal token
    /// census) — the *unmodified* `oc_sim` oracle, fed from the
    /// runtime's linearized monitor.
    pub safety: OracleReport,
    /// The liveness oracle's verdict over the shutdown horizon — the
    /// same `check_horizon` the simulator uses.
    pub liveness: LivenessReport,
    /// Acquire-to-grant latency summary.
    pub latency: LatencySummary,
    /// Wall-clock time from start to shutdown.
    pub wall: Duration,
}

impl RuntimeReport {
    /// `true` if no two nodes ever overlapped in the critical section.
    #[must_use]
    pub fn mutual_exclusion_held(&self) -> bool {
        !self
            .safety
            .violations()
            .iter()
            .any(|violation| matches!(violation, Violation::MutualExclusion { .. }))
    }

    /// `true` if every safety and liveness oracle passed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.safety.is_clean() && self.liveness.is_clean()
    }

    /// Worker-processed commands per wall-clock second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }
}
