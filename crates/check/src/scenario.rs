//! Scenario encoding, generation, and the portable `oc1-…` scenario ID.
//!
//! A scenario's faults are one fault program: [`Scenario::phases`], the
//! very [`oc_sim::FaultPhase`]s the substrates run. Its link-fault
//! window is simply a leading `LossDup` phase, which the `oc1-` header's
//! four link-fault slots encode; the optional phase section after the
//! crash list encodes the rest.

use oc_algo::{Config, Hardening, Mutation};
use oc_sim::{
    ArrivalSchedule, FailurePlan, FaultPhase, FaultPhaseKind, FaultScript, SimDuration, SimTime,
};
use oc_topology::NodeId;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::scenario_seed;

/// One scheduled crash of the scenario, with an optional recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioCrash {
    /// The crashing node (1-based).
    pub node: u32,
    /// Crash time, in ticks.
    pub at: u64,
    /// Recovery time, in ticks (strictly after `at`), or `None` for a
    /// permanent failure.
    pub recover_at: Option<u64>,
}

/// A complete, concrete adversarial scenario.
///
/// Everything the run needs is materialized here — the arrival list and
/// crash plan are data, not generator parameters — so a scenario can be
/// shrunk event by event and replayed from its [`Scenario::id`] alone,
/// independent of the generator version that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// System size (a power of two, ≥ 2).
    pub n: usize,
    /// The simulator's RNG seed (delay draws, fault draws).
    pub seed: u64,
    /// Minimum per-message delay, ticks.
    pub delay_min: u64,
    /// Maximum per-message delay — the δ the protocol timeouts use.
    pub delay_max: u64,
    /// Critical-section duration (and the protocol's CS estimate `e`).
    pub cs_ticks: u64,
    /// Contention slack added to the suspicion timeouts.
    pub contention_slack: u64,
    /// Event cap: the liveness horizon's backstop.
    pub max_events: u64,
    /// The workload: `(tick, node)` CS requests.
    pub arrivals: Vec<(u64, u32)>,
    /// The failure plan.
    pub crashes: Vec<ScenarioCrash>,
    /// The fault program, applied in order — script order is draw order.
    /// A leading `LossDup` phase is the link-fault window (uniform loss
    /// and duplication); the phases after it are scripted partitions,
    /// splits and degradations, which only a space with
    /// [`Space::partitions`] samples. A scenario without them encodes to
    /// exactly the pre-extension `oc1-` byte stream, so old IDs decode,
    /// re-encode, and replay unchanged.
    pub phases: Vec<FaultPhase>,
}

/// Bounds of the scenario space [`Scenario::generate`] samples from.
#[derive(Debug, Clone)]
pub struct Space {
    /// System sizes to draw from (each a power of two ≥ 2).
    pub sizes: Vec<usize>,
    /// Largest workload, in arrivals.
    pub max_arrivals: usize,
    /// Largest crash plan.
    pub max_crashes: usize,
    /// Sample message loss in the link-fault windows. **Off by default**:
    /// loss between live nodes violates the reliable-channel assumption
    /// the algorithm's safety argument needs, so lossy scenarios are
    /// oracle-sensitivity probes, not soundness checks (see DESIGN.md,
    /// "Fault model soundness"). Duplicate delivery is always sampled:
    /// it is sound for every non-token message.
    pub allow_loss: bool,
    /// Sample crash plans whose downtimes may *overlap* (several nodes
    /// dead at once, permanent failures in the middle of the plan).
    /// **Off by default**: the paper's fault model and evaluation (the
    /// iPSC/2 experiment, E3) are *repeated single failures* — the system
    /// heals between consecutive crashes. Overlapping failure waves step
    /// outside the algorithm's claims, and the explorer has concrete
    /// counterexamples (concurrent full-sweep searches double-minting the
    /// token) showing regeneration is genuinely racy there — see
    /// EXPERIMENTS.md. Like loss, this mode is a probe, not a soundness
    /// check.
    pub overlapping_crashes: bool,
    /// Sample scripted partition/heal phases (p-group cuts, arbitrary
    /// splits, one-way degradation). **Off by default** so the default
    /// space's scenarios stay byte-identical across releases. When on,
    /// the sampled phases stay in the *serial healed* regime: every cut
    /// heals well inside the suspicion budget, so no node can falsely
    /// conclude a death while the partition stands — what the cut
    /// *dropped* is then repaired by the Section 5 machinery after the
    /// heal, the same soundness argument as short loss windows. Arbitrary
    /// (long/permanent) cuts live behind `overlapping_crashes`.
    pub partitions: bool,
    /// Per-scenario event cap.
    pub max_events: u64,
}

impl Default for Space {
    fn default() -> Self {
        Space {
            sizes: vec![2, 4, 8, 16, 32],
            max_arrivals: 40,
            max_crashes: 5,
            allow_loss: false,
            overlapping_crashes: false,
            partitions: false,
            max_events: 2_000_000,
        }
    }
}

/// Largest system size [`Scenario::from_id`] accepts — the engine's
/// demonstrated scale ceiling (E7 runs n = 2^20). A corrupted or
/// hand-edited ID beyond it is rejected instead of letting the replay
/// tool build a world of unbounded size.
pub const MAX_DECODED_N: usize = 1 << 20;

/// Largest tick value [`Scenario::from_id`] accepts for the delay
/// envelope, the CS length, the contention slack and every arrival,
/// crash and recovery instant. The generator and the mutator stay in
/// the millions; 2^40 keeps the engine's own arithmetic — timeouts of a
/// few hundred δ plus the slack, added to instants like these — far
/// inside `u64`, which a hostile ID would otherwise overflow. A phase's
/// `until` is exempt: `u64::MAX` is a cut that never heals.
pub const MAX_DECODED_TICKS: u64 = 1 << 40;

impl Scenario {
    /// Derives the `index`-th scenario of `space` under `master` — a pure
    /// function: equal triples give equal scenarios.
    #[must_use]
    pub fn generate(space: &Space, master: u64, index: u64) -> Scenario {
        let seed = scenario_seed(master, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = space.sizes[rng.random_range(0..space.sizes.len())];
        let delay_max = rng.random_range(2..=25u64);
        let delay_min = rng.random_range(1..=delay_max);
        let cs_ticks = rng.random_range(10..=80u64);
        let arrival_count = rng.random_range(1..=space.max_arrivals.max(1));
        let crash_count = rng.random_range(0..=space.max_crashes);
        // Workload heat. Crash-free scenarios run the full range down to
        // saturating (gap of one tick); crash scenarios in the default
        // space stay in the paper's E3 envelope (a request gap of many CS
        // lengths — the iPSC/2 experiment used 40×). The hot quadrant
        // (saturating load × failures) lives behind `overlapping_crashes`:
        // the explorer showed that when the token dies with several
        // claims outstanding, concurrent `search_father` sweeps race and
        // can double-regenerate or mutually spin — an open corner of the
        // paper's regeneration story, documented in EXPERIMENTS.md, not a
        // regression gate.
        let pmax = u64::from(oc_topology::dimension(n));
        // Crash-scenario slack and gap are coupled: recovery is serial
        // (hence sound) exactly when a failure is suspected and repaired
        // *before the next request arrives* — the regime of the paper's
        // iPSC/2 experiment, where the suspicion timeout (~1.1k ticks)
        // sits well under the request gap (2k ticks). A generous slack
        // with a tight gap instead lets claims pile up behind a dead
        // token, and the accumulated claimants' concurrent searches
        // re-parent each other forever (the explorer's merry-go-round
        // livelock — see EXPERIMENTS.md). The hot quadrant stays probed
        // via `overlapping_crashes`.
        let crash_slack = cs_ticks + 4 * delay_max;
        // Repair latency ≈ suspicion timeout + a full sweep where each
        // ring can see a few try-later re-probe rounds; the factor of two
        // covers the recovered node's own re-join search on top.
        let serial_gap_floor = 2
            * (2 * pmax * delay_max
                + crash_slack
                + 4 * (pmax + 1) * (2 * delay_max + 1)
                + cs_ticks);
        let gap = if crash_count > 0 && !space.overlapping_crashes {
            SimDuration::from_ticks(rng.random_range(serial_gap_floor..=6 * serial_gap_floor))
        } else {
            SimDuration::from_ticks(rng.random_range(1..=4 * cs_ticks))
        };

        // The workload shapes of the paper's experiments, materialized.
        let schedule = match rng.random_range(0..4u32) {
            // Each node requests once, in a random order — the setting of
            // Section 4's average-case analysis.
            0 => ArrivalSchedule::every_node_once(&mut rng, n, gap),
            1 => ArrivalSchedule::uniform(&mut rng, n, arrival_count, gap),
            // One node issues most requests — the adaptivity claim.
            2 => {
                let hot = [NodeId::new(rng.random_range(1..=n as u32))];
                ArrivalSchedule::hotspot(&mut rng, n, &hot, 0.9, arrival_count, gap)
            }
            // The deepest node of the canonical cube requests
            // repeatedly — Section 4's worst case.
            _ => ArrivalSchedule::repeated(NodeId::new(n as u32), arrival_count, gap),
        };
        let arrivals: Vec<(u64, u32)> =
            schedule.arrivals().iter().map(|(at, node)| (at.ticks(), node.get())).collect();
        let span = arrivals.last().map_or(1, |(at, _)| at.max(&1) * 2);

        // Suspicion slack. Crash-free scenarios size it to the backlog a
        // saturating workload can build up (queueing behind other
        // critical sections), so timeouts fire on genuine failures, not
        // on contention — the paper's bare `2·pmax·δ` budgets transit
        // only, see E6. Crash scenarios keep it small so suspicion stays
        // under the request gap (see above).
        let contention_slack = if crash_count > 0 && !space.overlapping_crashes {
            crash_slack
        } else {
            (arrivals.len() as u64 + 4) * (cs_ticks + 2 * (pmax + 1) * delay_max)
        };

        // Time the system needs to settle after a recovery before the
        // next failure: the suspicion timeout (which includes the slack),
        // a full search, a loan round and some transit.
        let heal_gap = 2 * (2 * pmax * delay_max + contention_slack)
            + (pmax + 2) * (2 * delay_max + 1)
            + cs_ticks
            + 4 * delay_max;
        let mut crashes = Vec::with_capacity(crash_count);
        if space.overlapping_crashes {
            // The probe mode: arbitrary interleavings, permanent failures
            // anywhere, several nodes down at once.
            for _ in 0..crash_count {
                let node = rng.random_range(1..=n as u32);
                let at = rng.random_range(0..=span);
                let recover_at = if rng.random_range(0..2u32) == 0 {
                    Some(at + rng.random_range(1..=span.max(2)))
                } else {
                    None
                };
                crashes.push(ScenarioCrash { node, at, recover_at });
            }
        } else {
            // The paper's regime — exactly the iPSC/2 experiment's shape:
            // repeated single failures, every node recovers, the system
            // heals before the next crash. Permanent failures live in the
            // `overlapping_crashes` probe space: a token carrier that
            // dies *forever* with several claims outstanding leaves
            // nobody responsible for the token, and the explorer showed
            // the resulting search stand-off (mutual try-later) livelocks
            // — a finding about the algorithm's limits, not a scenario
            // the paper claims to survive.
            let mut at = rng.random_range(0..=span);
            for _ in 0..crash_count {
                let node = rng.random_range(1..=n as u32);
                let downtime = rng.random_range(1..=span.max(2));
                crashes.push(ScenarioCrash { node, at, recover_at: Some(at + downtime) });
                at += downtime + heal_gap + rng.random_range(0..=span);
            }
        }

        // The link-fault window, the fault program's leading `LossDup`
        // phase. In the default space, link faults exercise the
        // crash-free quadrant only: duplicate frames arriving *during
        // crash healing* feed the same concurrent-sweep race as the hot
        // quadrant (a duplicated request re-routes a claim mid-search and
        // the sweeps double-mint). `overlapping_crashes` mixes
        // everything. A window may draw both rates zero; it is kept — its
        // ticks are part of the ID — and `fault_script` leaves it out.
        let mut phases = Vec::new();
        if (crash_count == 0 || space.overlapping_crashes) && rng.random_range(0..2u32) == 0 {
            let from = rng.random_range(0..=span);
            let until = from + rng.random_range(1..=span.max(2));
            let loss_per_mille = if space.allow_loss {
                [0u16, 50, 150, 300][rng.random_range(0..4usize)]
            } else {
                0
            };
            let duplicate_per_mille = [0u16, 50, 150, 400][rng.random_range(0..4usize)];
            phases.push(FaultPhase {
                from: SimTime::from_ticks(from),
                until: SimTime::from_ticks(until),
                kind: FaultPhaseKind::LossDup { loss_per_mille, duplicate_per_mille },
            });
        }

        // Scripted partition/heal phases. Gated behind `space.partitions`
        // so a space without them draws nothing here and its scenarios
        // stay byte-identical. The default partition quadrant is the
        // *serial healed* regime: each cut lasts at most half the
        // suspicion slack (no false death conclusion can complete while
        // it stands) and the next cut waits a full heal gap, mirroring
        // the serial crash regime above. `overlapping_crashes` unlocks
        // arbitrary durations — including permanent cuts, the scenarios
        // that exercise the liveness oracle's unreachability accounting.
        if space.partitions && rng.random_range(0..2u32) == 0 {
            let count = rng.random_range(1..=2usize);
            let (max_dur, permanent_ok) = if space.overlapping_crashes {
                (4 * span.max(2), true)
            } else {
                ((contention_slack / 2).max(2), false)
            };
            let mut at = rng.random_range(0..=span);
            for _ in 0..count {
                let dur = rng.random_range(1..=max_dur);
                // The serial quadrant samples true cuts only; one-way
                // degradation (loss in disguise) joins in the probe
                // space, where violations are expected findings.
                let kinds = if space.overlapping_crashes { 3 } else { 2 };
                let kind = match rng.random_range(0..kinds as u32) {
                    0 => FaultPhaseKind::GroupPartition { p: rng.random_range(0..pmax as u32) },
                    1 => FaultPhaseKind::Split { members: random_subset(&mut rng, n) },
                    _ => {
                        let members = random_subset(&mut rng, n);
                        let rest = NodeId::all(n).filter(|node| !members.contains(node)).collect();
                        FaultPhaseKind::Degrade {
                            from: members,
                            to: rest,
                            loss_per_mille: [250u16, 500, 1_000][rng.random_range(0..3usize)],
                        }
                    }
                };
                let until = if permanent_ok && rng.random_range(0..4u32) == 0 {
                    u64::MAX
                } else {
                    at + dur
                };
                phases.push(FaultPhase {
                    from: SimTime::from_ticks(at),
                    until: SimTime::from_ticks(until),
                    kind,
                });
                at = at + dur + heal_gap + rng.random_range(0..=span);
            }
        }

        Scenario {
            n,
            seed,
            delay_min,
            delay_max,
            cs_ticks,
            contention_slack,
            max_events: space.max_events,
            arrivals,
            crashes,
            phases,
        }
    }

    /// The open-cube configuration every substrate builds its nodes from:
    /// δ is `delay_max`, the CS estimate is `cs_ticks`. Mutation and
    /// hardening are run parameters, not part of the scenario — the same
    /// `oc1-` ID replays under either.
    #[must_use]
    pub fn config(&self, mutation: Mutation, hardening: Hardening) -> Config {
        Config::new(
            self.n,
            SimDuration::from_ticks(self.delay_max),
            SimDuration::from_ticks(self.cs_ticks),
        )
        .with_contention_slack(SimDuration::from_ticks(self.contention_slack))
        .with_mutation(mutation)
        .with_hardening(hardening)
    }

    /// The arrival list as the runtime's `schedule_workload` consumes it.
    #[must_use]
    pub fn schedule(&self) -> ArrivalSchedule {
        self.arrivals.iter().fold(ArrivalSchedule::new(), |schedule, (at, node)| {
            schedule.then(SimTime::from_ticks(*at), NodeId::new(*node))
        })
    }

    /// The scenario's fault script as the substrates consume it:
    /// [`Scenario::phases`] in order, less every `LossDup` phase whose two
    /// rates are zero. Such a phase injects nothing and draws nothing;
    /// leaving it out makes a scenario that carries one run — and pass
    /// the socket runner's refusal — exactly like one without.
    #[must_use]
    pub fn fault_script(&self) -> FaultScript {
        let mut script = FaultScript::none();
        for phase in &self.phases {
            let inert = matches!(
                phase.kind,
                FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 0 }
            );
            if !inert {
                script.push(phase.clone());
            }
        }
        script
    }

    /// The scenario's failure plan as the simulator consumes it.
    #[must_use]
    pub fn failure_plan(&self) -> FailurePlan {
        let mut plan = FailurePlan::none();
        for crash in &self.crashes {
            let node = NodeId::new(crash.node);
            let at = SimTime::from_ticks(crash.at);
            plan = match crash.recover_at {
                Some(recover) => plan.crash_and_recover(node, at, SimTime::from_ticks(recover)),
                None => plan.crash(node, at),
            };
        }
        plan
    }

    /// [`Scenario::phases`] split into the link-fault window — a leading
    /// `LossDup` phase — and the phases after it.
    pub(crate) fn split_window(&self) -> (Option<&FaultPhase>, &[FaultPhase]) {
        match self.phases.split_first() {
            Some((first, rest)) if matches!(first.kind, FaultPhaseKind::LossDup { .. }) => {
                (Some(first), rest)
            }
            _ => (None, &self.phases),
        }
    }

    // ---- the portable scenario ID ----

    /// Encodes the complete scenario as a portable ID: `oc1-` followed by
    /// the hex of a LEB128 field stream (format pinned by a golden test).
    /// [`Scenario::from_id`] inverts it exactly.
    #[must_use]
    pub fn id(&self) -> String {
        let mut bytes = Vec::new();
        let mut put = |value: u64| push_varint(&mut bytes, value);
        put(self.n as u64);
        put(self.seed);
        put(self.delay_min);
        put(self.delay_max);
        put(self.cs_ticks);
        put(self.contention_slack);
        put(self.max_events);
        // The header's four link-fault slots hold the window, zeros
        // without one; the phase section holds the rest.
        let (window, rest) = self.split_window();
        let header = match window {
            Some(FaultPhase {
                from,
                until,
                kind: FaultPhaseKind::LossDup { loss_per_mille, duplicate_per_mille },
            }) => [
                from.ticks(),
                until.ticks(),
                u64::from(*loss_per_mille),
                u64::from(*duplicate_per_mille),
            ],
            _ => [0; 4],
        };
        header.into_iter().for_each(&mut put);
        put(self.arrivals.len() as u64);
        for (at, node) in &self.arrivals {
            put(*at);
            put(u64::from(*node));
        }
        put(self.crashes.len() as u64);
        for crash in &self.crashes {
            put(u64::from(crash.node));
            put(crash.at);
            match crash.recover_at {
                None => put(0),
                Some(recover) => {
                    put(1);
                    put(recover);
                }
            }
        }
        // The phase section exists only when phases past the window do:
        // a scenario without them encodes to exactly the pre-extension
        // byte stream, so every `oc1-` ID recorded before the extension
        // re-encodes byte-identically (pinned by
        // `old_ids_reencode_and_replay_byte_identically`).
        if !rest.is_empty() {
            put(rest.len() as u64);
            for phase in rest {
                put(phase.from.ticks());
                put(phase.until.ticks());
                match &phase.kind {
                    FaultPhaseKind::GroupPartition { p } => {
                        put(0);
                        put(u64::from(*p));
                    }
                    FaultPhaseKind::Split { members } => {
                        put(1);
                        put(members.len() as u64);
                        members.iter().for_each(|node| put(u64::from(node.get())));
                    }
                    FaultPhaseKind::Degrade { from, to, loss_per_mille } => {
                        put(2);
                        put(from.len() as u64);
                        from.iter().for_each(|node| put(u64::from(node.get())));
                        put(to.len() as u64);
                        to.iter().for_each(|node| put(u64::from(node.get())));
                        put(u64::from(*loss_per_mille));
                    }
                    FaultPhaseKind::LossDup { loss_per_mille, duplicate_per_mille } => {
                        put(3);
                        put(u64::from(*loss_per_mille));
                        put(u64::from(*duplicate_per_mille));
                    }
                }
            }
        }
        let mut id = String::with_capacity(4 + bytes.len() * 2);
        id.push_str("oc1-");
        for byte in &bytes {
            use std::fmt::Write;
            let _ = write!(id, "{byte:02x}");
        }
        id
    }

    /// Decodes a scenario ID produced by [`Scenario::id`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed element (bad prefix,
    /// bad hex, truncated stream, out-of-range field).
    pub fn from_id(id: &str) -> Result<Scenario, String> {
        let hex = id.strip_prefix("oc1-").ok_or("scenario id must start with \"oc1-\"")?;
        if hex.len() % 2 != 0 {
            return Err("odd-length hex payload".into());
        }
        let bytes: Vec<u8> = (0..hex.len() / 2)
            .map(|i| {
                u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                    .map_err(|e| format!("bad hex at byte {i}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut cursor = 0usize;
        macro_rules! take {
            () => {
                read_varint(&bytes, &mut cursor)
            };
        }
        let per_mille = |value: u64, what: &str| {
            u16::try_from(value).map_err(|_| format!("{what} out of range"))
        };
        // `n` first: the phase section's node lists are checked against it.
        let n = take!()? as usize;
        if !n.is_power_of_two() || n < 2 {
            return Err(format!("n = {n} is not a power of two >= 2"));
        }
        if n > MAX_DECODED_N {
            return Err(format!("n = {n} exceeds the replay ceiling {MAX_DECODED_N}"));
        }
        let seed = take!()?;
        let delay_min = take!()?;
        let delay_max = take!()?;
        let cs_ticks = take!()?;
        let contention_slack = take!()?;
        let max_events = take!()?;
        // A nonzero header is the window, whatever its values: the
        // format has always carried them unchecked.
        let header = [take!()?, take!()?, take!()?, take!()?];
        let mut phases = Vec::new();
        if header != [0; 4] {
            let [from, until, loss, duplicate] = header;
            phases.push(FaultPhase {
                from: SimTime::from_ticks(from),
                until: SimTime::from_ticks(until),
                kind: FaultPhaseKind::LossDup {
                    loss_per_mille: per_mille(loss, "loss_per_mille")?,
                    duplicate_per_mille: per_mille(duplicate, "duplicate_per_mille")?,
                },
            });
        }
        let arrival_count = take!()? as usize;
        let mut arrivals = Vec::with_capacity(arrival_count.min(1 << 20));
        for _ in 0..arrival_count {
            let at = take!()?;
            let node = u32::try_from(take!()?).map_err(|_| "arrival node out of range")?;
            arrivals.push((at, node));
        }
        let crash_count = take!()? as usize;
        let mut crashes = Vec::with_capacity(crash_count.min(1 << 20));
        for _ in 0..crash_count {
            let node = u32::try_from(take!()?).map_err(|_| "crash node out of range")?;
            let at = take!()?;
            let recover_at = match take!()? {
                0 => None,
                1 => Some(take!()?),
                flag => return Err(format!("bad recovery flag {flag}")),
            };
            crashes.push(ScenarioCrash { node, at, recover_at });
        }
        // Pre-extension IDs end here; a phase section is optional.
        if cursor != bytes.len() {
            let phase_count = take!()?;
            if phase_count == 0 {
                return Err("a phase section must contain at least one phase".into());
            }
            for _ in 0..phase_count {
                let (from, until) = (take!()?, take!()?);
                if until <= from {
                    return Err(format!("phase [{from}, {until}) heals before it starts"));
                }
                let kind = match take!()? {
                    0 => {
                        let p = take!()?;
                        if p > u64::from(oc_topology::dimension(n)) {
                            return Err(format!("group level {p} exceeds the dimension of {n}"));
                        }
                        FaultPhaseKind::GroupPartition { p: p as u32 }
                    }
                    1 => FaultPhaseKind::Split {
                        members: node_list(&bytes, &mut cursor, n, "split")?,
                    },
                    2 => FaultPhaseKind::Degrade {
                        from: node_list(&bytes, &mut cursor, n, "degrade source")?,
                        to: node_list(&bytes, &mut cursor, n, "degrade destination")?,
                        loss_per_mille: per_mille(take!()?, "phase loss_per_mille")?,
                    },
                    3 => FaultPhaseKind::LossDup {
                        loss_per_mille: per_mille(take!()?, "phase loss_per_mille")?,
                        duplicate_per_mille: per_mille(take!()?, "phase duplicate_per_mille")?,
                    },
                    tag => return Err(format!("bad phase kind {tag}")),
                };
                // A leading `LossDup` phase is the window, which lives in
                // the header: a section opening with one would move its
                // bytes there on re-encoding.
                if phases.is_empty() && matches!(kind, FaultPhaseKind::LossDup { .. }) {
                    return Err("a leading LossDup phase belongs in the header".into());
                }
                phases.push(FaultPhase {
                    from: SimTime::from_ticks(from),
                    until: SimTime::from_ticks(until),
                    kind,
                });
            }
        }
        if cursor != bytes.len() {
            return Err(format!("{} trailing byte(s) after the scenario", bytes.len() - cursor));
        }
        if arrivals.is_empty() {
            return Err("a scenario needs at least one arrival".into());
        }
        if delay_min == 0 || delay_min > delay_max {
            return Err(format!("bad delay envelope [{delay_min}, {delay_max}]"));
        }
        let durations = [
            ("delay_max", delay_max),
            ("cs_ticks", cs_ticks),
            ("contention_slack", contention_slack),
        ];
        let instants = arrivals
            .iter()
            .map(|(at, _)| ("arrival", *at))
            .chain(crashes.iter().map(|c| ("crash", c.at)))
            .chain(crashes.iter().filter_map(|c| c.recover_at.map(|at| ("recovery", at))));
        if let Some((what, ticks)) =
            durations.into_iter().chain(instants).find(|(_, ticks)| *ticks > MAX_DECODED_TICKS)
        {
            return Err(format!("{what} {ticks} exceeds the tick ceiling {MAX_DECODED_TICKS}"));
        }
        if let Some((_, node)) = arrivals.iter().find(|(_, node)| !(1..=n as u32).contains(node)) {
            return Err(format!("arrival node {node} outside 1..={n}"));
        }
        if let Some(crash) = crashes.iter().find(|c| !(1..=n as u32).contains(&c.node)) {
            return Err(format!("crash node {} outside 1..={n}", crash.node));
        }
        if let Some(crash) = crashes.iter().find(|c| c.recover_at.is_some_and(|r| r <= c.at)) {
            return Err(format!("crash of node {} recovers before it fails", crash.node));
        }
        Ok(Scenario {
            n,
            seed,
            delay_min,
            delay_max,
            cs_ticks,
            contention_slack,
            max_events,
            arrivals,
            crashes,
            phases,
        })
    }
}

/// A uniformly random nonempty proper subset of `1..=n`, sorted — the
/// seceding block of a sampled `Split`/`Degrade` phase.
fn random_subset(rng: &mut StdRng, n: usize) -> Vec<NodeId> {
    let size = rng.random_range(1..=(n - 1).max(1));
    let mut ids: Vec<NodeId> = NodeId::all(n).collect();
    for k in 0..size {
        let j = rng.random_range(k..ids.len());
        ids.swap(k, j);
    }
    let mut members = ids[..size].to_vec();
    members.sort_unstable();
    members
}

/// Decodes one length-prefixed node list of a phase: nonempty, and every
/// member checked against `1..=n` before it becomes a [`NodeId`], which
/// cannot hold 0.
fn node_list(
    bytes: &[u8],
    cursor: &mut usize,
    n: usize,
    what: &str,
) -> Result<Vec<NodeId>, String> {
    let len = read_varint(bytes, cursor)?;
    if len == 0 {
        return Err(format!("{what} node set of a phase is empty"));
    }
    let mut members = Vec::with_capacity(len.min(n as u64) as usize);
    for _ in 0..len {
        let node = read_varint(bytes, cursor)?;
        if !(1..=n as u64).contains(&node) {
            return Err(format!("{what} node {node} outside 1..={n}"));
        }
        members.push(NodeId::new(node as u32));
    }
    Ok(members)
}

fn push_varint(bytes: &mut Vec<u8>, mut value: u64) {
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

fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u64, String> {
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
    use crate::{mutate, run_scenario};

    fn phase(from: u64, until: u64, kind: FaultPhaseKind) -> FaultPhase {
        FaultPhase { from: SimTime::from_ticks(from), until: SimTime::from_ticks(until), kind }
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|id| NodeId::new(*id)).collect()
    }

    #[test]
    fn generation_is_a_pure_function() {
        let space = Space::default();
        for index in 0..32 {
            assert_eq!(
                Scenario::generate(&space, 42, index),
                Scenario::generate(&space, 42, index),
            );
        }
        assert_ne!(
            Scenario::generate(&space, 42, 0),
            Scenario::generate(&space, 42, 1),
            "different indices should differ"
        );
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        let space = Space::default();
        for index in 0..256 {
            let s = Scenario::generate(&space, 7, index);
            assert!(s.n.is_power_of_two() && s.n >= 2);
            assert!(s.delay_min >= 1 && s.delay_min <= s.delay_max);
            assert!(!s.arrivals.is_empty());
            assert!(s.arrivals.iter().all(|(_, node)| (1..=s.n as u32).contains(node)));
            assert!(s.crashes.iter().all(|c| (1..=s.n as u32).contains(&c.node)));
            assert!(s.crashes.iter().all(|c| c.recover_at.is_none_or(|r| r > c.at)));
            assert!(s.split_window().1.is_empty(), "default space samples no partition phases");
            assert!(
                s.phases
                    .iter()
                    .all(|ph| matches!(ph.kind, FaultPhaseKind::LossDup { loss_per_mille: 0, .. })),
                "default space keeps loss off"
            );
        }
    }

    #[test]
    fn partition_space_samples_valid_healed_phases() {
        let space = Space { partitions: true, ..Space::default() };
        let mut seen_partitioned = 0usize;
        for index in 0..256 {
            let s = Scenario::generate(&space, 7, index);
            let cuts = s.split_window().1;
            if cuts.is_empty() {
                continue;
            }
            seen_partitioned += 1;
            // Every sampled phase decodes through its own validation
            // (roundtrip exercises the from_id checks) and stays in the
            // serial healed regime: finite, no longer than half the
            // suspicion slack.
            for phase in cuts {
                assert!(phase.until > phase.from);
                assert!(
                    (phase.until - phase.from).ticks() <= (s.contention_slack / 2).max(2),
                    "phase outlives the healed regime: {phase:?} slack {}",
                    s.contention_slack
                );
            }
            // Consecutive phases are serial: the next begins after the
            // previous heals.
            for pair in cuts.windows(2) {
                assert!(pair[1].from >= pair[0].until, "phases overlap: {pair:?}");
            }
            let back = Scenario::from_id(&s.id()).expect("sampled phases must validate");
            assert_eq!(back, s);
        }
        assert!(seen_partitioned > 50, "the partition quadrant must actually sample phases");
    }

    #[test]
    fn partition_sampling_does_not_perturb_the_rest_of_the_scenario() {
        // Turning partitions on may add phases but must not re-derive the
        // workload/crash draws: the phase draws happen last.
        let plain = Space::default();
        let parts = Space { partitions: true, ..Space::default() };
        for index in 0..64 {
            let a = Scenario::generate(&plain, 11, index);
            let b = Scenario::generate(&parts, 11, index);
            assert_eq!(a.arrivals, b.arrivals, "index {index}");
            assert_eq!(a.crashes, b.crashes, "index {index}");
            assert_eq!(
                (a.n, a.seed, a.delay_min, a.delay_max, a.cs_ticks, a.contention_slack),
                (b.n, b.seed, b.delay_min, b.delay_max, b.cs_ticks, b.contention_slack),
            );
        }
    }

    #[test]
    fn loss_only_appears_when_allowed() {
        let space = Space { allow_loss: true, ..Space::default() };
        let any_lossy = (0..256).any(|index| {
            Scenario::generate(&space, 7, index).phases.iter().any(|ph| {
                ph.until > ph.from
                    && matches!(ph.kind, FaultPhaseKind::LossDup { loss_per_mille, .. } if loss_per_mille > 0)
            })
        });
        assert!(any_lossy, "an allow_loss space should sample lossy windows");
    }

    /// The explorer's spaces — default, `--loss`, `--hard`,
    /// `--partitions` — and one that samples a link-fault window *and*
    /// scripted phases in the same scenario.
    fn explorer_spaces() -> [Space; 5] {
        [
            Space::default(),
            Space { allow_loss: true, ..Space::default() },
            Space { overlapping_crashes: true, ..Space::default() },
            Space { partitions: true, ..Space::default() },
            Space {
                allow_loss: true,
                overlapping_crashes: true,
                partitions: true,
                ..Space::default()
            },
        ]
    }

    #[test]
    fn id_roundtrips_exactly() {
        for space in explorer_spaces() {
            for index in 0..256 {
                let s = Scenario::generate(&space, 11, index);
                let id = s.id();
                let back = Scenario::from_id(&id).expect("generated ids must decode");
                assert_eq!(s, back, "roundtrip mismatch for index {index}");
                assert_eq!(back.id(), id, "re-encoding moved a byte at index {index}");
            }
        }
    }

    /// The codec, the generator and the mutator pinned together: one FNV
    /// fold over the IDs of the explorer spaces' first 256 scenarios at
    /// seed 11 and of 16 mutants of each, a donor alongside to splice
    /// from. A moved byte in the format, a moved draw in either
    /// generator, or changed arithmetic in a mutator moves the fold.
    #[test]
    fn generated_and_mutated_ids_are_pinned() {
        let mut fold = oc_sim::Fnv64::new();
        for space in explorer_spaces() {
            let mut rng = StdRng::seed_from_u64(11);
            for index in 0..256 {
                let s = Scenario::generate(&space, 11, index);
                let donor = Scenario::generate(&space, 11, index + 256);
                fold.write(s.id().as_bytes());
                for _ in 0..16 {
                    fold.write(mutate(&s, Some(&donor), &mut rng).id().as_bytes());
                }
            }
        }
        assert_eq!(fold.finish(), 0x7dc0_97e2_b5cd_51be, "generated or mutated scenario IDs moved");
    }

    #[test]
    fn an_inert_window_replays_like_no_window() {
        // A window that drew both rates zero stays in the scenario — its
        // ticks are part of the ID — but injects nothing: the run is the
        // one without it, outcome for outcome.
        let idle = FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 0 };
        let mut inert = 0usize;
        for index in 0..256 {
            let s = Scenario::generate(&Space::default(), 11, index);
            let (Some(window), rest) = s.split_window() else { continue };
            if window.kind != idle {
                continue;
            }
            inert += 1;
            let bare = Scenario { phases: rest.to_vec(), ..s.clone() };
            assert_ne!(bare.id(), s.id(), "index {index}: the window keeps its bytes");
            assert_eq!(s.fault_script(), bare.fault_script(), "index {index}");
            assert_eq!(
                run_scenario(&s, Mutation::None),
                run_scenario(&bare, Mutation::None),
                "index {index}"
            );
        }
        assert!(inert > 0, "the default space must sample inert windows");
    }

    #[test]
    fn every_phase_kind_roundtrips() {
        let base = Scenario::generate(&Space::default(), 1, 0);
        let loss_dup = |loss_per_mille, duplicate_per_mille| FaultPhaseKind::LossDup {
            loss_per_mille,
            duplicate_per_mille,
        };
        let degrade =
            FaultPhaseKind::Degrade { from: nodes(&[1]), to: nodes(&[2]), loss_per_mille: 1_000 };
        let s = Scenario {
            phases: vec![
                // The window: the header's four slots.
                phase(3, 60, loss_dup(150, 0)),
                phase(5, 80, FaultPhaseKind::GroupPartition { p: 1 }),
                phase(90, u64::MAX, FaultPhaseKind::Split { members: nodes(&[1, 2]) }),
                phase(100, 200, degrade),
                phase(300, 400, loss_dup(50, 400)),
            ],
            ..base
        };
        let back = Scenario::from_id(&s.id()).expect("phase-rich id must decode");
        assert_eq!(back, s);
        assert_eq!(back.fault_script().phases(), &s.phases[..]);
    }

    #[test]
    fn phase_free_scenarios_encode_the_pre_extension_stream() {
        // The codec extension is strictly additive: without phases past
        // the window, the byte stream (and thus every recorded `oc1-` ID)
        // is unchanged.
        let with = Scenario::generate(&Space::default(), 11, 3);
        assert!(with.split_window().1.is_empty());
        let id = with.id();
        let reencoded = Scenario::from_id(&id).unwrap().id();
        assert_eq!(id, reencoded, "decode→encode must be the identity");
    }

    #[test]
    fn malformed_phases_are_rejected() {
        let base = Scenario::generate(&Space::default(), 1, 0);
        let id_of = |from, until, kind| {
            Scenario { phases: vec![phase(from, until, kind)], ..base.clone() }.id()
        };
        let rejects = |id: &str, why: &str| {
            let err = Scenario::from_id(id).unwrap_err();
            assert!(err.contains(why), "{id}: {err}");
        };
        rejects(&id_of(10, 10, FaultPhaseKind::GroupPartition { p: 1 }), "heals before");
        rejects(&id_of(0, 10, FaultPhaseKind::GroupPartition { p: 30 }), "group level");
        rejects(&id_of(0, 10, FaultPhaseKind::Split { members: vec![] }), "empty");
        let alien = nodes(&[base.n as u32 + 1]);
        rejects(&id_of(0, 10, FaultPhaseKind::Split { members: alien }), "outside");
        // Member 0 has no `NodeId`: write it over the last member byte.
        let split = id_of(0, 10, FaultPhaseKind::Split { members: nodes(&[1]) });
        rejects(&format!("{}00", split.strip_suffix("01").unwrap()), "split node 0");
        let degrade =
            FaultPhaseKind::Degrade { from: nodes(&[1]), to: nodes(&[2]), loss_per_mille: 0 };
        let degrade = id_of(0, 10, degrade);
        rejects(&format!("{}0000", degrade.strip_suffix("0200").unwrap()), "destination node 0");
        // The window is the header's: a phase section cannot open with a
        // `LossDup` phase (one phase, [0, 10), kind 3, 50 ‰, 0 ‰).
        let cut = id_of(0, 10, FaultPhaseKind::GroupPartition { p: 1 });
        rejects(&format!("{}01000a033200", cut.strip_suffix("01000a0001").unwrap()), "header");
    }

    #[test]
    fn id_format_is_pinned() {
        // The golden ID: changing the codec silently would orphan every
        // recorded counterexample.
        let s = Scenario {
            n: 4,
            seed: 300,
            delay_min: 1,
            delay_max: 10,
            cs_ticks: 50,
            contention_slack: 100,
            max_events: 1_000,
            arrivals: vec![(5, 3)],
            crashes: vec![ScenarioCrash { node: 1, at: 9, recover_at: Some(200) }],
            phases: Vec::new(),
        };
        let id = s.id();
        assert_eq!(id, "oc1-04ac02010a3264e8070000000001050301010901c801");
        assert_eq!(Scenario::from_id(&id).unwrap(), s);
        // The header's link-fault slots are a leading `LossDup` phase:
        // the seed-43 duplication witness carries a 400 ‰ window.
        let witness =
            "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100";
        let s = Scenario::from_id(witness).unwrap();
        let window = FaultPhaseKind::LossDup { loss_per_mille: 0, duplicate_per_mille: 400 };
        assert_eq!(s.phases, vec![phase(47, 444, window)]);
        assert_eq!(s.id(), witness);
    }

    #[test]
    fn extended_id_format_is_pinned() {
        // The golden ID of the phase section: changing the extension's
        // encoding silently would orphan every recorded partition
        // counterexample.
        let degrade =
            FaultPhaseKind::Degrade { from: nodes(&[1, 2]), to: nodes(&[3]), loss_per_mille: 500 };
        let s = Scenario {
            n: 4,
            seed: 300,
            delay_min: 1,
            delay_max: 10,
            cs_ticks: 50,
            contention_slack: 100,
            max_events: 1_000,
            arrivals: vec![(5, 3)],
            crashes: Vec::new(),
            phases: vec![
                phase(7, 40, FaultPhaseKind::GroupPartition { p: 1 }),
                phase(60, 90, degrade),
            ],
        };
        let id = s.id();
        assert_eq!(id, "oc1-04ac02010a3264e807000000000105030002072800013c5a020201020103f403");
        assert_eq!(Scenario::from_id(&id).unwrap(), s);
    }

    #[test]
    fn malformed_ids_are_rejected() {
        assert!(Scenario::from_id("xyz").is_err());
        assert!(Scenario::from_id("oc1-zz").is_err());
        assert!(Scenario::from_id("oc1-04a").is_err(), "odd length");
        assert!(Scenario::from_id("oc1-04").is_err(), "truncated stream");
        // A valid stream with trailing garbage is rejected too.
        let mut id = Scenario::generate(&Space::default(), 1, 0).id();
        id.push_str("00");
        assert!(Scenario::from_id(&id).is_err());
    }

    #[test]
    fn out_of_range_nodes_are_rejected_not_panicked() {
        // Hand-edited or corrupted IDs must come back as Err, never as a
        // scenario that panics the replay tool.
        let base = Scenario::generate(&Space::default(), 1, 0);
        let rejects = |s: Scenario, why: &str| {
            let err = Scenario::from_id(&s.id()).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        };
        rejects(Scenario { arrivals: vec![(5, 0)], ..base.clone() }, "arrival node 0");
        rejects(Scenario { arrivals: vec![(5, base.n as u32 + 1)], ..base.clone() }, "outside");
        let crash = |node, at, recover_at| vec![ScenarioCrash { node, at, recover_at }];
        rejects(Scenario { crashes: crash(0, 5, None), ..base.clone() }, "crash node 0");
        rejects(Scenario { crashes: crash(1, 5, Some(5)), ..base.clone() }, "recovers before");
        // Ticks the engine's arithmetic would overflow on: a δ whose
        // timeouts do, a slack that does, an arrival at the end of time.
        rejects(Scenario { delay_max: 1 << 62, ..base.clone() }, "delay_max");
        rejects(Scenario { contention_slack: u64::MAX - 5, ..base.clone() }, "contention_slack");
        rejects(Scenario { arrivals: vec![(u64::MAX - 1, 1)], ..base.clone() }, "arrival");
        rejects(Scenario { crashes: crash(1, 5, Some(u64::MAX)), ..base }, "recovery");
    }

    #[test]
    fn failure_plan_matches_the_crash_list() {
        let s = Scenario {
            crashes: vec![
                ScenarioCrash { node: 2, at: 10, recover_at: None },
                ScenarioCrash { node: 3, at: 20, recover_at: Some(50) },
            ],
            ..Scenario::generate(&Space::default(), 1, 0)
        };
        let plan = s.failure_plan();
        assert_eq!(plan.crash_count(), 2);
        assert_eq!(plan.events()[0].recover_at, None);
        assert_eq!(plan.events()[1].recover_at, Some(SimTime::from_ticks(50)));
    }
}
