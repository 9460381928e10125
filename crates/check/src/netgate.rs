//! The socket deployment's cell shape and the cross-substrate
//! conformance contract.
//!
//! A [`GateScenario`] is eight numbers — system size, how many arrivals
//! at what gap, the protocol's three tick constants, a seed, an optional
//! SIGKILL/restart cycle — that name one [`Scenario`]:
//! [`GateScenario::scenario`] materialises it, and from there on the
//! deployment's work is an ordinary `oc1-` scenario that the simulator
//! ([`crate::run_scenario`]), the threaded runtime's workers in virtual
//! time ([`crate::Substrate::Runtime`]) and `oc-bench`'s
//! orchestrator (real node processes over sockets, crashes via SIGKILL)
//! all play. Each answers with an [`Outcome`], and [`conforms`] pins the
//! contract:
//!
//! * every substrate's safety and liveness oracles are clean,
//! * every substrate settled,
//! * every substrate **served every arrival** and abandoned none — the
//!   strongest CS-count equality, robust to the substrates' different
//!   notions of time (a leased CS in-process, auto-release over the
//!   socket; either way `cs_entries == arrivals` everywhere or the gate
//!   fails).
//!
//! Kill targeting: the materialised schedule never has an arrival *at*
//! the victim. Requests at other nodes may be outstanding across the
//! kill — that is the point (the Section 5 machinery must recover the
//! token) — but a request at the victim itself would race the kill on
//! the socket substrate (its abandonment is real there, impossible
//! in-tick in-process), splitting the counts for environmental, not
//! algorithmic, reasons.

use oc_algo::{Config, Hardening, Mutation};
use oc_sim::ArrivalSchedule;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::run::Outcome;
use crate::scenario::{Scenario, ScenarioCrash};

/// One SIGKILL/restart cycle, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateKill {
    /// The victim (never an arrival target).
    pub node: u32,
    /// Kill instant, in ticks.
    pub at_ticks: u64,
    /// Restart instant, in ticks (must be `> at_ticks`).
    pub recover_ticks: u64,
}

/// The shape of one socket-deployment cell, all timing in ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateScenario {
    /// System size (power of two).
    pub n: usize,
    /// Arrivals to inject.
    pub requests: usize,
    /// Gap between consecutive arrivals, in ticks.
    pub gap_ticks: u64,
    /// Protocol δ in ticks.
    pub delta_ticks: u64,
    /// CS estimate in ticks.
    pub cs_ticks: u64,
    /// Contention slack in ticks.
    pub slack_ticks: u64,
    /// Seed for the arrival node choices.
    pub seed: u64,
    /// Optional SIGKILL/restart cycle.
    pub kill: Option<GateKill>,
}

impl GateScenario {
    /// The cell as a [`Scenario`]: arrival `k` at tick `(k+1)·gap_ticks`,
    /// its node drawn uniformly over every node *except* the kill victim
    /// (see the module docs); the kill as the one crash; δ the delay
    /// bound; no fault script.
    ///
    /// # Panics
    ///
    /// Panics if the victim leaves fewer than one eligible node.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        let victim = self.kill.map(|k| k.node);
        let eligible: Vec<u32> = (1..=self.n as u32).filter(|id| Some(*id) != victim).collect();
        assert!(!eligible.is_empty(), "no eligible arrival nodes");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let arrivals = (1..=self.requests as u64)
            .map(|k| (k * self.gap_ticks, eligible[rng.random_range(0..eligible.len())]))
            .collect();
        Scenario {
            n: self.n,
            seed: self.seed,
            delay_min: 1,
            delay_max: self.delta_ticks,
            cs_ticks: self.cs_ticks,
            contention_slack: self.slack_ticks,
            // The explorer's default cap plus headroom per arrival, so
            // the benchmark's 60 000-arrival cells replay in the
            // simulator too.
            max_events: 2_000_000 + 64 * self.requests as u64,
            arrivals,
            crashes: self
                .kill
                .iter()
                .map(|k| ScenarioCrash {
                    node: k.node,
                    at: k.at_ticks,
                    recover_at: Some(k.recover_ticks),
                })
                .collect(),
            phases: Vec::new(),
        }
    }

    /// [`Scenario::config`] of [`GateScenario::scenario`], unmutated and
    /// unhardened — the benchmark's `net-open` probes call it.
    #[must_use]
    pub fn config(&self) -> Config {
        self.scenario().config(Mutation::None, Hardening::None)
    }

    /// [`Scenario::schedule`] of [`GateScenario::scenario`] — the
    /// benchmark's `net-open` probes call it.
    #[must_use]
    pub fn schedule(&self) -> ArrivalSchedule {
        self.scenario().schedule()
    }
}

/// The conformance contract over any number of substrates' outcomes of
/// one scenario with `arrivals` arrivals (see the module docs).
///
/// # Errors
///
/// Returns a description of the first divergence, naming the substrate.
pub fn conforms(arrivals: usize, outcomes: &[(&str, &Outcome)]) -> Result<(), String> {
    for (substrate, outcome) in outcomes {
        if !outcome.drained || !outcome.is_clean() {
            return Err(format!("{substrate} run not clean: {outcome:?}"));
        }
        if outcome.cs_entries != arrivals as u64 || outcome.abandoned != 0 {
            return Err(format!(
                "{substrate} served {} of {arrivals} arrivals and abandoned {}",
                outcome.cs_entries, outcome.abandoned
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_scenario, Run, Substrate};

    fn gate(requests: usize, gap_ticks: u64, kill: Option<GateKill>) -> GateScenario {
        GateScenario {
            n: 16,
            requests,
            gap_ticks,
            delta_ticks: 40,
            cs_ticks: 20,
            slack_ticks: 20_000,
            seed: 7,
            kill,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_avoids_the_victim() {
        let g = gate(20, 100, Some(GateKill { node: 5, at_ticks: 1_000, recover_ticks: 2_000 }));
        let s = g.scenario();
        assert_eq!(s, g.scenario());
        assert_eq!(s.arrivals.len(), 20);
        assert!(s.arrivals.iter().all(|(_, node)| *node != 5));
        assert_eq!(s.crashes, [ScenarioCrash { node: 5, at: 1_000, recover_at: Some(2_000) }]);
        assert!(!s.fault_script().enabled());
    }

    /// The two shapes the deployment's work used to be drawn for by
    /// `GateScenario::schedule()`: the first eight `(tick, node)` pairs
    /// and an FNV fold of the whole list, captured from that method at
    /// commit 370fe29. The witness that `net-open` injects byte-identical
    /// work, and that every socket cell is an `oc1-` id the simulator
    /// replays.
    #[test]
    fn gate_scenario_materialises_the_schedule_it_used_to_draw() {
        let net_open = GateScenario { n: 8, requests: 1_000, seed: 42, ..gate(0, 1, None) };
        let kill_cell = GateScenario {
            seed: 1_009,
            ..gate(60, 20, Some(GateKill { node: 3, at_ticks: 600, recover_ticks: 4_600 }))
        };
        let golden = [
            (
                &net_open,
                [(1u64, 8u32), (2, 2), (3, 5), (4, 1), (5, 4), (6, 6), (7, 7), (8, 7)],
                0x21a5_eb07_a7b5_0ecb_u64,
            ),
            (
                &kill_cell,
                [(20, 2), (40, 5), (60, 10), (80, 8), (100, 1), (120, 15), (140, 13), (160, 14)],
                0x3964_5f13_5607_b6fb,
            ),
        ];
        for (g, first, fold) in golden {
            let s = g.scenario();
            assert_eq!(s.arrivals.len(), g.requests);
            assert_eq!(s.arrivals[..8], first);
            let mut hash = oc_sim::Fnv64::new();
            for (at, node) in &s.arrivals {
                hash.write_u64(*at);
                hash.write_u64(u64::from(*node));
            }
            assert_eq!(hash.finish(), fold, "n = {}", g.n);
            assert!(s.arrivals.iter().all(|(_, node)| Some(*node) != g.kill.map(|k| k.node)));
            assert_eq!(Scenario::from_id(&s.id()).as_ref(), Ok(&s));
            // The two views the benchmark still calls are views of `s`.
            assert_eq!(g.schedule(), s.schedule());
            assert_eq!(g.config(), s.config(Mutation::None, Hardening::None));
        }
    }

    #[test]
    fn inprocess_gate_run_is_clean_and_serves_everything() {
        let s = gate(20, 100, None).scenario();
        let on_runtime = Run { substrate: Substrate::Runtime { workers: 2 }, ..Run::SIM };
        let outcome = run(&s, on_runtime, None, None);
        assert!(outcome.drained && outcome.is_clean(), "{outcome:?}");
        assert_eq!(outcome.cs_entries, 20);
        conforms(20, &[("runtime", &outcome)]).expect("a clean full run conforms");
    }

    #[test]
    fn conformance_rejects_divergence() {
        let s = gate(10, 100, None).scenario();
        let good = run_scenario(&s, Mutation::None);
        assert!(conforms(10, &[("sim", &good), ("socket", &good)]).is_ok());
        let starved = Outcome { cs_entries: 9, abandoned: 1, ..good.clone() };
        let why = conforms(10, &[("sim", &good), ("socket", &starved)]).unwrap_err();
        assert!(why.contains("socket served 9 of 10"), "{why}");
        assert!(conforms(11, &[("sim", &good)]).unwrap_err().contains("sim served 10 of 11"));
        let unsettled = Outcome { drained: false, ..good.clone() };
        assert!(conforms(10, &[("runtime", &unsettled)]).unwrap_err().contains("runtime run not"));
        let dirty = run_scenario(&s, Mutation::KeepTokenOnTransit);
        assert!(!dirty.is_clean(), "the planted bug must show");
        assert!(conforms(10, &[("sim", &dirty), ("socket", &good)]).unwrap_err().contains("sim"));
        assert!(conforms(10, &[("sim", &good), ("socket", &dirty)])
            .unwrap_err()
            .contains("socket run not clean"));
    }
}
