//! The six workloads. Each runs in a process of its own (`--workload`),
//! makes its inputs from the seed, measures, checks its outputs and hands
//! back a [`Report`].

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::reference::Kernel;
use crate::spans::Tracer;

pub use oc_bench::sweep::derive_seed;

pub mod check;
pub mod net;
pub mod probes;
pub mod rt;
pub mod sim;

/// `--seconds` at which the sized workloads reach the sizes their
/// descriptions quote (4 * 2^20 arrivals, 20 000 failures, 800 000
/// scenarios, 300 000 socket arrivals); other values scale them linearly.
pub const FULL_SIZE_SECONDS: f64 = 15.0;

/// Set-ups per untraced run, at least; `setup_s` is their median. The
/// last one's product is the one measured.
pub const SETUPS: usize = 5;

/// A workload whose set-up is short goes on setting up until this much
/// time is spent. The first few set-ups of a process run on memory the
/// allocator is still fetching from the system, the later ones on memory
/// it kept, and five short ones put the median between the two.
const SETUP_BUDGET_SECS: f64 = 0.5;

/// The traced pass runs each workload twice at this share of its size:
/// once without spans, once with, so the overhead of tracing is measured
/// on equal inputs. It needs shares, not tails.
pub const TRACED_SHARE: f64 = 1.0 / 3.0;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The share of its size a pass runs at.
    fn share(&self) -> f64 {
        if self.trace {
            TRACED_SHARE
        } else {
            1.0
        }
    }

    /// `full` scaled to this run's `--seconds` (and to the traced share).
    pub fn sized(&self, full: usize) -> usize {
        ((full as f64 * self.seconds / FULL_SIZE_SECONDS * self.share()).round() as usize).max(1)
    }

    /// The measuring window of the fixed-window workloads, in seconds.
    pub fn window_secs(&self) -> f64 {
        self.seconds * self.share()
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed in the measured part; set by
    /// [`Report::operations`].
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Values that must repeat exactly for a seed and a size.
    pub exact: Vec<(&'static str, Value)>,
    /// Timed values worth printing that carry no bound.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// Lines for the reader: findings, reconciliations.
    pub notes: Vec<String>,
    /// Correctness gates that did not hold; empty means correct.
    pub misses: Vec<String>,
}

impl Report {
    /// Records a correctness gate; `what` is printed if it does not hold.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.misses.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.misses.is_empty()
    }

    pub fn exact_num(&mut self, name: &'static str, value: f64) {
        self.exact.push((name, Value::Num(value)));
    }

    /// The result line's `attempted` and `failed`: requests (scenarios on
    /// `check-battery`) put to the system, and those it did not serve
    /// cleanly. A later change that fails more of them reads higher here
    /// even when every gate still holds.
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed.min(attempted);
    }

    /// `failed / attempted`, the value behind every `*.failed_share`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The end-to-end metrics: the median of the run's set-up times, the
    /// grant rate of its measured part, and the peak memory of the
    /// processes that ran it.
    pub fn end_to_end(&mut self, mut setups: Vec<f64>, acq_per_s: f64, peak_rss_mb: f64) {
        self.diagnostics.push(("setup_s.count", setups.len() as f64));
        self.diagnostics.push(("setup_s.first", setups[0]));
        self.diagnostics.push(("setup_s.min", setups.iter().copied().fold(f64::MAX, f64::min)));
        self.diagnostics.push(("setup_s.max", setups.iter().copied().fold(0.0, f64::max)));
        self.metrics = vec![
            ("setup_s", crate::stats::median(&mut setups)),
            ("acq_per_s", acq_per_s),
            ("peak_rss_mb", peak_rss_mb),
        ];
        debug_assert!(self.metrics.iter().map(|m| m.0).eq(END_TO_END.iter().map(|m| m.name)));
    }

    /// Event rate and CPU cost per grant of the measured part. Printed by
    /// every workload, bounded on none: on `sim-faults` the event count
    /// swings by a fifth from seed to seed while the time does not, and
    /// the deployment's CPU time swings by as much from run to run.
    pub fn rates(&mut self, events: f64, grants: f64, wall_s: f64, cpu_s: f64) {
        self.diagnostics.push(("events_per_s", events / wall_s));
        self.diagnostics.push(("cpu_us_per_acq", cpu_s * 1e6 / grants));
    }

    /// Sets per-layer metrics by name; the rest stay 0 (layer not
    /// exercised by this workload).
    pub fn per_layer(&mut self, values: &[(&'static str, f64)]) {
        if self.metrics.is_empty() {
            self.metrics = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        }
        for (name, value) in values {
            let slot = self
                .metrics
                .iter_mut()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
            slot.1 = *value;
        }
    }
}

/// Runs `setup` [`SETUPS`] times, and on until [`SETUP_BUDGET_SECS`] are
/// spent, timing each; keeps the last product and hands every earlier
/// one to `discard` outside the timed part. `host` is there when the
/// set-up runs on one thread: the reference kernel is then timed before
/// and after each set-up, and the seconds are those a calm host would
/// have taken (see [`crate::reference`]).
pub fn timed_setups<T>(
    mut host: Option<Kernel>,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut seconds = Vec::new();
    let mut spent = 0.0;
    let mut last = None;
    let mut speed_before = host.as_mut().map_or(1.0, Kernel::speed_now);
    while seconds.len() < SETUPS || spent < SETUP_BUDGET_SECS {
        if let Some(previous) = last.take() {
            discard(previous);
            speed_before = host.as_mut().map_or(1.0, Kernel::speed_now);
        }
        let start = Instant::now();
        last = Some(setup());
        let took = start.elapsed().as_secs_f64();
        let speed_after = host.as_mut().map_or(1.0, Kernel::speed_now);
        spent += took;
        seconds.push(took * (speed_before + speed_after) / 2.0);
    }
    (seconds, last.expect("at least one set-up"))
}

/// The traced pass's overhead: how much slower the traced run was than
/// the untraced run on the same inputs, as a share of the untraced time
/// (or of the untraced rate, for fixed-window workloads).
pub fn trace_overhead(untraced_cost: f64, traced_cost: f64) -> f64 {
    (traced_cost - untraced_cost) / untraced_cost
}

/// Where the benchmark writes: `out/` next to its manifest, expressed
/// relative to the working directory when that is possible, because
/// Unix socket paths are limited to about a hundred bytes.
pub fn out_dir() -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| out.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(out)
}

pub fn write_trace(tracer: &Tracer, workload: &str) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    if let Err(err) =
        std::fs::create_dir_all(out_dir()).and_then(|()| tracer.write(&path, workload))
    {
        eprintln!("warning: could not write {}: {err}", path.display());
    }
}
