//! Regenerates every table and figure of the paper's evaluation, sharding
//! the experiment cells across worker threads and (optionally) emitting
//! machine-readable `BENCH_E*.json` artifacts.
//!
//! ```text
//! cargo run --release -p oc-bench --bin experiments                 # everything
//! cargo run --release -p oc-bench --bin experiments -- --e3        # one table
//! cargo run --release -p oc-bench --bin experiments -- --quick    # small sizes
//! cargo run --release -p oc-bench --bin experiments -- --threads 4 # worker threads
//! cargo run --release -p oc-bench --bin experiments -- --json     # BENCH_E*.json
//! ```
//!
//! `--threads N` sets the sweep worker count (default: all cores; results
//! are byte-identical at any thread count). `--json` writes one
//! `BENCH_E<k>.json` per selected experiment into the current directory —
//! the perf-trajectory artifacts CI and EXPERIMENTS.md track. `--seed S`
//! changes the master seed every cell seed derives from. Unknown flags are
//! rejected with a usage message.

use oc_algo::Hardening;
use oc_bench::{
    cli::FlagParser,
    e1_sweep, e2_sweep, e3_cells, e3_horizon_seed, e3_long_horizon, e3_summaries, e3_sweep,
    e4_average_sweep, e4_sweep, e5_sweep, e6_sweep, e7_cells, e7_sweep,
    json::Value,
    render_figure_tree,
    report::{col, print_table, Artifact, Col},
    sweep::SweepOutcome,
    E1_COLS, E2_COLS, E3_COLS, E3_HORIZON_BEFORE, E3_HORIZON_COLS, E3_SUMMARY_COLS,
    E4_AVERAGE_COLS, E4_COLS, E5_COLS, E6_COLS, E7_COLS, E7_VIRTUAL_KEYS,
};

const USAGE: &str = "\
Usage: experiments [FLAGS]

Regenerates the paper's evaluation tables (E1-E7 and the figures).
With no selection flags, everything runs.

Selection:
  --figures     canonical open-cube drawings (Figures 2a-2d)
  --e1 .. --e7  one experiment's table
  --e11         hardened-mode (quorum) overhead: every E1-E7 quick row
                runs twice, baseline vs Hardening::Quorum; crash-free
                tables must be byte-identical (exit 1 otherwise) and the
                failure tables report mint traffic per failure

Execution:
  --quick       small sizes (CI-friendly)
  --threads N   sweep worker threads (default: all cores; any N gives
                byte-identical virtual-time results). E7's timing sweep
                stays on 1 thread unless --threads is given, so its
                wall-clock columns aren't skewed by sibling-cell
                contention.
  --seed S      master seed the per-cell seeds derive from (default: 42)
  --json        also write BENCH_E<k>.json per selected experiment
  --help        this message
";

/// Parsed command line.
struct Options {
    quick: bool,
    json: bool,
    /// `--threads`, when given (E7 only shards its timing sweep when the
    /// user asked for it; see `e7`).
    threads: Option<usize>,
    master_seed: u64,
    selected: Vec<&'static str>,
}

impl Options {
    /// Sweep worker threads: `--threads`, or else all cores.
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

const SELECTABLE: [&str; 9] = ["figures", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e11"];

fn parse_options(args: &[String]) -> Options {
    let mut options =
        Options { quick: false, json: false, threads: None, master_seed: 42, selected: Vec::new() };
    let mut parser = FlagParser::new(USAGE, args);
    while let Some(flag) = parser.next_flag() {
        match flag.name.as_str() {
            "--threads" => {
                options.threads = Some(parser.parsed(&flag, "a positive integer", |&t| t > 0));
            }
            "--seed" => options.master_seed = parser.parsed(&flag, "an unsigned integer", |_| true),
            "--quick" => options.quick = parser.switch(&flag),
            "--json" => options.json = parser.switch(&flag),
            "--help" | "-h" => parser.help(),
            name => match SELECTABLE.iter().find(|sel| name == format!("--{sel}")) {
                Some(sel) if parser.switch(&flag) => options.selected.push(sel),
                _ => parser.unknown(&flag),
            },
        }
    }
    if options.selected.is_empty() {
        options.selected = SELECTABLE.to_vec();
    }
    options
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args);
    for name in &options.selected {
        match *name {
            "figures" => figures(),
            "e1" => e1(&options),
            "e2" => e2(&options),
            "e3" => e3(&options),
            "e4" => e4(&options),
            "e5" => e5(&options),
            "e6" => e6(&options),
            "e7" => e7(&options),
            "e11" => e11(&options),
            _ => unreachable!("parse_options only admits SELECTABLE names"),
        }
    }
}

/// Ends one experiment's report: the sweep footer and, under `--json`,
/// `BENCH_<EXPERIMENT>.json` with the sweep's rows.
fn finish(
    options: &Options,
    experiment: &'static str,
    outcome: SweepOutcome<Value>,
    extra: Vec<(&'static str, Value)>,
) {
    let path = format!("BENCH_{}.json", experiment.to_uppercase());
    Artifact {
        experiment,
        master_seed: options.master_seed,
        quick: options.quick,
        timing: Some(outcome.timing),
        rows: outcome.results,
        extra,
    }
    .finish(options.json.then_some(path.as_str()));
    println!();
}

fn figures() {
    println!("== Figures 2a-2d: canonical open-cubes ==\n");
    for n in [2usize, 4, 8, 16] {
        println!("-- {n}-open-cube --");
        println!("{}", render_figure_tree(n));
    }
}

fn e1(options: &Options) {
    println!("== E1: worst-case messages per request (bound: log2 N + 1) ==\n");
    let sizes: &[usize] =
        if options.quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64, 128, 256, 512, 1024] };
    let outcome = e1_sweep(sizes, 3, options.master_seed, options.threads(), Hardening::None);
    print_table(E1_COLS, &outcome.results);
    finish(options, "e1", outcome, Vec::new());
}

fn e2(options: &Options) {
    println!("== E2: average messages per request vs the α_p recurrence ==\n");
    let sizes: &[usize] =
        if options.quick { &[4, 16, 64] } else { &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] };
    let outcome = e2_sweep(sizes, options.master_seed, options.threads(), Hardening::None);
    print_table(E2_COLS, &outcome.results);
    finish(options, "e2", outcome, Vec::new());
}

fn e3(options: &Options) {
    println!(
        "== E3: overhead messages per failure (paper: 8 at N=32/300f, 9.75 at N=64/200f) ==\n"
    );
    let plan: &[(usize, usize)] = if options.quick {
        &[(32, 30), (64, 20)]
    } else {
        &[(16, 100), (32, 300), (64, 200), (128, 100)]
    };
    let seeds = 5;
    let cells = e3_cells(plan, seeds, Hardening::None);
    let outcome = e3_sweep(&cells, options.master_seed, options.threads());
    print_table(E3_COLS, &outcome.results);
    println!("\n-- overhead/failure across {seeds} independent seeds (mean ± 95% CI) --");
    let summaries = e3_summaries(&outcome.results);
    print_table(E3_SUMMARY_COLS, &summaries);

    // The long-horizon group: the n = 64 cell stretched to 2 000 and
    // 20 000 pre-scheduled failures (quick mode leaves out the longest),
    // one after the other on this thread so the wall-clock column is
    // comparable.
    let (before_rev, before) = E3_HORIZON_BEFORE;
    println!(
        "\n-- long horizon, n = 64: what a failure costs the simulator (before = {before_rev}) --"
    );
    let seed = e3_horizon_seed(options.master_seed, 64);
    let horizon: Vec<Value> = before[..if options.quick { 2 } else { before.len() }]
        .iter()
        .map(|&(failures, before_eps)| e3_long_horizon(64, failures, seed, before_eps))
        .collect();
    print_table(E3_HORIZON_COLS, &horizon);
    let long_horizon = Value::Obj(vec![
        ("before_rev", Value::str(before_rev)),
        ("before_master_seed", Value::UInt(42)),
        ("rows", Value::Arr(horizon)),
    ]);
    let extra = vec![("summaries", Value::Arr(summaries)), ("long_horizon", long_horizon)];
    finish(options, "e3", outcome, extra);
}

fn e4(options: &Options) {
    println!("== E4: search_father probe counts (ring d holds 2^(d-1) nodes) ==\n");
    let sizes: &[usize] = if options.quick { &[16, 64] } else { &[16, 64, 256, 1024] };
    let outcome = e4_sweep(sizes, options.master_seed, options.threads(), Hardening::None);
    print_table(E4_COLS, &outcome.results);
    println!("\n-- average probes per search over ALL failure positions (paper: O(log2 N)) --");
    let averages = e4_average_sweep(sizes, options.master_seed, options.threads(), Hardening::None);
    print_table(E4_AVERAGE_COLS, &averages.results);
    let extra = vec![
        ("averages", Value::Arr(averages.results)),
        ("averages_wall_secs", Value::Num(averages.timing.wall_secs)),
        ("averages_busy_secs", Value::Num(averages.timing.busy_secs)),
    ];
    finish(options, "e4", outcome, extra);
}

fn e5(options: &Options) {
    println!("== E5: comparison (avg / worst messages per CS) ==\n");
    let sizes: &[usize] = if options.quick { &[16, 64] } else { &[8, 16, 32, 64, 128, 256] };
    let outcome = e5_sweep(sizes, options.master_seed, options.threads(), Hardening::None);
    print_table(E5_COLS, &outcome.results);
    finish(options, "e5", outcome, Vec::new());
}

fn e6(options: &Options) {
    println!("== E6 (ablation): suspicion-slack sensitivity (no failures injected) ==\n");
    let sizes: &[usize] = if options.quick { &[16] } else { &[16, 64] };
    let outcome = e6_sweep(sizes, options.master_seed, options.threads(), Hardening::None);
    print_table(E6_COLS, &outcome.results);
    finish(options, "e6", outcome, Vec::new());
}

fn e7(options: &Options) {
    println!("== E7: engine throughput scaling (events/sec, heap vs bucketed queue) ==\n");
    // (n, requests, independent seeds): the scaling ladder tops out at
    // n = 2^24 — the Corten-scale target of the ROADMAP. The 2^22 and
    // 2^24 rungs run one request per node at a single seed: at that size
    // the workload is statistically self-averaging and a second
    // repetition would only double a multi-minute run.
    let plan: &[(usize, usize, usize)] = if options.quick {
        &[(4_096, 8_192, 2)]
    } else {
        &[
            (4_096, 8_192, 2),
            (65_536, 131_072, 2),
            (1_048_576, 1_048_576, 1),
            (4_194_304, 4_194_304, 1),
            (16_777_216, 16_777_216, 1),
        ]
    };
    let cells = e7_cells(plan, options.master_seed, Hardening::None);
    // E7's wall-clock columns are the artifact of record: concurrent
    // sibling cells would contend for memory bandwidth and skew them, so
    // the timing sweep stays serial unless the user explicitly shards it.
    if options.threads.is_none() && options.threads() > 1 {
        println!("   (timing sweep pinned to 1 thread; pass --threads to shard and");
        println!("    accept contention in the wall-clock columns)");
    }
    let outcome = e7_sweep(&cells, options.threads.unwrap_or(1));
    print_table(E7_COLS, &outcome.results);
    finish(options, "e7", outcome, Vec::new());
}

/// E11's crash-free table: one row per experiment compared.
const E11_IDENTICAL_COLS: &[Col] = &[
    col("exp", "experiment", 4, 0),
    col("cells", "cells", 6, 0),
    col("hardened rows identical", "identical", 24, 0),
];

/// E11's E3 table: per-failure overhead, baseline against hardened.
const E11_E3_COLS: &[Col] = &[
    col("exp", "experiment", 4, 0),
    col("N", "n", 6, 0),
    col("failures", "failures", 9, 0),
    col("base ovhd/fail", "base_overhead_per_failure", 15, 2),
    col("hard ovhd/fail", "hardened_overhead_per_failure", 15, 2),
    col("base extra/fail", "base_extra_per_failure", 16, 2),
    col("hard extra/fail", "hardened_extra_per_failure", 16, 2),
    col("served", "served", 8, 0),
];

/// E11's E4 table: probes and regenerations, baseline against hardened.
const E11_E4_COLS: &[Col] = &[
    col("exp", "experiment", 4, 0),
    col("N", "n", 6, 0),
    col("power", "victim_power", 9, 0),
    col("base probes", "base_probes", 15, 0),
    col("hard probes", "hardened_probes", 15, 0),
    col("base regen", "base_regenerated", 16, 0),
    col("hard regen", "hardened_regenerated", 16, 0),
];

/// One sweep's rows under a given hardening.
type Rows<'a> = &'a dyn Fn(Hardening) -> Vec<Value>;

/// One sweep's rows twice: baseline, then `Hardening::Quorum`.
fn ab(run: Rows) -> (Vec<Value>, Vec<Value>) {
    (run(Hardening::None), run(Hardening::Quorum))
}

/// One row of a failure table: `shared` keys as the baseline has them,
/// then each `(baseline key, hardened key, row key)` side by side, then
/// `kept` keys as the hardened run has them.
fn side_by_side(
    experiment: &'static str,
    (base, hard): (&Value, &Value),
    shared: &[&'static str],
    paired: &[(&'static str, &'static str, &'static str)],
    kept: &[&'static str],
) -> Value {
    let field = |from: &Value, key: &'static str| (key, from.get(key).clone());
    assert!(shared.iter().all(|key| base.get(key) == hard.get(key)), "rows of different cells");
    let mut fields = vec![("experiment", Value::str(experiment))];
    fields.extend(shared.iter().map(|key| field(base, key)));
    fields.push(("crash_free", Value::Bool(false)));
    for &(base_key, hard_key, key) in paired {
        fields.extend([(base_key, base.get(key).clone()), (hard_key, hard.get(key).clone())]);
    }
    fields.extend(kept.iter().map(|key| field(hard, key)));
    Value::Obj(fields)
}

fn e11(options: &Options) {
    println!("== E11: quorum-hardening overhead, baseline vs Hardening::Quorum (quick rows) ==\n");
    let (seed, threads) = (options.master_seed, options.threads());

    // Crash-free tables. Epoch-0 messages keep the legacy wire encoding
    // and mint traffic exists only on the regeneration path, so without
    // failures the hardened tables must not move by a single message —
    // identical rows IS the measured overhead of zero. (E7's wall-clock
    // columns are not protocol observables; its virtual-time ones are
    // compared.)
    println!("-- crash-free tables (must be byte-identical: 0 extra messages) --");
    let e7_virtual = |h| {
        let rows = e7_sweep(&e7_cells(&[(4_096, 8_192, 2)], seed, h), 1).results;
        rows.iter().map(|row| row.pick(E7_VIRTUAL_KEYS)).collect()
    };
    let crash_free: [(&'static str, Rows); 5] = [
        ("e1", &|h| e1_sweep(&[4, 16, 64], 3, seed, threads, h).results),
        ("e2", &|h| e2_sweep(&[4, 16, 64], seed, threads, h).results),
        ("e5", &|h| e5_sweep(&[16, 64], seed, threads, h).results),
        ("e6", &|h| e6_sweep(&[16], seed, threads, h).results),
        ("e7", &e7_virtual),
    ];
    let mut rows: Vec<Value> = Vec::new();
    for (experiment, run) in crash_free {
        let (base, hard) = ab(run);
        for (b, h) in base.iter().zip(&hard).filter(|(b, h)| b != h) {
            print!("      {experiment} base {}      {experiment} hard {}", b.render(), h.render());
        }
        rows.push(Value::Obj(vec![
            ("experiment", Value::str(experiment)),
            ("cells", Value::UInt(base.len() as u64)),
            ("crash_free", Value::Bool(true)),
            ("identical", Value::Bool(base == hard)),
        ]));
    }
    print_table(E11_IDENTICAL_COLS, &rows);
    let crash_free_ok = rows.iter().all(|row| row.get("identical") == &Value::Bool(true));

    // Failure tables: regeneration now runs a mint ballot, so the mint
    // traffic shows up as measured overhead per failure.
    println!("\n-- failure tables (mint traffic is the measured overhead) --");
    let plan: &[(usize, usize)] = &[(32, 30), (64, 20)];
    let (base, hard) = ab(&|h| e3_sweep(&e3_cells(plan, 5, h), seed, threads).results);
    let e3_rows: Vec<Value> = std::iter::zip(&base, &hard)
        .map(|pair| {
            let paired = [
                (
                    "base_overhead_per_failure",
                    "hardened_overhead_per_failure",
                    "overhead_per_failure",
                ),
                ("base_extra_per_failure", "hardened_extra_per_failure", "extra_per_failure"),
            ];
            side_by_side("e3", pair, &["n", "failures"], &paired, &["served"])
        })
        .collect();
    print_table(E11_E3_COLS, &e3_rows);
    println!();
    let (base, hard) = ab(&|h| e4_sweep(&[16, 64], seed, threads, h).results);
    let e4_rows: Vec<Value> = std::iter::zip(&base, &hard)
        .map(|pair| {
            let paired = [
                ("base_probes", "hardened_probes", "measured_probes"),
                ("base_regenerated", "hardened_regenerated", "regenerated"),
            ];
            side_by_side("e4", pair, &["n", "victim_power"], &paired, &[])
        })
        .collect();
    print_table(E11_E4_COLS, &e4_rows);
    rows.extend(e3_rows);
    rows.extend(e4_rows);

    println!(
        "\ncrash-free hardened overhead: {}",
        if crash_free_ok { "0 extra messages (all tables identical)" } else { "NONZERO" }
    );
    Artifact {
        experiment: "e11",
        master_seed: seed,
        quick: true,
        timing: None,
        rows,
        extra: vec![("crash_free_identical", Value::Bool(crash_free_ok))],
    }
    .finish(options.json.then_some("BENCH_E11.json"));
    println!();
    if !crash_free_ok {
        eprintln!(
            "error: Hardening::Quorum changed a crash-free table — the hardening must be \
             observationally free until a regeneration happens"
        );
        std::process::exit(1);
    }
}
