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
    bench_artifact, cli::FlagParser, e1_sweep, e2_sweep, e3_cells, e3_horizon_seed,
    e3_long_horizon, e3_summaries, e3_sweep, e4_average_sweep, e4_sweep, e5_sweep, e6_sweep,
    e7_cells, e7_sweep, json, render_figure_tree, sweep::SweepOutcome, E1Row, E2Row, E3Row,
    E3Summary, E4Average, E4Row, E5Row, E6Row, E7Row,
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
    threads: usize,
    /// `--threads` was given explicitly (E7 only shards its timing sweep
    /// when the user asked for it; see `e7`).
    threads_explicit: bool,
    master_seed: u64,
    selected: Vec<&'static str>,
}

const SELECTABLE: [&str; 9] = ["figures", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e11"];

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        quick: false,
        json: false,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads_explicit: false,
        master_seed: 42,
        selected: Vec::new(),
    };
    let mut parser = FlagParser::new(USAGE, args);
    while let Some(flag) = parser.next_flag() {
        match flag.name.as_str() {
            "--threads" => {
                let value = parser.value(&flag, "a positive integer");
                options.threads = value.parse().ok().filter(|&t| t > 0).unwrap_or_else(|| {
                    parser.usage_error(&format!("invalid --threads value: {value:?}"));
                });
                options.threads_explicit = true;
                continue;
            }
            "--seed" => {
                let value = parser.value(&flag, "an unsigned integer");
                options.master_seed = value.parse().unwrap_or_else(|_| {
                    parser.usage_error(&format!("invalid --seed value: {value:?}"));
                });
                continue;
            }
            _ => {}
        }
        // Every remaining flag is valueless: an inline `=value` (say
        // `--quick=false`) must be rejected, not silently discarded.
        parser.no_value(&flag);
        match flag.name.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--quick" => options.quick = true,
            "--json" => options.json = true,
            name => match SELECTABLE.iter().find(|sel| name == format!("--{sel}")) {
                Some(sel) => options.selected.push(sel),
                None => parser.usage_error(&format!("unknown flag: {:?}", flag.raw)),
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

/// Prints the sweep's execution footer and writes the JSON artifact when
/// requested.
fn finish<T>(
    options: &Options,
    experiment: &'static str,
    outcome: &SweepOutcome<T>,
    rows: Vec<json::Value>,
    extra: Vec<(&'static str, json::Value)>,
) {
    println!(
        "   [{} cells on {} thread(s): {:.2}s wall, {:.2}s busy, speedup {:.2}x]",
        outcome.results.len(),
        outcome.threads,
        outcome.wall_secs,
        outcome.busy_secs,
        outcome.speedup(),
    );
    if options.json {
        let doc =
            bench_artifact(experiment, options.master_seed, options.quick, outcome, rows, extra);
        let path_name = format!("BENCH_{}.json", experiment.to_uppercase());
        let path = std::path::Path::new(&path_name);
        match doc.write_file(path) {
            Ok(()) => println!("   wrote {path_name}"),
            Err(err) => {
                eprintln!("error: could not write {path_name}: {err}");
                std::process::exit(1);
            }
        }
    }
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
    println!("{:>6} {:>8} {:>10} {:>12} {:>10}", "N", "bound", "measured", "w/ return", "requests");
    let sizes: &[usize] =
        if options.quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64, 128, 256, 512, 1024] };
    let outcome = e1_sweep(sizes, 3, options.master_seed, options.threads, Hardening::None);
    for row in &outcome.results {
        println!(
            "{:>6} {:>8} {:>10} {:>12} {:>10}   {}",
            row.n,
            row.bound,
            row.measured_worst,
            row.measured_worst_with_return,
            row.requests,
            if row.measured_worst <= row.bound { "ok" } else { "VIOLATED" },
        );
    }
    let rows = outcome.results.iter().map(E1Row::to_json).collect();
    finish(options, "e1", &outcome, rows, Vec::new());
}

fn e2(options: &Options) {
    println!("== E2: average messages per request vs the α_p recurrence ==\n");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "N", "measured", "alpha_p", "avg", "3/4·p+5/4", "evolving"
    );
    let sizes: &[usize] =
        if options.quick { &[4, 16, 64] } else { &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] };
    let outcome = e2_sweep(sizes, options.master_seed, options.threads, Hardening::None);
    for row in &outcome.results {
        println!(
            "{:>6} {:>10} {:>10} {:>10.3} {:>12.3} {:>12.3}   {}",
            row.n,
            row.measured_total,
            row.alpha,
            row.measured_avg,
            row.closed_form,
            row.evolving_avg,
            if row.measured_total == row.alpha { "exact" } else { "MISMATCH" },
        );
    }
    let rows = outcome.results.iter().map(E2Row::to_json).collect();
    finish(options, "e2", &outcome, rows, Vec::new());
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
    let outcome = e3_sweep(&cells, options.master_seed, options.threads);
    println!(
        "{:>6} {:>9} {:>6} {:>14} {:>12} {:>9} {:>7} {:>9} {:>9}",
        "N",
        "failures",
        "rep",
        "overhead/fail",
        "extra/fail",
        "searches",
        "regen",
        "served",
        "injected"
    );
    for (cell, row) in cells.iter().zip(&outcome.results) {
        println!(
            "{:>6} {:>9} {:>6} {:>14.2} {:>12.2} {:>9} {:>7} {:>9} {:>9}",
            row.n,
            row.failures,
            cell.seed_index,
            row.overhead_per_failure,
            row.extra_per_failure,
            row.searches,
            row.regenerations,
            row.served,
            row.injected,
        );
    }
    println!("\n-- overhead/failure across {seeds} independent seeds (mean ± 95% CI) --");
    let summaries = e3_summaries(&cells, &outcome.results);
    for s in &summaries {
        println!(
            "{:>6} {:>9}   {:.2} ± {:.2}   (min {:.2}, max {:.2})",
            s.n, s.failures, s.overhead.mean, s.overhead.ci95, s.overhead.min, s.overhead.max
        );
    }
    let horizon = e3_horizon(options);
    let rows = outcome.results.iter().map(E3Row::to_json).collect();
    let extra = vec![
        ("summaries", json::Value::Arr(summaries.iter().map(E3Summary::to_json).collect())),
        ("long_horizon", horizon),
    ];
    finish(options, "e3", &outcome, rows, extra);
}

/// E3's long-horizon cells as measured at the parent of the change that
/// split the event queue into tiers and made the crash purge in place
/// (this host, master seed 42, one thread, median of three runs
/// alternated with this change's): `(failures, events per wall second)`.
/// The "before" half of `BENCH_E3.json`'s before/after rows; the event
/// counts are the same on both sides.
const E3_HORIZON_BEFORE: (&str, [(usize, f64); 3]) =
    ("f2b9131", [(200, 8_189_556.0), (2_000, 2_150_170.0), (20_000, 337_262.0)]);

/// E3's long-horizon group: the n = 64 cell stretched to 2 000 and 20 000
/// pre-scheduled failures, one after the other on this thread so the
/// wall-clock column is comparable. Returns the artifact's section.
fn e3_horizon(options: &Options) -> json::Value {
    let (before_rev, before) = E3_HORIZON_BEFORE;
    println!(
        "\n-- long horizon, n = 64: what a failure costs the simulator (before = {before_rev}) --"
    );
    println!(
        "{:>9} {:>10} {:>14} {:>8} {:>12} {:>14} {:>8}",
        "failures", "events", "overhead/fail", "wall s", "events/s", "before ev/s", "gain"
    );
    // Quick mode leaves out the longest horizon.
    let cells = &before[..if options.quick { 2 } else { before.len() }];
    let seed = e3_horizon_seed(options.master_seed, 64);
    let mut rows = Vec::new();
    for &(failures, before_eps) in cells {
        let row = e3_long_horizon(64, failures, seed);
        println!(
            "{:>9} {:>10} {:>14.2} {:>8.2} {:>12.0} {:>14.0} {:>7.1}x",
            row.failures,
            row.events,
            row.overhead_per_failure,
            row.wall_secs,
            row.events_per_sec,
            before_eps,
            row.events_per_sec / before_eps,
        );
        rows.push(json::Value::Obj(vec![
            ("n", json::Value::UInt(row.n as u64)),
            ("failures", json::Value::UInt(row.failures)),
            ("events", json::Value::UInt(row.events)),
            ("overhead_per_failure", json::Value::Num(row.overhead_per_failure)),
            ("wall_secs", json::Value::Num(row.wall_secs)),
            ("events_per_sec", json::Value::Num(row.events_per_sec)),
            ("before_events_per_sec", json::Value::Num(before_eps)),
        ]));
    }
    json::Value::Obj(vec![
        ("before_rev", json::Value::str(before_rev)),
        ("before_master_seed", json::Value::UInt(42)),
        ("rows", json::Value::Arr(rows)),
    ])
}

fn e4(options: &Options) {
    println!("== E4: search_father probe counts (ring d holds 2^(d-1) nodes) ==\n");
    println!(
        "{:>6} {:>13} {:>12} {:>10} {:>10} {:>6}",
        "N", "victim power", "predicted", "measured", "regen", "match"
    );
    let sizes: &[usize] = if options.quick { &[16, 64] } else { &[16, 64, 256, 1024] };
    let outcome = e4_sweep(sizes, options.master_seed, options.threads, Hardening::None);
    for row in &outcome.results {
        println!(
            "{:>6} {:>13} {:>12} {:>10} {:>10} {:>6}",
            row.n,
            row.victim_power,
            row.predicted_probes,
            row.measured_probes,
            row.regenerated,
            if row.predicted_probes == row.measured_probes { "ok" } else { "DIFF" },
        );
    }
    println!();
    println!("-- average probes per search over ALL failure positions (paper: O(log2 N)) --");
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>10}",
        "N", "searches", "measured", "predicted", "2*log2 N"
    );
    let averages = e4_average_sweep(sizes, options.master_seed, options.threads, Hardening::None);
    for row in &averages.results {
        println!(
            "{:>6} {:>9} {:>12.2} {:>12.2} {:>10.1}",
            row.n, row.searches, row.measured_mean, row.predicted_mean, row.two_log_n
        );
    }
    let rows = outcome.results.iter().map(E4Row::to_json).collect();
    let extra = vec![
        ("averages", json::Value::Arr(averages.results.iter().map(E4Average::to_json).collect())),
        ("averages_wall_secs", json::Value::Num(averages.wall_secs)),
        ("averages_busy_secs", json::Value::Num(averages.busy_secs)),
    ];
    finish(options, "e4", &outcome, rows, extra);
}

fn e5(options: &Options) {
    println!("== E5: comparison (avg / worst messages per CS) ==\n");
    println!(
        "{:>6} {:>14} {:>9} {:>10} {:>10} {:>12} {:>10} {:>11}",
        "N",
        "algorithm",
        "seq avg",
        "seq worst",
        "conc avg",
        "hotspot avg",
        "burst avg",
        "post-burst"
    );
    let sizes: &[usize] = if options.quick { &[16, 64] } else { &[8, 16, 32, 64, 128, 256] };
    let outcome = e5_sweep(sizes, options.master_seed, options.threads, Hardening::None);
    let mut current_n = 0usize;
    for row in &outcome.results {
        if current_n != 0 && row.n != current_n {
            println!();
        }
        current_n = row.n;
        println!(
            "{:>6} {:>14} {:>9.2} {:>10} {:>10.2} {:>12.2} {:>10.2} {:>11}",
            row.n,
            row.algo.name(),
            row.seq_avg,
            row.seq_worst,
            row.conc_avg,
            row.hotspot_avg,
            row.burst_avg,
            row.post_burst_worst,
        );
    }
    let rows = outcome.results.iter().map(E5Row::to_json).collect();
    finish(options, "e5", &outcome, rows, Vec::new());
}

fn e6(options: &Options) {
    println!("== E6 (ablation): suspicion-slack sensitivity (no failures injected) ==\n");
    println!(
        "{:>6} {:>8} {:>10} {:>13} {:>10} {:>8}",
        "N", "slack", "spurious", "wasted probes", "msgs/CS", "served"
    );
    let sizes: &[usize] = if options.quick { &[16] } else { &[16, 64] };
    let outcome = e6_sweep(sizes, options.master_seed, options.threads, Hardening::None);
    let mut current_n = 0usize;
    for row in &outcome.results {
        if current_n != 0 && row.n != current_n {
            println!();
        }
        current_n = row.n;
        println!(
            "{:>6} {:>8} {:>10} {:>13} {:>10.2} {:>8}",
            row.n,
            row.slack,
            row.spurious_searches,
            row.wasted_probes,
            row.msgs_per_cs,
            if row.all_served { "all" } else { "LOST" },
        );
    }
    let rows = outcome.results.iter().map(E6Row::to_json).collect();
    finish(options, "e6", &outcome, rows, Vec::new());
}

fn e7(options: &Options) {
    println!("== E7: engine throughput scaling (events/sec, heap vs bucketed queue) ==\n");
    println!(
        "{:>9} {:>10} {:>5} {:>10} {:>12} {:>12} {:>10} {:>8} {:>10} {:>14}",
        "N",
        "backend",
        "rep",
        "requests",
        "events",
        "messages",
        "msgs/req",
        "B/node",
        "wall s",
        "events/sec"
    );
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
    let threads = if options.threads_explicit { options.threads } else { 1 };
    if !options.threads_explicit && options.threads > 1 {
        println!("   (timing sweep pinned to 1 thread; pass --threads to shard and");
        println!("    accept contention in the wall-clock columns)");
    }
    let outcome = e7_sweep(&cells, threads);
    for (cell, row) in cells.iter().zip(&outcome.results) {
        println!(
            "{:>9} {:>10} {:>5} {:>10} {:>12} {:>12} {:>10.2} {:>8} {:>10.3} {:>14.0}",
            row.n,
            format!("{:?}", row.backend).to_lowercase(),
            cell.seed_index,
            row.requests,
            row.events,
            row.messages,
            row.messages as f64 / row.requests as f64,
            row.mem_bytes_per_node,
            row.wall_secs,
            row.events_per_sec,
        );
    }
    let rows = outcome.results.iter().map(E7Row::to_json).collect();
    finish(options, "e7", &outcome, rows, Vec::new());
}

/// Runs one sweep twice: baseline, then `Hardening::Quorum`.
fn ab<T>(run: impl Fn(Hardening) -> SweepOutcome<T>) -> (SweepOutcome<T>, SweepOutcome<T>) {
    (run(Hardening::None), run(Hardening::Quorum))
}

/// Prints and records one crash-free A/B verdict; returns `true` when the
/// hardened rows are identical to the baseline.
fn report_identical<T: std::fmt::Debug>(
    name: &'static str,
    base: &[T],
    hard: &[T],
    rows: &mut Vec<json::Value>,
) -> bool {
    let identical = format!("{base:?}") == format!("{hard:?}");
    println!(
        "{name:>4}: {:>3} cells — {}",
        base.len(),
        if identical {
            "hardened rows identical (0 extra messages)"
        } else {
            "HARDENED ROWS DIFFER"
        },
    );
    if !identical {
        for (b, h) in base.iter().zip(hard) {
            let (b, h) = (format!("{b:?}"), format!("{h:?}"));
            if b != h {
                println!("      base {b}\n      hard {h}");
            }
        }
    }
    rows.push(json::Value::Obj(vec![
        ("experiment", json::Value::str(name)),
        ("cells", json::Value::UInt(base.len() as u64)),
        ("crash_free", json::Value::Bool(true)),
        ("identical", json::Value::Bool(identical)),
    ]));
    identical
}

fn e11(options: &Options) {
    println!("== E11: quorum-hardening overhead, baseline vs Hardening::Quorum (quick rows) ==\n");
    let seed = options.master_seed;
    let threads = options.threads;
    let mut rows: Vec<json::Value> = Vec::new();
    let mut crash_free_ok = true;

    // Crash-free tables. Epoch-0 messages keep the legacy wire encoding
    // and mint traffic exists only on the regeneration path, so without
    // failures the hardened tables must not move by a single message —
    // identical rows IS the measured overhead of zero.
    println!("-- crash-free tables (must be byte-identical) --");
    {
        let (b, h) = ab(|h| e1_sweep(&[4, 16, 64], 3, seed, threads, h));
        crash_free_ok &= report_identical("e1", &b.results, &h.results, &mut rows);
    }
    {
        let (b, h) = ab(|h| e2_sweep(&[4, 16, 64], seed, threads, h));
        crash_free_ok &= report_identical("e2", &b.results, &h.results, &mut rows);
    }
    {
        let (b, h) = ab(|h| e5_sweep(&[16, 64], seed, threads, h));
        crash_free_ok &= report_identical("e5", &b.results, &h.results, &mut rows);
    }
    {
        let (b, h) = ab(|h| e6_sweep(&[16], seed, threads, h));
        crash_free_ok &= report_identical("e6", &b.results, &h.results, &mut rows);
    }
    {
        // E7's wall-clock columns are not protocol observables; compare
        // the virtual-time ones.
        let (b, h) = ab(|h| e7_sweep(&e7_cells(&[(4_096, 8_192, 2)], seed, h), 1));
        let project = |rows: &[E7Row]| -> Vec<(usize, String, u64, u64, u64, u64)> {
            rows.iter()
                .map(|r| {
                    (
                        r.n,
                        format!("{:?}", r.backend),
                        r.requests,
                        r.events,
                        r.messages,
                        r.mem_bytes_per_node,
                    )
                })
                .collect()
        };
        crash_free_ok &=
            report_identical("e7", &project(&b.results), &project(&h.results), &mut rows);
    }

    // Failure tables: regeneration now runs a mint ballot, so the mint
    // traffic shows up as measured overhead per failure.
    println!("\n-- failure tables (mint traffic is the measured overhead) --");
    println!(
        "{:>4} {:>6} {:>9} {:>15} {:>15} {:>12}",
        "exp", "N", "failures", "base ovhd/fail", "hard ovhd/fail", "extra/fail"
    );
    {
        let plan: &[(usize, usize)] = &[(32, 30), (64, 20)];
        let (b, h) = ab(|h| e3_sweep(&e3_cells(plan, 5, h), seed, threads));
        for (base, hard) in b.results.iter().zip(&h.results) {
            assert_eq!((base.n, base.failures), (hard.n, hard.failures));
            println!(
                "{:>4} {:>6} {:>9} {:>15.2} {:>15.2} {:>12.2}",
                "e3",
                base.n,
                base.failures,
                base.overhead_per_failure,
                hard.overhead_per_failure,
                hard.overhead_per_failure - base.overhead_per_failure,
            );
            rows.push(json::Value::Obj(vec![
                ("experiment", json::Value::str("e3")),
                ("n", json::Value::UInt(base.n as u64)),
                ("failures", json::Value::UInt(base.failures)),
                ("crash_free", json::Value::Bool(false)),
                ("base_overhead_per_failure", json::Value::Num(base.overhead_per_failure)),
                ("hardened_overhead_per_failure", json::Value::Num(hard.overhead_per_failure)),
                ("base_extra_per_failure", json::Value::Num(base.extra_per_failure)),
                ("hardened_extra_per_failure", json::Value::Num(hard.extra_per_failure)),
                ("served", json::Value::UInt(hard.served)),
            ]));
        }
    }
    {
        let (b, h) = ab(|h| e4_sweep(&[16, 64], seed, threads, h));
        for (base, hard) in b.results.iter().zip(&h.results) {
            assert_eq!((base.n, base.victim_power), (hard.n, hard.victim_power));
            println!(
                "{:>4} {:>6} {:>9} {:>15} {:>15} {:>12}",
                "e4",
                base.n,
                format!("p={}", base.victim_power),
                format!("{} probes", base.measured_probes),
                format!("{} probes", hard.measured_probes),
                format!("regen {}={}", base.regenerated, hard.regenerated),
            );
            rows.push(json::Value::Obj(vec![
                ("experiment", json::Value::str("e4")),
                ("n", json::Value::UInt(base.n as u64)),
                ("victim_power", json::Value::UInt(u64::from(base.victim_power))),
                ("crash_free", json::Value::Bool(false)),
                ("base_probes", json::Value::UInt(base.measured_probes)),
                ("hardened_probes", json::Value::UInt(hard.measured_probes)),
                ("base_regenerated", json::Value::UInt(base.regenerated)),
                ("hardened_regenerated", json::Value::UInt(hard.regenerated)),
            ]));
        }
    }

    println!(
        "\ncrash-free hardened overhead: {}",
        if crash_free_ok { "0 extra messages (all tables identical)" } else { "NONZERO" }
    );
    if options.json {
        let doc = json::Value::Obj(vec![
            ("schema_version", json::Value::UInt(1)),
            ("experiment", json::Value::str("e11")),
            ("master_seed", json::Value::UInt(seed)),
            ("quick", json::Value::Bool(true)),
            ("crash_free_identical", json::Value::Bool(crash_free_ok)),
            ("rows", json::Value::Arr(rows)),
        ]);
        match doc.write_file(std::path::Path::new("BENCH_E11.json")) {
            Ok(()) => println!("   wrote BENCH_E11.json"),
            Err(err) => {
                eprintln!("error: could not write BENCH_E11.json: {err}");
                std::process::exit(1);
            }
        }
    }
    println!();
    if !crash_free_ok {
        eprintln!(
            "error: Hardening::Quorum changed a crash-free table — the hardening must be \
             observationally free until a regeneration happens"
        );
        std::process::exit(1);
    }
}
