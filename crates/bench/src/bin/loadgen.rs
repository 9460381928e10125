//! Latency/throughput load harness for the sharded threaded lock
//! service (experiment E9).
//!
//! ```text
//! cargo run --release -p oc-bench --bin loadgen                  # full battery
//! cargo run --release -p oc-bench --bin loadgen -- --quick       # CI smoke
//! cargo run --release -p oc-bench --bin loadgen -- --json        # BENCH_RT.json
//! cargo run --release -p oc-bench --bin loadgen -- \
//!     --n 256 --workers 8 --duration 5 --rate 300 --churn 4      # custom cell
//! ```
//!
//! Each cell spins up a fresh `oc_runtime::Runtime`, drives an open- or
//! closed-loop workload (optionally under crash churn), waits for the
//! service to settle, and reports acquire-to-grant latency quantiles
//! (p50/p99/p999), throughput, and the unmodified oracle verdicts. Any
//! violation — or a run that fails to settle — exits 1.

use std::time::Duration;

use oc_bench::cli::FlagParser;
use oc_bench::json::Value;
use oc_bench::loadgen::{
    battery, open_loop_gap, run_cell, spread_before, LoadCell, LoadMode, LOAD_COLS, SPREAD_BEFORE,
    TICK,
};
use oc_bench::report::{header, line, Artifact, Verdict};

const USAGE: &str = "\
Usage: loadgen [FLAGS]

Drives open- and closed-loop lock workloads against the threaded
runtime, reporting latency quantiles, throughput, and oracle verdicts.

  --quick         small battery (CI smoke)
  --json          write BENCH_RT.json
  --seed S        master seed (default: 42)
  --n N           custom cell: system size
  --workers W     custom cell: worker threads (default: 8)
  --duration SEC  custom cell: measurement window seconds (default: 5)
  --rate R        custom cell: open-loop requests/second
  --clients C     custom cell: closed-loop client count
  --namespaces K  custom cell: multi-tenant namespaces (needs --clients)
  --spread        custom cell: with --namespaces, each request at a random
                  node instead of the token's holder (the token moves)
  --churn K       custom cell: crash/recovery pairs across the window
  --partitions K  custom cell: partition/heal cycles across the window
  --help          this message

Without --n the standard battery runs (open loop at two scales,
closed-loop saturation, multi-tenant saturation at the dispatch ceiling
and spread over random nodes, open loop under crash churn, open loop
under partition churn); --quick shrinks it. Every custom-cell flag
needs --n, and a custom cell needs exactly one of --rate or --clients;
--clients with --namespaces drives the batched multi-tenant hot path
(fault-free: --churn/--partitions must stay 0).
";

struct Options {
    quick: bool,
    json: bool,
    seed: u64,
    n: Option<usize>,
    workers: usize,
    duration_secs: f64,
    rate: Option<u64>,
    clients: Option<usize>,
    namespaces: Option<usize>,
    spread: bool,
    churn: usize,
    partitions: usize,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        quick: false,
        json: false,
        seed: 42,
        n: None,
        workers: 8,
        duration_secs: 5.0,
        rate: None,
        clients: None,
        namespaces: None,
        spread: false,
        churn: 0,
        partitions: 0,
    };
    let mut cell_flag = None;
    let mut parser = FlagParser::new(USAGE, args);
    let positive = "a positive integer";
    while let Some(flag) = parser.next_flag() {
        if matches!(
            flag.name.as_str(),
            "--workers" | "--duration" | "--rate" | "--clients" | "--churn" | "--partitions"
        ) {
            cell_flag = Some(flag.name.clone());
        }
        match flag.name.as_str() {
            "--seed" => options.seed = parser.parsed(&flag, "an unsigned integer", |_| true),
            "--n" => options.n = Some(parser.parsed(&flag, "an integer ≥ 2", |&n| n >= 2)),
            "--workers" => options.workers = parser.parsed(&flag, positive, |&w| w > 0),
            "--duration" => {
                options.duration_secs = parser.parsed(&flag, "seconds > 0", |&d| d > 0.0);
            }
            "--rate" => options.rate = Some(parser.parsed(&flag, positive, |&r| r > 0)),
            "--clients" => options.clients = Some(parser.parsed(&flag, positive, |&c| c > 0)),
            "--namespaces" => options.namespaces = Some(parser.parsed(&flag, positive, |&k| k > 0)),
            "--churn" => options.churn = parser.parsed(&flag, "a count", |_| true),
            "--partitions" => options.partitions = parser.parsed(&flag, "a count", |_| true),
            "--quick" => options.quick = parser.switch(&flag),
            "--json" => options.json = parser.switch(&flag),
            "--spread" => options.spread = parser.switch(&flag),
            "--help" | "-h" => parser.help(),
            _ => parser.unknown(&flag),
        }
    }
    if let (None, Some(name)) = (options.n, cell_flag) {
        parser.usage_error(&format!("{name} shapes a custom cell: it needs --n"));
    }
    if options.rate.is_some() && options.clients.is_some() {
        parser.usage_error("choose one of --rate or --clients");
    }
    if options.n.is_some() && options.rate.is_none() && options.clients.is_none() {
        parser.usage_error("--n needs one of --rate or --clients");
    }
    if options.spread && options.namespaces.is_none() {
        parser.usage_error("--spread needs --namespaces");
    }
    if options.namespaces.is_some() {
        if options.clients.is_none() {
            parser.usage_error("--namespaces needs --clients");
        }
        if options.churn > 0 || options.partitions > 0 {
            parser.usage_error("--namespaces cells run fault-free (no --churn/--partitions)");
        }
    }
    options
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args);

    let cells: Vec<LoadCell> = match options.n {
        Some(n) => {
            let mode = match (options.rate, options.clients, options.namespaces) {
                (Some(rate_per_sec), None, None) => LoadMode::Open { rate_per_sec },
                (None, Some(clients), None) => LoadMode::Closed { clients },
                (None, Some(clients), Some(namespaces)) => {
                    LoadMode::Tenants { clients, namespaces, spread: options.spread }
                }
                _ => unreachable!("validated in parse_options"),
            };
            vec![LoadCell {
                n,
                workers: options.workers,
                duration: Duration::from_secs_f64(options.duration_secs),
                mode,
                churn_crashes: options.churn,
                partition_cycles: options.partitions,
                seed: options.seed,
            }]
        }
        None => battery(options.quick, options.seed),
    };

    println!(
        "== loadgen: {} cell(s), seed {}{} ==\n",
        cells.len(),
        options.seed,
        if options.quick { ", quick" } else { "" },
    );
    if let Some(rate) = options.rate {
        let (gap, realised) = open_loop_gap(rate);
        if realised != rate as f64 {
            println!(
                "   (--rate {rate} is offered as {realised:.1}/s: one arrival per {gap} tick(s) \
                 of {}µs)\n",
                TICK.as_micros(),
            );
        }
    }
    println!("{}", header(LOAD_COLS));
    // Row by row: a cell takes seconds, and its line is the progress.
    let rows: Vec<Value> = cells
        .iter()
        .map(|cell| {
            let row = run_cell(cell).to_json();
            println!("{}", line(LOAD_COLS, &row));
            row
        })
        .collect();

    let verdict = Verdict::of(&rows);
    println!("\n{verdict}");

    let (before_rev, spread_mode, before_acq, before_events) = SPREAD_BEFORE;
    for row in rows.iter().filter(|row| row.get("mode") == &Value::str(spread_mode)) {
        let acq_per_sec = row.get("acq_per_sec").num();
        println!(
            "{spread_mode}: {acq_per_sec:.0} acq/s at {:.2} events/acq; before ({before_rev}): \
             {before_acq:.0} acq/s at {before_events:.2} events/acq ({:.2}x)",
            row.get("events").num() / row.get("served").num(),
            acq_per_sec / before_acq,
        );
    }

    let mut artifact = Artifact::measured("rt", options.seed, options.quick, TICK, rows);
    artifact.extra.push(("spread_before", spread_before()));
    artifact.finish(options.json.then_some("BENCH_RT.json"));

    let Verdict { violations, unsettled, .. } = verdict;
    if violations > 0 || unsettled > 0 {
        eprintln!("error: {violations} oracle violation(s), {unsettled} unsettled run(s)");
        std::process::exit(1);
    }
}
