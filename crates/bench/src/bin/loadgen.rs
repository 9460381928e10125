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
use oc_bench::loadgen::{battery, loadgen_artifact, run_cell, LoadCell, LoadMode, SPREAD_BEFORE};

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

Without --n/--rate/--clients the standard battery runs (open loop at
two scales, closed-loop saturation, multi-tenant saturation at the
dispatch ceiling and spread over random nodes, open loop under crash
churn, open loop under partition churn); --quick shrinks it. A custom
cell needs --n plus exactly one of --rate or --clients; --clients with
--namespaces drives the batched multi-tenant hot path (fault-free:
--churn/--partitions must stay 0).
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
    let mut parser = FlagParser::new(USAGE, args);
    while let Some(flag) = parser.next_flag() {
        match flag.name.as_str() {
            "--seed" | "--n" | "--workers" | "--duration" | "--rate" | "--clients"
            | "--namespaces" | "--churn" | "--partitions" => {
                let value = parser.value(&flag, "a number");
                let bad = |parser: &FlagParser| -> ! {
                    parser.usage_error(&format!("invalid {} value: {value:?}", flag.name));
                };
                match flag.name.as_str() {
                    "--seed" => {
                        options.seed = value.parse().unwrap_or_else(|_| bad(&parser));
                    }
                    "--n" => {
                        options.n =
                            Some(value.parse().ok().filter(|&n| n >= 2).unwrap_or_else(|| {
                                bad(&parser);
                            }));
                    }
                    "--workers" => {
                        options.workers =
                            value.parse().ok().filter(|&w| w > 0).unwrap_or_else(|| {
                                bad(&parser);
                            });
                    }
                    "--duration" => {
                        options.duration_secs =
                            value.parse().ok().filter(|&d: &f64| d > 0.0).unwrap_or_else(|| {
                                bad(&parser);
                            });
                    }
                    "--rate" => {
                        options.rate =
                            Some(value.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| {
                                bad(&parser);
                            }));
                    }
                    "--clients" => {
                        options.clients =
                            Some(value.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                                bad(&parser);
                            }));
                    }
                    "--namespaces" => {
                        options.namespaces =
                            Some(value.parse().ok().filter(|&k| k > 0).unwrap_or_else(|| {
                                bad(&parser);
                            }));
                    }
                    "--churn" => {
                        options.churn = value.parse().unwrap_or_else(|_| bad(&parser));
                    }
                    "--partitions" => {
                        options.partitions = value.parse().unwrap_or_else(|_| bad(&parser));
                    }
                    _ => unreachable!(),
                }
                continue;
            }
            _ => {}
        }
        parser.no_value(&flag);
        match flag.name.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--quick" => options.quick = true,
            "--json" => options.json = true,
            "--spread" => options.spread = true,
            _ => parser.usage_error(&format!("unknown flag: {:?}", flag.raw)),
        }
    }
    if (options.rate.is_some() || options.clients.is_some()) && options.n.is_none() {
        parser.usage_error("--rate/--clients need --n");
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
    println!(
        "{:>14} {:>6} {:>3} {:>3} {:>6} {:>5} {:>9} {:>9} {:>5} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "mode",
        "n",
        "wrk",
        "ns",
        "churn",
        "cuts",
        "injected",
        "served",
        "aband",
        "events/s",
        "cs/s",
        "acq/s",
        "p50 µs",
        "p99 µs",
        "p999 µs",
        "max µs",
        "clean",
    );

    let mut rows = Vec::with_capacity(cells.len());
    for cell in &cells {
        let row = run_cell(cell);
        println!(
            "{:>14} {:>6} {:>3} {:>3} {:>6} {:>5} {:>9} {:>9} {:>5} {:>10.0} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>6}",
            row.mode,
            row.n,
            row.workers,
            row.namespaces,
            row.churn_crashes,
            row.partition_cycles,
            row.injected,
            row.served,
            row.abandoned,
            row.events_per_sec,
            row.cs_per_sec,
            row.acq_per_sec,
            row.latency.p50_nanos as f64 / 1_000.0,
            row.latency.p99_nanos as f64 / 1_000.0,
            row.latency.p999_nanos as f64 / 1_000.0,
            row.latency.max_nanos as f64 / 1_000.0,
            if row.clean() { "yes" } else { "NO" },
        );
        rows.push(row);
    }

    let violations: usize =
        rows.iter().map(|row| row.safety_violations + row.liveness_violations).sum();
    let unsettled = rows.iter().filter(|row| !row.settled).count();
    println!(
        "\nsummary cells={} served={} abandoned={} violations={violations} unsettled={unsettled}",
        rows.len(),
        rows.iter().map(|row| row.served).sum::<u64>(),
        rows.iter().map(|row| row.abandoned).sum::<u64>(),
    );

    let (before_rev, spread_mode, before_acq, before_events) = SPREAD_BEFORE;
    for row in rows.iter().filter(|row| row.mode == spread_mode) {
        println!(
            "{spread_mode}: {:.0} acq/s at {:.2} events/acq; before ({before_rev}): \
             {before_acq:.0} acq/s at {before_events:.2} events/acq ({:.2}x)",
            row.acq_per_sec,
            row.events as f64 / row.served as f64,
            row.acq_per_sec / before_acq,
        );
    }

    if options.json {
        let doc = loadgen_artifact(options.seed, options.quick, &rows);
        let path = std::path::Path::new("BENCH_RT.json");
        match doc.write_file(path) {
            Ok(()) => println!("   wrote BENCH_RT.json"),
            Err(err) => {
                eprintln!("error: could not write BENCH_RT.json: {err}");
                std::process::exit(1);
            }
        }
    }

    if violations > 0 || unsettled > 0 {
        eprintln!("error: {violations} oracle violation(s), {unsettled} unsettled run(s)");
        std::process::exit(1);
    }
}
