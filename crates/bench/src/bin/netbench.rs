//! Socket-deployment benchmark and conformance harness (experiment
//! E13).
//!
//! ```text
//! cargo run --release -p oc-bench --bin netbench                # full battery
//! cargo run --release -p oc-bench --bin netbench -- --quick     # CI smoke
//! cargo run --release -p oc-bench --bin netbench -- --json     # BENCH_NET.json
//! cargo run --release -p oc-bench --bin netbench -- \
//!     --transport uds --n 16 --requests 200 --kill 3           # custom cell
//! ```
//!
//! Each cell spawns `n` `oc-node` processes over TCP or Unix-domain
//! sockets, drives the arrival schedule through gateway connections,
//! optionally SIGKILLs and restarts one process mid-run, then merges
//! the per-process event logs and judges them with the unmodified
//! simulator oracles. Any violation — or a run that fails to settle —
//! exits 1. With `--differential`, every cell's scenario also runs
//! through the threaded runtime (`oc_check::run_scenario_runtime`, same
//! tick) and the two outcomes must conform.

use std::time::Duration;

use oc_algo::Mutation;
use oc_bench::cli::FlagParser;
use oc_bench::orchestrator::{
    net_artifact, net_battery, run_scenario_sockets, sibling_node_binary, NetCell, TransportKind,
    NET_TICK,
};
use oc_check::{conforms, run_scenario_runtime, GateKill, GateScenario, RuntimeProfile};

const USAGE: &str = "\
Usage: netbench [FLAGS]

Spawns one oc-node process per protocol node over TCP or Unix-domain
sockets, drives the E13 workload through gateway connections, and
judges the merged event logs with the unmodified oracles.

  --quick          small battery (CI smoke)
  --json           write BENCH_NET.json
  --differential   also run each scenario in-process and require conformance
  --seed S         master seed (default: 42)
  --transport T    custom cell: tcp or uds
  --n N            custom cell: system size (power of two)
  --requests R     custom cell: arrivals to inject (default: 200)
  --kill NODE      custom cell: SIGKILL/restart that node mid-run
  --help           this message

Without --n the standard battery runs (TCP and UDS clean cells plus a
UDS kill/heal cell); --quick shrinks it.
";

struct Options {
    quick: bool,
    json: bool,
    differential: bool,
    seed: u64,
    transport: TransportKind,
    n: Option<usize>,
    requests: usize,
    kill: Option<u32>,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        quick: false,
        json: false,
        differential: false,
        seed: 42,
        transport: TransportKind::Uds,
        n: None,
        requests: 200,
        kill: None,
    };
    let mut parser = FlagParser::new(USAGE, args);
    while let Some(flag) = parser.next_flag() {
        match flag.name.as_str() {
            "--seed" | "--n" | "--requests" | "--kill" | "--transport" => {
                let value = parser.value(&flag, "a value");
                let bad = |parser: &FlagParser| -> ! {
                    parser.usage_error(&format!("invalid {} value: {value:?}", flag.name));
                };
                match flag.name.as_str() {
                    "--seed" => options.seed = value.parse().unwrap_or_else(|_| bad(&parser)),
                    "--n" => {
                        options.n = Some(
                            value
                                .parse()
                                .ok()
                                .filter(|&n: &usize| n >= 2 && n.is_power_of_two())
                                .unwrap_or_else(|| bad(&parser)),
                        );
                    }
                    "--requests" => {
                        options.requests =
                            value.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| bad(&parser));
                    }
                    "--kill" => {
                        options.kill = Some(
                            value.parse().ok().filter(|&v| v > 0).unwrap_or_else(|| bad(&parser)),
                        );
                    }
                    "--transport" => {
                        options.transport = match value.as_str() {
                            "tcp" => TransportKind::Tcp,
                            "uds" => TransportKind::Uds,
                            _ => bad(&parser),
                        };
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
            "--differential" => options.differential = true,
            _ => parser.usage_error(&format!("unknown flag: {:?}", flag.raw)),
        }
    }
    if let (Some(n), Some(kill)) = (options.n, options.kill) {
        if kill as usize > n {
            parser.usage_error("--kill node must be within --n");
        }
    }
    options
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args);
    let node_bin = sibling_node_binary();
    if !node_bin.exists() {
        eprintln!("error: oc-node binary not found at {}", node_bin.display());
        eprintln!("build it first: cargo build --release -p oc-bench --bin oc-node");
        std::process::exit(1);
    }

    let cells: Vec<NetCell> = match options.n {
        Some(n) => vec![NetCell {
            transport: options.transport,
            scenario: GateScenario {
                n,
                requests: options.requests,
                gap_ticks: 20,
                delta_ticks: 40,
                cs_ticks: 20,
                slack_ticks: 20_000,
                seed: options.seed,
                kill: options.kill.map(|node| GateKill {
                    node,
                    at_ticks: 20 * (options.requests as u64 / 2),
                    recover_ticks: 20 * (options.requests as u64 / 2) + 4_000,
                }),
            },
            settle_timeout: Duration::from_secs(30),
        }],
        None => net_battery(options.quick, options.seed),
    };

    println!(
        "== netbench: {} cell(s), seed {}, tick {}µs{} ==\n",
        cells.len(),
        options.seed,
        NET_TICK.as_micros(),
        if options.quick { ", quick" } else { "" },
    );
    println!(
        "{:>5} {:>6} {:>9} {:>9} {:>6} {:>7} {:>8} {:>9} {:>10} {:>10} {:>10} {:>6}",
        "trans",
        "n",
        "injected",
        "served",
        "aband",
        "crashes",
        "recover",
        "wall s",
        "cs/s",
        "p50 µs",
        "p99 µs",
        "clean",
    );

    let mut rows = Vec::with_capacity(cells.len());
    let mut divergences = 0usize;
    for cell in &cells {
        let scenario = cell.scenario.scenario();
        let row =
            match run_scenario_sockets(&node_bin, cell.transport, &scenario, cell.settle_timeout) {
                Ok(row) => row,
                Err(err) => {
                    eprintln!("error: deployment failed: {err}");
                    std::process::exit(1);
                }
            };
        println!(
            "{:>5} {:>6} {:>9} {:>9} {:>6} {:>7} {:>8} {:>9.2} {:>10.1} {:>10.1} {:>10.1} {:>6}",
            row.transport,
            row.n,
            row.injected,
            row.served,
            row.abandoned,
            row.outcome.crashes,
            row.outcome.recoveries,
            row.wall_secs,
            row.cs_per_sec,
            row.p50_us,
            row.p99_us,
            if row.clean() { "yes" } else { "NO" },
        );
        if options.differential {
            let profile =
                RuntimeProfile { tick: NET_TICK, workers: 4, settle_timeout: cell.settle_timeout };
            let inprocess = run_scenario_runtime(&scenario, Mutation::None, &profile);
            let both = [("in-process", &inprocess), ("socket", &row.outcome)];
            match conforms(scenario.arrivals.len(), &both) {
                Ok(()) => println!(
                    "      conformance ok: in-process served {} == socket served {}",
                    inprocess.cs_entries, row.served
                ),
                Err(why) => {
                    eprintln!("      CONFORMANCE FAILURE: {why}");
                    divergences += 1;
                }
            }
        }
        rows.push(row);
    }

    let violations: usize =
        rows.iter().map(|row| row.safety_violations + row.liveness_violations).sum();
    let unsettled = rows.iter().filter(|row| !row.settled).count();
    println!(
        "\nsummary cells={} served={} abandoned={} violations={violations} \
         unsettled={unsettled} divergences={divergences}",
        rows.len(),
        rows.iter().map(|row| row.served).sum::<u64>(),
        rows.iter().map(|row| row.abandoned).sum::<u64>(),
    );

    if options.json {
        let doc = net_artifact(options.seed, options.quick, &rows);
        let path = std::path::Path::new("BENCH_NET.json");
        match doc.write_file(path) {
            Ok(()) => println!("   wrote BENCH_NET.json"),
            Err(err) => {
                eprintln!("error: could not write BENCH_NET.json: {err}");
                std::process::exit(1);
            }
        }
    }

    if violations > 0 || unsettled > 0 || divergences > 0 {
        eprintln!(
            "error: {violations} oracle violation(s), {unsettled} unsettled run(s), \
             {divergences} differential divergence(s)"
        );
        std::process::exit(1);
    }
}
