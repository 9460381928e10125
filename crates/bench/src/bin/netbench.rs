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

use oc_algo::Mutation;
use oc_bench::cli::FlagParser;
use oc_bench::json::Value;
use oc_bench::orchestrator::{
    net_battery, net_cell, run_scenario_sockets, sibling_node_binary, NetCell, TransportKind,
    NET_COLS, NET_TICK,
};
use oc_bench::report::{header, line, Artifact, Verdict};
use oc_check::{conforms, run_scenario_runtime, RuntimeProfile};

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
            "--seed" => options.seed = parser.parsed(&flag, "an unsigned integer", |_| true),
            "--n" => {
                let size = |n: &usize| *n >= 2 && n.is_power_of_two();
                options.n = Some(parser.parsed(&flag, "a power of two ≥ 2", size));
            }
            "--requests" => {
                options.requests = parser.parsed(&flag, "a positive integer", |&r| r > 0)
            }
            "--kill" => options.kill = Some(parser.parsed(&flag, "a node id ≥ 1", |&v| v > 0)),
            "--transport" => {
                let known = |t: &String| t == "tcp" || t == "uds";
                options.transport = match parser.parsed(&flag, "tcp or uds", known).as_str() {
                    "tcp" => TransportKind::Tcp,
                    _ => TransportKind::Uds,
                };
            }
            "--quick" => options.quick = parser.switch(&flag),
            "--json" => options.json = parser.switch(&flag),
            "--differential" => options.differential = parser.switch(&flag),
            "--help" | "-h" => parser.help(),
            _ => parser.unknown(&flag),
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
        Some(n) => {
            vec![net_cell(options.transport, n, options.requests, options.kill, options.seed)]
        }
        None => net_battery(options.quick, options.seed),
    };

    println!(
        "== netbench: {} cell(s), seed {}, tick {}µs{} ==\n",
        cells.len(),
        options.seed,
        NET_TICK.as_micros(),
        if options.quick { ", quick" } else { "" },
    );
    println!("{}", header(NET_COLS));

    let mut rows: Vec<Value> = Vec::with_capacity(cells.len());
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
        let shown = row.to_json();
        println!("{}", line(NET_COLS, &shown));
        rows.push(shown);
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
    }

    let verdict = Verdict::of(&rows);
    println!("\n{verdict} divergences={divergences}");
    Artifact::measured("net", options.seed, options.quick, NET_TICK, rows)
        .finish(options.json.then_some("BENCH_NET.json"));

    let Verdict { violations, unsettled, .. } = verdict;
    if violations > 0 || unsettled > 0 || divergences > 0 {
        eprintln!(
            "error: {violations} oracle violation(s), {unsettled} unsettled run(s), \
             {divergences} differential divergence(s)"
        );
        std::process::exit(1);
    }
}
