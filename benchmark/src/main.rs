//! `oc-benchmark` — the repository's one benchmark.
//!
//! ```text
//! oc-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! oc-benchmark [--seed n] [--seconds s] [--trace 0|1] every workload, each in a child process
//! oc-benchmark --list                                 every metric, nothing run
//! oc-benchmark --compare <a.json> <b.json>            two result files against the bounds
//! ```
//!
//! With `--workload` the process runs that workload and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a traced pass. Without it, the process only spawns one
//! such child per workload (so each has its own peak memory, set-up and
//! heap) and merges their lines into `out/result.json`; `--trace 1` there
//! adds a traced child after each untraced one.
//!
//! Started the way the orchestrator starts a node (`--id <i> --n <n>
//! ...`), the executable is that node: `cargo run` builds only the binary
//! it runs, so `net-open` cannot count on an `oc-node` beside it and hands
//! `run_deployment` its own path instead.

mod host;
mod json;
mod metrics;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{as_f64, at, get, line, parse, Value};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{check, net, out_dir, rt, sim, Args, Report};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: f64 = 15.0;
const DETAIL_PREFIX: &str = "detail: ";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        list: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--list" => cli.list = true,
            "--compare" => {
                cli.compare = Some((value("two result files")?, value("two result files")?))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; known: {}", known.join(", ")));
        }
    }
    Ok(cli)
}

/// `oc-node`'s whole body: `oc_transport` parses the command line and
/// runs the node until a `Shutdown` frame arrives.
fn node_main() -> ExitCode {
    let run = oc_transport::parse_args(std::env::args().skip(1))
        .and_then(|opts| oc_transport::run(opts).map_err(|err| format!("fatal: {err}")));
    host::leave_peak_rss();
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("oc-node: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--id") {
        return node_main();
    }
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("oc-benchmark: {msg}");
            eprintln!(
                "usage: oc-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] | --list | --compare <a> <b>"
            );
            return ExitCode::from(2);
        }
    };
    let ok = if cli.list {
        list();
        true
    } else if let Some((a, b)) = &cli.compare {
        compare(a, b)
    } else if let Some(name) = &cli.workload {
        run_workload(name, &Args { seed: cli.seed, seconds: cli.seconds, trace: cli.trace })
    } else {
        run_all(&cli)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads");
    for w in WORKLOADS {
        println!("  {:<15} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, untraced pass)");
    for m in END_TO_END {
        println!(
            "  {:<38} {:<6} {:<7} bound {:>4.0} %   {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced pass; 0 where the workload does not use the layer)");
    for m in PER_LAYER {
        println!("  {:<38} {:<6} {:<7} moves: {}", m.name, m.unit, m.better.as_str(), m.moves);
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or_else(
            // Diagnostics of the untraced pass that are in neither table.
            || match name {
                "events_per_s" | "acq_per_s.uncorrected" => "1/s",
                "host.speed" => "share",
                "host.kernel_us_mean" | "host.kernel_us_min" => "us",
                "host.kernel_samples" => "count",
                "cpu_us_per_acq" | "net.backlog_wait_p50_us" => "us",
                "sim.wall_s" | "setup_s.first" | "setup_s.min" | "setup_s.max" => "s",
                "setup_s.count" => "count",
                "sim.mem_bytes_per_node" => "B",
                _ => "",
            },
            |(_, unit)| unit,
        )
}

/// Runs one workload in this process and prints its report; the last
/// line is the result object.
fn run_workload(name: &str, args: &Args) -> bool {
    let start = Instant::now();
    let report: Report = match name {
        "sim-scale" => sim::run(sim::Shape::Scale, args),
        "sim-faults" => sim::run(sim::Shape::Faults, args),
        "check-battery" => check::run(args),
        "rt-contended" => rt::run(rt::Shape::Contended, args),
        "rt-dispatch" => rt::run(rt::Shape::Dispatch, args),
        "net-open" => net::run(args),
        other => unreachable!("parse_cli admitted {other}"),
    };
    let wall = start.elapsed().as_secs_f64();

    println!(
        "workload {name}  seed {}  seconds {}  trace {}  ({wall:.2} s in all)",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (metric, value) in &report.metrics {
        println!("  {metric:<38} {value:>22} {}", unit_of(metric));
    }
    for (metric, value) in &report.exact {
        println!("  exact {metric:<32} {}", line(value));
    }
    for (metric, value) in &report.diagnostics {
        println!("  diag  {metric:<32} {value:>22} {}", unit_of(metric));
    }
    for note in &report.notes {
        println!("  note  {note}");
    }
    for miss in &report.misses {
        println!("  MISS  {miss}");
    }

    let detail = Value::Obj(vec![
        ("workload", Value::str(name)),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("wall_s", Value::Num(wall)),
        ("exact", Value::Obj(report.exact.clone())),
        (
            "diagnostics",
            Value::Obj(report.diagnostics.iter().map(|(k, v)| (*k, Value::Num(*v))).collect()),
        ),
        ("notes", Value::Arr(report.notes.iter().map(Value::str).collect())),
        ("misses", Value::Arr(report.misses.iter().map(Value::str).collect())),
    ]);
    println!("{DETAIL_PREFIX}{}", line(&detail));

    let metrics = report.metrics.iter().map(|(metric, value)| {
        let entry = vec![("value", Value::Num(*value)), ("unit", Value::str(unit_of(metric)))];
        (*metric, Value::Obj(entry))
    });
    let result = Value::Obj(vec![
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::UInt(report.attempted)),
        ("failed", Value::UInt(report.failed)),
        ("metrics", Value::Obj(metrics.collect())),
    ]);
    println!("{}", line(&result));
    report.correct()
}

/// One child's two machine-readable lines.
struct ChildOutput {
    result: Value,
    detail: Value,
}

fn spawn_workload(name: &str, cli: &Cli, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Value::Null;
    let mut last = "";
    for text in stdout.lines() {
        match text.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = parse(json).map_err(|e| format!("{name}: detail line: {e}"))?,
            None => {
                println!("{text}");
                last = text;
            }
        }
    }
    let result =
        parse(last).map_err(|e| format!("{name}: no result line ({e}); exit {}", output.status))?;
    Ok(ChildOutput { result, detail })
}

/// Parent mode: every workload in a child of its own, merged into
/// `out/result.json`.
fn run_all(cli: &Cli) -> bool {
    let start = Instant::now();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let mut passes = vec![("untraced", false)];
        if cli.trace {
            passes.push(("traced", true));
        }
        let mut row = vec![("name", Value::str(w.name)), ("why", Value::str(w.why))];
        for (label, trace) in passes {
            match spawn_workload(w.name, cli, trace) {
                Ok(child) => {
                    ok &= get(&child.result, "correct") == Some(&Value::Bool(true));
                    row.push((
                        label,
                        Value::Obj(vec![("result", child.result), ("detail", child.detail)]),
                    ));
                }
                Err(msg) => {
                    eprintln!("oc-benchmark: {msg}");
                    ok = false;
                }
            }
        }
        rows.push(Value::Obj(row));
    }
    let doc = Value::Obj(vec![
        ("schema", Value::UInt(1)),
        ("provenance", host::provenance()),
        ("seed", Value::UInt(cli.seed)),
        ("seconds", Value::Num(cli.seconds)),
        ("correct", Value::Bool(ok)),
        ("total_wall_s", Value::Num(start.elapsed().as_secs_f64())),
        ("workloads", Value::Arr(rows)),
    ]);
    let path = out_dir().join("result.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| doc.write_file(&path)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("oc-benchmark: cannot write {}: {err}", path.display());
            ok = false;
        }
    }
    println!(
        "{} in {:.1} s",
        if ok { "every correctness gate held" } else { "A CORRECTNESS GATE MISSED" },
        start.elapsed().as_secs_f64()
    );
    ok
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The untraced pass of workload `name` in a result file.
fn untraced<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    let Some(Value::Arr(rows)) = get(doc, "workloads") else { return None };
    rows.iter().find(|w| get(w, "name") == Some(&Value::str(name))).and_then(|w| get(w, "untraced"))
}

/// Whether two values of one timed metric, from the same code, agree:
/// within `bound` of the larger, or closer than `floor`.
fn agree(x: f64, y: f64, bound: f64, floor: f64) -> bool {
    let gap = (x - y).abs();
    gap <= floor || gap <= bound * x.abs().max(y.abs())
}

/// Holds two result files of the same code against the benchmark's own
/// bounds: exact values and failure counts equal, timed end-to-end
/// metrics within their bound (or floor) of each other.
fn compare(a: &str, b: &str) -> bool {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("oc-benchmark: {msg}");
            return false;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let (Some(pa), Some(pb)) = (untraced(&a, w.name), untraced(&b, w.name)) else {
            println!("{:<15} MISSING from a result file", w.name);
            ok = false;
            continue;
        };
        for m in END_TO_END {
            let value = |pass| at(pass, &["result", "metrics", m.name, "value"]).and_then(as_f64);
            let (Some(x), Some(y)) = (value(pa), value(pb)) else {
                println!("{:<15} {:<16} MISSING", w.name, m.name);
                ok = false;
                continue;
            };
            let agreed = agree(x, y, m.bound, m.floor);
            ok &= agreed;
            println!(
                "{:<15} {:<16} {x:>16.4} {y:>16.4} {:<5} {:>6.2} % apart (bound {:.0} %, floor {})  {}",
                w.name,
                m.name,
                m.unit,
                (x - y).abs() / x.abs().max(y.abs()) * 100.0,
                m.bound * 100.0,
                m.floor,
                if agreed { "ok" } else { "APART" }
            );
        }
        // The sized workloads repeat their failure count exactly; on the
        // windowed ones it is 0 or the run was not correct.
        let failed = |pass| at(pass, &["result", "failed"]).cloned();
        let same = failed(pa) == failed(pb);
        ok &= same;
        println!("{:<15} {:<36} {}", w.name, "failed", if same { "equal" } else { "DIFFERS" });
        let exact = |pass| match at(pass, &["detail", "exact"]) {
            Some(Value::Obj(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        let (ea, eb) = (exact(pa), exact(pb));
        ok &= ea.len() == eb.len();
        for (name, x) in &ea {
            let twin = eb.iter().find(|e| e.0 == *name).map(|e| &e.1);
            ok &= twin == Some(x);
            println!(
                "{:<15} {name:<36} {} {}",
                w.name,
                line(x),
                match twin {
                    Some(y) if y == x => "equal".to_owned(),
                    Some(y) => format!("DIFFERS: {}", line(y)),
                    None => "DIFFERS: missing".to_owned(),
                }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "the two passes agree within the benchmark's bounds"
        } else {
            "THE TWO PASSES DISAGREE"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let c = cli(&["--workload", "net-open", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("net-open"), 7, 10.0, true)
        );
        let c = cli(&["--workload", "sim-scale", "--trace", "0", "--seed", "9"]).unwrap();
        assert_eq!((c.seed, c.trace), (9, false));
    }

    #[test]
    fn setup_times_agree_under_the_floor_and_rates_by_ratio() {
        // 31 ms against 49 ms is 36 % apart and 18 ms: under the floor.
        assert!(agree(0.0314, 0.0488, 0.25, 0.050));
        assert!(!agree(0.0314, 0.0488, 0.25, 0.0));
        assert!(agree(100_000.0, 120_000.0, 0.25, 0.0));
        assert!(!agree(100_000.0, 140_000.0, 0.25, 0.0));
        assert!(!agree(0.40, 0.60, 0.25, 0.050));
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--trace"]).is_err());
        assert!(cli(&["--trace", "--seed", "43"]).is_err());
    }
}
