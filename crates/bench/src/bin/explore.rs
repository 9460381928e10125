//! Adversarial scenario exploration, sharded across worker threads.
//!
//! ```text
//! cargo run --release -p oc-bench --bin explore                       # 1000 scenarios
//! cargo run --release -p oc-bench --bin explore -- --budget 2000     # CI battery
//! cargo run --release -p oc-bench --bin explore -- --threads 2       # shard
//! cargo run --release -p oc-bench --bin explore -- --json            # BENCH_CHECK.json
//! cargo run --release -p oc-bench --bin explore -- --loss            # model-violating loss
//! ```
//!
//! Each scenario index is one `oc_bench::sweep` cell: a worker derives
//! the scenario from `(space, master seed, index)`, runs it through the
//! deterministic engine, and judges it with the full oracle suite
//! (safety + liveness). Results return in cell order, so the `summary`
//! line and the JSON aggregates are **byte-identical at any
//! `--threads`** — CI pins that. On a violation the first failing
//! scenario (lowest index) is shrunk to a minimal counterexample and
//! printed as a replayable scenario ID plus a paste-ready Rust repro;
//! the process then exits 1.
//!
//! `--loss` opts into lossy-window scenarios. Message loss between live
//! nodes violates the reliable-channel assumption the algorithm's safety
//! argument needs, so a lossy battery is an oracle-sensitivity probe —
//! violations there are expected findings, not regressions (see
//! DESIGN.md, "Fault model soundness").

use std::collections::BTreeMap;

use oc_algo::{Hardening, Mutation};
use oc_bench::{
    cli::FlagParser,
    json::Value,
    report::{col, print_table, Artifact, Col},
    sweep,
};
use oc_check::{
    explore_guided_with, repro_snippet, run_scenario, run_scenario_hardened, shrink, GuidedResult,
    Outcome, Scenario, Space,
};

const USAGE: &str = "\
Usage: explore [FLAGS]

Explores randomly generated crash/delay/fault scenarios against the
safety and liveness oracle suite, sharded across worker threads.

  --budget N    scenarios to explore (default: 1000)
  --seed S      master seed the per-scenario seeds derive from (default: 42)
  --threads N   sweep worker threads (default: all cores; any N gives a
                byte-identical summary)
  --loss        also sample message-loss windows (violates the paper's
                reliable-channel model: violations become expected
                findings and do not fail the exit code)
  --partitions  also sample scripted partition/heal phases (p-group cuts,
                arbitrary node-set splits) in the serial healed regime.
                A cut destroys messages between live nodes, violating the
                reliable-channel model: violations (the healed-partition
                double-mint) become expected findings and do not fail the
                exit code
  --hard        also sample overlapping crash waves (outside the paper's
                repeated-single-failure model: violations become expected
                findings and do not fail the exit code)
  --hardened    re-run the same battery under Hardening::Quorum (fencing
                epochs + quorum-gated regeneration) and report it as a
                second summary (and a \"hardened\" JSON section). The
                hardened pass is a gate: any safety violation under
                quorum exits 1 — quorum regeneration must close the
                healed-partition double-mint. The baseline battery and
                its artifact section are unchanged
  --guided      run the coverage-guided explorer on top of the battery:
                two planted-mutation detection hunts (each gated at a
                budget of 175 scenarios, a quarter of the 700-scenario
                blind calibration budget) plus a corpus-growth
                exploration of the faithful protocol (budget/4
                scenarios). Prints a thread-invariant \"guided summary\"
                line, adds a \"guided\" section to the JSON artifact,
                and exits 1 unless both planted mutations are detected
                within budget
  --json        write BENCH_CHECK.json
  --out PATH    write the --json artifact to PATH instead (implies
                --json; the partition battery commits BENCH_PART.json,
                keeping BENCH_CHECK.json the default battery's artifact)
  --help        this message
";

/// The guided detection gate: each planted mutation must be found within
/// this many scenario runs — a quarter of the 700-scenario blind budget
/// the self-check suite calibrates against (blind sampling first reaches
/// a skip-regeneration counterexample at index 618 of the default space
/// at seed 42; the guided loop's crash-near-arrival mutator builds one
/// around index 74). Mirrored by `GUIDED_BUDGET` in
/// `crates/check/tests/self_check.rs`.
const GUIDED_DETECTION_BUDGET: u64 = 175;

struct Options {
    budget: u64,
    master_seed: u64,
    threads: usize,
    loss: bool,
    hard: bool,
    partitions: bool,
    hardened: bool,
    guided: bool,
    /// Where the artifact goes, if anywhere: `--out PATH`, or
    /// `BENCH_CHECK.json` under a bare `--json`.
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Options {
    let mut options = Options {
        budget: 1_000,
        master_seed: 42,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        loss: false,
        hard: false,
        partitions: false,
        hardened: false,
        guided: false,
        out: None,
    };
    let mut json = false;
    let mut parser = FlagParser::new(USAGE, args);
    while let Some(flag) = parser.next_flag() {
        match flag.name.as_str() {
            "--budget" => options.budget = parser.parsed(&flag, "a positive integer", |&b| b > 0),
            "--seed" => options.master_seed = parser.parsed(&flag, "an unsigned integer", |_| true),
            "--threads" => options.threads = parser.parsed(&flag, "a positive integer", |&t| t > 0),
            "--out" => options.out = Some(parser.value(&flag, "a file path")),
            "--loss" => options.loss = parser.switch(&flag),
            "--hard" => options.hard = parser.switch(&flag),
            "--partitions" => options.partitions = parser.switch(&flag),
            "--hardened" => options.hardened = parser.switch(&flag),
            "--guided" => options.guided = parser.switch(&flag),
            "--json" => json = parser.switch(&flag),
            "--help" | "-h" => parser.help(),
            _ => parser.unknown(&flag),
        }
    }
    if json && options.out.is_none() {
        options.out = Some("BENCH_CHECK.json".to_string());
    }
    options
}

/// An artifact key, and how to read its counter off one scenario's outcome.
type Counter = (&'static str, fn(&Outcome) -> u64);

/// The counters a battery totals.
const COUNTERS: [Counter; 13] = [
    ("events", |run| run.events),
    ("messages", |run| run.messages),
    ("cs_entries", |run| run.cs_entries),
    ("crashes", |run| run.crashes),
    ("recoveries", |run| run.recoveries),
    ("lost_to_faults", |run| run.lost_to_faults),
    ("lost_to_partition", |run| run.lost_to_partition),
    ("duplicated_deliveries", |run| run.duplicated),
    ("violations", |run| run.violation_count() as u64),
    ("safety_violations", |run| run.safety.violations().len() as u64),
    ("epoch_discards", |run| run.epoch_discards),
    ("mint_requests", |run| run.mint_requests),
    ("mint_acks", |run| run.mint_acks),
];

/// The keys of a per-size row — the compact `rows` of `BENCH_CHECK.json`.
const SIZE_KEYS: &[&str] = &[
    "n",
    "scenarios",
    "events",
    "messages",
    "cs_entries",
    "crashes",
    "recoveries",
    "lost_to_faults",
    "lost_to_partition",
    "duplicated_deliveries",
    "violations",
];

/// The keys of the artifact's `hardened` section.
const HARDENED_KEYS: &[&str] = &[
    "scenarios",
    "events",
    "messages",
    "cs_entries",
    "violations",
    "safety_violations",
    "epoch_discards",
    "mint_requests",
    "mint_acks",
    "fingerprint",
];

/// The per-size table.
const SIZE_COLS: &[Col] = &[
    col("N", "n", 6, 0),
    col("scenarios", "scenarios", 10, 0),
    col("events", "events", 12, 0),
    col("messages", "messages", 12, 0),
    col("cs", "cs_entries", 9, 0),
    col("crashes", "crashes", 8, 0),
    col("recover", "recoveries", 8, 0),
    col("lost", "lost_to_faults", 7, 0),
    col("plost", "lost_to_partition", 7, 0),
    col("dup", "duplicated_deliveries", 6, 0),
    col("violations", "violations", 10, 0),
];

/// Scenario count and [`COUNTERS`] totals over some of a battery's runs.
#[derive(Default)]
struct Tally {
    scenarios: u64,
    counts: [u64; COUNTERS.len()],
}

impl Tally {
    fn add(&mut self, run: &Outcome) {
        self.scenarios += 1;
        for (count, (_, read)) in self.counts.iter_mut().zip(COUNTERS) {
            *count += read(run);
        }
    }

    /// `lead`, then `scenarios` and every counter, as one object.
    fn object(&self, mut lead: Vec<(&'static str, Value)>) -> Value {
        lead.push(("scenarios", Value::UInt(self.scenarios)));
        lead.extend(COUNTERS.iter().zip(self.counts).map(|((key, _), n)| (*key, Value::UInt(n))));
        Value::Obj(lead)
    }
}

/// One battery folded in cell order — so everything here, and the summary
/// line printed from it, is byte-identical at any thread count.
struct Battery {
    /// One row per system size, ascending: the table and the artifact's
    /// `rows`.
    sizes: Vec<Value>,
    /// The totals over every run, with `failures` and `fingerprint`.
    total: Value,
    /// Indices of the scenarios that were not clean.
    failing: Vec<u64>,
}

fn fold(runs: &[(usize, Outcome)]) -> Battery {
    let (mut total, mut by_size) = (Tally::default(), BTreeMap::<usize, Tally>::new());
    let mut fingerprint = oc_sim::Fnv64::new();
    let mut failing = Vec::new();
    for (index, (n, run)) in runs.iter().enumerate() {
        fingerprint.write_u64(run.fingerprint());
        total.add(run);
        by_size.entry(*n).or_default().add(run);
        if !run.is_clean() {
            failing.push(index as u64);
        }
    }
    let total = total.object(vec![
        ("failures", Value::UInt(failing.len() as u64)),
        ("fingerprint", Value::Str(format!("{:#018x}", fingerprint.finish()))),
    ]);
    let sizes = by_size
        .iter()
        .map(|(n, tally)| tally.object(vec![("n", Value::UInt(*n as u64))]).pick(SIZE_KEYS))
        .collect();
    Battery { sizes, total, failing }
}

/// `label=value` for each `(label, key)` of `object`, space-separated:
/// the body of the thread-invariant summary lines CI compares
/// byte-for-byte across `--threads` values (no wall-clock terms on
/// purpose).
fn key_values(object: &Value, shown: &[(&str, &str)]) -> String {
    let value = |key| match object.get(key) {
        Value::Str(text) => text.clone(),
        other => other.render().trim_end().to_string(),
    };
    shown.iter().map(|(label, key)| format!("{label}={}", value(key))).collect::<Vec<_>>().join(" ")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_options(&args);
    let (seed, budget, threads) = (options.master_seed, options.budget, options.threads);
    let space = Space {
        allow_loss: options.loss,
        overlapping_crashes: options.hard,
        partitions: options.partitions,
        ..Space::default()
    };

    let on = |flag| if flag { "on" } else { "off" };
    println!(
        "== explore: {budget} scenario(s), master seed {seed}, loss {}, hard {}, partitions {} ==\n",
        on(options.loss),
        on(options.hard),
        on(options.partitions),
    );
    let indices: Vec<u64> = (0..budget).collect();
    let battery = |hardening| {
        sweep::sweep(&indices, threads, |_, &index| {
            let scenario = Scenario::generate(&space, seed, index);
            (scenario.n, run_scenario_hardened(&scenario, Mutation::None, hardening))
        })
    };
    let outcome = battery(Hardening::None);
    let baseline = fold(&outcome.results);
    print_table(SIZE_COLS, &baseline.sizes);
    println!(
        "\nsummary budget={budget} seed={seed} loss={} hard={} partitions={} {}",
        u8::from(options.loss),
        u8::from(options.hard),
        u8::from(options.partitions),
        key_values(
            &baseline.total,
            &[
                ("scenarios", "scenarios"),
                ("failures", "failures"),
                ("violations", "violations"),
                ("events", "events"),
                ("messages", "messages"),
                ("cs", "cs_entries"),
                ("crashes", "crashes"),
                ("recoveries", "recoveries"),
                ("lost", "lost_to_faults"),
                ("plost", "lost_to_partition"),
                ("dup", "duplicated_deliveries"),
                ("fingerprint", "fingerprint"),
            ],
        ),
    );

    // The hardened pass: the very same scenarios, replayed under
    // Hardening::Quorum. The fencing epoch retires stale tokens at the
    // heal and regeneration is quorum-gated, so the healed-partition
    // double-mint cannot happen — zero safety violations is a *gate*
    // here, not an expected finding. Folded like the baseline, so the
    // hardened summary line is also byte-identical at any `--threads`.
    let hardened = options.hardened.then(|| {
        let hardened = fold(&battery(Hardening::Quorum).results);
        println!(
            "\nhardened summary budget={budget} seed={seed} {}",
            key_values(
                &hardened.total,
                &[
                    ("scenarios", "scenarios"),
                    ("failures", "failures"),
                    ("violations", "violations"),
                    ("safety_violations", "safety_violations"),
                    ("epoch_discards", "epoch_discards"),
                    ("mint_requests", "mint_requests"),
                    ("mint_acks", "mint_acks"),
                    ("events", "events"),
                    ("messages", "messages"),
                    ("cs", "cs_entries"),
                    ("fingerprint", "fingerprint"),
                ],
            ),
        );
        for &index in hardened.failing.iter().take(8) {
            println!(
                "   hardened failure #{index}: {}",
                Scenario::generate(&space, seed, index).id()
            );
        }
        hardened.total
    });

    // The coverage-guided pass: prove the explorer's teeth at a quarter
    // of the blind calibration budget, and chart how the corpus grows
    // under the faithful protocol. Each epoch's candidate batch is built
    // purely from (seed, ordinal, corpus state) and its outcomes are
    // folded serially in slot order — one `sweep` call per batch — so
    // the `guided summary` line is byte-identical at any `--threads`.
    let guided = options.guided.then(|| {
        let hunt = |mutation: Mutation, budget: u64| -> GuidedResult {
            explore_guided_with(&space, seed, budget, mutation, &mut |batch| {
                sweep::sweep(batch, threads, |_, scenario| run_scenario(scenario, mutation)).results
            })
        };
        let keep = hunt(Mutation::KeepTokenOnTransit, GUIDED_DETECTION_BUDGET);
        let skip = hunt(Mutation::SkipTokenRegeneration, GUIDED_DETECTION_BUDGET);
        // The corpus-growth exploration scales with the battery: a
        // quarter of the blind budget, floored so even a tiny --budget
        // produces a real curve.
        let explore_budget = (budget / 4).max(64);
        let growth = hunt(Mutation::None, explore_budget);

        println!();
        for (name, result) in [("keep-token-on-transit", &keep), ("skip-regeneration", &skip)] {
            match &result.failure {
                Some(failure) => println!(
                    "   guided {name}: detected at index {} ({} run(s) incl. differential \
                     checks): {}",
                    failure.index,
                    result.runs,
                    failure.scenario.id(),
                ),
                None => println!("   guided {name}: NOT detected within {} run(s)", result.runs),
            }
        }

        // Fold the whole corpus growth curve into one fingerprint: any
        // cross-thread divergence in admission order shows up here.
        let points: Vec<[u64; 4]> = growth
            .curve
            .iter()
            .map(|row| [row.epoch, row.runs, row.corpus as u64, row.features as u64])
            .collect();
        let mut fold = oc_sim::Fnv64::new();
        points.iter().flatten().for_each(|&word| fold.write_u64(word));
        let keys = ["epoch", "runs", "corpus", "features"];
        let curve =
            points.iter().map(|p| Value::Obj(keys.into_iter().zip(p.map(Value::UInt)).collect()));
        let curve = Value::Arr(curve.collect());
        let curve_fingerprint = format!("{:#018x}", fold.finish());
        let index_of = |result: &GuidedResult| {
            result.failure.as_ref().map_or(-1, |failure| i64::try_from(failure.index).unwrap_or(-1))
        };
        println!(
            "\nguided summary detection_budget={GUIDED_DETECTION_BUDGET} seed={seed} \
             keep_detected={} keep_index={} keep_runs={} skip_detected={} skip_index={} \
             skip_runs={} explore_budget={explore_budget} corpus={} features={} \
             curve_fingerprint={curve_fingerprint}",
            u8::from(keep.failure.is_some()),
            index_of(&keep),
            keep.runs,
            u8::from(skip.failure.is_some()),
            index_of(&skip),
            skip.runs,
            growth.corpus,
            growth.features,
        );
        let detection = |result: &GuidedResult| {
            let mut fields = vec![
                ("detected", Value::Bool(result.failure.is_some())),
                ("budget", Value::UInt(GUIDED_DETECTION_BUDGET)),
                ("runs", Value::UInt(result.runs)),
            ];
            if let Some(failure) = &result.failure {
                fields.push(("index", Value::UInt(failure.index)));
                fields.push(("scenario_id", Value::str(failure.scenario.id())));
            }
            Value::Obj(fields)
        };
        let section = Value::Obj(vec![
            ("keep_token_on_transit", detection(&keep)),
            ("skip_token_regeneration", detection(&skip)),
            ("explore_budget", Value::UInt(explore_budget)),
            ("corpus", Value::UInt(growth.corpus as u64)),
            ("features", Value::UInt(growth.features as u64)),
            ("curve_fingerprint", Value::Str(curve_fingerprint)),
            ("curve", curve),
        ]);
        (keep.failure.is_some(), skip.failure.is_some(), section)
    });

    // Shrink the first failure (lowest index) to a minimal, replayable
    // counterexample before reporting.
    let shrunk: Vec<Value> = baseline.failing.first().map_or_else(Vec::new, |&index| {
        let scenario = Scenario::generate(&space, seed, index);
        println!("\n!! scenario #{index} fails — shrinking…");
        let result = shrink(&scenario, Mutation::None);
        println!(
            "   minimal after {} step(s) / {} run(s): n={}, {} arrival(s), {} crash(es)",
            result.steps,
            result.runs,
            result.scenario.n,
            result.scenario.arrivals.len(),
            result.scenario.crashes.len(),
        );
        println!("   scenario id: {}", result.scenario.id());
        for violation in result.outcome.safety.violations() {
            println!("   safety violation: {violation:?}");
        }
        for violation in result.outcome.liveness.violations() {
            println!("   liveness violation: {violation:?}");
        }
        println!("\n-- paste-ready repro --\n{}", repro_snippet(&result.scenario, Mutation::None));
        vec![Value::Obj(vec![
            ("index", Value::UInt(index)),
            ("scenario_id", Value::str(result.scenario.id())),
            ("violations", Value::UInt(result.outcome.violation_count() as u64)),
        ])]
    });

    // The hardened and guided sections are appended after every baseline
    // key, so a diff of the artifact against a run without them shows the
    // baseline battery byte-identical.
    let mut extra = vec![
        ("budget", Value::UInt(budget)),
        ("loss", Value::Bool(options.loss)),
        ("hard", Value::Bool(options.hard)),
        ("partitions", Value::Bool(options.partitions)),
        ("failures", baseline.total.get("failures").clone()),
        ("violations", baseline.total.get("violations").clone()),
        ("fingerprint", baseline.total.get("fingerprint").clone()),
        ("shrunk_failures", Value::Arr(shrunk)),
    ];
    extra.extend(hardened.iter().map(|total| ("hardened", total.pick(HARDENED_KEYS))));
    extra.extend(guided.iter().map(|(.., section)| ("guided", section.clone())));
    Artifact {
        experiment: "check",
        master_seed: seed,
        quick: false,
        timing: Some(outcome.timing),
        rows: baseline.sizes,
        extra,
    }
    .finish(options.out.as_deref());

    // The guided gate: a guided explorer that cannot find a planted
    // mutation within a quarter of the blind budget has lost its teeth.
    if let Some((keep, skip, _)) = guided {
        if !(keep && skip) {
            eprintln!(
                "error: guided exploration missed a planted mutation within \
                 {GUIDED_DETECTION_BUDGET} runs (keep detected: {keep}, skip detected: {skip})",
            );
            std::process::exit(1);
        }
    }

    if let Some(Value::UInt(safety_violations @ 1..)) =
        hardened.as_ref().map(|h| h.get("safety_violations"))
    {
        eprintln!(
            "error: {safety_violations} safety violation(s) under Hardening::Quorum — \
             quorum regeneration must close the double-mint window"
        );
        std::process::exit(1);
    }

    if !baseline.failing.is_empty() {
        if options.loss || options.hard || options.partitions {
            // Probe modes step outside the paper's model on purpose:
            // violations there are expected findings, reported above but
            // not a failing exit — only the default battery is a gate.
            // (A partition destroys messages between live nodes, so it
            // violates the reliable-channel assumption exactly like loss;
            // the healed-partition double-mint is the expected finding —
            // see DESIGN.md, "Fault scripting & partition semantics".)
            println!(
                "\n{} failing scenario(s): expected findings in probe mode \
                 (loss/hard/partitions)",
                baseline.failing.len()
            );
        } else {
            std::process::exit(1);
        }
    }
}
