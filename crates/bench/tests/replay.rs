//! `explore --replay <oc1-id>`: one scenario, run with the trace on,
//! printed whole and judged — from its seed, or with `--tape` from a
//! tape of its run's draws.

use std::process::Command;
use std::time::Instant;

use oc_bench::e3_scenario;
use oc_check::{run, shrink, Outcome, Run, Scenario, Substrate};
use oc_sim::Tape;

/// A scenario in which duplicates alone mint a second token under
/// `Hardening::None`: no crash, no loss. Each end draws its delays from
/// the scenario's envelope, but the simulator from one stream and the
/// runtime's workers each from its own, so a witness shrunk on one end
/// is pinned there and need not be dirty on the other.
struct Witness {
    id: &'static str,
    /// The system size the replay prints.
    n: u32,
    /// The last line of its replay on the simulator (and on the socket
    /// node's code, which CI replays it on), where it is pinned there.
    on_sim: Option<&'static str>,
    /// The last line of its replay on the runtime's workers at W = 2,
    /// where it is pinned there.
    on_runtime: Option<&'static str>,
    /// Its draws on the runtime's workers at W = 2 after the shrinker's
    /// tape pass, and the last line of their replay.
    shrunk_tape: Option<(&'static str, &'static str)>,
}

/// Every witness is known-dirty until ROADMAP item 1(b) is fixed.
const DUPLICATION_WITNESSES: [Witness; 4] = [
    // n = 8, five arrivals, a 400 ‰ duplication window.
    Witness {
        id: "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100",
        n: 8,
        on_sim: Some("verdict: dirty violations=11 safety=11 liveness=0"),
        on_runtime: None,
        shrunk_tape: None,
    },
    // Seed-43 battery index 540940, shrunk: n = 8, a fixed 24-tick delay
    // and a 150 ‰ duplication window over t = 52–220.
    Witness {
        id: "oc1-0884b8e6f2d2e79bc6b10118182af81590a10f34dc01009601055e088d0103bc0106eb0104c9020500",
        n: 8,
        on_sim: Some("verdict: dirty violations=10 safety=10 liveness=0"),
        on_runtime: None,
        shrunk_tape: None,
    },
    // Seed 1 of the `runtime:2` battery when the runtime's links drew in
    // `0..=δ`, index 610912, shrunk: n = 16, twelve arrivals.
    Witness {
        id: "oc1-10c380b58ed1acbfbdb201011637fc2a90a10f0a87020096010c000a110d2203330688010c990110aa0108bb010ecc0102dd010bee0105ff010f00",
        n: 16,
        on_sim: Some("verdict: dirty violations=32 safety=32 liveness=0"),
        on_runtime: None,
        shrunk_tape: None,
    },
    // Seed 77 of the `runtime:2` battery, index 674201, shrunk: n = 8,
    // seven arrivals, delays in 10..=19 and a 400 ‰ duplication window
    // over t = 86–358: the pin of the runtime's virtual end. Its seeded
    // run there draws 25, 53 and 78 times from worker 0, worker 1 and
    // the scheduler; the tape pass leaves 7, 13 and 0 draws (310 runs),
    // with the scheduler taking the first ready worker and the smallest
    // cut throughout.
    Witness {
        id: "oc1-08a8bbafce81e3c28c96010a130ec80f90a10f56e602009003070003360251066c08870105a20104bd010700",
        n: 8,
        on_sim: None,
        on_runtime: Some("verdict: dirty violations=1 safety=1 liveness=0"),
        shrunk_tape: Some((
            "0307000000080208050d0000000102020005000000000100",
            "verdict: dirty violations=1 safety=1 liveness=0",
        )),
    },
];

/// CI's tape that reorders a tie: the `runtime:2` witness's seeded draws
/// on the simulator, with an order stream that hands the first tie
/// whose order changes the run (t = 220, two events) to the later of its
/// two events; and the last line it replays to, on the simulator and on
/// the socket node's code alike. The run is one event longer than the
/// seeded one (`events: 71`, not 70), and still clean.
const REORDERED_TIE: (&str, &str) = (
    "023c020906030604010408000008010108090200070701060200030100040109020101040008080103080101030002050002000301000700080100030007020001",
    "verdict: clean",
);

/// ROADMAP item 1(a)'s pin: E3's n = 64 run at seed 82 with 2 000
/// failures (`e3_scenario(64, 2_000, 82)`), shrunk once: one line each
/// for its ID, its tape and the last line of its replay. The shrinker's
/// budget ran out in the scenario passes, so the tape is the shrunk
/// scenario's own seeded draws; `shrink_the_tape_pins` regenerates it.
const SEED_82_PIN: &str = include_str!("pins/seed-82.txt");

fn explore(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_explore")).args(args).output().expect("explore runs");
    (out.status.code(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

#[test]
fn the_duplication_witness_replays_identically_and_reports_its_second_token() {
    for Witness { id: witness, n, on_sim, on_runtime, shrunk_tape } in DUPLICATION_WITNESSES {
        for (substrate, line) in [("sim", on_sim), ("runtime:2", on_runtime)] {
            let Some(line) = line else { continue };
            let args = ["--replay", witness, "--substrate", substrate];
            let (code, first) = explore(&args);
            let (_, second) = explore(&args);
            assert_eq!(first, second, "two replays of one id differ");
            assert_eq!(code, Some(1), "a dirty replay exits 1:\n{first}");
            assert!(first.contains(&format!("scenario: n={n} ")), "{first}");
            assert!(first.contains("TokenDuplication"), "{first}");
            if substrate == "sim" {
                assert!(first.contains("ENTERS CS"), "the trace is printed:\n{first}");
            }
            assert_eq!(first.lines().last(), Some(line), "{witness} on {substrate}");

            // Quorum-gated regeneration closes the window on the same id.
            let (code, hardened) = explore(&[&args[..], &["--hardened"]].concat());
            let verdict = (code, hardened.lines().last());
            assert_eq!(verdict, (Some(0), Some("verdict: clean")), "{hardened}");
        }
        if let Some((tape, tape_line)) = shrunk_tape {
            let args = ["--replay", witness, "--substrate", "runtime:2", "--tape", tape];
            let (code, runtime) = explore(&args);
            assert_eq!((code, runtime.lines().last()), (Some(1), Some(tape_line)), "{runtime}");
        }
    }
}

/// Recording a witness's run and replaying its tape prints the line its
/// seeded replay is pinned to, on every end it is pinned on.
#[test]
fn every_witness_replays_from_its_recorded_tape() {
    let on_runtime = Run { substrate: Substrate::Runtime { workers: 2 }, ..Run::SIM };
    for Witness { id, on_sim, on_runtime: runtime_line, .. } in DUPLICATION_WITNESSES {
        let scenario = Scenario::from_id(id).expect("the witness decodes");
        let ends = [(Run::SIM, "sim", on_sim), (on_runtime, "runtime:2", runtime_line)];
        for (how, substrate, line) in ends {
            let Some(line) = line else { continue };
            let mut tape = Tape::blank();
            let _ = run(&scenario, how, None, Some(&mut tape));
            let tape = tape.to_string();
            let (code, out) = explore(&["--replay", id, "--substrate", substrate, "--tape", &tape]);
            assert_eq!((code, out.lines().last()), (Some(1), Some(line)), "{id} on {substrate}");
        }
    }
}

/// `REORDERED_TIE`'s tape is derived from a recording: the witness's
/// seeded draws, and an order stream of zeros up to the first tie whose
/// reversal changes the outcome, then a one. Both ends replay it to one
/// last line, one event longer than the seeded run.
#[test]
fn a_tape_that_reverses_a_tie_replays_alike_on_sim_and_nodeproc() {
    let id = DUPLICATION_WITNESSES[3].id;
    let scenario = Scenario::from_id(id).expect("the witness decodes");
    let mut recorded = Tape::blank();
    let seeded = run(&scenario, Run::SIM, None, Some(&mut recorded));
    let draws = recorded.streams()[0].clone();
    // An empty order stream keeps the seq order and records a zero per tie.
    let mut ordered = Tape::new(vec![draws.clone(), Vec::new()]);
    assert_eq!(run(&scenario, Run::SIM, None, Some(&mut ordered)), seeded);
    let reversed = (0..ordered.streams()[1].len())
        .map(|tie| Tape::new(vec![draws.clone(), [vec![0; tie], vec![1]].concat()]).trimmed())
        .find(|tape| run(&scenario, Run::SIM, None, Some(&mut tape.clone())) != seeded)
        .expect("some tie's order changes the run");
    let (tape, line) = REORDERED_TIE;
    assert_eq!(reversed.to_string(), tape, "the pinned tape is the derived one");
    for substrate in ["sim", "nodeproc"] {
        let (code, out) = explore(&["--replay", id, "--substrate", substrate, "--tape", tape]);
        assert_eq!((code, out.lines().last()), (Some(0), Some(line)), "{substrate}:\n{out}");
        assert!(out.contains("    events: 71,\n"), "{substrate}: the tie is reversed:\n{out}");
    }
    assert_eq!(seeded.events, 70);
}

#[test]
fn the_seed_82_pin_replays_from_its_tape() {
    let [id, tape, last_line] = SEED_82_PIN.lines().collect::<Vec<_>>()[..] else {
        panic!("the pin is three lines: id, tape, last line")
    };
    let (code, out) = explore(&["--replay", id, "--tape", tape]);
    assert_eq!(code, Some(1), "a dirty replay exits 1");
    assert!(out.contains("TokenDuplication"), "the second token is seen");
    assert_eq!(out.lines().last(), Some(last_line));
}

#[test]
fn an_id_that_does_not_decode_is_a_usage_error() {
    // So is a battery flag beside `--replay`: a replay runs one
    // scenario and writes no artifact. So are a substrate without its
    // width, with none, or unknown, and the guided explorer off the
    // simulator, whose coverage it steers by. So is a tape without a
    // replay, a tape that is not hex, and one that does not decode.
    let witness = DUPLICATION_WITNESSES[0].id;
    let with_battery_flags = [
        "--replay",
        witness,
        "--out",
        "x.json",
        "--budget",
        "5",
        "--loss",
        "--guided",
        "--threads",
        "1",
    ];
    let refused: [&[&str]; 9] = [
        &["--replay", "oc1-zz"],
        &with_battery_flags,
        &["--substrate", "runtime"],
        &["--substrate", "runtime:0"],
        &["--substrate", "gpu"],
        &["--guided", "--substrate", "nodeproc"],
        &["--tape", "0100"],
        &["--replay", witness, "--tape", "zz"],
        &["--replay", witness, "--tape", "0102"],
    ];
    for args in refused {
        let (code, _) = explore(args);
        assert_eq!(code, Some(2), "{args:?}");
    }
}

/// Shrinks what the tape pins were shrunk from, through the scenario
/// passes and then the tape pass, and prints each result: its size
/// before and after, the runs and wall time spent, its ID and tape, and
/// the verdict line its replay ends with. When the budget ran out before
/// the tape pass, the tape printed is the shrunk scenario's own draws.
/// Run with
/// `cargo test --release -p oc-bench --test replay -- --ignored --nocapture`.
#[test]
#[ignore = "about half a minute in release; regenerates the tape pins"]
fn shrink_the_tape_pins() {
    let on_runtime = Run { substrate: Substrate::Runtime { workers: 2 }, ..Run::SIM };
    let witness = Scenario::from_id(DUPLICATION_WITNESSES[3].id).expect("the witness decodes");
    for (name, scenario, how) in [
        ("runtime:2 witness", witness, on_runtime),
        ("seed 82", e3_scenario(64, 2_000, 82), Run::SIM),
    ] {
        let seeded = |scenario: &Scenario| {
            let mut tape = Tape::blank();
            let outcome = run(scenario, how, None, Some(&mut tape));
            (tape, outcome)
        };
        let start = Instant::now();
        let result = shrink(&scenario, how);
        let wall = start.elapsed();
        let (tape, outcome) = result.tape.clone().unwrap_or_else(|| {
            let (tape, outcome) = seeded(&result.scenario);
            (tape.trimmed(), outcome)
        });
        let draws = |tape: &Tape| tape.streams().iter().map(Vec::len).collect::<Vec<_>>();
        println!(
            "{name}: {} arrivals, {} crashes, draws {:?} -> {} arrivals, {} crashes, draws {:?} \
             ({} steps, {} runs, {wall:.1?}, tape pass {})",
            scenario.arrivals.len(),
            scenario.crashes.len(),
            draws(&seeded(&scenario).0),
            result.scenario.arrivals.len(),
            result.scenario.crashes.len(),
            draws(&tape),
            result.steps,
            result.runs,
            if result.tape.is_some() { "accepted" } else { "accepted nothing or never ran" },
        );
        println!("{}", result.scenario.id());
        println!("{tape}");
        println!("{}", verdict(&outcome));
    }
}

/// The last line `explore --replay` prints for `outcome`.
fn verdict(outcome: &Outcome) -> String {
    if outcome.is_clean() {
        return "verdict: clean".to_string();
    }
    format!(
        "verdict: dirty violations={} safety={} liveness={}",
        outcome.violation_count(),
        outcome.safety.violations().len(),
        outcome.liveness.violations().len(),
    )
}
