//! `explore --replay <oc1-id>`: one scenario, run with the trace on,
//! printed whole and judged.

use std::process::Command;

/// A scenario in which duplicates alone mint a second token under
/// `Hardening::None`: no crash, no loss.
struct Witness {
    id: &'static str,
    /// The system size the replay prints.
    n: u32,
    /// The last line of its replay on the simulator (and on the socket
    /// node's code, which CI replays it on).
    last_line: &'static str,
    /// The last line of its replay on the runtime's workers at W = 2,
    /// where it is pinned there.
    on_runtime: Option<&'static str>,
}

/// Every witness is known-dirty until ROADMAP item 1(b) is fixed.
const DUPLICATION_WITNESSES: [Witness; 3] = [
    // n = 8, five arrivals, a 400 ‰ duplication window.
    Witness {
        id: "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100",
        n: 8,
        last_line: "verdict: dirty violations=11 safety=11 liveness=0",
        on_runtime: None,
    },
    // Seed-43 battery index 540940, shrunk: n = 8, a fixed 24-tick delay
    // and a 150 ‰ duplication window over t = 52–220.
    Witness {
        id: "oc1-0884b8e6f2d2e79bc6b10118182af81590a10f34dc01009601055e088d0103bc0106eb0104c9020500",
        n: 8,
        last_line: "verdict: dirty violations=10 safety=10 liveness=0",
        on_runtime: None,
    },
    // Seed 1 of the `runtime:2` battery, index 610912, shrunk: n = 16,
    // twelve arrivals. The runtime's workers mint the second token too,
    // so this is also the pin of the runtime's virtual end.
    Witness {
        id: "oc1-10c380b58ed1acbfbdb201011637fc2a90a10f0a87020096010c000a110d2203330688010c990110aa0108bb010ecc0102dd010bee0105ff010f00",
        n: 16,
        last_line: "verdict: dirty violations=32 safety=32 liveness=0",
        on_runtime: Some("verdict: dirty violations=1 safety=1 liveness=0"),
    },
];

fn explore(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_explore")).args(args).output().expect("explore runs");
    (out.status.code(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

#[test]
fn the_duplication_witness_replays_identically_and_reports_its_second_token() {
    for Witness { id: witness, n, last_line, on_runtime } in DUPLICATION_WITNESSES {
        let (code, first) = explore(&["--replay", witness]);
        let (_, second) = explore(&["--replay", witness]);
        assert_eq!(first, second, "two replays of one id differ");
        assert_eq!(code, Some(1), "a dirty replay exits 1:\n{first}");
        assert!(first.contains(&format!("scenario: n={n} ")), "{first}");
        assert!(first.contains("TokenDuplication"), "{first}");
        assert!(first.contains("ENTERS CS"), "the trace is printed:\n{first}");
        assert_eq!(first.lines().last(), Some(last_line), "{witness}");

        if let Some(runtime_line) = on_runtime {
            let (code, runtime) = explore(&["--replay", witness, "--substrate", "runtime:2"]);
            assert_eq!((code, runtime.lines().last()), (Some(1), Some(runtime_line)), "{runtime}");
        }

        // Quorum-gated regeneration closes the window on the same id.
        let (code, hardened) = explore(&["--replay", witness, "--hardened"]);
        let verdict = (code, hardened.lines().last());
        assert_eq!(verdict, (Some(0), Some("verdict: clean")), "{hardened}");
    }
}

#[test]
fn an_id_that_does_not_decode_is_a_usage_error() {
    // So is a battery flag beside `--replay`: a replay runs one
    // scenario and writes no artifact. So are a substrate without its
    // width, with none, or unknown, and the guided explorer off the
    // simulator, whose coverage it steers by.
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
    let refused: [&[&str]; 6] = [
        &["--replay", "oc1-zz"],
        &with_battery_flags,
        &["--substrate", "runtime"],
        &["--substrate", "runtime:0"],
        &["--substrate", "gpu"],
        &["--guided", "--substrate", "nodeproc"],
    ];
    for args in refused {
        let (code, _) = explore(args);
        assert_eq!(code, Some(2), "{args:?}");
    }
}
