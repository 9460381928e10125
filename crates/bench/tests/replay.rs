//! `explore --replay <oc1-id>`: one scenario, run with the trace on,
//! printed whole and judged.

use std::process::Command;

/// Duplicates alone mint a second token under `Hardening::None`: n = 8,
/// five arrivals, no crash, no loss, a 400 ‰ duplication window.
const DUPLICATION_WITNESS: &str =
    "oc1-08a68eedf2ccf1f2b66107112e881190a10f2fbc030090030500061e033c025a07780100";

fn explore(args: &[&str]) -> (Option<i32>, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_explore")).args(args).output().expect("explore runs");
    (out.status.code(), String::from_utf8(out.stdout).expect("utf-8 output"))
}

#[test]
fn the_duplication_witness_replays_identically_and_reports_its_second_token() {
    let (code, first) = explore(&["--replay", DUPLICATION_WITNESS]);
    let (_, second) = explore(&["--replay", DUPLICATION_WITNESS]);
    assert_eq!(first, second, "two replays of one id differ");
    assert_eq!(code, Some(1), "a dirty replay exits 1:\n{first}");
    assert!(first.contains("scenario: n=8 "), "{first}");
    assert!(first.contains("TokenDuplication"), "{first}");
    assert!(first.contains("ENTERS CS"), "the trace is printed:\n{first}");
    assert_eq!(first.lines().last(), Some("verdict: dirty violations=11 safety=11 liveness=0"));

    // Quorum-gated regeneration closes the window on the same id.
    let (code, hardened) = explore(&["--replay", DUPLICATION_WITNESS, "--hardened"]);
    assert_eq!((code, hardened.lines().last()), (Some(0), Some("verdict: clean")), "{hardened}");
}

#[test]
fn an_id_that_does_not_decode_is_a_usage_error() {
    let (code, _) = explore(&["--replay", "oc1-zz"]);
    assert_eq!(code, Some(2));
}
