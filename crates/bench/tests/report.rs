//! Golden test of the one report path: fixed rows in, exact table text
//! and exact JSON out — for both kinds of envelope (sweep-timed and
//! wall-clock), always with `host`.

use std::time::Duration;

use oc_bench::json::{validate, Value};
use oc_bench::orchestrator::{NetRow, NET_COLS};
use oc_bench::report::{col, header, host_info, line, Artifact, Col, Verdict};
use oc_bench::sweep::Timing;
use oc_check::Outcome;

const COLS: &[Col] = &[
    col("N", "n", 4, 0),
    col("algorithm", "algo", 10, 0),
    col("avg", "avg", 8, 2),
    col("ok", "ok", 4, 0),
    col("gone", "absent", 5, 0),
];

fn rows() -> Vec<Value> {
    vec![
        Value::Obj(vec![
            ("n", Value::UInt(16)),
            ("algo", Value::str("open-cube")),
            ("avg", Value::Num(4.125)),
            ("ok", Value::Bool(true)),
        ]),
        Value::Obj(vec![
            ("n", Value::UInt(1024)),
            ("algo", Value::str("central")),
            ("avg", Value::Num(3.0)),
            ("ok", Value::Bool(false)),
        ]),
    ]
}

#[test]
fn the_printer_renders_a_chosen_key_list_exactly() {
    let rows = rows();
    assert_eq!(header(COLS), "   N  algorithm      avg   ok  gone");
    assert_eq!(line(COLS, &rows[0]), "  16  open-cube     4.12  yes     -");
    assert_eq!(line(COLS, &rows[1]), "1024    central     3.00   NO     -");
    // A projection keeps the chosen keys, in the chosen order.
    assert_eq!(rows[0].pick(&["avg", "n", "absent"]).render(), "{\"avg\":4.125,\"n\":16}\n");
}

#[test]
fn the_one_envelope_wraps_both_kinds_of_artifact_exactly() {
    let host = host_info();
    let host_text = host.render();
    let host_text = host_text.trim_end();
    assert!(matches!(host.get("nproc"), Value::UInt(1..)), "{host_text}");
    for key in ["arch", "rustc", "git_rev"] {
        assert!(matches!(host.get(key), Value::Str(text) if !text.is_empty()), "{key}");
    }
    let rows_text = "[{\"n\":16,\"algo\":\"open-cube\",\"avg\":4.125,\"ok\":true},\
                     {\"n\":1024,\"algo\":\"central\",\"avg\":3,\"ok\":false}]";

    // Sweep-timed: the sweep's cell count and timing.
    let timing = Timing { cells: 8, threads: 2, wall_secs: 0.5, busy_secs: 0.75 };
    let swept = Artifact {
        experiment: "e5",
        master_seed: 42,
        quick: true,
        timing: Some(timing),
        rows: rows(),
        extra: vec![("note", Value::str("extra sections ride along"))],
    };
    let text = swept.envelope().render();
    validate(&text).expect("artifact must be valid JSON");
    assert_eq!(
        text,
        format!(
            "{{\"schema_version\":1,\"experiment\":\"e5\",\"master_seed\":42,\"quick\":true,\
             \"cells\":8,\"threads\":2,\"wall_secs\":0.5,\"busy_secs\":0.75,\
             \"parallel_speedup\":1.5,\"host\":{host_text},\"rows\":{rows_text},\
             \"note\":\"extra sections ride along\"}}\n"
        )
    );
    assert_eq!(
        timing.to_string(),
        "   [8 cells on 2 thread(s): 0.50s wall, 0.75s busy, speedup 1.50x]"
    );

    // Wall-clock: no sweep section; the cells are the rows.
    let plain = Artifact {
        experiment: "e11",
        master_seed: 7,
        quick: false,
        timing: None,
        rows: rows(),
        extra: Vec::new(),
    };
    let text = plain.envelope().render();
    validate(&text).expect("artifact must be valid JSON");
    assert_eq!(
        text,
        format!(
            "{{\"schema_version\":1,\"experiment\":\"e11\",\"master_seed\":7,\"quick\":false,\
             \"cells\":2,\"host\":{host_text},\"rows\":{rows_text}}}\n"
        )
    );
}

#[test]
fn a_timed_battery_carries_its_verdict() {
    let row = |served: u64, violations: u64, settled: bool| NetRow {
        transport: "uds",
        n: 16,
        injected: 10,
        served,
        abandoned: 10 - served,
        wall_secs: 1.0,
        cs_per_sec: served as f64,
        p50_us: 100.0,
        p99_us: 900.0,
        max_us: 1000.0,
        samples: served,
        safety_violations: violations as usize,
        liveness_violations: 0,
        settled,
        outcome: Outcome { drained: settled, cs_entries: served, crashes: 1, ..Outcome::default() },
    };
    let clean = row(10, 0, true);
    assert!(clean.clean());
    assert_eq!(
        clean.to_json().render(),
        "{\"transport\":\"uds\",\"n\":16,\"injected\":10,\"served\":10,\"abandoned\":0,\
         \"crashes\":1,\"recoveries\":0,\"wall_secs\":1,\"cs_per_sec\":10,\"p50_us\":100,\
         \"p99_us\":900,\"max_us\":1000,\"latency_samples\":10,\"safety_violations\":0,\
         \"liveness_violations\":0,\"settled\":true,\"clean\":true}\n"
    );
    assert_eq!(
        line(NET_COLS, &clean.to_json()),
        "  uds     16        10        10      0       1        0      1.00       10.0      \
         100.0      900.0    yes"
    );

    let rows = vec![clean.to_json(), row(7, 2, false).to_json()];
    let verdict = Verdict::of(&rows);
    assert_eq!(
        verdict.to_string(),
        "summary cells=2 served=17 abandoned=3 violations=2 unsettled=1"
    );
    let doc = Artifact::measured("net", 9, true, Duration::from_micros(50), rows).envelope();
    validate(&doc.render()).expect("artifact must be valid JSON");
    assert_eq!(doc.get("experiment"), &Value::str("net"));
    assert_eq!(doc.get("cells"), &Value::UInt(2));
    assert_eq!(doc.get("violations"), &Value::UInt(2));
    assert_eq!(doc.get("all_settled"), &Value::Bool(false));
    assert_eq!(doc.get("tick_us"), &Value::Num(50.0));
    assert_eq!(doc.get("host"), &host_info());
}
