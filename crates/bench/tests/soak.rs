//! Stress/soak: a 60-second loadgen run at n = 1024 over 8 workers with
//! crash churn, judged by the full oracle suite.
//!
//! Ignored by default (it takes a minute by construction); CI runs it
//! explicitly with `cargo test --release -p oc-bench --test soak --
//! --ignored`.

use std::time::Duration;

use oc_bench::loadgen::{run_cell, LoadCell, LoadMode};

#[test]
#[ignore = "60s soak; run explicitly (CI does)"]
fn soak_n1024_with_crash_churn_is_clean() {
    let row = run_cell(&LoadCell {
        n: 1024,
        workers: 8,
        duration: Duration::from_secs(60),
        mode: LoadMode::Open { rate_per_sec: 200 },
        churn_crashes: 20,
        partition_cycles: 0,
        seed: 42,
    });

    // Zero oracle violations, settled.
    let (report, latency) = (&row.report, &row.report.latency);
    assert!(row.settled, "soak did not settle: {row:?}");
    assert!(report.safety.is_clean(), "safety violations: {row:?}");
    assert!(report.liveness.is_clean(), "liveness violations: {row:?}");

    // Churn executed: every crash recovered.
    assert_eq!(report.crashes, 20, "churn shape: {row:?}");
    assert_eq!(report.recoveries, 20, "churn shape: {row:?}");

    // Counts conserved: every injected request is terminal, every grant
    // produced exactly one latency sample.
    assert_eq!(
        report.requests_injected,
        report.requests_completed + report.requests_abandoned,
        "conservation: {row:?}"
    );
    assert_eq!(latency.count, report.requests_completed, "histogram counts: {row:?}");
    assert!(report.requests_completed > 0);

    // Histogram sanity: quantiles ordered, bounded by the exact max.
    assert!(latency.p50_nanos <= latency.p99_nanos, "{row:?}");
    assert!(latency.p99_nanos <= latency.p999_nanos, "{row:?}");
    assert!(latency.p999_nanos <= latency.max_nanos, "{row:?}");
    assert!(latency.mean_nanos > 0.0);
}
