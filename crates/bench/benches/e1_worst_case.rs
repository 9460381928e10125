//! Criterion bench for experiment E1: worst-case messages per request.
//! The interesting output is the table printed by the `experiments`
//! binary; this bench times the closed-loop sweep itself so regressions
//! in simulator or protocol throughput show up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oc_bench::e1_worst_case;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_worst_case");
    group.sample_size(10);
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let row = e1_worst_case(n, 1, 42, oc_algo::Hardening::None);
                assert!(row.measured_worst <= row.bound);
                row
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
