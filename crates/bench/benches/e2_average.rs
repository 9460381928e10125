//! Criterion bench for experiment E2: average messages per request
//! (exact α_p measurement plus the evolving-tree variant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oc_bench::e2_average;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_average");
    group.sample_size(10);
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let row = e2_average(n, 42, oc_algo::Hardening::None);
                assert_eq!(row.measured_total, row.alpha);
                row
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
