//! Criterion bench for experiment E3: failure handling overhead
//! (reduced failure counts; the full iPSC/2-shaped run is in the
//! `experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oc_bench::e3_failures;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_failures");
    group.sample_size(10);
    for n in [16usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| e3_failures(n, 10, 42, oc_algo::Hardening::None));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
