//! Microbenches for the zero-allocation topology/search fast path:
//! ring enumeration (`ring_iter`) and search-set bookkeeping (`RingSet` vs
//! the `BTreeSet` it replaced).

use std::collections::BTreeSet;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use oc_algo::RingSet;
use oc_topology::{ring_iter, NodeId};

const N: usize = 65_536;
const FROM: u32 = 12_345;

fn bench_ring_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_iteration");
    group.sample_size(30);
    for d in [4u32, 10, 16] {
        group.bench_with_input(BenchmarkId::new("ring_iter", d), &d, |b, &d| {
            b.iter(|| {
                let mut acc = 0u64;
                for id in ring_iter(N, NodeId::new(FROM), d) {
                    acc = acc.wrapping_add(u64::from(id.get()));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// The search-set workload of one probe phase: fill the ring, remove half
/// the members (answers), re-insert a quarter (try-later), iterate the
/// survivors.
fn bench_search_sets(c: &mut Criterion) {
    let mut group = c.benchmark_group("search_set_phase");
    group.sample_size(30);
    for d in [4u32, 10, 16] {
        let ring: Vec<NodeId> = ring_iter(N, NodeId::new(FROM), d).collect();
        group.bench_with_input(BenchmarkId::new("ringset", d), &d, |b, &d| {
            let mut set = RingSet::default();
            b.iter(|| {
                set.assign_ring(N, NodeId::new(FROM), d);
                set.fill();
                for id in ring.iter().step_by(2) {
                    set.remove(*id);
                }
                for id in ring.iter().step_by(4) {
                    set.insert(*id);
                }
                let mut acc = 0u64;
                for id in set.iter() {
                    acc = acc.wrapping_add(u64::from(id.get()));
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("btreeset", d), &d, |b, _| {
            b.iter(|| {
                let mut set: BTreeSet<NodeId> = ring.iter().copied().collect();
                for id in ring.iter().step_by(2) {
                    set.remove(id);
                }
                for id in ring.iter().step_by(4) {
                    set.insert(*id);
                }
                let mut acc = 0u64;
                for id in &set {
                    acc = acc.wrapping_add(u64::from(id.get()));
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring_iteration, bench_search_sets);
criterion_main!(benches);
