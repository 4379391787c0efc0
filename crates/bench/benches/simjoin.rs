//! Criterion micro-benchmarks of the machine-pass strategies:
//! exhaustive parallel all-pairs vs PPJoin+ prefix join vs token
//! blocking, each at the available parallelism and (for the first two)
//! single-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowder::prelude::*;
use std::hint::black_box;

fn simjoin_bench(c: &mut Criterion) {
    let dataset = restaurant(&RestaurantConfig::default());
    let tokens = TokenTable::build(&dataset);

    let mut group = c.benchmark_group("similarity_join");
    group.sample_size(10);
    for thr in [0.5, 0.3] {
        group.bench_with_input(
            BenchmarkId::new("all_pairs_parallel", thr),
            &thr,
            |b, &thr| b.iter(|| black_box(all_pairs_scored(&dataset, &tokens, thr, 0))),
        );
        group.bench_with_input(
            BenchmarkId::new("all_pairs_single_thread", thr),
            &thr,
            |b, &thr| b.iter(|| black_box(all_pairs_scored(&dataset, &tokens, thr, 1))),
        );
        group.bench_with_input(BenchmarkId::new("prefix_join", thr), &thr, |b, &thr| {
            b.iter(|| black_box(prefix_join(&dataset, &tokens, thr, 0)))
        });
        group.bench_with_input(
            BenchmarkId::new("prefix_join_single_thread", thr),
            &thr,
            |b, &thr| b.iter(|| black_box(prefix_join(&dataset, &tokens, thr, 1))),
        );
        group.bench_with_input(BenchmarkId::new("token_blocking", thr), &thr, |b, &thr| {
            b.iter(|| black_box(token_blocking_pairs(&dataset, &tokens, thr, 0, 0)))
        });
    }
    group.finish();
}

criterion_group!(benches, simjoin_bench);
criterion_main!(benches);
