//! Criterion micro-benchmarks of the cutting-stock bottom tier: the full
//! `pack_items` (FFD, L2 bound, bin-completion search) vs FFD alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowder_packing::{first_fit_decreasing, pack_items, PackingConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// SCC-size distribution the two-tiered top tier actually produces:
/// mostly 2s and 3s with a tail up to k.
fn scc_sizes(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll: f64 = rng.random();
            if roll < 0.55 {
                2
            } else if roll < 0.8 {
                3
            } else {
                rng.random_range(4..=k)
            }
        })
        .collect()
}

fn packing_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cutting_stock");
    group.sample_size(10);
    for n in [100usize, 1000, 5000] {
        let sizes = scc_sizes(n, 10, 42);
        group.bench_with_input(BenchmarkId::new("pack_items", n), &sizes, |b, sizes| {
            b.iter(|| black_box(pack_items(sizes, 10, &PackingConfig::default()).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("ffd_only", n), &sizes, |b, sizes| {
            b.iter(|| black_box(first_fit_decreasing(sizes, 10).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, packing_bench);
criterion_main!(benches);
