//! Criterion micro-benchmarks of answer aggregation: Dawid–Skene EM vs
//! majority vote on synthetic vote matrices.
//!
//! Two input shapes:
//!
//! * `dawid_skene/<n>`: each pair answered by three random workers out
//!   of 200, so no two pairs share a vote list;
//! * `dawid_skene_cluster_hits`: sized like one Figure 1 job on Product
//!   ×4 (~85k pairs, ~262k votes, 360 workers), where every pair of a
//!   cluster HIT is answered by the same three workers and some pairs
//!   are covered by two HITs. Most pairs of a HIT then share one of a
//!   few vote lists, as in real jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowder_aggregate::{majority_vote, DawidSkene, Vote};
use crowder_types::Pair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn synth_votes(n_pairs: u32, workers: usize, seed: u64) -> Vec<Vote> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut votes = Vec::with_capacity(n_pairs as usize * 3);
    for i in 0..n_pairs {
        let pair = Pair::of(2 * i, 2 * i + 1);
        let is_match = rng.random::<f64>() < 0.3;
        // Three assignments from random workers with 0.9 accuracy.
        for _ in 0..3 {
            let w = rng.random_range(0..workers);
            let correct = rng.random::<f64>() < 0.9;
            votes.push((pair, w, is_match == correct));
        }
    }
    votes
}

/// Votes shaped like one Figure 1 job's: cluster HITs of `k` records
/// ask all `k(k−1)/2` pairs of the cluster, and three distinct workers
/// out of `workers` answer each HIT, one assignment after another. Every
/// `reask`-th HIT asks the previous HIT's pairs again, as two
/// overlapping cluster HITs do. A record matches about one in forty
/// others of its HIT. Workers mimic the default population: 12 %
/// spammers (random, always-yes, always-no), the rest with sensitivity
/// 0.93 and specificity 0.95.
fn cluster_hit_votes(hits: u32, k: u32, reask: u32, workers: usize, seed: u64) -> Vec<Vote> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut votes = Vec::with_capacity(hits as usize * (k * (k - 1) / 2) as usize * 3);
    let mut entity: Vec<u32> = Vec::new();
    let mut base = 0u32;
    for h in 0..hits {
        if h == 0 || h % reask != 0 {
            base = h * k;
            entity = (0..k).map(|_| rng.random_range(0..40)).collect();
        }
        let mut trio = [0usize; 3];
        for t in 0..3 {
            trio[t] = loop {
                let w = rng.random_range(0..workers);
                if !trio[..t].contains(&w) {
                    break w;
                }
            };
        }
        for &w in &trio {
            for a in 0..k {
                for b in a + 1..k {
                    let is_match = entity[a as usize] == entity[b as usize];
                    let verdict = match w % 25 {
                        0 => rng.random::<bool>(),
                        1 => true,
                        2 => false,
                        _ if is_match => rng.random::<f64>() < 0.93,
                        _ => rng.random::<f64>() >= 0.95,
                    };
                    votes.push((Pair::of(base + a, base + b), w, verdict));
                }
            }
        }
    }
    votes
}

fn aggregate_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation");
    group.sample_size(10);
    for n in [1_000u32, 10_000] {
        let votes = synth_votes(n, 200, 7);
        group.bench_with_input(BenchmarkId::new("dawid_skene", n), &votes, |b, votes| {
            b.iter(|| black_box(DawidSkene::default().run(votes).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("majority_vote", n), &votes, |b, votes| {
            b.iter(|| black_box(majority_vote(votes)))
        });
    }
    // 1,945 HITs of 10 records (45 pairs), every 40th a re-ask: 85,365
    // distinct pairs, 262,575 votes.
    let votes = cluster_hit_votes(1_945, 10, 40, 360, 7);
    group.bench_function("dawid_skene_cluster_hits", |b| {
        b.iter(|| black_box(DawidSkene::default().run(&votes).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, aggregate_bench);
criterion_main!(benches);
