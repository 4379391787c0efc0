//! Seeded inputs: the Product corpus scaled by multiplying the
//! `ProductConfig` counts, and the workload properties the layers'
//! costs depend on.

use crowder_datagen::{product, ProductConfig};
use crowder_graph::UnionFind;
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_types::{Dataset, Pair, ScoredPair};

/// The Product corpus at `scale` times the paper's size, generated from
/// `seed`. Records arrive entity by entity, so a match's records sit
/// close together in arrival order.
pub fn product_x(scale: usize, seed: u64) -> Dataset {
    let base = ProductConfig::default();
    product(&ProductConfig {
        one_to_one: base.one_to_one * scale,
        one_to_two: base.one_to_two * scale,
        two_to_two: base.two_to_two * scale,
        unmatched_a: base.unmatched_a * scale,
        unmatched_b: base.unmatched_b * scale,
        seed,
        ..base
    })
}

/// `k` sub-seeds of `seed`, disjoint from those of every other seed.
pub fn sub_seeds(seed: u64, k: usize) -> impl Iterator<Item = u64> {
    (0..k as u64).map(move |i| seed.wrapping_mul(k as u64).wrapping_add(i))
}

/// The machine pairs of `dataset` at `threshold`: the batch join every
/// streaming and serving output is checked against.
pub fn machine_pairs(dataset: &Dataset, threshold: f64) -> Vec<ScoredPair> {
    prefix_join(dataset, &TokenTable::build(dataset), threshold, 0)
}

/// The share of `records` in the largest connected component of the
/// graph whose edges are `pairs`.
pub fn largest_component_share(records: usize, pairs: &[Pair]) -> f64 {
    if records == 0 {
        return 0.0;
    }
    let mut uf = UnionFind::new(records);
    for p in pairs {
        uf.union(p.lo().index(), p.hi().index());
    }
    let mut sizes = vec![0usize; records];
    for r in 0..records {
        let root = uf.find(r);
        sizes[root] += 1;
    }
    *sizes.iter().max().expect("records > 0") as f64 / records as f64
}

/// A 64-bit order-sensitive digest of a pair list (FNV-1a over the
/// endpoints and the likelihood bits).
pub fn pair_digest<'a>(pairs: impl IntoIterator<Item = &'a ScoredPair>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for sp in pairs {
        for word in [
            sp.pair.lo().0 as u64,
            sp.pair.hi().0 as u64,
            sp.likelihood.to_bits(),
        ] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// SplitMix64: the benchmark's own seeded generator for arrival
/// schedules and mutation scripts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::RecordId;

    #[test]
    fn component_share_counts_the_largest_component() {
        // {0,1,2} and {3,4}; 5 is alone.
        let pairs = [Pair::of(0, 1), Pair::of(1, 2), Pair::of(3, 4)];
        assert!((largest_component_share(6, &pairs) - 0.5).abs() < 1e-12);
        assert_eq!(largest_component_share(0, &[]), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_scores() {
        let a = ScoredPair::new(Pair::new(RecordId(0), RecordId(1)).unwrap(), 0.5);
        let b = ScoredPair::new(Pair::of(2, 3), 0.25);
        assert_eq!(pair_digest([&a, &b]), pair_digest([&a, &b]));
        assert_ne!(pair_digest([&a, &b]), pair_digest([&b, &a]));
        let c = ScoredPair::new(b.pair, 0.26);
        assert_ne!(pair_digest([&a, &b]), pair_digest([&a, &c]));
    }

    #[test]
    fn scaled_corpus_multiplies_the_paper_counts() {
        let d = product_x(2, 7);
        assert_eq!(d.len(), 2 * 2173);
        assert_eq!(d.gold.len(), 2 * 1097);
    }
}
