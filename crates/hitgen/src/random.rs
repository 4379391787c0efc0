//! The `Random` baseline generator (§7.2).
//!
//! *"The algorithm generates cluster-based HITs by randomly selecting
//! records from a set of pairs of records, P. To generate a cluster-based
//! HIT, H, it repeatedly selects a pair of records from P and merges the
//! two records into H. When |H| = k, it outputs H, and removes the pairs
//! from P"* — i.e. the pairs H covers. Repeats while P is non-empty.

use crate::hit::{ClusterGenerator, Hit};
use crate::validate::check_k;
use crowder_graph::HitGraph;
use crowder_types::{Pair, RecordId, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Seeded random cluster-HIT generator.
#[derive(Debug, Clone)]
pub struct RandomGenerator {
    /// RNG seed; fixed seeds make experiment runs reproducible.
    pub seed: u64,
}

impl RandomGenerator {
    /// Generator with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomGenerator { seed }
    }
}

impl ClusterGenerator for RandomGenerator {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn generate(&self, pairs: &[Pair], k: usize) -> Result<Vec<Hit>> {
        check_k(k)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Deduplicated work list, shuffled once; "random selection" then
        // walks it front to back. Covered pairs are deleted lazily via
        // the live-edge graph instead of an O(|P|) retain per HIT.
        let mut live = HitGraph::from_pairs(pairs);
        let mut order = pairs.to_vec();
        order.sort_unstable();
        order.dedup();
        order.shuffle(&mut rng);
        let local = |r: RecordId| live.vertex(r).expect("every endpoint is a vertex");
        // Work queue of local endpoint pairs: dead pairs are dropped as
        // they surface; pairs that do not fit the HIT under construction
        // are deferred to the next HIT, preserving the shuffled
        // selection order.
        let mut pending: VecDeque<(usize, usize)> = order
            .iter()
            .map(|p| (local(p.lo()), local(p.hi())))
            .collect();
        let mut deferred: Vec<(usize, usize)> = Vec::new();

        let mut hits = Vec::new();
        let mut members: Vec<usize> = Vec::with_capacity(k.min(live.vertex_count()));
        let mut in_hit = vec![false; live.vertex_count()];
        while !live.is_edgeless() {
            while let Some((a, b)) = pending.pop_front() {
                if !live.has_edge(a, b) {
                    continue; // already covered by an earlier HIT
                }
                let added = usize::from(!in_hit[a]) + usize::from(!in_hit[b]);
                if members.len() + added <= k {
                    for v in [a, b] {
                        if !in_hit[v] {
                            in_hit[v] = true;
                            members.push(v);
                        }
                    }
                    if members.len() == k {
                        break;
                    }
                } else {
                    deferred.push((a, b));
                }
            }
            if members.is_empty() {
                // k < 2 is rejected above; k ≥ 2 always fits one pair.
                unreachable!("a pair always fits in a HIT of size >= 2");
            }
            live.remove_covered_edges(&members);
            hits.push(Hit::cluster(members.iter().map(|&v| live.record(v))));
            for v in members.drain(..) {
                in_hit[v] = false;
            }
            // Deferred pairs stay at the head of the selection order.
            for pair in deferred.drain(..).rev() {
                pending.push_front(pair);
            }
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_cluster_hits;
    use proptest::prelude::*;

    fn figure2a_pairs() -> Vec<Pair> {
        vec![
            Pair::of(1, 2),
            Pair::of(2, 3),
            Pair::of(1, 7),
            Pair::of(2, 7),
            Pair::of(3, 4),
            Pair::of(3, 5),
            Pair::of(4, 5),
            Pair::of(4, 6),
            Pair::of(4, 7),
            Pair::of(8, 9),
        ]
    }

    #[test]
    fn covers_all_pairs_within_size_bound() {
        let hits = RandomGenerator::new(7)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        validate_cluster_hits(&hits, &figure2a_pairs(), 4).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RandomGenerator::new(42)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        let b = RandomGenerator::new(42)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        assert_eq!(a, b);
        let c = RandomGenerator::new(43)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        // Different seeds usually give different batches (not guaranteed,
        // but it holds for this fixture).
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_k_below_two() {
        assert!(RandomGenerator::new(0)
            .generate(&figure2a_pairs(), 1)
            .is_err());
    }

    #[test]
    fn empty_input_gives_no_hits() {
        assert!(RandomGenerator::new(0).generate(&[], 5).unwrap().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_generator_invariants(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 1..60),
            k in 2usize..=8,
            seed in 0u64..1000,
        ) {
            let pairs: Vec<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let hits = RandomGenerator::new(seed).generate(&pairs, k).unwrap();
            prop_assert!(validate_cluster_hits(&hits, &pairs, k).is_ok());
        }
    }
}
