//! The `Approximation` generator (§4): Goldschmidt, Hochbaum, Hurkens &
//! Yu's (k/2 + k/(k−1))-approximation for k-clique edge covering \[15\].
//!
//! **Phase 1** builds a sequence `SEQ` of all vertices and edges:
//! repeatedly pick a vertex, append the vertex and its incident edges to
//! `SEQ`, and remove them from the graph.
//!
//! **Phase 2** chops `SEQ` into `⌈|SEQ|/(k−1)⌉` windows of `k−1`
//! consecutive elements. The key property: the edges inside any such
//! window touch at most `k` distinct vertices, so each window becomes one
//! cluster-based HIT.
//!
//! The paper notes (§5.1) that the vertex picked in phase 1 is *random*,
//! and shows experimentally (§7.2) that the algorithm performs poorly on
//! real workloads — sometimes worse than the naive random baseline. We
//! reproduce it faithfully, including the seeded random vertex choice.

use crate::hit::{ClusterGenerator, Hit};
use crate::validate::check_k;
use crowder_graph::HitGraph;
use crowder_types::{Pair, RecordId, Result};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// An element of the Goldschmidt sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqElem {
    Vertex(RecordId),
    Edge(Pair),
}

impl SeqElem {
    fn vertices(&self) -> Vec<RecordId> {
        match self {
            SeqElem::Vertex(v) => vec![*v],
            SeqElem::Edge(p) => vec![p.lo(), p.hi()],
        }
    }
}

/// Seeded Goldschmidt k-clique-cover approximation generator.
#[derive(Debug, Clone)]
pub struct ApproxGenerator {
    /// Seed for the random vertex selection of phase 1.
    pub seed: u64,
}

impl ApproxGenerator {
    /// Generator with the given seed.
    pub fn new(seed: u64) -> Self {
        ApproxGenerator { seed }
    }

    /// Phase 1: build SEQ by repeatedly extracting a random vertex with
    /// its incident edges.
    fn build_seq(&self, pairs: &[Pair]) -> Vec<SeqElem> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut graph = HitGraph::from_pairs(pairs);
        let mut seq = Vec::with_capacity(graph.vertex_count() + graph.edge_count());
        // Every vertex is drawn once, isolated leftovers included (the
        // paper's SEQ holds *all* vertices and edges: 9 + 10 = 19
        // elements for Figure 5). The unpicked vertices stay sorted, so
        // the draw picks by rank in record order.
        let mut alive: Vec<usize> = (0..graph.vertex_count()).collect();
        while let Some(&v) = alive.choose(&mut rng) {
            let at = alive.binary_search(&v).expect("v is alive");
            alive.remove(at);
            let r = graph.record(v);
            seq.push(SeqElem::Vertex(r));
            for u in graph.neighbors(v) {
                seq.push(SeqElem::Edge(
                    Pair::new(r, graph.record(u)).expect("distinct"),
                ));
            }
            graph.isolate(v);
        }
        seq
    }
}

impl ClusterGenerator for ApproxGenerator {
    fn name(&self) -> &'static str {
        "Approximation"
    }

    fn generate(&self, pairs: &[Pair], k: usize) -> Result<Vec<Hit>> {
        check_k(k)?;
        let seq = self.build_seq(pairs);
        // Phase 2: ⌈|SEQ|/(k−1)⌉ windows, one HIT per window. Windows
        // containing only vertex elements still produce (useless) HITs —
        // faithful to the paper's count of 7 for the Figure 5 example.
        let mut hits = Vec::new();
        for window in seq.chunks(k - 1) {
            let verts: BTreeSet<RecordId> = window.iter().flat_map(SeqElem::vertices).collect();
            debug_assert!(
                verts.len() <= k,
                "Goldschmidt window property violated: {} vertices for k = {k}",
                verts.len()
            );
            hits.push(Hit::cluster(verts));
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
    fn paper_example2_produces_seven_hits() {
        // §4 Example 2: 9 vertices + 10 edges = 19 SEQ elements; k = 4
        // → ⌈19/3⌉ = 7 cluster-based HITs (vs the optimal 3).
        let hits = ApproxGenerator::new(1)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        assert_eq!(hits.len(), 7);
        validate_cluster_hits(&hits, &figure2a_pairs(), 4).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ApproxGenerator::new(5)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        let b = ApproxGenerator::new(5)
            .generate(&figure2a_pairs(), 4)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hit_count_formula_holds_regardless_of_seed() {
        for seed in 0..20 {
            let hits = ApproxGenerator::new(seed)
                .generate(&figure2a_pairs(), 4)
                .unwrap();
            assert_eq!(hits.len(), 7, "seed {seed}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(ApproxGenerator::new(0).generate(&[], 4).unwrap().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn approx_invariants(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..40),
            k in 2usize..=8,
            seed in 0u64..100,
        ) {
            let pairs: Vec<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let hits = ApproxGenerator::new(seed).generate(&pairs, k).unwrap();
            prop_assert!(validate_cluster_hits(&hits, &pairs, k).is_ok());
        }
    }
}
