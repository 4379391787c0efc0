//! The `BFS-based` and `DFS-based` baseline generators (§7.2).
//!
//! Both build the pair graph and emit the first `k` vertices of a
//! graph traversal as a cluster-based HIT, remove the edges that HIT
//! covers, and re-traverse the shrunken graph until no edges remain. The
//! only difference is the traversal discipline. The paper found BFS to be
//! the strongest baseline — breadth-first order keeps each HIT's vertices
//! locally clustered, covering more edges per HIT.

use crate::hit::{ClusterGenerator, Hit};
use crate::validate::check_k;
use crowder_graph::HitGraph;
use crowder_types::{Pair, Result};
use std::collections::VecDeque;

/// Shared engine for the two traversal baselines.
fn traversal_generate(pairs: &[Pair], k: usize, bfs: bool) -> Result<Vec<Hit>> {
    check_k(k)?;
    let mut graph = HitGraph::from_pairs(pairs);
    let mut walk = Traversal::new(graph.vertex_count());
    let mut hits = Vec::new();
    while !graph.is_edgeless() {
        // Only the first k vertices of the traversal are consumed, so the
        // prefix walk stops early instead of ordering the whole graph.
        let prefix = walk.prefix(&graph, bfs, k);
        let hit = Hit::cluster(prefix.iter().map(|&v| graph.record(v)));
        let removed = graph.remove_covered_edges(&prefix);
        debug_assert!(
            removed > 0,
            "a k >= 2 prefix of a traversal always covers the first tree edge"
        );
        hits.push(hit);
    }
    Ok(hits)
}

/// Traversal state kept across the HITs of one run.
struct Traversal {
    /// Every vertex below it has no live edge. A vertex never regains an
    /// edge, so it only moves forward.
    cursor: usize,
    /// Marked on push (a vertex enters the frontier once); reset after
    /// each prefix through `touched`.
    visited: Vec<bool>,
    touched: Vec<usize>,
    frontier: VecDeque<usize>,
}

impl Traversal {
    fn new(n: usize) -> Self {
        Traversal {
            cursor: 0,
            visited: vec![false; n],
            touched: Vec::new(),
            frontier: VecDeque::new(),
        }
    }

    /// The first `limit` vertices of the traversal order over the live
    /// graph: repeatedly BFS (or DFS) from the smallest unvisited vertex
    /// that still has an edge, neighbors in ascending id order.
    fn prefix(&mut self, graph: &HitGraph, bfs: bool, limit: usize) -> Vec<usize> {
        while self.cursor < graph.vertex_count() && graph.degree(self.cursor) == 0 {
            self.cursor += 1;
        }
        let mut order = Vec::with_capacity(limit.min(graph.vertex_count()));
        'starts: for start in self.cursor..graph.vertex_count() {
            if order.len() >= limit {
                break;
            }
            if self.visited[start] || graph.degree(start) == 0 {
                continue;
            }
            self.frontier.clear();
            self.frontier.push_back(start);
            self.visited[start] = true;
            self.touched.push(start);
            while let Some(v) = if bfs {
                self.frontier.pop_front()
            } else {
                self.frontier.pop_back()
            } {
                order.push(v);
                if order.len() >= limit {
                    break 'starts;
                }
                // DFS reverses the neighbors it just pushed, so the
                // smallest id pops first.
                let before = self.frontier.len();
                for u in graph.neighbors(v) {
                    if !self.visited[u] {
                        self.visited[u] = true;
                        self.touched.push(u);
                        self.frontier.push_back(u);
                    }
                }
                if !bfs {
                    self.frontier.make_contiguous()[before..].reverse();
                }
            }
        }
        for v in self.touched.drain(..) {
            self.visited[v] = false;
        }
        order
    }
}

/// Breadth-first-search baseline generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsGenerator;

impl ClusterGenerator for BfsGenerator {
    fn name(&self) -> &'static str {
        "BFS-based"
    }

    fn generate(&self, pairs: &[Pair], k: usize) -> Result<Vec<Hit>> {
        traversal_generate(pairs, k, true)
    }
}

/// Depth-first-search baseline generator.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsGenerator;

impl ClusterGenerator for DfsGenerator {
    fn name(&self) -> &'static str {
        "DFS-based"
    }

    fn generate(&self, pairs: &[Pair], k: usize) -> Result<Vec<Hit>> {
        traversal_generate(pairs, k, false)
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
    fn bfs_covers_everything() {
        let hits = BfsGenerator.generate(&figure2a_pairs(), 4).unwrap();
        validate_cluster_hits(&hits, &figure2a_pairs(), 4).unwrap();
    }

    #[test]
    fn dfs_covers_everything() {
        let hits = DfsGenerator.generate(&figure2a_pairs(), 4).unwrap();
        validate_cluster_hits(&hits, &figure2a_pairs(), 4).unwrap();
    }

    #[test]
    fn deterministic() {
        let a = BfsGenerator.generate(&figure2a_pairs(), 4).unwrap();
        let b = BfsGenerator.generate(&figure2a_pairs(), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_edge_single_hit() {
        let pairs = vec![Pair::of(0, 1)];
        for gen in [
            Box::new(BfsGenerator) as Box<dyn ClusterGenerator>,
            Box::new(DfsGenerator),
        ] {
            let hits = gen.generate(&pairs, 10).unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].size(), 2);
        }
    }

    #[test]
    fn bfs_and_dfs_orders_cover_all_vertices() {
        let graph = HitGraph::from_pairs(&figure2a_pairs());
        let mut walk = Traversal::new(graph.vertex_count());
        let records = |order: Vec<usize>| -> Vec<u32> {
            order.into_iter().map(|v| graph.record(v).0).collect()
        };
        let bfs = records(walk.prefix(&graph, true, usize::MAX));
        let dfs = records(walk.prefix(&graph, false, usize::MAX));
        let mut b = bfs.clone();
        b.sort_unstable();
        assert_eq!(b, (1..=9).collect::<Vec<_>>());
        assert_eq!(dfs.len(), 9);
        // BFS from r1 visits r1's neighbors (r2, r7) before deeper vertices.
        assert_eq!(&bfs[..3], &[1, 2, 7]);
        // DFS from r1 goes deep first: r1 → r2 → r3 (visited-at-push:
        // r7 was marked when r1 pushed it, so r2 passes over it).
        assert_eq!(&dfs[..3], &[1, 2, 3]);
        // A short prefix stops early; the next walk starts afresh.
        assert_eq!(records(walk.prefix(&graph, true, 2)), vec![1, 2]);
    }

    #[test]
    fn empty_graph_behaviour() {
        let graph = HitGraph::from_pairs(&[]);
        assert!(Traversal::new(0)
            .prefix(&graph, true, usize::MAX)
            .is_empty());
        assert!(BfsGenerator.generate(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(BfsGenerator.name(), "BFS-based");
        assert_eq!(DfsGenerator.name(), "DFS-based");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn traversal_generators_invariants(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 1..60),
            k in 2usize..=8,
            bfs in proptest::bool::ANY,
        ) {
            let pairs: Vec<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let hits = traversal_generate(&pairs, k, bfs).unwrap();
            prop_assert!(validate_cluster_hits(&hits, &pairs, k).is_ok());
        }
    }
}
