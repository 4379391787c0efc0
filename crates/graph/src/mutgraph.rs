//! Mutable pair graphs with edge removal.
//!
//! Every cluster-HIT generator in the paper repeatedly *removes the edges
//! covered by the HIT it just emitted* and continues on the remainder
//! (§5.2 Algorithm 2 line 14, §7.2 baseline descriptions). [`MutGraph`]
//! supports exactly that access pattern: degree queries, sorted-neighbor
//! iteration, edge deletion, and covered-edge deletion for a vertex set.

use crowder_types::{Pair, RecordId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// An undirected multigraph-free graph over [`RecordId`]s with O(log d)
/// edge removal and deterministic iteration order.
///
/// Neighbor sets are `BTreeSet`s: the generators' tie-breaking rules
/// ("pick the vertex with maximum degree") need a stable ordering to make
/// runs reproducible. A degree index keeps
/// [`MutGraph::max_degree_vertex`] at O(log n) — the two-tiered
/// partitioner queries it once per emitted component, which would
/// otherwise cost a full vertex scan each round.
#[derive(Debug, Clone, Default)]
pub struct MutGraph {
    adj: HashMap<RecordId, BTreeSet<RecordId>>,
    /// `(degree, Reverse(vertex))` — `last()` is the max-degree vertex
    /// with ties broken toward the smallest record id.
    by_degree: BTreeSet<(usize, Reverse<RecordId>)>,
    edge_count: usize,
}

impl MutGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a pair list (duplicates collapse).
    pub fn from_pairs<'a, I: IntoIterator<Item = &'a Pair>>(pairs: I) -> Self {
        let mut g = MutGraph::new();
        for p in pairs {
            g.insert_edge(*p);
        }
        g
    }

    /// Insert an edge; returns true if it was new. Both endpoints become
    /// vertices.
    pub fn insert_edge(&mut self, pair: Pair) -> bool {
        let (a, b) = pair.endpoints();
        let da = self.adj.get(&a).map_or(0, BTreeSet::len);
        if !self.adj.entry(a).or_default().insert(b) {
            return false;
        }
        let db = self.adj.get(&b).map_or(0, BTreeSet::len);
        self.adj.entry(b).or_default().insert(a);
        self.reindex(a, da, da + 1);
        self.reindex(b, db, db + 1);
        self.edge_count += 1;
        true
    }

    /// Remove an edge; returns true if it existed. Endpoints that become
    /// isolated are removed from the vertex set.
    pub fn remove_edge(&mut self, pair: Pair) -> bool {
        let (a, b) = pair.endpoints();
        let Some(na) = self.adj.get_mut(&a) else {
            return false;
        };
        if !na.remove(&b) {
            return false;
        }
        let da = na.len();
        if na.is_empty() {
            self.adj.remove(&a);
        }
        let nb = self.adj.get_mut(&b).expect("symmetric adjacency");
        nb.remove(&a);
        let db = nb.len();
        if nb.is_empty() {
            self.adj.remove(&b);
        }
        self.reindex(a, da + 1, da);
        self.reindex(b, db + 1, db);
        self.edge_count -= 1;
        true
    }

    /// Move a vertex between degree buckets (degree 0 drops it).
    fn reindex(&mut self, v: RecordId, old_degree: usize, new_degree: usize) {
        if old_degree > 0 {
            self.by_degree.remove(&(old_degree, Reverse(v)));
        }
        if new_degree > 0 {
            self.by_degree.insert((new_degree, Reverse(v)));
        }
    }

    /// Remove every edge whose two endpoints are both in `cover` —
    /// "remove the edges of lcc that are covered by scc" (Alg. 2 line 14).
    /// Returns the number of edges removed.
    pub fn remove_covered_edges(&mut self, cover: &[RecordId]) -> usize {
        let set: BTreeSet<RecordId> = cover.iter().copied().collect();
        let mut to_remove: Vec<Pair> = Vec::new();
        for &v in &set {
            if let Some(neigh) = self.adj.get(&v) {
                for &u in neigh {
                    if u > v && set.contains(&u) {
                        to_remove.push(Pair::new(v, u).expect("distinct"));
                    }
                }
            }
        }
        for p in &to_remove {
            self.remove_edge(*p);
        }
        to_remove.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True iff no edges remain.
    #[inline]
    pub fn is_edgeless(&self) -> bool {
        self.edge_count == 0
    }

    /// Number of non-isolated vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Degree of `v` (0 if absent).
    pub fn degree(&self, v: RecordId) -> usize {
        self.adj.get(&v).map_or(0, BTreeSet::len)
    }

    /// Sorted neighbors of `v` (empty if absent).
    pub fn neighbors(&self, v: RecordId) -> impl Iterator<Item = RecordId> + '_ {
        self.adj.get(&v).into_iter().flat_map(|s| s.iter().copied())
    }

    /// Does the edge `pair` exist?
    pub fn has_edge(&self, pair: &Pair) -> bool {
        self.adj
            .get(&pair.lo())
            .is_some_and(|s| s.contains(&pair.hi()))
    }

    /// The vertex with maximum degree, ties broken by smallest record id
    /// (deterministic). `None` on an edgeless graph. O(log n) via the
    /// degree index.
    pub fn max_degree_vertex(&self) -> Option<RecordId> {
        self.by_degree.last().map(|&(_, Reverse(v))| v)
    }

    /// All live vertices, sorted.
    pub fn vertices(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self.adj.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The first `limit` vertices of the breadth-first traversal order
    /// (repeatedly BFS from the smallest unvisited vertex) — what the
    /// BFS-based baseline generator (§7.2) consumes per HIT. Stops early
    /// instead of walking the whole graph; `usize::MAX` gives the whole
    /// order.
    pub fn bfs_prefix(&self, limit: usize) -> Vec<RecordId> {
        self.traversal_prefix(true, limit)
    }

    /// DFS analogue of [`MutGraph::bfs_prefix`].
    pub fn dfs_prefix(&self, limit: usize) -> Vec<RecordId> {
        self.traversal_prefix(false, limit)
    }

    fn traversal_prefix(&self, bfs: bool, limit: usize) -> Vec<RecordId> {
        let mut visited: BTreeSet<RecordId> = BTreeSet::new();
        let mut order: Vec<RecordId> = Vec::with_capacity(self.adj.len().min(limit));
        for &start in self.adj.keys().collect::<BTreeSet<_>>() {
            if order.len() >= limit {
                break;
            }
            if visited.contains(&start) {
                continue;
            }
            let mut frontier: std::collections::VecDeque<RecordId> =
                std::collections::VecDeque::new();
            frontier.push_back(start);
            visited.insert(start);
            while let Some(v) = if bfs {
                frontier.pop_front()
            } else {
                frontier.pop_back()
            } {
                order.push(v);
                if order.len() >= limit {
                    return order;
                }
                // For DFS push neighbors in reverse so smaller ids pop first.
                let neigh: Vec<RecordId> = if bfs {
                    self.neighbors(v).collect()
                } else {
                    let mut n: Vec<RecordId> = self.neighbors(v).collect();
                    n.reverse();
                    n
                };
                for u in neigh {
                    if visited.insert(u) {
                        frontier.push_back(u);
                    }
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure5() -> MutGraph {
        MutGraph::from_pairs(&[
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
        ])
    }

    #[test]
    fn counts_and_degrees() {
        let g = figure5();
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.vertex_count(), 9);
        assert_eq!(g.degree(RecordId(4)), 4);
        assert_eq!(g.degree(RecordId(8)), 1);
        assert_eq!(g.degree(RecordId(42)), 0);
        // Paper Figure 8(a): r4 is the max-degree seed vertex.
        assert_eq!(g.max_degree_vertex(), Some(RecordId(4)));
    }

    #[test]
    fn remove_edge_updates_counts_and_isolates() {
        let mut g = figure5();
        assert!(g.remove_edge(Pair::of(8, 9)));
        assert!(!g.remove_edge(Pair::of(8, 9)));
        assert_eq!(g.edge_count(), 9);
        // Both endpoints became isolated and vanish from the vertex set.
        assert_eq!(g.vertex_count(), 7);
    }

    #[test]
    fn remove_covered_edges_matches_paper_partition() {
        // Covering {r3, r4, r5, r6} removes edges (3,4), (3,5), (4,5), (4,6).
        let mut g = figure5();
        let removed = g.remove_covered_edges(&[RecordId(3), RecordId(4), RecordId(5), RecordId(6)]);
        assert_eq!(removed, 4);
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(&Pair::of(4, 7))); // r7 not in the cover
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut g = MutGraph::new();
        assert!(g.insert_edge(Pair::of(0, 1)));
        assert!(!g.insert_edge(Pair::of(0, 1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bfs_and_dfs_orders_cover_all_vertices() {
        let g = figure5();
        let bfs = g.bfs_prefix(usize::MAX);
        let dfs = g.dfs_prefix(usize::MAX);
        assert_eq!(bfs.len(), 9);
        assert_eq!(dfs.len(), 9);
        let mut b = bfs.clone();
        b.sort_unstable();
        assert_eq!(b, g.vertices());
        // BFS from r1 visits r1's neighbors (r2, r7) before deeper vertices.
        assert_eq!(bfs[0], RecordId(1));
        assert_eq!(&bfs[1..3], &[RecordId(2), RecordId(7)]);
        // DFS from r1 goes deep first (visited-at-push variant: after
        // r1 → r2 both of r2's neighbors are already marked, so the walk
        // backtracks to r1's next neighbor r3).
        assert_eq!(dfs[0], RecordId(1));
        assert_eq!(dfs[1], RecordId(2));
        assert_eq!(dfs[2], RecordId(3));
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = MutGraph::new();
        assert!(g.is_edgeless());
        assert_eq!(g.max_degree_vertex(), None);
        assert!(g.bfs_prefix(usize::MAX).is_empty());
    }
}
