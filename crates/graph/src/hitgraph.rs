//! The flat pair graph every cluster-HIT generator runs on.
//!
//! Every generator in the paper repeatedly *removes the edges covered
//! by the HIT it just emitted* and continues on the remainder (§5.2
//! Algorithm 2 line 14, §7.2 baseline descriptions). Edges are only
//! ever removed, so the graph is built once: vertices get dense local
//! ids (positions in the sorted vertex list, so local order is record
//! order and every "smallest id" tie-break can compare local ids),
//! adjacency is a sorted CSR of `(neighbour, edge id)` rows, and a
//! removed edge clears its alive bit instead of leaving its rows.

use crowder_types::{Pair, RecordId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An undirected simple graph over dense local ids `0..vertex_count()`
/// that supports edge removal only.
#[derive(Debug, Clone)]
pub struct HitGraph {
    /// Sorted record ids; a vertex's local id is its position.
    records: Vec<RecordId>,
    /// Row `v` of `adj` is `adj[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// `(neighbour, edge id)`, each row sorted by neighbour.
    adj: Vec<(u32, u32)>,
    alive: Vec<bool>,
    /// Live degree of each vertex.
    degree: Vec<u32>,
    live_edges: usize,
    /// Lazy max-heap of `(degree, Reverse(vertex))`, one entry per
    /// vertex with edges. An entry's degree is never below its vertex's
    /// live degree; [`HitGraph::max_degree_vertex`] refreshes stale
    /// entries as they surface.
    by_degree: BinaryHeap<(u32, Reverse<u32>)>,
    /// Scratch membership mask for [`HitGraph::remove_covered_edges`];
    /// all `false` between calls.
    mark: Vec<bool>,
}

impl HitGraph {
    /// Build from a pair list, in any order; duplicates collapse.
    pub fn from_pairs(pairs: &[Pair]) -> Self {
        let sorted;
        let pairs = if pairs.windows(2).all(|w| w[0] < w[1]) {
            pairs
        } else {
            let mut owned = pairs.to_vec();
            owned.sort_unstable();
            owned.dedup();
            sorted = owned;
            &sorted
        };
        let mut records: Vec<RecordId> = pairs.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
        records.sort_unstable();
        records.dedup();
        Self::from_component(records, pairs)
    }

    /// Build from strictly ascending `pairs` and `records`, their
    /// endpoints in ascending order — one component of
    /// [`pairs_by_component`](crate::pairs_by_component).
    pub fn from_component(records: Vec<RecordId>, pairs: &[Pair]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(records.windows(2).all(|w| w[0] < w[1]));
        assert!(
            u32::try_from(2 * pairs.len()).is_ok(),
            "edge ids and row offsets are u32"
        );
        let n = records.len();
        let local = |r: RecordId| {
            records
                .binary_search(&r)
                .expect("every endpoint is a vertex") as u32
        };
        let ends: Vec<(u32, u32)> = pairs
            .iter()
            .map(|p| (local(p.lo()), local(p.hi())))
            .collect();
        let mut degree = vec![0u32; n];
        for &(a, b) in &ends {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for &d in &degree {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        // Pairs ascend by (lo, hi), so every row fills in ascending
        // neighbour order: first the smaller neighbours (edges where the
        // row's vertex is `hi`, met in `lo` order), then the larger ones.
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![(0u32, 0u32); 2 * ends.len()];
        for (e, &(a, b)) in ends.iter().enumerate() {
            adj[fill[a as usize] as usize] = (b, e as u32);
            fill[a as usize] += 1;
            adj[fill[b as usize] as usize] = (a, e as u32);
            fill[b as usize] += 1;
        }
        let by_degree = degree
            .iter()
            .enumerate()
            .map(|(v, &d)| (d, Reverse(v as u32)))
            .collect();
        HitGraph {
            records,
            offsets,
            adj,
            alive: vec![true; ends.len()],
            degree,
            live_edges: ends.len(),
            by_degree,
            mark: vec![false; n],
        }
    }

    /// Number of vertices, with or without live edges: local ids are
    /// `0..vertex_count()`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.records.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// True iff no edges remain.
    #[inline]
    pub fn is_edgeless(&self) -> bool {
        self.live_edges == 0
    }

    /// The record behind local id `v`.
    #[inline]
    pub fn record(&self, v: usize) -> RecordId {
        self.records[v]
    }

    /// The local id of record `r`, if it is a vertex.
    pub fn vertex(&self, r: RecordId) -> Option<usize> {
        self.records.binary_search(&r).ok()
    }

    /// Live degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.degree[v] as usize
    }

    fn row(&self, v: usize) -> &[(u32, u32)] {
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Live neighbours of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(v)
            .iter()
            .filter(|&&(_, e)| self.alive[e as usize])
            .map(|&(u, _)| u as usize)
    }

    /// Is the edge `{a, b}` live? A binary search in `a`'s row.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        let row = self.row(a);
        row.binary_search_by_key(&(b as u32), |&(u, _)| u)
            .is_ok_and(|i| self.alive[row[i].1 as usize])
    }

    fn kill(&mut self, a: usize, b: usize, e: u32) {
        self.alive[e as usize] = false;
        self.degree[a] -= 1;
        self.degree[b] -= 1;
        self.live_edges -= 1;
    }

    /// Remove every live edge at `v`; returns how many there were.
    pub fn isolate(&mut self, v: usize) -> usize {
        let (start, end) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        let mut removed = 0;
        for i in start..end {
            let (u, e) = self.adj[i];
            if self.alive[e as usize] {
                self.kill(v, u as usize, e);
                removed += 1;
            }
        }
        removed
    }

    /// Remove every live edge whose two endpoints are both in `cover` —
    /// "remove the edges of lcc that are covered by scc" (Alg. 2 line
    /// 14). Returns the number of edges removed.
    pub fn remove_covered_edges(&mut self, cover: &[usize]) -> usize {
        for &v in cover {
            self.mark[v] = true;
        }
        let mut removed = 0;
        for &v in cover {
            let (start, end) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for i in start..end {
                let (u, e) = self.adj[i];
                if self.mark[u as usize] && self.alive[e as usize] {
                    self.kill(v, u as usize, e);
                    removed += 1;
                }
            }
        }
        for &v in cover {
            self.mark[v] = false;
        }
        removed
    }

    /// The vertex with maximum live degree, ties broken by smallest id.
    /// `None` on an edgeless graph.
    pub fn max_degree_vertex(&mut self) -> Option<usize> {
        while let Some(&(d, Reverse(v))) = self.by_degree.peek() {
            let live = self.degree[v as usize];
            if d == live {
                return Some(v as usize);
            }
            // Degrees only fall, so a stale entry overstates its vertex:
            // re-queue it at its live degree (or drop it at zero).
            self.by_degree.pop();
            if live > 0 {
                self.by_degree.push((live, Reverse(v)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure5() -> HitGraph {
        HitGraph::from_pairs(&[
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

    fn v(g: &HitGraph, r: u32) -> usize {
        g.vertex(RecordId(r)).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let mut g = figure5();
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.vertex_count(), 9);
        assert_eq!(g.degree(v(&g, 4)), 4);
        assert_eq!(g.degree(v(&g, 8)), 1);
        assert_eq!(g.vertex(RecordId(42)), None);
        // Paper Figure 8(a): r4 is the max-degree seed vertex.
        assert_eq!(
            g.max_degree_vertex().map(|m| g.record(m)),
            Some(RecordId(4))
        );
    }

    #[test]
    fn rows_are_sorted_and_local_order_is_record_order() {
        let g = figure5();
        let records: Vec<RecordId> = (0..g.vertex_count()).map(|v| g.record(v)).collect();
        assert_eq!(records, (1..=9).map(RecordId).collect::<Vec<_>>());
        let of = |r| -> Vec<u32> { g.neighbors(v(&g, r)).map(|u| g.record(u).0).collect() };
        assert_eq!(of(4), vec![3, 5, 6, 7]);
        assert_eq!(of(7), vec![1, 2, 4]);
        assert!(g.has_edge(v(&g, 7), v(&g, 1)));
        assert!(!g.has_edge(v(&g, 7), v(&g, 3)));
    }

    #[test]
    fn isolate_updates_counts_and_degrees() {
        let mut g = figure5();
        assert_eq!(g.isolate(v(&g, 8)), 1);
        assert_eq!(g.isolate(v(&g, 8)), 0);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.degree(v(&g, 9)), 0);
        assert!(!g.has_edge(v(&g, 9), v(&g, 8)));
        assert_eq!(g.isolate(v(&g, 4)), 4);
        assert_eq!(g.degree(v(&g, 3)), 2);
        // r4 lost its edges, and with them r7 its third: r2 is left as
        // the only degree-3 vertex.
        assert_eq!(
            g.max_degree_vertex().map(|m| g.record(m)),
            Some(RecordId(2))
        );
    }

    #[test]
    fn remove_covered_edges_matches_paper_partition() {
        // Covering {r3, r4, r5, r6} removes edges (3,4), (3,5), (4,5), (4,6).
        let mut g = figure5();
        let cover: Vec<usize> = [3, 4, 5, 6].iter().map(|&r| v(&g, r)).collect();
        assert_eq!(g.remove_covered_edges(&cover), 4);
        assert_eq!(g.remove_covered_edges(&cover), 0);
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(v(&g, 4), v(&g, 7))); // r7 not in the cover
        assert_eq!(g.degree(v(&g, 4)), 1);
    }

    #[test]
    fn duplicate_and_unsorted_pairs_collapse() {
        let g = HitGraph::from_pairs(&[Pair::of(1, 2), Pair::of(0, 1), Pair::of(1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn empty_graph_behaviour() {
        let mut g = HitGraph::from_pairs(&[]);
        assert!(g.is_edgeless());
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.max_degree_vertex(), None);
    }

    #[test]
    fn max_degree_vertex_tracks_removals_to_empty() {
        let mut g = figure5();
        let mut seeds = Vec::new();
        while let Some(m) = g.max_degree_vertex() {
            seeds.push(g.record(m).0);
            g.isolate(m);
        }
        assert!(g.is_edgeless());
        // r4 (degree 4), then r2 (the only degree 3 left); from then on
        // every vertex has degree 1 and ties go to the smallest id.
        assert_eq!(seeds, vec![4, 2, 1, 3, 8]);
    }
}
