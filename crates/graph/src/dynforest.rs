//! Fully-dynamic connectivity over an edge-list graph: the structure
//! behind cluster *splits*.
//!
//! A union-find forest ([`UnionFind`](crate::UnionFind)) supports only
//! merges — once two components join there is no way to take an edge
//! back, which is exactly the operation fault-tolerant ER needs when a
//! wrong crowd answer is retracted or a record is deleted (Gruenheid et
//! al. 2015). [`DynamicConnectivity`] keeps the actual adjacency sets
//! plus a component label per vertex, so both directions are cheap in
//! the regimes that matter here:
//!
//! * [`add_edge`](DynamicConnectivity::add_edge) merges two components
//!   by relabelling the smaller member list (small-to-large: every
//!   vertex is relabelled `O(log n)` times across any merge sequence);
//! * [`remove_edge`](DynamicConnectivity::remove_edge) deletes the edge
//!   and searches from both endpoints in lockstep until the searches
//!   meet (no split) or one side runs dry (a split, and that side is
//!   the detached part), so the search costs about twice the smaller
//!   side; it then relabels the side that lost the old label.
//!
//! Most ER components are small (the pair graph is sparse by
//! construction — the machine pass prunes aggressively), and a cut off a
//! giant component usually detaches a small piece, so the lockstep
//! search is far cheaper than maintaining an Euler-tour or HDT forest,
//! and unlike those structures the adjacency sets double as the
//! evidence graph's edge set.
//!
//! **Label invariant**: a component's label is always the id of one of
//! its member vertices, and a vertex id labels at most one component.
//! Side tables keyed by label (the resolver's HIT books) therefore
//! never see two distinct components under the same key.

use crowder_types::{Error, Result};
use std::collections::{HashMap, HashSet};

/// What [`DynamicConnectivity::add_edge`] did to the component
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeLink {
    /// The edge already existed; nothing changed.
    Duplicate,
    /// Both endpoints were already connected; the edge adds redundancy
    /// (a future bridge-removal may now keep the component whole).
    Internal,
    /// Two components merged. `winner` is the surviving label,
    /// `absorbed` the label that disappeared — callers migrate
    /// label-keyed side tables exactly like union-find's `union_roots`.
    Merged {
        /// Surviving component label.
        winner: usize,
        /// Label that no longer exists.
        absorbed: usize,
    },
}

/// What [`DynamicConnectivity::remove_edge`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeCut {
    /// No such edge.
    Missing,
    /// Edge removed; the endpoints stay connected through another path.
    Kept,
    /// The edge was a bridge: the component split. `kept` is the old
    /// label (still valid for the side holding the label vertex);
    /// `split_off` is the fresh label of the other side.
    Split {
        /// Label that survived (the side containing the label vertex).
        kept: usize,
        /// New label of the detached side.
        split_off: usize,
    },
}

/// An undirected graph over `0..n` with incremental connectivity that
/// supports both edge insertion *and* removal.
#[derive(Debug, Clone, Default)]
pub struct DynamicConnectivity {
    adj: Vec<HashSet<u32>>,
    /// Component label per vertex (always the id of a member vertex).
    comp: Vec<u32>,
    /// Label → member vertices. Every vertex appears in exactly one
    /// list; singleton components are stored too.
    members: HashMap<u32, Vec<u32>>,
    edges: usize,
    components: usize,
    /// Split-search scratch: the stamp of the last search that visited
    /// each vertex (0 = never), the last stamp used, and one BFS queue
    /// per endpoint.
    mark: Vec<u32>,
    stamp: u32,
    queues: [Vec<u32>; 2],
}

impl DynamicConnectivity {
    /// An empty graph over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        let mut g = DynamicConnectivity::default();
        g.grow(n);
        g
    }

    /// Rebuild a graph from exported parts: one component label per
    /// vertex (see [`labels`](DynamicConnectivity::labels)) and the
    /// edge list. Validates that edges stay inside one component and
    /// that every label obeys the label invariant (`labels[l] == l`),
    /// so a corrupted snapshot fails loudly instead of silently
    /// desynchronizing label-keyed side tables.
    ///
    /// Member lists are regrouped in ascending vertex order. Label
    /// *evolution* under future mutations does not depend on member
    /// order — merge winners are chosen by list length, splits
    /// partition by set membership — so a rebuilt graph relabels
    /// exactly like the original would have.
    pub fn from_parts(labels: Vec<u32>, edge_list: &[(u32, u32)]) -> Result<Self> {
        let n = labels.len();
        let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
        let mut edges = 0usize;
        for &(a, b) in edge_list {
            if a == b || a as usize >= n || b as usize >= n {
                return Err(Error::InvalidData(format!(
                    "edge ({a}, {b}) is not valid over {n} vertices"
                )));
            }
            if labels[a as usize] != labels[b as usize] {
                return Err(Error::InvalidData(format!(
                    "edge ({a}, {b}) spans two component labels"
                )));
            }
            if adj[a as usize].insert(b) {
                adj[b as usize].insert(a);
                edges += 1;
            }
        }
        let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
        for (v, &label) in labels.iter().enumerate() {
            members.entry(label).or_default().push(v as u32);
        }
        for (&label, list) in &members {
            if label as usize >= n || !list.contains(&label) {
                return Err(Error::InvalidData(format!(
                    "component label {label} is not one of its members"
                )));
            }
        }
        let components = members.len();
        Ok(DynamicConnectivity {
            adj,
            comp: labels,
            members,
            edges,
            components,
            mark: vec![0; n],
            ..DynamicConnectivity::default()
        })
    }

    /// The per-vertex component labels — the export counterpart of
    /// [`from_parts`](DynamicConnectivity::from_parts).
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.comp
    }

    /// Append one isolated vertex; returns its id.
    pub fn make_vertex(&mut self) -> usize {
        let id = self.adj.len();
        self.adj.push(HashSet::new());
        self.comp.push(id as u32);
        self.mark.push(0);
        self.members.insert(id as u32, vec![id as u32]);
        self.components += 1;
        id
    }

    /// Grow to at least `n` vertices.
    pub fn grow(&mut self, n: usize) {
        while self.adj.len() < n {
            self.make_vertex();
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True iff the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of edges currently present.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of connected components (isolated vertices included).
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The component label of `v`. O(1) — labels are maintained
    /// eagerly, not found by traversal.
    #[inline]
    pub fn root(&self, v: usize) -> usize {
        self.comp[v] as usize
    }

    /// Are `a` and `b` currently connected?
    #[inline]
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.comp[a] == self.comp[b]
    }

    /// Is the edge `(a, b)` present?
    #[inline]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&(b as u32))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Neighbors of `v` (unordered).
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().map(|&u| u as usize)
    }

    /// Members of the component labelled `label` (unordered). Empty if
    /// `label` is not a current component label.
    pub fn component_members(&self, label: usize) -> &[u32] {
        self.members
            .get(&(label as u32))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Size of `v`'s component.
    pub fn component_size(&self, v: usize) -> usize {
        self.component_members(self.root(v)).len()
    }

    /// Insert the undirected edge `(a, b)`. Panics if `a == b` or out
    /// of range.
    pub fn add_edge(&mut self, a: usize, b: usize) -> EdgeLink {
        assert_ne!(a, b, "self-loops are not representable");
        if !self.adj[a].insert(b as u32) {
            return EdgeLink::Duplicate;
        }
        self.adj[b].insert(a as u32);
        self.edges += 1;
        let (la, lb) = (self.comp[a], self.comp[b]);
        if la == lb {
            return EdgeLink::Internal;
        }
        // Small-to-large: relabel the smaller member list.
        let (winner, absorbed) = if self.members[&la].len() >= self.members[&lb].len() {
            (la, lb)
        } else {
            (lb, la)
        };
        let moved = self.members.remove(&absorbed).expect("label has members");
        for &v in &moved {
            self.comp[v as usize] = winner;
        }
        self.members
            .get_mut(&winner)
            .expect("label has members")
            .extend(moved);
        self.components -= 1;
        EdgeLink::Merged {
            winner: winner as usize,
            absorbed: absorbed as usize,
        }
    }

    /// Remove the undirected edge `(a, b)`, reporting a split if it was
    /// a bridge.
    ///
    /// Searches from both endpoints in lockstep, one vertex per side per
    /// step, and stops as soon as the sides meet (not a bridge) or one
    /// side runs out of vertices (a bridge, and that side is the
    /// detached part). Either way the search visits at most about twice
    /// the smaller side, so cutting a leaf off a giant component costs
    /// the leaf, not the component.
    pub fn remove_edge(&mut self, a: usize, b: usize) -> EdgeCut {
        if !self.adj[a].remove(&(b as u32)) {
            return EdgeCut::Missing;
        }
        self.adj[b].remove(&(a as u32));
        self.edges -= 1;
        let old = self.comp[a];
        let Some(small) = self.lockstep_search(a as u32, b as u32) else {
            return EdgeCut::Kept;
        };
        // Bridge: the exhausted side's vertices carry stamp `small`, the
        // rest of the old component is the other side. The side holding
        // the label vertex keeps the label; the other side is relabelled
        // after its endpoint (a member of that side, hence a valid fresh
        // label — see the module-level label invariant).
        let (small_end, large_end) = if self.mark[a] == small {
            (a as u32, b as u32)
        } else {
            (b as u32, a as u32)
        };
        let (small_side, large_side): (Vec<u32>, Vec<u32>) = self
            .members
            .remove(&old)
            .expect("label has members")
            .into_iter()
            .partition(|&v| self.mark[v as usize] == small);
        let (kept_side, new_label, moved) = if self.mark[old as usize] == small {
            (small_side, large_end, large_side)
        } else {
            (large_side, small_end, small_side)
        };
        for &v in &moved {
            self.comp[v as usize] = new_label;
        }
        self.members.insert(old, kept_side);
        self.members.insert(new_label, moved);
        self.components += 1;
        EdgeCut::Split {
            kept: old as usize,
            split_off: new_label as usize,
        }
    }

    /// Breadth-first search from `a` and from `b` in lockstep over the
    /// current edges, one vertex per side per step. Returns `None` if
    /// the two searches meet, else the stamp marking the side that ran
    /// out of vertices (every vertex of that side carries it in
    /// `mark`).
    fn lockstep_search(&mut self, a: u32, b: u32) -> Option<u32> {
        if self.stamp > u32::MAX - 2 {
            self.mark.fill(0);
            self.stamp = 0;
        }
        let (sa, sb) = (self.stamp + 1, self.stamp + 2);
        self.stamp = sb;
        self.mark[a as usize] = sa;
        self.mark[b as usize] = sb;
        let mut queues = std::mem::take(&mut self.queues);
        for (queue, start) in queues.iter_mut().zip([a, b]) {
            queue.clear();
            queue.push(start);
        }
        let mut heads = [0usize; 2];
        let found = 'search: loop {
            for (side, (own, other)) in [(sa, sb), (sb, sa)].into_iter().enumerate() {
                let Some(&v) = queues[side].get(heads[side]) else {
                    break 'search Some(own);
                };
                heads[side] += 1;
                for &u in &self.adj[v as usize] {
                    let m = self.mark[u as usize];
                    if m == other {
                        break 'search None;
                    }
                    if m != own {
                        self.mark[u as usize] = own;
                        queues[side].push(u);
                    }
                }
            }
        };
        self.queues = queues;
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn add_and_remove_round_trip() {
        let mut g = DynamicConnectivity::new(4);
        assert_eq!(g.component_count(), 4);
        assert_eq!(
            g.add_edge(0, 1),
            EdgeLink::Merged {
                winner: 0,
                absorbed: 1
            }
        );
        assert!(g.connected(0, 1));
        assert_eq!(g.add_edge(0, 1), EdgeLink::Duplicate);
        assert_eq!(g.add_edge(1, 0), EdgeLink::Duplicate);
        match g.remove_edge(0, 1) {
            EdgeCut::Split { kept, split_off } => {
                assert_ne!(kept, split_off);
                assert_eq!(g.component_size(split_off), 1);
                assert_eq!(g.root(split_off), split_off);
            }
            other => panic!("expected split, got {other:?}"),
        }
        assert!(!g.connected(0, 1));
        assert_eq!(g.component_count(), 4);
        assert_eq!(g.remove_edge(0, 1), EdgeCut::Missing);
    }

    #[test]
    fn redundant_edge_survives_bridge_removal() {
        let mut g = DynamicConnectivity::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0); // triangle
        assert_eq!(g.remove_edge(0, 1), EdgeCut::Kept);
        assert!(g.connected(0, 1));
        // Now a path 0-2-1: removing 2-0 isolates vertex 0. Which side
        // is reported as `split_off` depends on where the old label
        // sits; the resulting components are what matters.
        match g.remove_edge(2, 0) {
            EdgeCut::Split { .. } => {}
            other => panic!("expected split, got {other:?}"),
        }
        assert!(!g.connected(0, 1));
        assert!(g.connected(1, 2));
        assert_eq!(g.component_size(0), 1);
    }

    #[test]
    fn labels_are_member_vertices_and_side_tables_stay_keyed() {
        let mut g = DynamicConnectivity::new(6);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(1, 2); // chain 0-1-2-3
        let root = g.root(0);
        assert!(g.component_members(root).contains(&(root as u32)));
        // Splitting the middle gives two 2-vertex components, each
        // labelled by one of its own members.
        match g.remove_edge(1, 2) {
            EdgeCut::Split {
                kept, split_off, ..
            } => {
                assert!(g.component_members(kept).contains(&(kept as u32)));
                assert!(g.component_members(split_off).contains(&(split_off as u32)));
                assert_eq!(g.component_size(0), 2);
                assert_eq!(g.component_size(3), 2);
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn make_vertex_appends_isolated() {
        let mut g = DynamicConnectivity::new(0);
        assert!(g.is_empty());
        assert_eq!(g.make_vertex(), 0);
        assert_eq!(g.make_vertex(), 1);
        assert_eq!(g.component_count(), 2);
        g.add_edge(0, 1);
        assert_eq!(g.component_count(), 1);
    }

    #[test]
    fn split_reports_the_detached_side() {
        // Star around 0; cutting a ray detaches exactly that leaf.
        let mut g = DynamicConnectivity::new(5);
        for leaf in 1..5 {
            g.add_edge(0, leaf);
        }
        match g.remove_edge(0, 3) {
            EdgeCut::Split { kept, split_off } => {
                assert_eq!(split_off, 3);
                assert_eq!(g.component_members(split_off), &[3]);
                assert_eq!(g.root(0), kept);
                assert_eq!(g.root(3), 3);
            }
            other => panic!("expected split, got {other:?}"),
        }
        assert_eq!(g.component_size(0), 4);
    }

    /// Every edge as a canonical `(min, max)` tuple, sorted.
    fn edges(g: &DynamicConnectivity) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = (0..g.len())
            .flat_map(|v| {
                g.neighbors(v)
                    .filter(move |&u| v < u)
                    .map(move |u| (v as u32, u as u32))
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn from_parts_round_trips_and_relabels_identically() {
        let mut g = DynamicConnectivity::new(8);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(4, 5);
        g.add_edge(5, 6);
        let mut h = DynamicConnectivity::from_parts(g.labels().to_vec(), &edges(&g)).unwrap();
        assert_eq!(h.labels(), g.labels());
        assert_eq!(edges(&h), edges(&g));
        assert_eq!(h.component_count(), g.component_count());
        // Future mutations evolve labels identically.
        for (a, b, add) in [(5, 6, false), (3, 7, true), (0, 1, false), (1, 2, false)] {
            if add {
                g.add_edge(a, b);
                h.add_edge(a, b);
            } else {
                g.remove_edge(a, b);
                h.remove_edge(a, b);
            }
            assert_eq!(h.labels(), g.labels(), "after ({a}, {b}, add={add})");
        }
    }

    #[test]
    fn from_parts_rejects_corrupted_exports() {
        // Edge spanning two labels.
        assert!(DynamicConnectivity::from_parts(vec![0, 1], &[(0, 1)]).is_err());
        // Self-loop and out-of-range endpoints.
        assert!(DynamicConnectivity::from_parts(vec![0, 0], &[(1, 1)]).is_err());
        assert!(DynamicConnectivity::from_parts(vec![0, 0], &[(0, 5)]).is_err());
        // Label that is not a member of its own component.
        assert!(DynamicConnectivity::from_parts(vec![1, 0], &[]).is_err());
        assert!(DynamicConnectivity::from_parts(vec![7], &[]).is_err());
    }

    /// Oracle: recompute components from scratch with a fresh BFS.
    fn oracle_components(n: usize, edges: &HashSet<(usize, usize)>) -> Vec<usize> {
        let mut label = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if label[start] != usize::MAX {
                continue;
            }
            let id = next;
            next += 1;
            let mut queue = VecDeque::from([start]);
            label[start] = id;
            while let Some(v) = queue.pop_front() {
                for &(x, y) in edges.iter() {
                    let u = if x == v {
                        y
                    } else if y == v {
                        x
                    } else {
                        continue;
                    };
                    if label[u] == usize::MAX {
                        label[u] = id;
                        queue.push_back(u);
                    }
                }
            }
        }
        label
    }

    proptest! {
        #[test]
        fn matches_recompute_oracle_under_churn(
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..12, 0usize..12), 1..80)
        ) {
            let n = 12;
            let mut g = DynamicConnectivity::new(n);
            let mut edges: HashSet<(usize, usize)> = HashSet::new();
            for (add, a, b) in ops {
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if add {
                    g.add_edge(a, b);
                    edges.insert(key);
                } else {
                    let cut = g.remove_edge(a, b);
                    let existed = edges.remove(&key);
                    prop_assert_eq!(matches!(cut, EdgeCut::Missing), !existed);
                }
                // Oracle comparison after every mutation.
                let oracle = oracle_components(n, &edges);
                for v in 0..n {
                    for w in (v + 1)..n {
                        prop_assert_eq!(
                            g.connected(v, w),
                            oracle[v] == oracle[w],
                            "connectivity({}, {}) diverged", v, w
                        );
                    }
                }
                prop_assert_eq!(g.edge_count(), edges.len());
                let distinct: HashSet<usize> = (0..n).map(|v| g.root(v)).collect();
                prop_assert_eq!(distinct.len(), g.component_count());
                // Label invariant: every root labels its own component.
                for v in 0..n {
                    let r = g.root(v);
                    prop_assert!(g.component_members(r).contains(&(v as u32)));
                    prop_assert_eq!(g.root(r), r);
                }
            }
        }
    }
}
