//! The two-tiered cluster-HIT generator — the paper's contribution (§5).
//!
//! * **Top tier** ([`partition_lcc`], Algorithm 2): partition every large
//!   connected component (> k vertices) into highly-connected small
//!   components by greedily growing from the max-degree vertex, picking
//!   at each step the neighbor with maximum *indegree* into the growing
//!   component (ties: minimum *outdegree* to the rest of the graph), and
//!   removing covered edges between rounds. It runs on one flat
//!   [`HitGraph`] per large component, with the growing component's
//!   indegrees in a dense array, so every step costs array reads only.
//! * **Bottom tier** (`crowder-packing`): pack the resulting small
//!   components into ≤ k-sized HITs (§5.3's cutting-stock program) with
//!   first-fit-decreasing, checked against the Martello–Toth L2 bound
//!   and improved by a bin-completion search when FFD exceeds it.

use crate::hit::{ClusterGenerator, Hit};
use crate::validate::check_k;
use crowder_graph::HitGraph;
use crowder_packing::{pack_items, PackingConfig};
use crowder_types::{Pair, RecordId, Result};

/// Configuration of the two-tiered generator.
#[derive(Debug, Clone, Default)]
pub struct TwoTieredConfig {
    /// Bottom-tier packing configuration (FFD-only ablation).
    pub packing: PackingConfig,
    /// Disable the min-outdegree tie-break of Algorithm 2 line 8 and
    /// break indegree ties by record id instead. Ablation: quantifies how
    /// much the paper's secondary heuristic buys.
    pub disable_outdegree_tiebreak: bool,
}

/// The two-tiered generator (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct TwoTieredGenerator {
    /// Tuning knobs; default reproduces the paper.
    pub config: TwoTieredConfig,
}

impl TwoTieredGenerator {
    /// Generator with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator with explicit configuration.
    pub fn with_config(config: TwoTieredConfig) -> Self {
        TwoTieredGenerator { config }
    }
}

impl ClusterGenerator for TwoTieredGenerator {
    fn name(&self) -> &'static str {
        "Two-tiered"
    }

    fn generate(&self, pairs: &[Pair], k: usize) -> Result<Vec<Hit>> {
        check_k(k)?;
        // Line 2: connected components of the pair graph, with each
        // component's vertices and edges grouped in one pass.
        let components = crowder_graph::components::pairs_by_component(pairs);

        // Lines 3-5: SCCs pass through; LCCs are partitioned.
        let mut sccs: Vec<Vec<RecordId>> = Vec::new();
        for (vertices, group) in components {
            if vertices.len() <= k {
                sccs.push(vertices);
            } else {
                let mut lcc = HitGraph::from_component(vertices, &group);
                sccs.extend(partition_lcc(
                    &mut lcc,
                    k,
                    !self.config.disable_outdegree_tiebreak,
                ));
            }
        }

        // Line 6: pack the SCCs into cluster-based HITs.
        let sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        let packing = pack_items(&sizes, k, &self.config.packing)?;
        let mut hits = Vec::with_capacity(packing.bins.len());
        for bin in packing.bins {
            let records = bin.iter().flat_map(|&i| sccs[i].iter().copied());
            hits.push(Hit::cluster(records));
        }
        Ok(hits)
    }
}

/// Top tier (Algorithm 2): partition one large connected component into
/// small connected components whose union covers all its edges. Each
/// returned component is sorted by record id.
///
/// `lcc` is consumed (edges are removed as they are covered).
/// `outdegree_tiebreak` enables the paper's min-outdegree rule for
/// indegree ties; when disabled, ties fall to the smallest record id.
///
/// `conn` (line 6) is a list of the vertices adjacent to the growing
/// component plus a dense indegree array over local ids, non-zero
/// exactly on that list and reset through it after each round. Local
/// ids order like record ids, so every tie-break compares local ids.
pub fn partition_lcc(lcc: &mut HitGraph, k: usize, outdegree_tiebreak: bool) -> Vec<Vec<RecordId>> {
    let n = lcc.vertex_count();
    let mut indegree = vec![0u32; n];
    let mut in_scc = vec![false; n];
    let mut conn: Vec<usize> = Vec::new();
    let mut scc: Vec<usize> = Vec::new();
    let mut sccs = Vec::new();
    // Line 3: while the component still has uncovered edges.
    while let Some(rmax) = lcc.max_degree_vertex() {
        // Lines 4-6: seed with the max-degree vertex; conn = its
        // neighbors, each at indegree 1.
        scc.push(rmax);
        in_scc[rmax] = true;
        for u in lcc.neighbors(rmax) {
            indegree[u] = 1;
            conn.push(u);
        }

        // Lines 7-12: grow until |scc| = k or conn empties.
        while scc.len() < k && !conn.is_empty() {
            let at = pick_vertex(lcc, &conn, &indegree, outdegree_tiebreak);
            let rnew = conn.swap_remove(at);
            indegree[rnew] = 0;
            scc.push(rnew);
            in_scc[rnew] = true;
            for u in lcc.neighbors(rnew) {
                if !in_scc[u] {
                    if indegree[u] == 0 {
                        conn.push(u);
                    }
                    indegree[u] += 1;
                }
            }
        }
        for u in conn.drain(..) {
            indegree[u] = 0;
        }

        // Lines 13-14: emit the SCC and drop its covered edges.
        scc.sort_unstable();
        let removed = lcc.remove_covered_edges(&scc);
        debug_assert!(removed > 0, "each round covers at least one seed edge");
        sccs.push(scc.iter().map(|&v| lcc.record(v)).collect());
        for v in scc.drain(..) {
            in_scc[v] = false;
        }
    }
    sccs
}

/// Line 8 of Algorithm 2: the position in `conn` of the vertex with
/// maximum indegree w.r.t. the growing component; ties by minimum
/// outdegree (or smallest id when the tie-break is disabled); remaining
/// ties by smallest id for determinism.
fn pick_vertex(
    graph: &HitGraph,
    conn: &[usize],
    indegree: &[u32],
    outdegree_tiebreak: bool,
) -> usize {
    let key = |v: usize| {
        let ind = indegree[v] as usize;
        let outdegree = if outdegree_tiebreak {
            graph.degree(v) - ind
        } else {
            0
        };
        // Smaller key wins: higher indegree, then lower outdegree, then
        // lower id.
        (std::cmp::Reverse(ind), outdegree, v)
    };
    (0..conn.len())
        .min_by_key(|&i| key(conn[i]))
        .expect("conn is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_cluster_hits;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Algorithm 2 written the plain way, over a `BTreeMap` adjacency:
    /// the reference the flat [`partition_lcc`] must match exactly.
    fn reference_partition(
        pairs: &[Pair],
        k: usize,
        outdegree_tiebreak: bool,
    ) -> Vec<Vec<RecordId>> {
        let mut adj: BTreeMap<RecordId, BTreeSet<RecordId>> = BTreeMap::new();
        for p in pairs {
            adj.entry(p.lo()).or_default().insert(p.hi());
            adj.entry(p.hi()).or_default().insert(p.lo());
        }
        let mut sccs = Vec::new();
        loop {
            // Max degree, ties to the smallest id.
            let Some((&rmax, _)) = adj
                .iter()
                .filter(|(_, n)| !n.is_empty())
                .min_by_key(|(&v, n)| (std::cmp::Reverse(n.len()), v))
            else {
                return sccs;
            };
            let mut scc: BTreeSet<RecordId> = BTreeSet::from([rmax]);
            let mut conn: BTreeMap<RecordId, usize> = adj[&rmax].iter().map(|&u| (u, 1)).collect();
            while scc.len() < k && !conn.is_empty() {
                let (&rnew, _) = conn
                    .iter()
                    .min_by_key(|(&r, &ind)| {
                        let out = if outdegree_tiebreak {
                            adj[&r].len() - ind
                        } else {
                            0
                        };
                        (std::cmp::Reverse(ind), out, r)
                    })
                    .unwrap();
                conn.remove(&rnew);
                scc.insert(rnew);
                for &u in &adj[&rnew] {
                    if !scc.contains(&u) {
                        *conn.entry(u).or_insert(0) += 1;
                    }
                }
            }
            for &v in &scc {
                let covered: Vec<RecordId> = adj[&v].intersection(&scc).copied().collect();
                for u in covered {
                    adj.get_mut(&v).unwrap().remove(&u);
                    adj.get_mut(&u).unwrap().remove(&v);
                }
            }
            sccs.push(scc.into_iter().collect());
        }
    }

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

    fn ids(v: &[u32]) -> Vec<RecordId> {
        v.iter().map(|&x| RecordId(x)).collect()
    }

    #[test]
    fn paper_example3_partitioning() {
        // §5.2 Example 3 / Figure 8: the LCC {r1..r7} with k = 4
        // partitions into exactly {r3,r4,r5,r6}, {r1,r2,r3,r7}, {r4,r7}.
        let lcc_pairs: Vec<Pair> = figure2a_pairs()
            .into_iter()
            .filter(|p| *p != Pair::of(8, 9))
            .collect();
        let mut lcc = HitGraph::from_pairs(&lcc_pairs);
        let sccs = partition_lcc(&mut lcc, 4, true);
        assert_eq!(
            sccs,
            vec![ids(&[3, 4, 5, 6]), ids(&[1, 2, 3, 7]), ids(&[4, 7])]
        );
    }

    #[test]
    fn paper_overview_three_hits() {
        // §5.1: the full Figure 5 graph at k = 4 needs only three
        // cluster-based HITs: {r3,r4,r5,r6}, {r1,r2,r3,r7} and
        // {r4,r7} ∪ {r8,r9}.
        let pairs = figure2a_pairs();
        let hits = TwoTieredGenerator::new().generate(&pairs, 4).unwrap();
        assert_eq!(hits.len(), 3);
        validate_cluster_hits(&hits, &pairs, 4).unwrap();
        // One of the HITs is the packed pair of 2-sized components.
        assert!(hits.iter().any(|h| h.records() == ids(&[4, 7, 8, 9])));
    }

    #[test]
    fn small_components_pass_through() {
        // Two disjoint edges with k = 4 pack into a single HIT.
        let pairs = vec![Pair::of(0, 1), Pair::of(2, 3)];
        let hits = TwoTieredGenerator::new().generate(&pairs, 4).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].records(), ids(&[0, 1, 2, 3]));
    }

    #[test]
    fn huge_k_packs_without_allocating_by_capacity() {
        // Packing work and memory follow the component sizes, not k.
        let pairs = [Pair::of(0, 1), Pair::of(2, 3)];
        let hits = TwoTieredGenerator::new().generate(&pairs, 1 << 40).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].records(), ids(&[0, 1, 2, 3]));
    }

    #[test]
    fn ablation_variants_still_cover() {
        let pairs = figure2a_pairs();
        for config in [
            TwoTieredConfig {
                disable_outdegree_tiebreak: true,
                ..Default::default()
            },
            TwoTieredConfig {
                packing: crowder_packing::PackingConfig { ffd_only: true },
                ..Default::default()
            },
        ] {
            let hits = TwoTieredGenerator::with_config(config)
                .generate(&pairs, 4)
                .unwrap();
            validate_cluster_hits(&hits, &pairs, 4).unwrap();
        }
    }

    #[test]
    fn rejects_k_below_two_and_handles_empty() {
        assert!(TwoTieredGenerator::new()
            .generate(&[Pair::of(0, 1)], 1)
            .is_err());
        assert!(TwoTieredGenerator::new()
            .generate(&[], 6)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn k2_degenerates_to_one_hit_per_pair() {
        let pairs = figure2a_pairs();
        let hits = TwoTieredGenerator::new().generate(&pairs, 2).unwrap();
        assert_eq!(hits.len(), pairs.len());
        validate_cluster_hits(&hits, &pairs, 2).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn two_tiered_invariants(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
            k in 2usize..=10,
        ) {
            let pairs: Vec<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let hits = TwoTieredGenerator::new().generate(&pairs, k).unwrap();
            prop_assert!(validate_cluster_hits(&hits, &pairs, k).is_ok());
        }

        #[test]
        fn never_more_hits_than_pairs(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 1..60),
            k in 2usize..=10,
        ) {
            let pairs: BTreeSet<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let pairs: Vec<Pair> = pairs.into_iter().collect();
            let hits = TwoTieredGenerator::new().generate(&pairs, k).unwrap();
            // One HIT per pair is always achievable; two-tiered must not
            // be worse.
            prop_assert!(hits.len() <= pairs.len());
        }

        /// The HITs depend only on the *set* of input pairs: shuffled
        /// input (duplicates included) gives the same HITs in the same
        /// order. The incremental resolver relies on this — it hands the
        /// generator a cluster's pairs in adjacency order.
        #[test]
        fn output_ignores_input_order(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 1..80),
            k in 2usize..=8,
            seed in 0u64..=1_000_000,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let pairs: Vec<Pair> = edges
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Pair::of(a, b))
                .collect();
            let mut shuffled = pairs.clone();
            shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let generator = TwoTieredGenerator::new();
            prop_assert_eq!(
                generator.generate(&shuffled, k).unwrap(),
                generator.generate(&pairs, k).unwrap()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The flat top tier equals the `BTreeMap` reference of
        /// Algorithm 2 in both tie-break modes, on sparse and dense
        /// graphs of up to 40 vertices (not necessarily connected).
        #[test]
        fn partition_lcc_matches_the_reference(
            n in 2u32..=40,
            density in 1usize..=100,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 0usize..100), 0..800),
            k in 2usize..=12,
            outdegree_tiebreak in proptest::bool::ANY,
        ) {
            // Keep about `density` percent of the drawn edges, so draws
            // range from a few edges to near-complete graphs.
            let pairs: Vec<Pair> = raw
                .iter()
                .filter(|&&(a, b, keep)| a % n != b % n && keep < density)
                .map(|&(a, b, _)| Pair::of(a % n, b % n))
                .collect();
            let mut graph = HitGraph::from_pairs(&pairs);
            prop_assert_eq!(
                partition_lcc(&mut graph, k, outdegree_tiebreak),
                reference_partition(&pairs, k, outdegree_tiebreak)
            );
            prop_assert!(graph.is_edgeless());
        }
    }
}
