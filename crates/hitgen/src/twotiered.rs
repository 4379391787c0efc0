//! The two-tiered cluster-HIT generator — the paper's contribution (§5).
//!
//! * **Top tier** ([`partition_lcc`], Algorithm 2): partition every large
//!   connected component (> k vertices) into highly-connected small
//!   components by greedily growing from the max-degree vertex, picking
//!   at each step the neighbor with maximum *indegree* into the growing
//!   component (ties: minimum *outdegree* to the rest of the graph), and
//!   removing covered edges between rounds.
//! * **Bottom tier** (`crowder-packing`): pack the resulting small
//!   components into ≤ k-sized HITs (§5.3's cutting-stock program) with
//!   first-fit-decreasing, checked against the Martello–Toth L2 bound
//!   and improved by a bin-completion search when FFD exceeds it.

use crate::hit::{ClusterGenerator, Hit};
use crate::validate::check_k;
use crowder_graph::MutGraph;
use crowder_packing::{pack_items, PackingConfig};
use crowder_types::{Pair, RecordId, Result};
use std::collections::BTreeSet;

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
        // component's edges grouped in one pass over the pair list.
        let component_pairs = crowder_graph::components::pairs_by_component(pairs);

        // Lines 3-5: SCCs pass through; LCCs are partitioned.
        let mut sccs: Vec<Vec<RecordId>> = Vec::new();
        for group in component_pairs {
            let vertices: BTreeSet<RecordId> =
                group.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
            if vertices.len() <= k {
                sccs.push(vertices.into_iter().collect());
            } else {
                let mut lcc = MutGraph::from_pairs(&group);
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
/// small connected components whose union covers all its edges.
///
/// `lcc` is consumed (edges are removed as they are covered).
/// `outdegree_tiebreak` enables the paper's min-outdegree rule for
/// indegree ties; when disabled, ties fall to the smallest record id.
pub fn partition_lcc(lcc: &mut MutGraph, k: usize, outdegree_tiebreak: bool) -> Vec<Vec<RecordId>> {
    let mut sccs = Vec::new();
    // Line 3: while the component still has uncovered edges.
    while !lcc.is_edgeless() {
        // Lines 4-5: seed with the max-degree vertex.
        let rmax = lcc.max_degree_vertex().expect("graph has edges");
        let mut scc: BTreeSet<RecordId> = BTreeSet::new();
        scc.insert(rmax);
        // Line 6: conn = neighbors of the seed, with their indegree
        // w.r.t. scc cached (invariant: conn holds exactly the non-scc
        // vertices adjacent to scc, so a newly discovered vertex starts
        // at indegree 1 and known vertices increment as scc grows).
        let mut conn: std::collections::BTreeMap<RecordId, usize> =
            lcc.neighbors(rmax).map(|u| (u, 1usize)).collect();

        // Lines 7-12: grow until |scc| = k or conn empties.
        while scc.len() < k && !conn.is_empty() {
            let rnew = pick_vertex(lcc, &conn, outdegree_tiebreak);
            conn.remove(&rnew);
            scc.insert(rnew);
            for u in lcc.neighbors(rnew) {
                if !scc.contains(&u) {
                    *conn.entry(u).or_insert(0) += 1;
                }
            }
        }

        // Lines 13-14: emit the SCC and drop its covered edges.
        let members: Vec<RecordId> = scc.into_iter().collect();
        let removed = lcc.remove_covered_edges(&members);
        debug_assert!(removed > 0, "each round covers at least one seed edge");
        sccs.push(members);
    }
    sccs
}

/// Line 8 of Algorithm 2: the conn vertex with maximum indegree w.r.t.
/// `scc`; ties by minimum outdegree (or smallest id when the tie-break is
/// disabled); remaining ties by smallest id for determinism.
fn pick_vertex(
    graph: &MutGraph,
    conn: &std::collections::BTreeMap<RecordId, usize>,
    outdegree_tiebreak: bool,
) -> RecordId {
    let mut best: Option<(usize, usize, RecordId)> = None;
    for (&r, &indegree) in conn {
        let outdegree = graph.degree(r) - indegree;
        let key = (indegree, if outdegree_tiebreak { outdegree } else { 0 }, r);
        best = Some(match best {
            None => key,
            Some(cur) => {
                // Higher indegree wins; then lower outdegree; then lower id.
                if key.0 > cur.0
                    || (key.0 == cur.0 && key.1 < cur.1)
                    || (key.0 == cur.0 && key.1 == cur.1 && key.2 < cur.2)
                {
                    key
                } else {
                    cur
                }
            }
        });
    }
    best.expect("conn is non-empty").2
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
        let mut lcc = MutGraph::from_pairs(&lcc_pairs);
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
    }
}
