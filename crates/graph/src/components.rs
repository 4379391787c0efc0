//! Connected-component extraction.
//!
//! Algorithm 1 of the paper begins by splitting the pair graph into
//! connected components and classifying them as *small* (≤ k vertices)
//! or *large* (> k). The split is computed here; classification lives
//! with the two-tiered generator.

use crate::unionfind::UnionFind;
use crowder_types::{Pair, RecordId};

/// Partition a pair list by connected component of the graph whose
/// edges are the pairs: returns, for each component, the pairs inside
/// it (which is all the pairs touching it, since pairs are edges).
///
/// Components are ordered by their smallest record, and each
/// component's pairs are sorted and deduplicated, so the output is
/// deterministic. One [`UnionFind`] pass over the pairs does the work,
/// on dense vertex indices found by binary search in the sorted
/// endpoint list.
pub fn pairs_by_component(pairs: &[Pair]) -> Vec<Vec<Pair>> {
    let mut pairs = pairs.to_vec();
    pairs.sort_unstable();
    pairs.dedup();
    let mut verts: Vec<RecordId> = pairs.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
    verts.sort_unstable();
    verts.dedup();
    let vertex = |r: RecordId| verts.binary_search(&r).expect("every endpoint is a vertex");
    let mut uf = UnionFind::new(verts.len());
    for p in &pairs {
        uf.union(vertex(p.lo()), vertex(p.hi()));
    }
    // Vertices ascend, so numbering roots in vertex order numbers the
    // components by their smallest record.
    let mut component = vec![u32::MAX; verts.len()];
    let mut count = 0;
    for v in 0..verts.len() {
        let root = uf.find(v);
        if component[root] == u32::MAX {
            component[root] = count;
            count += 1;
        }
    }
    let mut out: Vec<Vec<Pair>> = vec![Vec::new(); count as usize];
    // Pairs ascend, so every component's list comes out sorted.
    for p in pairs {
        out[component[uf.find(vertex(p.lo()))] as usize].push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Figure 5 of the paper: the graph built from the ten surviving
    /// pairs of Table 1 at likelihood threshold 0.3.
    fn figure5_pairs() -> Vec<Pair> {
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

    fn vertices(group: &[Pair]) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = group.iter().flat_map(|p| [p.lo(), p.hi()]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn figure5_has_two_components() {
        // Paper §5.1: the Figure 5 graph consists of two connected
        // components — {r1..r7} (an LCC at k=4) and {r8, r9} (an SCC).
        let split = pairs_by_component(&figure5_pairs());
        assert_eq!(split.len(), 2);
        assert_eq!(
            vertices(&split[0]),
            (1..=7).map(RecordId).collect::<Vec<_>>()
        );
        assert_eq!(vertices(&split[1]), vec![RecordId(8), RecordId(9)]);
    }

    #[test]
    fn pairs_by_component_splits_edges() {
        let split = pairs_by_component(&figure5_pairs());
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].len(), 9);
        assert_eq!(split[1], vec![Pair::of(8, 9)]);
    }

    #[test]
    fn empty_input() {
        assert!(pairs_by_component(&[]).is_empty());
    }

    #[test]
    fn singleton_edges_are_their_own_components() {
        let pairs = vec![Pair::of(4, 5), Pair::of(0, 1), Pair::of(2, 3)];
        let split = pairs_by_component(&pairs);
        assert_eq!(
            split,
            vec![
                vec![Pair::of(0, 1)],
                vec![Pair::of(2, 3)],
                vec![Pair::of(4, 5)]
            ]
        );
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let pairs = vec![Pair::of(0, 1), Pair::of(1, 0), Pair::of(0, 1)];
        assert_eq!(pairs_by_component(&pairs), vec![vec![Pair::of(0, 1)]]);
    }

    proptest! {
        /// Against a brute-force flood fill: the components hold every
        /// distinct pair exactly once, share no vertex, are internally
        /// connected, and ascend by smallest record.
        #[test]
        fn matches_flood_fill(
            raw in proptest::collection::vec((0u32..30, 0u32..30), 0..40),
        ) {
            let pairs: Vec<Pair> = raw
                .iter()
                .filter(|(a, b)| a != b)
                .map(|&(a, b)| Pair::of(a, b))
                .collect();
            let split = pairs_by_component(&pairs);
            let mut expect = pairs.clone();
            expect.sort_unstable();
            expect.dedup();
            let mut got: Vec<Pair> = split.iter().flatten().copied().collect();
            got.sort_unstable();
            prop_assert_eq!(got, expect);
            let mut seen: Vec<RecordId> = Vec::new();
            let mut last_min = None;
            for group in &split {
                prop_assert!(group.windows(2).all(|w| w[0] < w[1]));
                let verts = vertices(group);
                prop_assert!(last_min < Some(verts[0]));
                last_min = Some(verts[0]);
                // Flood fill from the smallest vertex reaches them all.
                let mut reached = vec![verts[0]];
                let mut grew = true;
                while grew {
                    grew = false;
                    for p in group {
                        let (a, b) = (reached.contains(&p.lo()), reached.contains(&p.hi()));
                        if a != b {
                            reached.push(if a { p.hi() } else { p.lo() });
                            grew = true;
                        }
                    }
                }
                prop_assert_eq!(reached.len(), verts.len());
                prop_assert!(verts.iter().all(|v| !seen.contains(v)));
                seen.extend(verts);
            }
        }
    }
}
