//! Gold standards: the ground-truth set of matching pairs.

use crate::pair::Pair;
use crate::record::RecordId;
use std::collections::{BTreeMap, HashSet};

/// The ground truth for a dataset: which record pairs refer to the same
/// real-world entity.
///
/// The paper reports its datasets by *matching pairs* (106 for
/// Restaurant, 1097 for Product), so the gold standard is pair-oriented;
/// it can also be built from entity clusters, expanding each cluster of
/// size `s` into `s·(s−1)/2` pairs.
#[derive(Debug, Clone, Default)]
pub struct GoldStandard {
    matches: HashSet<Pair>,
}

impl GoldStandard {
    /// Empty gold standard (no matching pairs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit set of matching pairs.
    pub fn from_pairs<I: IntoIterator<Item = Pair>>(pairs: I) -> Self {
        GoldStandard {
            matches: pairs.into_iter().collect(),
        }
    }

    /// Build from entity clusters: every pair of records within one
    /// cluster is a match. Clusters of size < 2 contribute nothing.
    pub fn from_clusters<C>(clusters: C) -> Self
    where
        C: IntoIterator,
        C::Item: AsRef<[RecordId]>,
    {
        let mut matches = HashSet::new();
        for cluster in clusters {
            let ids = cluster.as_ref();
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    if let Ok(p) = Pair::new(ids[i], ids[j]) {
                        matches.insert(p);
                    }
                }
            }
        }
        GoldStandard { matches }
    }

    /// Record one matching pair.
    pub fn insert(&mut self, pair: Pair) {
        self.matches.insert(pair);
    }

    /// Is `pair` a true match?
    #[inline]
    pub fn is_match(&self, pair: &Pair) -> bool {
        self.matches.contains(pair)
    }

    /// Number of matching pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// True iff there are no matching pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Iterate over all matching pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Pair> {
        self.matches.iter()
    }

    /// Count how many of `candidates` are true matches.
    pub fn count_matches<'a, I: IntoIterator<Item = &'a Pair>>(&self, candidates: I) -> usize {
        candidates.into_iter().filter(|p| self.is_match(p)).count()
    }

    /// Recall of a candidate set: matched candidates / all true matches.
    ///
    /// Returns 1.0 for an empty gold standard (there is nothing to miss),
    /// matching the convention used for Table 2.
    pub fn recall<'a, I: IntoIterator<Item = &'a Pair>>(&self, candidates: I) -> f64 {
        if self.matches.is_empty() {
            return 1.0;
        }
        self.count_matches(candidates) as f64 / self.matches.len() as f64
    }

    /// Group the gold matches into entity clusters restricted to the given
    /// record set (connected components of the match graph). Used by the
    /// crowd simulator to answer cluster-based HITs (§6: a HIT with `m`
    /// distinct entities).
    pub fn entities_within(&self, records: &[RecordId]) -> Vec<Vec<RecordId>> {
        // Union-find over the positions of `records`.
        let index: BTreeMap<RecordId, usize> =
            records.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut parent: Vec<usize> = (0..records.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for pair in &self.matches {
            if let (Some(&i), Some(&j)) = (index.get(&pair.lo()), index.get(&pair.hi())) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<RecordId>> = BTreeMap::new();
        for (i, &r) in records.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(r);
        }
        let mut out: Vec<Vec<RecordId>> = groups.into_values().collect();
        // Deterministic order: by first member id.
        out.sort_by_key(|g| g[0]);
        out
    }
}

impl FromIterator<Pair> for GoldStandard {
    fn from_iter<I: IntoIterator<Item = Pair>>(iter: I) -> Self {
        GoldStandard::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<RecordId> {
        v.iter().map(|&x| RecordId(x)).collect()
    }

    #[test]
    fn clusters_expand_to_pairs() {
        // {0,1,2} expands to 3 pairs, {3} to none.
        let g = GoldStandard::from_clusters(vec![ids(&[0, 1, 2]), ids(&[3])]);
        assert_eq!(g.len(), 3);
        assert!(g.is_match(&Pair::of(0, 1)));
        assert!(g.is_match(&Pair::of(0, 2)));
        assert!(g.is_match(&Pair::of(1, 2)));
        assert!(!g.is_match(&Pair::of(0, 3)));
    }

    #[test]
    fn recall_counts_fraction_of_truth() {
        let g = GoldStandard::from_pairs(vec![Pair::of(0, 1), Pair::of(2, 3)]);
        let candidates = vec![Pair::of(0, 1), Pair::of(4, 5)];
        assert_eq!(g.count_matches(&candidates), 1);
        assert!((g.recall(&candidates) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_gold_has_full_recall() {
        let g = GoldStandard::new();
        assert!(g.is_empty());
        assert_eq!(g.recall(&[]), 1.0);
    }

    #[test]
    fn entities_within_groups_transitively() {
        // Matches 0-1, 1-2 => entity {0,1,2}; record 3 alone.
        let g = GoldStandard::from_pairs(vec![Pair::of(0, 1), Pair::of(1, 2)]);
        let ents = g.entities_within(&ids(&[0, 1, 2, 3]));
        assert_eq!(ents, vec![ids(&[0, 1, 2]), ids(&[3])]);
    }

    #[test]
    fn entities_within_ignores_matches_outside_the_window() {
        let g = GoldStandard::from_pairs(vec![Pair::of(0, 9)]);
        let ents = g.entities_within(&ids(&[0, 1]));
        assert_eq!(ents, vec![ids(&[0]), ids(&[1])]);
    }

    #[test]
    fn paper_example4_entities() {
        // Table 1: r1, r2, r7 are the same iPad; r3 is a different phone.
        // (We use 1-based ids matching the paper's record names.)
        let g = GoldStandard::from_clusters(vec![ids(&[1, 2, 7])]);
        let ents = g.entities_within(&ids(&[1, 2, 3, 7]));
        assert_eq!(ents, vec![ids(&[1, 2, 7]), ids(&[3])]);
    }
}
