//! Live HIT bookkeeping: published HITs keep their ids and content
//! until they stop being useful; a flush repairs the set instead of
//! replacing it.
//!
//! A batch deployment generates its whole HIT set per run; published
//! HITs on a real platform cannot be re-shuffled without forfeiting the
//! assignments already in flight. [`LiveHits`] keys every published HIT
//! with a monotonically increasing [`HitId`] and files ids under the
//! cluster (component label) whose records they show. A flush
//! ([`IncrementalResolver::regenerate_hits`]) looks only at the HITs
//! filed under clusters that changed since the last flush, and for each
//! one decides ([`LiveHits::repair`]):
//!
//! * **keep** — same id, same content — while its records are alive,
//!   share one cluster and include a pair still awaiting verification.
//!   A kept HIT whose records now sit in another cluster (the detached
//!   side of a split) is re-filed under that cluster;
//! * **retire** it otherwise;
//!
//! and then publishes fresh HITs only for the pairs that need them.
//! Every other cluster's HITs are untouched, which is what lets crowd
//! sessions and arrivals interleave (the Gruenheid et al. 2015 /
//! Yalavarthi et al. 2017 regime).
//!
//! Each cluster's books also hold a **baseline**: how many HITs the
//! cluster held right after its last full generation (a merge adds the
//! two sides' baselines). A repaired set drifts above what a fresh
//! generation would need; the resolver regenerates a large cluster in
//! full once its live HITs pass a fixed multiple of the baseline.
//!
//! [`IncrementalResolver::regenerate_hits`]: crate::IncrementalResolver::regenerate_hits

use crowder_hitgen::Hit;
use crowder_types::{Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Stable identity of one published HIT. Ids are never reused; fresh
/// HITs get fresh ids so platforms can tell retirement from mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HitId(pub u64);

impl fmt::Display for HitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hit#{}", self.0)
    }
}

/// One cluster's books: its HIT ids in filing order and its baseline.
#[derive(Debug, Clone, Default)]
struct Books {
    ids: Vec<HitId>,
    baseline: usize,
}

/// The per-cluster books in export form: `(cluster label, baseline,
/// ids in filing order)`.
pub type ClusterBooks = (usize, usize, Vec<HitId>);

/// The currently published HIT set, filed by cluster label.
#[derive(Debug, Clone, Default)]
pub struct LiveHits {
    hits: BTreeMap<HitId, Hit>,
    by_root: HashMap<usize, Books>,
    next: u64,
}

impl LiveHits {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export the published set in deterministic form: hits in
    /// ascending id order, per-cluster books sorted by cluster label
    /// (each id list's internal order preserved — it is filing order),
    /// and the next id to assign.
    pub fn export_parts(&self) -> (Vec<(HitId, Hit)>, Vec<ClusterBooks>, u64) {
        let hits: Vec<(HitId, Hit)> = self.hits.iter().map(|(&id, h)| (id, h.clone())).collect();
        let mut roots: Vec<ClusterBooks> = self
            .by_root
            .iter()
            .map(|(&root, books)| (root, books.baseline, books.ids.clone()))
            .collect();
        roots.sort_unstable_by_key(|(root, _, _)| *root);
        (hits, roots, self.next)
    }

    /// Rebuild from exported parts. Validates that the per-cluster id
    /// lists exactly cover the hit set and that `next` sits above every
    /// live id (ids are never reused — a bad `next` would violate
    /// that).
    pub fn from_parts(
        hits: Vec<(HitId, Hit)>,
        by_root: Vec<ClusterBooks>,
        next: u64,
    ) -> Result<Self> {
        let hits: BTreeMap<HitId, Hit> = hits.into_iter().collect();
        if hits.keys().next_back().is_some_and(|id| id.0 >= next) {
            return Err(Error::InvalidData(format!(
                "live-HIT import: next id {next} is not above every live id"
            )));
        }
        let mut covered = 0usize;
        let mut map: HashMap<usize, Books> = HashMap::with_capacity(by_root.len());
        for (root, baseline, ids) in by_root {
            for id in &ids {
                if !hits.contains_key(id) {
                    return Err(Error::InvalidData(format!(
                        "live-HIT import: {id} listed under cluster {root} but not live"
                    )));
                }
            }
            covered += ids.len();
            if map.insert(root, Books { ids, baseline }).is_some() {
                return Err(Error::InvalidData(format!(
                    "live-HIT import: duplicate cluster label {root}"
                )));
            }
        }
        if covered != hits.len() {
            return Err(Error::InvalidData(format!(
                "live-HIT import: {} ids listed but {} hits live",
                covered,
                hits.len()
            )));
        }
        Ok(LiveHits {
            hits,
            by_root: map,
            next,
        })
    }

    /// Number of live HITs.
    #[inline]
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// True iff nothing is published.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Look up one live HIT.
    #[inline]
    pub fn get(&self, id: HitId) -> Option<&Hit> {
        self.hits.get(&id)
    }

    /// All live HITs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (HitId, &Hit)> {
        self.hits.iter().map(|(&id, hit)| (id, hit))
    }

    /// The ids filed under cluster `root`, in filing order (empty if
    /// none).
    pub fn ids_of(&self, root: usize) -> &[HitId] {
        self.by_root
            .get(&root)
            .map(|books| books.ids.as_slice())
            .unwrap_or(&[])
    }

    /// The baseline of cluster `root`'s books (see the module docs), or
    /// `None` if nothing is filed under it.
    pub fn baseline(&self, root: usize) -> Option<usize> {
        self.by_root.get(&root).map(|books| books.baseline)
    }

    /// Two clusters merged: `absorbed`'s ids and baseline join
    /// `winner`'s (the next flush re-checks them — callers mark
    /// `winner` dirty).
    pub fn merge_roots(&mut self, winner: usize, absorbed: usize) {
        if let Some(mut books) = self.by_root.remove(&absorbed) {
            let into = self.by_root.entry(winner).or_default();
            into.ids.append(&mut books.ids);
            into.baseline += books.baseline;
        }
    }

    /// Repair the HITs filed under `roots`. `homes` holds one entry per
    /// id of those lists, taken root by root in the given order: the
    /// cluster the HIT is re-filed under (same id, same content), or
    /// `None` to retire it. Then every `(root, hits)` of `fresh` is
    /// published under fresh ids and filed under `root`.
    ///
    /// Baselines: a cluster in `regenerated`, and a cluster whose books
    /// this call opens, starts a new baseline at its final HIT count;
    /// every other cluster keeps its baseline. Returns the `(retired,
    /// created)` id lists.
    pub fn repair(
        &mut self,
        roots: &[usize],
        homes: &[Option<usize>],
        fresh: Vec<(usize, Vec<Hit>)>,
        regenerated: &[usize],
    ) -> (Vec<HitId>, Vec<HitId>) {
        let mut filed = Vec::with_capacity(homes.len());
        let mut baselines: HashMap<usize, usize> = HashMap::new();
        for root in roots {
            if let Some(books) = self.by_root.remove(root) {
                filed.extend(books.ids);
                baselines.insert(*root, books.baseline);
            }
        }
        assert_eq!(filed.len(), homes.len(), "one home per filed id");
        let mut opened: Vec<usize> = regenerated.to_vec();
        let mut file = |by_root: &mut HashMap<usize, Books>, root: usize, id: HitId| {
            by_root
                .entry(root)
                .or_insert_with(|| match baselines.get(&root) {
                    Some(&baseline) => Books {
                        ids: Vec::new(),
                        baseline,
                    },
                    None => {
                        opened.push(root);
                        Books::default()
                    }
                })
                .ids
                .push(id);
        };
        let mut retired = Vec::new();
        for (id, home) in filed.into_iter().zip(homes) {
            match home {
                Some(root) => file(&mut self.by_root, *root, id),
                None => {
                    self.hits.remove(&id);
                    retired.push(id);
                }
            }
        }
        let mut created = Vec::new();
        for (root, hits) in fresh {
            for hit in hits {
                let id = HitId(self.next);
                self.next += 1;
                self.hits.insert(id, hit);
                file(&mut self.by_root, root, id);
                created.push(id);
            }
        }
        for root in opened {
            if let Some(books) = self.by_root.get_mut(&root) {
                books.baseline = books.ids.len();
            }
        }
        (retired, created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::{Pair, RecordId};

    fn pair_hit(a: u32, b: u32) -> Hit {
        Hit::pairs(vec![Pair::of(a, b)])
    }

    /// Full regeneration: retire every HIT filed under `root` and
    /// publish `fresh` there.
    fn regenerate(live: &mut LiveHits, root: usize, fresh: Vec<Hit>) -> (Vec<HitId>, Vec<HitId>) {
        let homes = vec![None; live.ids_of(root).len()];
        live.repair(&[root], &homes, vec![(root, fresh)], &[root])
    }

    #[test]
    fn ids_are_stable_and_never_reused() {
        let mut live = LiveHits::new();
        let (_, c1) = regenerate(&mut live, 0, vec![pair_hit(0, 1)]);
        let (_, c2) = regenerate(&mut live, 5, vec![pair_hit(2, 3), pair_hit(2, 4)]);
        assert_eq!(c1, vec![HitId(0)]);
        assert_eq!(c2, vec![HitId(1), HitId(2)]);
        // Regenerating cluster 0 retires only its own id; cluster 5's
        // ids and hits are untouched.
        let (retired, created) = regenerate(&mut live, 0, vec![pair_hit(0, 2)]);
        assert_eq!(retired, vec![HitId(0)]);
        assert_eq!(created, vec![HitId(3)]);
        assert!(live.get(HitId(0)).is_none());
        assert!(live.get(HitId(1)).is_some());
        assert_eq!(live.len(), 3);
    }

    #[test]
    fn merge_moves_ids_to_winner() {
        let mut live = LiveHits::new();
        regenerate(&mut live, 1, vec![pair_hit(0, 1)]);
        regenerate(&mut live, 2, vec![pair_hit(2, 3)]);
        live.merge_roots(1, 2);
        assert_eq!(live.ids_of(1), &[HitId(0), HitId(1)]);
        assert_eq!(live.baseline(1), Some(2), "baselines add up");
        assert_eq!(live.baseline(2), None);
        // Regenerating the winner retires the hits of both old clusters.
        let (retired, _) = regenerate(&mut live, 1, vec![Hit::cluster((0..4).map(RecordId))]);
        assert_eq!(retired.len(), 2);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn export_import_round_trips() {
        let mut live = LiveHits::new();
        regenerate(&mut live, 1, vec![pair_hit(0, 1)]);
        regenerate(&mut live, 4, vec![pair_hit(2, 3), pair_hit(2, 4)]);
        let (hits, roots, next) = live.export_parts();
        let restored = LiveHits::from_parts(hits.clone(), roots.clone(), next).unwrap();
        assert_eq!(restored.export_parts(), live.export_parts());
        // Regeneration continues with the same fresh ids on both sides.
        let mut a = live.clone();
        let mut b = restored;
        assert_eq!(
            regenerate(&mut a, 1, vec![pair_hit(5, 6)]),
            regenerate(&mut b, 1, vec![pair_hit(5, 6)])
        );
        // Corrupted imports fail loudly.
        assert!(
            LiveHits::from_parts(hits.clone(), roots.clone(), 1).is_err(),
            "next too low"
        );
        assert!(
            LiveHits::from_parts(hits.clone(), Vec::new(), next).is_err(),
            "uncovered hits"
        );
        let mut bad = roots.clone();
        bad.push((9, 1, vec![HitId(99)]));
        assert!(
            LiveHits::from_parts(hits, bad, next).is_err(),
            "dangling id"
        );
    }

    #[test]
    fn empty_regeneration_clears_the_root() {
        let mut live = LiveHits::new();
        regenerate(&mut live, 7, vec![pair_hit(0, 1)]);
        let (retired, created) = regenerate(&mut live, 7, Vec::new());
        assert_eq!(retired.len(), 1);
        assert!(created.is_empty());
        assert!(live.is_empty());
    }

    #[test]
    fn repair_keeps_refiles_and_retires() {
        let mut live = LiveHits::new();
        regenerate(
            &mut live,
            0,
            vec![pair_hit(0, 1), pair_hit(2, 3), pair_hit(4, 5)],
        );
        regenerate(&mut live, 9, vec![pair_hit(8, 9)]);
        assert_eq!(live.baseline(0), Some(3));
        // Cluster 0 split: hit#1 moves to the detached side 2, hit#2 is
        // retired, hit#0 stays; one fresh HIT joins each side.
        let (retired, created) = live.repair(
            &[0],
            &[Some(0), Some(2), None],
            vec![(0, vec![pair_hit(0, 6)]), (2, vec![pair_hit(2, 7)])],
            &[],
        );
        assert_eq!(retired, vec![HitId(2)]);
        assert_eq!(created, vec![HitId(4), HitId(5)]);
        assert_eq!(live.ids_of(0), &[HitId(0), HitId(4)]);
        assert_eq!(live.ids_of(2), &[HitId(1), HitId(5)]);
        assert_eq!(live.get(HitId(1)), Some(&pair_hit(2, 3)), "same content");
        // The surviving side keeps its baseline, the detached side opens
        // one at its count, and the untouched cluster is left alone.
        assert_eq!(live.baseline(0), Some(3));
        assert_eq!(live.baseline(2), Some(2));
        assert_eq!(live.ids_of(9), &[HitId(3)]);
        assert_eq!(live.len(), 5);
    }
}
