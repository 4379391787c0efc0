//! Disjoint-set forest with union by rank and path halving.
//!
//! The structure is *growable*: [`UnionFind::make_set`] and
//! [`UnionFind::grow`] append fresh singletons, so dynamic workloads
//! (streaming record arrivals in `crowder-stream`) extend the forest in
//! place instead of rebuilding it per arrival.

/// A union-find structure over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Append one fresh singleton set; returns its element index (the
    /// previous [`UnionFind::len`]).
    pub fn make_set(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id as u32);
        self.rank.push(0);
        self.components += 1;
        id
    }

    /// Grow to at least `n` elements, appending singletons. A no-op when
    /// the structure already covers `n`.
    pub fn grow(&mut self, n: usize) {
        while self.parent.len() < n {
            self.make_set();
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grandparent = self.parent[self.parent[x] as usize];
            self.parent[x] = grandparent;
            x = grandparent as usize;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        self.union_roots(a, b).is_some()
    }

    /// Merge the sets of `a` and `b`, reporting which representative
    /// survived: `Some((winner, absorbed))` when two distinct sets
    /// merged (the combined set's representative is `winner`; `absorbed`
    /// is no longer a representative), `None` when already joined.
    ///
    /// Callers that key side tables by representative (e.g. a book of
    /// HIT ids per cluster) need the loser's identity to migrate its
    /// entry.
    pub fn union_roots(&mut self, a: usize, b: usize) -> Option<(usize, usize)> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        self.components -= 1;
        let (winner, absorbed) = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Equal => {
                self.rank[ra] += 1;
                (ra, rb)
            }
        };
        self.parent[absorbed] = winner as u32;
        Some((winner, absorbed))
    }

    /// Are `a` and `b` in the same set?
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already merged
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
    }

    #[test]
    fn make_set_appends_singletons() {
        let mut uf = UnionFind::new(2);
        assert_eq!(uf.make_set(), 2);
        assert_eq!(uf.make_set(), 3);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(1, 3));
        assert!(uf.connected(1, 3));
        assert!(!uf.connected(2, 3));
    }

    #[test]
    fn grow_is_idempotent() {
        let mut uf = UnionFind::new(0);
        uf.grow(5);
        assert_eq!(uf.len(), 5);
        assert_eq!(uf.component_count(), 5);
        uf.union(0, 4);
        uf.grow(3); // smaller than current size: no-op
        assert_eq!(uf.len(), 5);
        uf.grow(7);
        assert_eq!(uf.len(), 7);
        assert_eq!(uf.component_count(), 6); // 5 singletons − 1 merge + 2 grown
        assert!(uf.connected(0, 4));
        assert!(!uf.connected(4, 6));
    }

    #[test]
    fn union_roots_reports_winner_and_absorbed() {
        let mut uf = UnionFind::new(4);
        let (w1, a1) = uf.union_roots(0, 1).unwrap();
        assert_eq!({ w1 }, uf.find(0));
        assert_eq!(uf.find(a1), w1);
        assert!(uf.union_roots(0, 1).is_none());
        let (w2, a2) = uf.union_roots(2, 0).unwrap();
        assert_ne!(w2, a2);
        assert_eq!(uf.find(2), w2);
        assert_eq!(uf.find(0), w2);
    }

    proptest! {
        #[test]
        fn grown_forest_matches_preallocated(
            edges in proptest::collection::vec((0usize..30, 0usize..30), 0..60)
        ) {
            // Interleaving make_set with unions must behave exactly like
            // a preallocated forest over the same element range.
            let mut pre = UnionFind::new(30);
            let mut dyn_uf = UnionFind::new(0);
            for (a, b) in edges {
                dyn_uf.grow(a.max(b) + 1);
                pre.union(a, b);
                dyn_uf.union(a, b);
            }
            dyn_uf.grow(30);
            prop_assert_eq!(pre.component_count(), dyn_uf.component_count());
            for v in 0..30 {
                for w in (v + 1)..30 {
                    prop_assert_eq!(pre.connected(v, w), dyn_uf.connected(v, w));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn component_count_matches_distinct_roots(
            edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40)
        ) {
            let mut uf = UnionFind::new(20);
            for (a, b) in edges {
                uf.union(a, b);
            }
            let mut roots: Vec<usize> = (0..20).map(|i| uf.find(i)).collect();
            roots.sort_unstable();
            roots.dedup();
            prop_assert_eq!(roots.len(), uf.component_count());
        }

        #[test]
        fn union_is_transitive(
            chain in proptest::collection::vec(0usize..15, 2..15)
        ) {
            let mut uf = UnionFind::new(15);
            for w in chain.windows(2) {
                uf.union(w[0], w[1]);
            }
            let first = *chain.first().unwrap();
            for &x in &chain {
                prop_assert!(uf.connected(first, x));
            }
        }
    }
}
