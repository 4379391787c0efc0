//! Canonical record pairs and likelihood-scored pairs.

use crate::error::{Error, Result};
use crate::record::RecordId;
use std::cmp::Ordering;
use std::fmt;

/// An unordered pair of distinct records, stored in canonical order
/// (`lo < hi`) so that `(a, b)` and `(b, a)` compare and hash equal.
///
/// Pairs are the currency of the whole system: the machine pass scores
/// them, HIT generation covers them, the crowd verifies them and the gold
/// standard labels them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pair {
    lo: RecordId,
    hi: RecordId,
}

impl Pair {
    /// Build a canonical pair. Fails if `a == b`.
    pub fn new(a: RecordId, b: RecordId) -> Result<Self> {
        match a.cmp(&b) {
            Ordering::Less => Ok(Pair { lo: a, hi: b }),
            Ordering::Greater => Ok(Pair { lo: b, hi: a }),
            Ordering::Equal => Err(Error::SelfPair(a.0)),
        }
    }

    /// Build a canonical pair from raw u32 ids. Panics if `a == b`;
    /// intended for tests and fixtures where ids are statically known.
    pub fn of(a: u32, b: u32) -> Self {
        Pair::new(RecordId(a), RecordId(b)).expect("`Pair::of` called with identical ids")
    }

    /// Smaller endpoint.
    #[inline]
    pub fn lo(&self) -> RecordId {
        self.lo
    }

    /// Larger endpoint.
    #[inline]
    pub fn hi(&self) -> RecordId {
        self.hi
    }

    /// Both endpoints as a tuple `(lo, hi)`.
    #[inline]
    pub fn endpoints(&self) -> (RecordId, RecordId) {
        (self.lo, self.hi)
    }

    /// Does this pair touch record `r`?
    #[inline]
    pub fn contains(&self, r: RecordId) -> bool {
        self.lo == r || self.hi == r
    }

    /// The endpoint that is not `r`, if `r` is an endpoint.
    pub fn other(&self, r: RecordId) -> Option<RecordId> {
        if self.lo == r {
            Some(self.hi)
        } else if self.hi == r {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.lo, self.hi)
    }
}

/// A pair together with the machine-computed likelihood that both records
/// refer to the same entity (paper Figure 1, step 1).
///
/// Likelihoods live in `[0, 1]`; for the paper's `simjoin` technique the
/// likelihood *is* the Jaccard similarity of the records' token sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// The candidate pair.
    pub pair: Pair,
    /// Match likelihood in `[0, 1]`.
    pub likelihood: f64,
}

impl ScoredPair {
    /// Construct a scored pair.
    pub fn new(pair: Pair, likelihood: f64) -> Self {
        ScoredPair { pair, likelihood }
    }

    /// Total order by descending likelihood, breaking ties by pair id so
    /// that sorting is deterministic across runs.
    pub fn by_likelihood_desc(a: &ScoredPair, b: &ScoredPair) -> Ordering {
        b.likelihood
            .partial_cmp(&a.likelihood)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.pair.cmp(&b.pair))
    }
}

/// Sort scored pairs into the deterministic ranked-list order used by all
/// precision-recall evaluations (descending likelihood, then pair id).
pub fn sort_ranked(pairs: &mut [ScoredPair]) {
    pairs.sort_by(ScoredPair::by_likelihood_desc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_canonicalize_order() {
        let p1 = Pair::new(RecordId(5), RecordId(2)).unwrap();
        let p2 = Pair::new(RecordId(2), RecordId(5)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.lo(), RecordId(2));
        assert_eq!(p1.hi(), RecordId(5));
        assert_eq!(p1.endpoints(), (RecordId(2), RecordId(5)));
    }

    #[test]
    fn self_pair_is_rejected() {
        assert_eq!(Pair::new(RecordId(3), RecordId(3)), Err(Error::SelfPair(3)));
    }

    #[test]
    fn contains_and_other() {
        let p = Pair::of(1, 4);
        assert!(p.contains(RecordId(1)));
        assert!(p.contains(RecordId(4)));
        assert!(!p.contains(RecordId(2)));
        assert_eq!(p.other(RecordId(1)), Some(RecordId(4)));
        assert_eq!(p.other(RecordId(4)), Some(RecordId(1)));
        assert_eq!(p.other(RecordId(9)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pair::of(1, 2).to_string(), "(r1, r2)");
    }

    #[test]
    fn ranked_sort_is_descending_and_deterministic() {
        let mut v = vec![
            ScoredPair::new(Pair::of(0, 1), 0.3),
            ScoredPair::new(Pair::of(2, 3), 0.9),
            ScoredPair::new(Pair::of(0, 2), 0.3),
        ];
        sort_ranked(&mut v);
        assert_eq!(v[0].pair, Pair::of(2, 3));
        // Ties broken by pair order: (0,1) before (0,2).
        assert_eq!(v[1].pair, Pair::of(0, 1));
        assert_eq!(v[2].pair, Pair::of(0, 2));
    }

    #[test]
    fn nan_likelihood_does_not_panic_sort() {
        let mut v = vec![
            ScoredPair::new(Pair::of(0, 1), f64::NAN),
            ScoredPair::new(Pair::of(2, 3), 0.5),
        ];
        sort_ranked(&mut v); // must not panic
        assert_eq!(v.len(), 2);
    }
}
