//! Datasets: a schema, a record collection, a candidate-pair space and a
//! gold standard, bundled.

use crate::error::{Error, Result};
use crate::gold::GoldStandard;
use crate::pair::Pair;
use crate::record::{Record, RecordId, SourceId};

/// Which record pairs are *candidates* for entity resolution.
///
/// The paper counts Restaurant pairs as a self-join
/// (`858·857/2 = 367,653`) but Product pairs as the cross product of the
/// two source tables (`1081 · 1092 = 1,180,452`); duplicate detection
/// within one product feed is out of scope there. `PairSpace` captures
/// that distinction so pair totals, recalls and likelihood sweeps agree
/// with the paper's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairSpace {
    /// All `n·(n−1)/2` unordered pairs are candidates.
    SelfJoin,
    /// Only pairs spanning the two given sources are candidates.
    CrossSource(SourceId, SourceId),
}

impl PairSpace {
    /// The join sides of `source`'s records: `(indexed, probed)`, the
    /// side they are indexed under and the side whose records they are
    /// compared against, or `None` if no candidate pair involves the
    /// source.
    ///
    /// A self-join puts every record on side 0, probing side 0. A
    /// cross-source join indexes its first source under side 0 and its
    /// second under side 1, each probing the other, so no intra-source
    /// pair is ever enumerated; `CrossSource(a, a)` is a self-join of
    /// `a` alone. Two records from sources `s` and `t` form a candidate
    /// pair iff `s` probes the side `t` is indexed under (equivalently,
    /// the reverse) — the rule [`Dataset::is_candidate`] implements.
    pub fn sides(self, source: SourceId) -> Option<(usize, usize)> {
        match self {
            PairSpace::SelfJoin => Some((0, 0)),
            PairSpace::CrossSource(a, b) if a == b => (source == a).then_some((0, 0)),
            PairSpace::CrossSource(a, _) if source == a => Some((0, 1)),
            PairSpace::CrossSource(_, b) if source == b => Some((1, 0)),
            PairSpace::CrossSource(..) => None,
        }
    }
}

/// A named table of records plus its ground truth.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name, e.g. `"Restaurant"`.
    pub name: String,
    /// Attribute names, e.g. `["name", "address", "city", "type"]`.
    pub schema: Vec<String>,
    /// The records; `records[i].id == RecordId(i)`.
    records: Vec<Record>,
    /// Candidate-pair space.
    pub pair_space: PairSpace,
    /// Ground-truth matching pairs.
    pub gold: GoldStandard,
}

impl Dataset {
    /// Create an empty dataset.
    pub fn new(name: impl Into<String>, schema: Vec<String>, pair_space: PairSpace) -> Self {
        Dataset {
            name: name.into(),
            schema,
            records: Vec::new(),
            pair_space,
            gold: GoldStandard::new(),
        }
    }

    /// Append a record; its id is assigned densely. Fails if the field
    /// count does not match the schema.
    pub fn push_record(&mut self, source: SourceId, fields: Vec<String>) -> Result<RecordId> {
        if fields.len() != self.schema.len() {
            return Err(Error::InvalidData(format!(
                "record has {} fields but schema `{}` has {} attributes",
                fields.len(),
                self.name,
                self.schema.len()
            )));
        }
        let id = RecordId(self.records.len() as u32);
        self.records.push(Record::new(id, source, fields));
        Ok(id)
    }

    /// Replace the field values of an existing record in place (an
    /// in-place correction: the id, and therefore every pair involving
    /// it, stays stable). Fails if the record does not exist or the
    /// field count does not match the schema.
    pub fn set_fields(&mut self, id: RecordId, fields: Vec<String>) -> Result<()> {
        if fields.len() != self.schema.len() {
            return Err(Error::InvalidData(format!(
                "record has {} fields but schema `{}` has {} attributes",
                fields.len(),
                self.name,
                self.schema.len()
            )));
        }
        let record = self
            .records
            .get_mut(id.index())
            .ok_or(Error::UnknownRecord(id.0))?;
        record.fields = fields;
        Ok(())
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff the dataset holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in id order.
    #[inline]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Look up one record.
    pub fn record(&self, id: RecordId) -> Result<&Record> {
        self.records
            .get(id.index())
            .ok_or(Error::UnknownRecord(id.0))
    }

    /// Is `pair` inside this dataset's candidate space?
    pub fn is_candidate(&self, pair: &Pair) -> bool {
        match self.pair_space {
            PairSpace::SelfJoin => true,
            PairSpace::CrossSource(a, b) => {
                let (lo, hi) = pair.endpoints();
                let (Ok(rl), Ok(rh)) = (self.record(lo), self.record(hi)) else {
                    return false;
                };
                (rl.source == a && rh.source == b) || (rl.source == b && rh.source == a)
            }
        }
    }

    /// Total number of candidate pairs — the denominator the paper quotes
    /// (367,653 for Restaurant; 1,180,452 for Product).
    pub fn candidate_pair_count(&self) -> usize {
        match self.pair_space {
            PairSpace::SelfJoin => {
                let n = self.records.len();
                n * n.saturating_sub(1) / 2
            }
            PairSpace::CrossSource(a, b) => {
                let na = self.records.iter().filter(|r| r.source == a).count();
                if a == b {
                    return na * na.saturating_sub(1) / 2;
                }
                let nb = self.records.iter().filter(|r| r.source == b).count();
                na * nb
            }
        }
    }

    /// Iterate over every candidate pair in deterministic (lo, hi) order.
    ///
    /// This enumerates `O(n²)` pairs — acceptable for the paper's dataset
    /// scales; blocked joins in `crowder-simjoin` avoid full enumeration
    /// for larger inputs.
    pub fn candidate_pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        let n = self.records.len() as u32;
        (0..n).flat_map(move |i| {
            ((i + 1)..n).filter_map(move |j| {
                let p = Pair::new(RecordId(i), RecordId(j)).expect("i < j");
                self.is_candidate(&p).then_some(p)
            })
        })
    }

    /// Record ids of one source table.
    pub fn source_records(&self, source: SourceId) -> Vec<RecordId> {
        self.records
            .iter()
            .filter(|r| r.source == source)
            .map(|r| r.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_source_dataset() -> Dataset {
        let mut d = Dataset::new(
            "mini-product",
            vec!["name".into()],
            PairSpace::CrossSource(SourceId(0), SourceId(1)),
        );
        d.push_record(SourceId(0), vec!["a".into()]).unwrap();
        d.push_record(SourceId(0), vec!["b".into()]).unwrap();
        d.push_record(SourceId(1), vec!["c".into()]).unwrap();
        d
    }

    #[test]
    fn self_join_pair_count_matches_formula() {
        let mut d = Dataset::new("t", vec!["x".into()], PairSpace::SelfJoin);
        for i in 0..858 {
            d.push_record(SourceId(0), vec![format!("rec {i}")])
                .unwrap();
        }
        // The paper: 858·857/2 = 367,653 pairs.
        assert_eq!(d.candidate_pair_count(), 367_653);
    }

    #[test]
    fn cross_source_counts_only_cross_pairs() {
        let d = two_source_dataset();
        assert_eq!(d.candidate_pair_count(), 2); // (0,2) and (1,2)
        let pairs: Vec<Pair> = d.candidate_pairs().collect();
        assert_eq!(pairs, vec![Pair::of(0, 2), Pair::of(1, 2)]);
        assert!(!d.is_candidate(&Pair::of(0, 1)));
        assert!(d.is_candidate(&Pair::of(1, 2)));
    }

    #[test]
    fn sides_agree_with_is_candidate() {
        let spaces = [
            PairSpace::SelfJoin,
            PairSpace::CrossSource(SourceId(0), SourceId(1)),
            PairSpace::CrossSource(SourceId(1), SourceId(0)),
            PairSpace::CrossSource(SourceId(0), SourceId(0)),
            PairSpace::CrossSource(SourceId(2), SourceId(1)),
        ];
        for space in spaces {
            // Two records from each of four sources, so intra-source
            // pairs are checked too.
            let mut d = Dataset::new("t", vec!["x".into()], space);
            for r in 0..8u8 {
                d.push_record(SourceId(r / 2), vec![format!("{r}")])
                    .unwrap();
            }
            let sides = |r: u32| space.sides(d.records()[r as usize].source);
            for i in 0..8u32 {
                for j in (i + 1)..8 {
                    let by_sides = match (sides(i), sides(j)) {
                        (Some((xi, pi)), Some((xj, pj))) => {
                            assert_eq!(pi == xj, pj == xi, "{space:?}: sides not symmetric");
                            pi == xj
                        }
                        _ => false,
                    };
                    assert_eq!(
                        by_sides,
                        d.is_candidate(&Pair::of(i, j)),
                        "{space:?}: records {i} and {j}"
                    );
                }
            }
            assert_eq!(d.candidate_pairs().count(), d.candidate_pair_count());
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut d = Dataset::new("t", vec!["a".into(), "b".into()], PairSpace::SelfJoin);
        let err = d.push_record(SourceId(0), vec!["only-one".into()]);
        assert!(matches!(err, Err(Error::InvalidData(_))));
    }

    #[test]
    fn set_fields_replaces_in_place() {
        let mut d = two_source_dataset();
        d.set_fields(RecordId(1), vec!["b-corrected".into()])
            .unwrap();
        assert_eq!(d.record(RecordId(1)).unwrap().fields[0], "b-corrected");
        assert_eq!(d.record(RecordId(1)).unwrap().id, RecordId(1));
        assert!(matches!(
            d.set_fields(RecordId(9), vec!["x".into()]),
            Err(Error::UnknownRecord(9))
        ));
        assert!(matches!(
            d.set_fields(RecordId(0), vec!["a".into(), "extra".into()]),
            Err(Error::InvalidData(_))
        ));
    }

    #[test]
    fn record_lookup() {
        let d = two_source_dataset();
        assert_eq!(d.record(RecordId(1)).unwrap().fields[0], "b");
        assert!(matches!(
            d.record(RecordId(99)),
            Err(Error::UnknownRecord(99))
        ));
    }

    #[test]
    fn empty_dataset_has_no_pairs() {
        let d = Dataset::new("e", vec![], PairSpace::SelfJoin);
        assert!(d.is_empty());
        assert_eq!(d.candidate_pair_count(), 0);
        assert_eq!(d.candidate_pairs().count(), 0);
    }

    #[test]
    fn candidate_pairs_matches_count_self_join() {
        let mut d = Dataset::new("t", vec!["x".into()], PairSpace::SelfJoin);
        for i in 0..25 {
            d.push_record(SourceId(0), vec![format!("{i}")]).unwrap();
        }
        assert_eq!(d.candidate_pairs().count(), d.candidate_pair_count());
    }
}
