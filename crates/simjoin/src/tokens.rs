//! Per-record token tables.
//!
//! §7.1: *"We first generated a token set for each record, which
//! consisted of the tokens from all attribute values."* The table
//! interns every record once through a corpus-wide [`TokenDict`], so
//! each record carries a sorted `Vec<u32>` id list. All join strategies
//! work on those id lists: the per-pair inner merge compares `u32`s
//! instead of `String`s, and the dictionary's rarest-first id order is
//! exactly the global token order prefix filtering needs, computed once
//! at construction instead of once per join call.
//!
//! The rarest-first order carries a second load since the adaptive
//! prefix tier: the join estimates a prefix token's selectivity from
//! its posting-list length, and extending a probe window one token at a
//! time is only worth trying because position in the id list is
//! monotone in corpus frequency — the frontier token is always the
//! most frequent (least selective) token the window has admitted, so a
//! cheap frontier means every earlier token was cheap too.
//!
//! Every constructor runs one interning pass: each record's selected
//! fields go through [`TokenDict::intern`] (the same call the streaming
//! engine makes per arrival), which costs one map lookup per token
//! occurrence and allocates a `String` only per distinct token. One
//! [`TokenDict::renumber_rarest_first`] at the end turns the
//! first-sight ids into rarest-first ids and re-sorts every list.
//!
//! Production paths hold *only* the id lists — on Product-scale corpora
//! the string [`TokenSet`]s roughly double the table's memory while no
//! hot path reads them. Tests and benchmarks that need the raw string
//! sets (string-Jaccard oracles, pre-interning baselines) must construct
//! the table with [`TokenTable::build_with_sets`].

use crowder_text::{jaccard_ids, tokenize, TokenDict, TokenSet};
use crowder_types::{Dataset, Pair, Record, RecordId};

/// Cached interned id lists (and, optionally, string token sets) for
/// every record of a dataset, indexed by [`RecordId`].
#[derive(Debug, Clone)]
pub struct TokenTable {
    dict: TokenDict,
    /// `ids[r]` is the record's token ids, sorted ascending — i.e.
    /// rarest token first, because [`TokenDict`] assigns ids by
    /// ascending corpus frequency.
    ids: Vec<Vec<u32>>,
    /// String token sets; `None` on the production constructors, kept
    /// only by [`TokenTable::build_with_sets`] for oracles/baselines.
    sets: Option<Vec<TokenSet>>,
}

impl TokenTable {
    /// Tokenize every record's concatenated attribute text. Holds only
    /// the interned id lists (see [`TokenTable::build_with_sets`]).
    pub fn build(dataset: &Dataset) -> Self {
        Self::intern(dataset, |r| r.fields.iter().map(String::as_str))
    }

    /// [`TokenTable::build`], additionally retaining the string
    /// [`TokenSet`]s so [`TokenTable::set`] works — for tests and bench
    /// baselines only; roughly doubles the table's memory. The sets are
    /// tokenized separately from the interning pass, so string oracles
    /// built on them stay independent of it.
    pub fn build_with_sets(dataset: &Dataset) -> Self {
        let sets = dataset
            .records()
            .iter()
            .map(|r| tokenize(&r.joined_text()))
            .collect();
        TokenTable {
            sets: Some(sets),
            ..Self::build(dataset)
        }
    }

    /// Tokenize only the selected attributes — the CrowdSQL-style
    /// `p.product_name ~= q.product_name` predicate of the paper's §1
    /// compares a *column*, not the whole record; Example 1's likelihoods
    /// are name-only Jaccard.
    pub fn build_on_attrs(dataset: &Dataset, attrs: &[usize]) -> Self {
        Self::intern(dataset, |r| attrs.iter().filter_map(|&a| r.field(a)))
    }

    /// The one interning pass behind every constructor: intern each
    /// record's selected `fields`, then renumber the dictionary and the
    /// id lists rarest-first.
    fn intern<'d, I>(dataset: &'d Dataset, fields: impl Fn(&'d Record) -> I) -> Self
    where
        I: Iterator<Item = &'d str>,
    {
        let mut dict = TokenDict::new();
        let mut scratch = Vec::new();
        let mut ids: Vec<Vec<u32>> = dataset
            .records()
            .iter()
            .map(|record| {
                dict.intern(fields(record), &mut scratch);
                scratch.clone()
            })
            .collect();
        dict.renumber_rarest_first(&mut ids);
        TokenTable {
            dict,
            ids,
            sets: None,
        }
    }

    /// Token set of one record.
    ///
    /// # Panics
    ///
    /// If the table was not constructed with
    /// [`TokenTable::build_with_sets`] — production constructors drop
    /// the string sets.
    #[inline]
    pub fn set(&self, id: RecordId) -> &TokenSet {
        let sets = self
            .sets
            .as_ref()
            .expect("string token sets require TokenTable::build_with_sets");
        &sets[id.index()]
    }

    /// True iff the string [`TokenSet`]s were retained (i.e. the table
    /// came from [`TokenTable::build_with_sets`]).
    #[inline]
    pub fn retains_sets(&self) -> bool {
        self.sets.is_some()
    }

    /// Interned, ascending (rarest-first) token ids of one record.
    #[inline]
    pub fn ids(&self, id: RecordId) -> &[u32] {
        &self.ids[id.index()]
    }

    /// The corpus dictionary behind the id lists.
    #[inline]
    pub fn dict(&self) -> &TokenDict {
        &self.dict
    }

    /// Number of records covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Jaccard likelihood of a pair — the paper's `simjoin` score,
    /// computed over interned id slices.
    #[inline]
    pub fn jaccard_pair(&self, pair: &Pair) -> f64 {
        jaccard_ids(self.ids(pair.lo()), self.ids(pair.hi()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::{PairSpace, SourceId};

    /// The paper's Table 1 products (record r0 is a dummy so that ids
    /// align with the paper's 1-based names r1..r9).
    pub fn table1_dataset() -> Dataset {
        let mut d = Dataset::new(
            "table1",
            vec!["product_name".into(), "price".into()],
            PairSpace::SelfJoin,
        );
        let rows: [(&str, &str); 10] = [
            ("dummy r0 placeholder to align ids", "$0"),
            ("iPad Two 16GB WiFi White", "$490"),
            ("iPad 2nd generation 16GB WiFi White", "$469"),
            ("iPhone 4th generation White 16GB", "$545"),
            ("Apple iPhone 4 16GB White", "$520"),
            ("Apple iPhone 3rd generation Black 16GB", "$375"),
            ("iPhone 4 32GB White", "$599"),
            ("Apple iPad2 16GB WiFi White", "$499"),
            ("Apple iPod shuffle 2GB Blue", "$49"),
            ("Apple iPod shuffle USB Cable", "$19"),
        ];
        for (name, price) in rows {
            d.push_record(SourceId(0), vec![name.into(), price.into()])
                .unwrap();
        }
        d
    }

    #[test]
    fn table_len_matches_dataset() {
        let d = table1_dataset();
        let t = TokenTable::build(&d);
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
    }

    #[test]
    fn production_build_drops_string_sets() {
        let d = table1_dataset();
        assert!(!TokenTable::build(&d).retains_sets());
        assert!(!TokenTable::build_on_attrs(&d, &[0]).retains_sets());
        assert!(TokenTable::build_with_sets(&d).retains_sets());
    }

    #[test]
    #[should_panic(expected = "build_with_sets")]
    fn slim_table_panics_on_set_access() {
        let d = table1_dataset();
        let t = TokenTable::build(&d);
        let _ = t.set(RecordId(1));
    }

    #[test]
    fn tokens_include_all_attributes() {
        let d = table1_dataset();
        let t = TokenTable::build_with_sets(&d);
        // Record r1 tokens include both the name tokens and the price.
        let s = t.set(RecordId(1));
        assert!(s.contains("ipad"));
        assert!(s.contains("490"));
    }

    #[test]
    fn jaccard_pair_uses_whole_record() {
        let d = table1_dataset();
        let t = TokenTable::build(&d);
        // Name-only Jaccard of (r1, r2) would be 4/7; adding the distinct
        // price tokens shifts it to 4/9.
        let j = t.jaccard_pair(&Pair::of(1, 2));
        assert!((j - 4.0 / 9.0).abs() < 1e-12, "j = {j}");
    }

    #[test]
    fn id_lists_mirror_token_sets() {
        let d = table1_dataset();
        let t = TokenTable::build_with_sets(&d);
        for r in d.records() {
            let ids = t.ids(r.id);
            let set = t.set(r.id);
            assert_eq!(ids.len(), set.len(), "no token may be dropped by interning");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            for &id in ids {
                assert!(set.contains(t.dict().token(id)));
            }
        }
    }

    #[test]
    fn id_lists_are_rarest_first() {
        let d = table1_dataset();
        let t = TokenTable::build(&d);
        let dict = t.dict();
        for r in d.records() {
            let freqs: Vec<u32> = t.ids(r.id).iter().map(|&id| dict.frequency(id)).collect();
            assert!(
                freqs.windows(2).all(|w| w[0] <= w[1]),
                "record {:?} ids must ascend in corpus frequency: {freqs:?}",
                r.id
            );
        }
    }

    #[test]
    fn id_jaccard_matches_string_jaccard() {
        let d = table1_dataset();
        let t = TokenTable::build_with_sets(&d);
        for i in 0..d.len() as u32 {
            for j in (i + 1)..d.len() as u32 {
                let pair = Pair::of(i, j);
                let by_ids = t.jaccard_pair(&pair);
                let by_strings = crowder_text::jaccard(t.set(pair.lo()), t.set(pair.hi()));
                assert!(
                    (by_ids - by_strings).abs() < 1e-15,
                    "pair {pair}: {by_ids} vs {by_strings}"
                );
            }
        }
    }
}
