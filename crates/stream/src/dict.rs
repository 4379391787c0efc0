//! Epoch ranks over the shared token dictionary.
//!
//! The batch engine interns a frozen corpus through a
//! [`TokenDict`] and renumbers it once in ascending document-frequency
//! order — the global token order prefix filtering wants. A streaming
//! corpus has no "once": every arriving record may carry unseen tokens,
//! and the document frequencies drift as the corpus grows.
//!
//! [`StreamingDict`] interns arrivals through the same [`TokenDict`]
//! (the same tokens, the same one map lookup per occurrence) and splits
//! the two roles the batch renumbering fuses:
//!
//! * a **stable id** (`u32`, the [`TokenDict`] id assigned at first
//!   sight, never changed) names a token for the life of the resolver —
//!   per-record token-id lists and the postings index key on it;
//! * a **rank** gives the current global sort order used by the join.
//!   Correctness of prefix/positional/suffix filtering only needs *one
//!   consistent total order* across all records; ascending-df order is
//!   purely a selectivity optimization. Ranks are therefore allowed to
//!   go stale and are refreshed in **epochs**: [`StreamingDict::rerank`]
//!   re-sorts all tokens by [`TokenDict::rarest_first`] — the batch
//!   engine's order — and the caller re-encodes its records against
//!   the new ranks.
//!
//! Between epochs, fresh tokens take ranks *below* every epoch-ranked
//! token, newest first, from a reserved band of [`FRESH_SPAN`] values.
//! A record's unseen tokens get their ids, and so their fresh ranks, in
//! ascending token order (see [`TokenDict::intern`]).
//! A fresh token has document frequency 1 — it is the rarest thing in
//! the corpus — so sorting it in front keeps record prefixes maximally
//! selective without disturbing any existing rank (which would force an
//! index rebuild on every arrival).
//!
//! The ascending-df rank order also feeds the `DeltaIndex` adaptive
//! prefix tier: a probe reads the live posting count under each window
//! rank as its selectivity estimate, and extends the window only while
//! the frontier rank stays cheap. Stale ranks degrade that estimate
//! (and the funnel), never correctness — exactly the contract ranks
//! already had with prefix filtering itself.

use crowder_text::TokenDict;
use crowder_types::{Error, Result};

/// Size of the rank band reserved for tokens interned since the last
/// [`StreamingDict::rerank`]. Epoch ranks start at `FRESH_SPAN`; fresh
/// tokens count down from `FRESH_SPAN − 1`. The resolver re-ranks long
/// before the band exhausts; [`StreamingDict::encode_record`] panics if
/// not.
pub const FRESH_SPAN: u32 = 1 << 24;

/// The shared token dictionary plus epoch-based ranks.
#[derive(Debug, Clone, Default)]
pub struct StreamingDict {
    /// Stable ids, token strings and document frequencies.
    dict: TokenDict,
    /// Current sort rank per token id (see the module docs).
    rank_of: Vec<u32>,
    /// Tokens interned since the last re-rank.
    fresh: u32,
    /// Completed re-rank epochs.
    epochs: u64,
    /// One record's ids, reused across records.
    scratch: Vec<u32>,
}

impl StreamingDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Export the complete dictionary state — tokens in stable-id
    /// order, their document frequencies and current ranks, the fresh
    /// count and the epoch counter — for a snapshot.
    pub fn export_parts(&self) -> (Vec<String>, Vec<u32>, Vec<u32>, u32, u64) {
        (
            self.dict.tokens().to_vec(),
            self.dict.frequencies().to_vec(),
            self.rank_of.clone(),
            self.fresh,
            self.epochs,
        )
    }

    /// Rebuild a dictionary from exported parts. Rejects parallel
    /// arrays of different lengths and a repeated token
    /// ([`TokenDict::from_parts`]), so a corrupted snapshot cannot
    /// silently alias two stable ids.
    pub fn from_parts(
        tokens: Vec<String>,
        dfs: Vec<u32>,
        rank_of: Vec<u32>,
        fresh: u32,
        epochs: u64,
    ) -> Result<Self> {
        if rank_of.len() != tokens.len() {
            return Err(Error::InvalidData(format!(
                "dictionary import: {} tokens, {} ranks",
                tokens.len(),
                rank_of.len()
            )));
        }
        Ok(StreamingDict {
            dict: TokenDict::from_parts(tokens, dfs)?,
            rank_of,
            fresh,
            epochs,
            scratch: Vec::new(),
        })
    }

    /// Intern one record's fields ([`TokenDict::intern`]): each
    /// distinct token's document frequency grows by one, and unseen
    /// tokens take fresh ranks. Returns the stable ids in ascending-id
    /// order.
    pub fn encode_record<'f>(&mut self, fields: impl IntoIterator<Item = &'f str>) -> Vec<u32> {
        self.dict.intern(fields, &mut self.scratch);
        let new = self.dict.len() - self.rank_of.len();
        assert!(
            self.fresh as usize + new < FRESH_SPAN as usize,
            "re-rank overdue: fresh-token band exhausted"
        );
        // Newest fresh token sorts first: it is the rarest (df 1).
        for _ in 0..new {
            self.fresh += 1;
            self.rank_of.push(FRESH_SPAN - self.fresh);
        }
        self.scratch.clone()
    }

    /// The stable ids, ascending, of a record whose tokens are all
    /// interned — a snapshot's records. Interns nothing; the error is
    /// the smallest token missing from the dictionary.
    pub fn known_ids<'f>(
        &mut self,
        fields: impl IntoIterator<Item = &'f str>,
    ) -> std::result::Result<Vec<u32>, String> {
        match self.dict.lookup(fields, &mut self.scratch).first() {
            Some(token) => Err(token.to_string()),
            None => Ok(self.scratch.clone()),
        }
    }

    /// Encode fields for a **read-only query probe**: known tokens map
    /// to their current rank; unknown tokens take the *virtual* fresh
    /// ranks they would have received had the record arrived — counting
    /// down from the current fresh watermark, exactly as
    /// [`StreamingDict::encode_record`] would rank them — without
    /// interning anything or touching a document frequency. Returns the
    /// ranks sorted ascending, ready for `DeltaIndex::probe_query`.
    ///
    /// Unknown tokens can never hit a posting list (their virtual ranks
    /// are unused), but they still occupy prefix positions and lengthen
    /// the query, so the probe prunes bit-for-bit as it would for the
    /// arriving record.
    pub fn encode_query<'f>(&mut self, fields: impl IntoIterator<Item = &'f str>) -> Vec<u32> {
        let unseen = self.dict.lookup(fields, &mut self.scratch).len() as u32;
        assert!(
            self.fresh as usize + (unseen as usize) < FRESH_SPAN as usize,
            "query token band exhausted"
        );
        let mut ranks = Vec::with_capacity(self.scratch.len() + unseen as usize);
        ranks.extend(self.scratch.iter().map(|&id| self.rank_of[id as usize]));
        ranks.extend((1..=unseen).map(|i| FRESH_SPAN - self.fresh - i));
        ranks.sort_unstable();
        ranks
    }

    /// The current ranks of stable `ids`, sorted ascending: a record's
    /// doc for the delta index.
    pub fn sorted_ranks(&self, ids: &[u32]) -> Vec<u32> {
        let mut doc: Vec<u32> = ids.iter().map(|&id| self.rank(id)).collect();
        doc.sort_unstable();
        doc
    }

    /// Current rank of a token id — the join's sort key.
    #[inline]
    pub fn rank(&self, id: u32) -> u32 {
        self.rank_of[id as usize]
    }

    /// Document frequency of a token id.
    #[inline]
    pub fn df(&self, id: u32) -> u32 {
        self.dict.frequency(id)
    }

    /// The token string behind a stable id.
    #[inline]
    pub fn token(&self, id: u32) -> &str {
        self.dict.token(id)
    }

    /// Stable id of `token`, if interned.
    #[inline]
    pub fn id(&self, token: &str) -> Option<u32> {
        self.dict.id(token)
    }

    /// Number of distinct tokens interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// True iff no token was interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Tokens interned since the last re-rank.
    #[inline]
    pub fn fresh_tokens(&self) -> u32 {
        self.fresh
    }

    /// Completed re-rank epochs.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Start a new epoch: re-assign every token's rank by
    /// [`TokenDict::rarest_first`], starting at [`FRESH_SPAN`], and empty
    /// the fresh band. Every rank may change; the caller must re-encode
    /// its rank-sorted record lists and rebuild any rank-keyed index.
    pub fn rerank(&mut self) {
        for (pos, id) in self.dict.rarest_first().into_iter().enumerate() {
            self.rank_of[id as usize] = FRESH_SPAN + pos as u32;
        }
        self.fresh = 0;
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_rank_below_epoch_tokens() {
        let mut d = StreamingDict::new();
        d.encode_record(["apple ipod"]);
        d.encode_record(["apple ipad"]);
        d.rerank();
        let apple_rank = d.rank(d.id("apple").unwrap());
        assert!(apple_rank >= FRESH_SPAN);
        d.encode_record(["apple shuffle"]);
        let shuffle_rank = d.rank(d.id("shuffle").unwrap());
        assert!(shuffle_rank < FRESH_SPAN, "fresh token sorts first");
        assert!(shuffle_rank < apple_rank);
        assert_eq!(d.fresh_tokens(), 1);
    }

    #[test]
    fn rerank_orders_by_df_then_token() {
        let mut d = StreamingDict::new();
        d.encode_record(["apple ipod shuffle"]);
        d.encode_record(["apple ipod nano"]);
        d.encode_record(["apple ipad"]);
        d.rerank();
        // df: apple 3, ipod 2, singles {ipad, nano, shuffle} tie by token.
        let rank = |t: &str| d.rank(d.id(t).unwrap());
        assert!(rank("ipad") < rank("nano"));
        assert!(rank("nano") < rank("shuffle"));
        assert!(rank("shuffle") < rank("ipod"));
        assert!(rank("ipod") < rank("apple"));
        assert_eq!(d.epochs(), 1);
        assert_eq!(d.fresh_tokens(), 0);
    }

    #[test]
    fn df_counts_records_not_occurrences() {
        let mut d = StreamingDict::new();
        // Repeats within a record count once, so df is per record.
        d.encode_record(["a a a b"]);
        d.encode_record(["a c"]);
        assert_eq!(d.df(d.id("a").unwrap()), 2);
        assert_eq!(d.df(d.id("b").unwrap()), 1);
    }

    #[test]
    fn stable_ids_survive_rerank() {
        let mut d = StreamingDict::new();
        let ids = d.encode_record(["x y z"]);
        let before: Vec<&str> = ids.iter().map(|&i| d.token(i)).collect();
        let before: Vec<String> = before.into_iter().map(String::from).collect();
        d.rerank();
        let after: Vec<&str> = ids.iter().map(|&i| d.token(i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn export_import_round_trips() {
        let mut d = StreamingDict::new();
        d.encode_record(["apple ipod shuffle"]);
        d.encode_record(["apple ipad"]);
        d.rerank();
        d.encode_record(["apple nano fresh"]);
        let (tokens, dfs, ranks, fresh, epochs) = d.export_parts();
        let r = StreamingDict::from_parts(tokens, dfs, ranks, fresh, epochs).unwrap();
        assert_eq!(r.len(), d.len());
        assert_eq!(r.fresh_tokens(), d.fresh_tokens());
        assert_eq!(r.epochs(), d.epochs());
        for token in ["apple", "ipod", "shuffle", "ipad", "nano", "fresh"] {
            let id = d.id(token).unwrap();
            assert_eq!(r.id(token), Some(id));
            assert_eq!(r.rank(id), d.rank(id));
            assert_eq!(r.df(id), d.df(id));
        }
        // Corrupted imports fail loudly.
        assert!(StreamingDict::from_parts(vec!["a".into()], vec![], vec![1], 0, 0).is_err());
        assert!(StreamingDict::from_parts(
            vec!["a".into(), "a".into()],
            vec![1, 1],
            vec![1, 2],
            0,
            0
        )
        .is_err());
    }

    #[test]
    fn encode_query_mirrors_arrival_encoding_without_mutation() {
        let mut d = StreamingDict::new();
        d.encode_record(["apple ipod shuffle"]);
        d.encode_record(["apple ipad"]);
        d.rerank();
        d.encode_record(["Apple mini"]);
        let (len_before, fresh_before) = (d.len(), d.fresh_tokens());
        // Queries mixing known, unseen, repeated and punctuated tokens...
        let queries: [&[&str]; 5] = [
            &["apple nano zune"],
            &["ZUNE, zune", "apple!!", "nano-zune nano"],
            &["", "--", "mini"],
            &["b, B", "a", "ipod"],
            &["", "  "],
        ];
        for fields in queries {
            let qdoc = d.encode_query(fields.iter().copied());
            // ...must rank exactly like the same record arriving would:
            let mut probe = d.clone();
            let ids = probe.encode_record(fields.iter().copied());
            assert_eq!(qdoc, probe.sorted_ranks(&ids), "{fields:?}");
            // ...and leave the dictionary untouched.
            assert_eq!(d.len(), len_before);
            assert_eq!(d.fresh_tokens(), fresh_before);
            assert_eq!(d.df(d.id("apple").unwrap()), 3);
        }
    }

    #[test]
    fn unseen_tokens_take_fresh_ranks_in_ascending_token_order() {
        for fields in [["B, b", "a"], ["a", "b B"], ["b...A", ""]] {
            let mut d = StreamingDict::new();
            d.encode_record(["m"]);
            let ids = d.encode_record(fields);
            let (a, b) = (d.id("a").unwrap(), d.id("b").unwrap());
            assert_eq!(ids, vec![a, b], "{fields:?}");
            assert!(a < b, "ids ascend with the token");
            // Fresh ranks count down in id order: `b` is newest.
            assert_eq!(d.rank(d.id("m").unwrap()), FRESH_SPAN - 1);
            assert_eq!((d.rank(a), d.rank(b)), (FRESH_SPAN - 2, FRESH_SPAN - 3));
            assert_eq!(d.fresh_tokens(), 3);
        }
    }

    #[test]
    fn known_ids_names_the_smallest_missing_token() {
        let mut d = StreamingDict::new();
        let ids = d.encode_record(["apple ipod"]);
        assert_eq!(d.known_ids(["IPOD", "apple, ipod"]), Ok(ids));
        assert_eq!(d.known_ids(["zune apple", "nano"]), Err("nano".to_string()));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_dict() {
        let mut d = StreamingDict::new();
        assert!(d.is_empty());
        d.rerank();
        assert_eq!(d.len(), 0);
        assert_eq!(d.encode_record([""]), Vec::<u32>::new());
    }
}
