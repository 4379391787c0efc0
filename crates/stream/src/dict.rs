//! A mutable token dictionary that interns unseen tokens on the fly.
//!
//! The batch [`TokenDict`](crowder_text::TokenDict) is built once over a
//! frozen corpus and assigns ids in ascending document-frequency order —
//! the global token order prefix filtering wants. A streaming corpus has
//! no "once": every arriving record may carry unseen tokens, and the
//! document frequencies drift as the corpus grows.
//!
//! [`StreamingDict`] splits the two roles the batch dictionary fuses:
//!
//! * a **stable id** (`u32`, assigned at first sight, never changed)
//!   names a token for the life of the resolver — per-record token-id
//!   lists and the postings index key on it;
//! * a **rank** gives the current global sort order used by the join.
//!   Correctness of prefix/positional/suffix filtering only needs *one
//!   consistent total order* across all records; ascending-df order is
//!   purely a selectivity optimization. Ranks are therefore allowed to
//!   go stale and are refreshed in **epochs**: [`StreamingDict::rerank`]
//!   re-sorts all tokens by `(document frequency, token)` — the batch
//!   dictionary's order — and the caller re-encodes its records against
//!   the new ranks.
//!
//! Between epochs, fresh tokens take ranks *below* every epoch-ranked
//! token, newest first, from a reserved band of [`FRESH_SPAN`] values.
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

use crowder_text::TokenSet;
use crowder_types::{Error, Result};
use std::collections::HashMap;

/// Size of the rank band reserved for tokens interned since the last
/// [`StreamingDict::rerank`]. Epoch ranks start at `FRESH_SPAN`; fresh
/// tokens count down from `FRESH_SPAN − 1`. The resolver re-ranks long
/// before the band exhausts; interning a token through
/// [`StreamingDict::encode_record`] panics if not.
pub const FRESH_SPAN: u32 = 1 << 24;

/// A growable token ↔ id interning table with epoch-based ranks.
#[derive(Debug, Clone, Default)]
pub struct StreamingDict {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
    /// Document frequency per token id (records containing the token).
    dfs: Vec<u32>,
    /// Current sort rank per token id (see the module docs).
    rank_of: Vec<u32>,
    /// Tokens interned since the last re-rank.
    fresh: u32,
    /// Completed re-rank epochs.
    epochs: u64,
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
            self.tokens.clone(),
            self.dfs.clone(),
            self.rank_of.clone(),
            self.fresh,
            self.epochs,
        )
    }

    /// Rebuild a dictionary from exported parts. Validates that the
    /// parallel arrays agree in length and that no token repeats, so a
    /// corrupted snapshot cannot silently alias two stable ids.
    pub fn from_parts(
        tokens: Vec<String>,
        dfs: Vec<u32>,
        rank_of: Vec<u32>,
        fresh: u32,
        epochs: u64,
    ) -> Result<Self> {
        if dfs.len() != tokens.len() || rank_of.len() != tokens.len() {
            return Err(Error::InvalidData(format!(
                "dictionary import: {} tokens, {} dfs, {} ranks",
                tokens.len(),
                dfs.len(),
                rank_of.len()
            )));
        }
        let mut ids = HashMap::with_capacity(tokens.len());
        for (id, token) in tokens.iter().enumerate() {
            if ids.insert(token.clone(), id as u32).is_some() {
                return Err(Error::InvalidData(format!(
                    "dictionary import: duplicate token `{token}`"
                )));
            }
        }
        Ok(StreamingDict {
            ids,
            tokens,
            dfs,
            rank_of,
            fresh,
            epochs,
        })
    }

    /// Intern one token (without touching document frequencies); returns
    /// its stable id.
    fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        assert!(
            self.fresh < FRESH_SPAN - 1,
            "re-rank overdue: fresh-token band exhausted"
        );
        let id = self.tokens.len() as u32;
        self.ids.insert(token.to_string(), id);
        self.tokens.push(token.to_string());
        self.dfs.push(0);
        // Newest fresh token sorts first: it is the rarest (df 1).
        self.fresh += 1;
        self.rank_of.push(FRESH_SPAN - self.fresh);
        id
    }

    /// Intern every token of one record's (deduplicated) token set,
    /// bumping each token's document frequency once. Returns the stable
    /// ids in ascending-id order.
    pub fn encode_record(&mut self, set: &TokenSet) -> Vec<u32> {
        let mut ids: Vec<u32> = set.tokens().iter().map(|t| self.intern(t)).collect();
        for &id in &ids {
            self.dfs[id as usize] += 1;
        }
        ids.sort_unstable();
        ids
    }

    /// Encode a token set for a **read-only query probe**: known tokens
    /// map to their current rank; unknown tokens take the *virtual*
    /// fresh ranks they would have received had the record arrived —
    /// counting down from the current fresh watermark, in token-set
    /// iteration order, exactly mirroring how
    /// [`StreamingDict::encode_record`] interns them —
    /// without interning anything or touching a document frequency.
    /// Returns the ranks sorted ascending, ready for
    /// `DeltaIndex::probe_query`.
    ///
    /// Unknown tokens can never hit a posting list (their virtual ranks
    /// are unused), but they still occupy prefix positions and lengthen
    /// the query, so the probe prunes bit-for-bit as it would for the
    /// arriving record.
    pub fn encode_query(&self, set: &TokenSet) -> Vec<u32> {
        let mut fresh = self.fresh;
        let mut ranks: Vec<u32> = set
            .tokens()
            .iter()
            .map(|t| match self.ids.get(t.as_str()) {
                Some(&id) => self.rank_of[id as usize],
                None => {
                    assert!(fresh < FRESH_SPAN - 1, "query token band exhausted");
                    fresh += 1;
                    FRESH_SPAN - fresh
                }
            })
            .collect();
        ranks.sort_unstable();
        ranks
    }

    /// Current rank of a token id — the join's sort key.
    #[inline]
    pub fn rank(&self, id: u32) -> u32 {
        self.rank_of[id as usize]
    }

    /// Document frequency of a token id.
    #[inline]
    pub fn df(&self, id: u32) -> u32 {
        self.dfs[id as usize]
    }

    /// The token string behind a stable id.
    #[inline]
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Stable id of `token`, if interned.
    #[inline]
    pub fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Number of distinct tokens interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True iff no token was interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
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

    /// Start a new epoch: re-assign every token's rank by ascending
    /// `(document frequency, token)` — the batch
    /// [`TokenDict`](crowder_text::TokenDict) order — starting at [`FRESH_SPAN`], and empty the
    /// fresh band. Every rank may change; the caller must re-encode its
    /// rank-sorted record lists and rebuild any rank-keyed index.
    pub fn rerank(&mut self) {
        let mut order: Vec<u32> = (0..self.tokens.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            self.dfs[a as usize]
                .cmp(&self.dfs[b as usize])
                .then_with(|| self.tokens[a as usize].cmp(&self.tokens[b as usize]))
        });
        for (pos, &id) in order.iter().enumerate() {
            self.rank_of[id as usize] = FRESH_SPAN + pos as u32;
        }
        self.fresh = 0;
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_text::tokenize;

    #[test]
    fn fresh_tokens_rank_below_epoch_tokens() {
        let mut d = StreamingDict::new();
        d.encode_record(&tokenize("apple ipod"));
        d.encode_record(&tokenize("apple ipad"));
        d.rerank();
        let apple_rank = d.rank(d.id("apple").unwrap());
        assert!(apple_rank >= FRESH_SPAN);
        d.encode_record(&tokenize("apple shuffle"));
        let shuffle_rank = d.rank(d.id("shuffle").unwrap());
        assert!(shuffle_rank < FRESH_SPAN, "fresh token sorts first");
        assert!(shuffle_rank < apple_rank);
        assert_eq!(d.fresh_tokens(), 1);
    }

    #[test]
    fn rerank_orders_by_df_then_token() {
        let mut d = StreamingDict::new();
        d.encode_record(&tokenize("apple ipod shuffle"));
        d.encode_record(&tokenize("apple ipod nano"));
        d.encode_record(&tokenize("apple ipad"));
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
        // tokenize dedups within a record, so df is per record.
        d.encode_record(&tokenize("a a a b"));
        d.encode_record(&tokenize("a c"));
        assert_eq!(d.df(d.id("a").unwrap()), 2);
        assert_eq!(d.df(d.id("b").unwrap()), 1);
    }

    #[test]
    fn stable_ids_survive_rerank() {
        let mut d = StreamingDict::new();
        let ids = d.encode_record(&tokenize("x y z"));
        let before: Vec<&str> = ids.iter().map(|&i| d.token(i)).collect();
        let before: Vec<String> = before.into_iter().map(String::from).collect();
        d.rerank();
        let after: Vec<&str> = ids.iter().map(|&i| d.token(i)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn export_import_round_trips() {
        let mut d = StreamingDict::new();
        d.encode_record(&tokenize("apple ipod shuffle"));
        d.encode_record(&tokenize("apple ipad"));
        d.rerank();
        d.encode_record(&tokenize("apple nano fresh"));
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
        d.encode_record(&tokenize("apple ipod shuffle"));
        d.encode_record(&tokenize("apple ipad"));
        d.rerank();
        let (len_before, fresh_before) = (d.len(), d.fresh_tokens());
        // A query mixing known and unknown tokens...
        let set = tokenize("apple nano zune");
        let qdoc = d.encode_query(&set);
        // ...must rank exactly like the same record arriving would:
        let mut probe = d.clone();
        let ids = probe.encode_record(&set);
        let mut arrival: Vec<u32> = ids.iter().map(|&id| probe.rank(id)).collect();
        arrival.sort_unstable();
        assert_eq!(qdoc, arrival);
        // ...and leave the dictionary untouched.
        assert_eq!(d.len(), len_before);
        assert_eq!(d.fresh_tokens(), fresh_before);
        assert_eq!(d.df(d.id("apple").unwrap()), 2);
    }

    #[test]
    fn empty_dict() {
        let mut d = StreamingDict::new();
        assert!(d.is_empty());
        d.rerank();
        assert_eq!(d.len(), 0);
        assert_eq!(d.encode_record(&tokenize("")), Vec::<u32>::new());
    }
}
