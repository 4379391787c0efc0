//! Interned token dictionaries.
//!
//! The similarity-join hot path compares token sets millions of times
//! (1.18M candidate pairs on the paper's Product dataset). Comparing
//! `String`s there wastes the inner merge loop on byte-wise compares and
//! pointer chasing; a [`TokenDict`] interns every distinct corpus token
//! to a dense `u32` id once, so the per-pair work becomes integer slice
//! merging.
//!
//! Ids are assigned in **ascending corpus frequency** order (ties broken
//! lexicographically): id 0 is the rarest token. Sorting a record's id
//! list ascending therefore puts its rarest tokens first — exactly the
//! ordering prefix filtering wants, because a rare leading token makes
//! the record's prefix maximally selective (few other records share it).
//! The dictionary is built once per corpus and amortized across every
//! join call, instead of being re-derived per call.
//!
//! Every dictionary is built by one routine, [`DictBuilder`]: one map
//! lookup per token occurrence, `String`s allocated only for distinct
//! tokens, document frequencies counted on integer ids, and one sort of
//! the distinct tokens at the end.

use crate::tokenize::TokenSet;
use std::collections::HashMap;

/// A corpus-wide token ↔ id interning table, frequency-ordered.
#[derive(Debug, Clone, Default)]
pub struct TokenDict {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
    freqs: Vec<u32>,
}

impl TokenDict {
    /// Build a dictionary over the distinct tokens of `sets`, assigning
    /// ids by ascending `(corpus frequency, token)`.
    ///
    /// Frequency counts each *set* containing the token once (document
    /// frequency), matching what prefix selectivity cares about.
    pub fn build<'a, I>(sets: I) -> Self
    where
        I: IntoIterator<Item = &'a TokenSet>,
    {
        let mut builder = DictBuilder::new();
        for set in sets {
            builder.push(set.tokens().iter().map(String::as_str));
        }
        builder.finish().0
    }

    /// Id of `token`, if it occurred in the corpus.
    #[inline]
    pub fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string behind `id`.
    #[inline]
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Corpus (document) frequency of `id`.
    #[inline]
    pub fn frequency(&self, id: u32) -> u32 {
        self.freqs[id as usize]
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

    /// Encode a token set as a sorted (ascending-id, i.e. rarest-first)
    /// id list. Tokens absent from the dictionary are skipped — they
    /// cannot contribute to any within-corpus overlap.
    pub fn encode(&self, set: &TokenSet) -> Vec<u32> {
        let mut ids: Vec<u32> = set.tokens().iter().filter_map(|t| self.id(t)).collect();
        ids.sort_unstable();
        ids
    }
}

/// One-pass interning of a document collection into a [`TokenDict`]
/// and per-document id lists.
///
/// [`DictBuilder::push`] looks each token occurrence up once in a
/// `HashMap` keyed by the token string (std's hasher: corpora can come
/// from outside the program), allocating a `String` only for a token
/// not seen before, and keeps the document as provisional
/// first-appearance ids, deduplicated and counted toward document
/// frequency on integers. [`DictBuilder::finish`] sorts the distinct
/// tokens once by `(document frequency, token)` and remaps every
/// document to the final rarest-first ids.
#[derive(Debug, Clone, Default)]
pub struct DictBuilder {
    ids: HashMap<String, u32>,
    freqs: Vec<u32>,
    docs: Vec<Vec<u32>>,
    /// The document being pushed, reused so each stored list is
    /// allocated once at its deduplicated length.
    scratch: Vec<u32>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one document: its tokens in any order, repeats allowed.
    pub fn push<'t>(&mut self, tokens: impl IntoIterator<Item = &'t str>) {
        let doc = &mut self.scratch;
        doc.clear();
        for tok in tokens {
            doc.push(match self.ids.get(tok) {
                Some(&id) => id,
                None => {
                    let id = self.freqs.len() as u32;
                    self.ids.insert(tok.to_owned(), id);
                    self.freqs.push(0);
                    id
                }
            });
        }
        doc.sort_unstable();
        doc.dedup();
        for &id in doc.iter() {
            self.freqs[id as usize] += 1;
        }
        self.docs.push(doc.clone());
    }

    /// The dictionary, with ids by ascending `(document frequency,
    /// token)`, and every pushed document's ascending (rarest-first) id
    /// list, in push order.
    pub fn finish(self) -> (TokenDict, Vec<Vec<u32>>) {
        let DictBuilder {
            mut ids,
            freqs,
            mut docs,
            ..
        } = self;
        let mut tokens = vec![String::new(); freqs.len()];
        for (tok, &id) in &ids {
            tokens[id as usize] = tok.clone();
        }
        let mut order: Vec<u32> = (0..freqs.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            freqs[a]
                .cmp(&freqs[b])
                .then_with(|| tokens[a].cmp(&tokens[b]))
        });
        let mut rank = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        for id in ids.values_mut() {
            *id = rank[*id as usize];
        }
        for doc in &mut docs {
            for id in doc.iter_mut() {
                *id = rank[*id as usize];
            }
            doc.sort_unstable();
        }
        let dict = TokenDict {
            ids,
            tokens: order
                .iter()
                .map(|&old| std::mem::take(&mut tokens[old as usize]))
                .collect(),
            freqs: order.iter().map(|&old| freqs[old as usize]).collect(),
        };
        (dict, docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn corpus() -> Vec<TokenSet> {
        vec![
            tokenize("apple ipod shuffle"),
            tokenize("apple ipod nano"),
            tokenize("apple ipad"),
        ]
    }

    #[test]
    fn ids_are_frequency_ordered_rarest_first() {
        let sets = corpus();
        let dict = TokenDict::build(&sets);
        assert_eq!(dict.len(), 5);
        // apple: 3, ipod: 2, rest: 1 each (lexicographic among ties).
        assert_eq!(dict.token(dict.len() as u32 - 1), "apple");
        assert_eq!(dict.frequency(dict.id("apple").unwrap()), 3);
        assert_eq!(dict.frequency(dict.id("ipod").unwrap()), 2);
        let rare: Vec<&str> = (0..3).map(|i| dict.token(i)).collect();
        assert_eq!(rare, ["ipad", "nano", "shuffle"]);
        for w in [0u32, 1, 2] {
            assert!(
                dict.frequency(w) <= dict.frequency(w + 1),
                "ascending by frequency"
            );
        }
    }

    #[test]
    fn encode_is_sorted_and_skips_unknown() {
        let sets = corpus();
        let dict = TokenDict::build(&sets);
        let ids = dict.encode(&sets[0]);
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let foreign = tokenize("apple zzz-unseen");
        assert_eq!(dict.encode(&foreign), vec![dict.id("apple").unwrap()]);
    }

    #[test]
    fn roundtrip_token_id() {
        let sets = corpus();
        let dict = TokenDict::build(&sets);
        for id in 0..dict.len() as u32 {
            assert_eq!(dict.id(dict.token(id)), Some(id));
        }
        assert_eq!(dict.id("missing"), None);
    }

    #[test]
    fn builder_lists_match_encode() {
        let mut builder = DictBuilder::new();
        builder.push(["ipod", "apple", "shuffle", "apple"]);
        builder.push([]);
        builder.push(["nano", "ipod", "apple"]);
        builder.push(["ipad", "apple"]);
        let (dict, docs) = builder.finish();
        let sets = [
            tokenize("apple ipod shuffle"),
            tokenize(""),
            tokenize("apple ipod nano"),
            tokenize("apple ipad"),
        ];
        let reference = TokenDict::build(&sets);
        assert_eq!(dict.tokens, reference.tokens);
        assert_eq!(dict.freqs, reference.freqs);
        for (doc, set) in docs.iter().zip(&sets) {
            assert_eq!(doc, &dict.encode(set));
        }
    }

    #[test]
    fn empty_corpus() {
        let dict = TokenDict::build(std::iter::empty());
        assert!(dict.is_empty());
        assert_eq!(dict.len(), 0);
        assert_eq!(dict.encode(&tokenize("a b")), Vec::<u32>::new());
    }
}
