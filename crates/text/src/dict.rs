//! The token dictionary: the one place record fields become token ids.
//!
//! §7.1 of the paper builds one token set per record *"from all
//! attribute values"* and scores pairs by Jaccard over those sets. The
//! similarity-join hot paths compare such sets millions of times, so
//! they work on dense `u32` ids instead of `String`s, and both engines
//! get those ids from one [`TokenDict`]:
//!
//! * [`TokenDict::intern`] joins a record's fields with spaces,
//!   normalizes them into two reused buffers and looks each token
//!   occurrence up once in the string → id map. Tokens the map has not
//!   seen get the next ids **in ascending token order**, deduplicated,
//!   and every distinct token of the record gains one document
//!   frequency. `String`s are allocated only for distinct tokens.
//! * [`TokenDict::lookup`] runs the same scan without interning: the
//!   ids of the known tokens, and the distinct unseen tokens.
//! * [`TokenDict::rarest_first`] is the single `(document frequency,
//!   token)` ordering. Sorting a record's ids by it puts its rarest
//!   tokens first — exactly the global order prefix filtering wants,
//!   because a rare leading token makes the record's prefix maximally
//!   selective.
//!
//! The batch engine interns a frozen corpus and then renumbers once
//! ([`TokenDict::renumber_rarest_first`]), so id 0 is the rarest token
//! and a record's ascending id list is already rarest-first. The
//! streaming engine keeps the first-sight ids as stable names and
//! re-ranks them by [`TokenDict::rarest_first`] in epochs.

use crowder_types::{normalize_into, Error, Result};
use std::collections::HashMap;

/// A growable token ↔ id table with document frequencies.
///
/// The map uses std's hasher: corpora can come from outside the
/// program.
#[derive(Debug, Clone, Default)]
pub struct TokenDict {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
    /// Document frequency per id (records containing the token).
    freqs: Vec<u32>,
    /// The record's fields joined with spaces, reused across records.
    text: String,
    /// `text` normalized, reused across records.
    norm: String,
}

impl TokenDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a dictionary from its tokens in id order and their
    /// document frequencies. Rejects arrays of different lengths and a
    /// repeated token, so corrupted input cannot alias two ids.
    pub fn from_parts(tokens: Vec<String>, freqs: Vec<u32>) -> Result<Self> {
        if freqs.len() != tokens.len() {
            return Err(Error::InvalidData(format!(
                "dictionary import: {} tokens, {} dfs",
                tokens.len(),
                freqs.len()
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
        Ok(TokenDict {
            ids,
            tokens,
            freqs,
            ..Self::default()
        })
    }

    /// Intern one record: write its distinct token ids, ascending, into
    /// `ids`, and count the record once toward each token's document
    /// frequency. Unseen tokens take the next ids in ascending token
    /// order, so they sort after every known id.
    pub fn intern<'f>(&mut self, fields: impl IntoIterator<Item = &'f str>, ids: &mut Vec<u32>) {
        let unseen = scan(&self.ids, &mut self.text, &mut self.norm, fields, ids);
        for token in unseen {
            let id = self.tokens.len() as u32;
            self.ids.insert(token.to_owned(), id);
            self.tokens.push(token.to_owned());
            self.freqs.push(0);
            ids.push(id);
        }
        for &id in ids.iter() {
            self.freqs[id as usize] += 1;
        }
    }

    /// Take one record's distinct `ids` back out of the document
    /// frequencies — the record left the corpus or lost these tokens.
    /// A token whose frequency reaches 0 keeps its id. Saturates at 0,
    /// so dfs imported from outside cannot wrap.
    pub fn release(&mut self, ids: &[u32]) {
        for &id in ids {
            let df = &mut self.freqs[id as usize];
            *df = df.saturating_sub(1);
        }
    }

    /// Scan one record without interning: write the distinct ids of its
    /// known tokens, ascending, into `known`, and return its distinct
    /// unseen tokens, ascending. Only the reused buffers change.
    pub fn lookup<'f>(
        &mut self,
        fields: impl IntoIterator<Item = &'f str>,
        known: &mut Vec<u32>,
    ) -> Vec<&str> {
        scan(&self.ids, &mut self.text, &mut self.norm, fields, known)
    }

    /// Every id, by ascending `(document frequency, token)`: rarest
    /// first, ties broken lexicographically.
    pub fn rarest_first(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.tokens.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.freqs[a]
                .cmp(&self.freqs[b])
                .then_with(|| self.tokens[a].cmp(&self.tokens[b]))
        });
        order
    }

    /// Renumber every token to its position in
    /// [`TokenDict::rarest_first`], so id 0 is the rarest token, and
    /// re-encode `lists` (id lists interned before) to the new ids,
    /// each sorted ascending again.
    pub fn renumber_rarest_first(&mut self, lists: &mut [Vec<u32>]) {
        let order = self.rarest_first();
        let mut new_id = vec![0u32; order.len()];
        for (new, &old) in order.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        for id in self.ids.values_mut() {
            *id = new_id[*id as usize];
        }
        self.tokens = order
            .iter()
            .map(|&old| std::mem::take(&mut self.tokens[old as usize]))
            .collect();
        self.freqs = order.iter().map(|&old| self.freqs[old as usize]).collect();
        for list in lists {
            for id in list.iter_mut() {
                *id = new_id[*id as usize];
            }
            list.sort_unstable();
        }
    }

    /// Id of `token`, if interned.
    #[inline]
    pub fn id(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string behind `id`.
    #[inline]
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Document frequency of `id`.
    #[inline]
    pub fn frequency(&self, id: u32) -> u32 {
        self.freqs[id as usize]
    }

    /// Every token, in id order.
    #[inline]
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Every document frequency, in id order.
    #[inline]
    pub fn frequencies(&self) -> &[u32] {
        &self.freqs
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
}

/// The scan behind [`TokenDict::intern`] and [`TokenDict::lookup`]:
/// join `fields` into `text`, normalize into `norm`, and look each token
/// occurrence up once. Known ids land in `known`, sorted and
/// deduplicated; the unseen tokens come back sorted and deduplicated.
fn scan<'f, 'n>(
    ids: &HashMap<String, u32>,
    text: &mut String,
    norm: &'n mut String,
    fields: impl IntoIterator<Item = &'f str>,
    known: &mut Vec<u32>,
) -> Vec<&'n str> {
    text.clear();
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(field);
    }
    normalize_into(text, norm);
    known.clear();
    let mut unseen = Vec::new();
    for token in norm.split_whitespace() {
        match ids.get(token) {
            Some(&id) => known.push(id),
            None => unseen.push(token),
        }
    }
    known.sort_unstable();
    known.dedup();
    unseen.sort_unstable();
    unseen.dedup();
    unseen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    const CORPUS: [&str; 3] = ["apple ipod shuffle", "apple ipod nano", "apple ipad"];

    /// Interns `records` (one field each) and renumbers rarest-first,
    /// as the batch engine does; returns the dictionary and each
    /// record's ascending id list.
    fn build(records: &[&str]) -> (TokenDict, Vec<Vec<u32>>) {
        let mut dict = TokenDict::new();
        let mut ids = Vec::new();
        let mut docs: Vec<Vec<u32>> = records
            .iter()
            .map(|r| {
                dict.intern([*r], &mut ids);
                ids.clone()
            })
            .collect();
        dict.renumber_rarest_first(&mut docs);
        (dict, docs)
    }

    #[test]
    fn ids_are_frequency_ordered_rarest_first() {
        let (dict, _) = build(&CORPUS);
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
        let (mut dict, docs) = build(&CORPUS);
        let mut known = Vec::new();
        assert!(dict.lookup([CORPUS[0]], &mut known).is_empty());
        assert_eq!(known, docs[0]);
        assert!(known.windows(2).all(|w| w[0] < w[1]));
        let apple = dict.id("apple").unwrap();
        let unseen: Vec<String> = dict
            .lookup(["zzz-Unseen apple zzz"], &mut known)
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(known, vec![apple]);
        assert_eq!(unseen, ["unseen", "zzz"]);
        // A lookup interns nothing.
        assert_eq!(dict.len(), 5);
        assert_eq!(dict.frequency(apple), 3);
    }

    #[test]
    fn roundtrip_token_id() {
        let (dict, _) = build(&CORPUS);
        for id in 0..dict.len() as u32 {
            assert_eq!(dict.id(dict.token(id)), Some(id));
        }
        assert_eq!(dict.id("missing"), None);
    }

    #[test]
    fn builder_lists_match_encode() {
        let records = [
            "ipod Apple shuffle apple",
            "",
            "nano ipod APPLE",
            "ipad, apple",
        ];
        let (mut dict, docs) = build(&records);
        let sets: Vec<_> = records.iter().map(|r| tokenize(r)).collect();
        let mut known = Vec::new();
        for ((record, doc), set) in records.iter().zip(&docs).zip(&sets) {
            assert!(dict.lookup([*record], &mut known).is_empty());
            assert_eq!(&known, doc);
            let tokens: Vec<&str> = doc.iter().map(|&id| dict.token(id)).collect();
            let mut sorted = tokens.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, set.tokens(), "the string path's token set");
        }
        // Document frequency counts records, not occurrences.
        assert_eq!(dict.frequency(dict.id("apple").unwrap()), 3);
    }

    #[test]
    fn unseen_tokens_take_ids_in_ascending_token_order() {
        // Field order, repeats, case and punctuation do not move ids:
        // the record's distinct unseen tokens are numbered in order.
        for fields in [["B, b", "a"], ["a", "b B"], ["A...b", "  "], ["", "b;a;B"]] {
            let mut dict = TokenDict::new();
            let mut ids = Vec::new();
            dict.intern(["m"], &mut ids);
            dict.intern(fields, &mut ids);
            assert_eq!(ids, vec![1, 2], "{fields:?}");
            assert_eq!((dict.token(1), dict.token(2)), ("a", "b"), "{fields:?}");
            assert_eq!((dict.frequency(1), dict.frequency(2)), (1, 1));
        }
        // Known tokens keep their ids and sort before the new ones.
        let mut dict = TokenDict::new();
        let mut ids = Vec::new();
        dict.intern(["z y"], &mut ids);
        dict.intern(["Z, c", "b z"], &mut ids);
        assert_eq!(ids, vec![dict.id("z").unwrap(), 2, 3]);
        assert_eq!((dict.token(2), dict.token(3)), ("b", "c"));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corruption() {
        let (dict, _) = build(&CORPUS);
        let back =
            TokenDict::from_parts(dict.tokens().to_vec(), dict.frequencies().to_vec()).unwrap();
        for id in 0..dict.len() as u32 {
            assert_eq!(back.id(dict.token(id)), Some(id));
            assert_eq!(back.frequency(id), dict.frequency(id));
        }
        assert!(TokenDict::from_parts(vec!["a".into()], vec![]).is_err());
        assert!(TokenDict::from_parts(vec!["a".into(), "a".into()], vec![1, 1]).is_err());
    }

    #[test]
    fn empty_corpus() {
        let (mut dict, docs) = build(&[]);
        assert!(dict.is_empty());
        assert_eq!(dict.len(), 0);
        assert!(docs.is_empty());
        let mut known = vec![7];
        assert_eq!(dict.lookup(["a b"], &mut known), ["a", "b"]);
        assert!(known.is_empty());
    }
}
