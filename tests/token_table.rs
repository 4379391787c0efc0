//! `TokenTable`'s one-pass interning against the path it replaced:
//! tokenize each record's joined text into a string set, order the
//! distinct tokens by `(document frequency, token)`, and encode every
//! set as its sorted ids. The dictionary (tokens and frequencies) and
//! every record's id list must come out identical.

use crowder_datagen::{product, restaurant, ProductConfig, RestaurantConfig};
use crowder_simjoin::TokenTable;
use crowder_text::tokenize;
use crowder_types::{Dataset, PairSpace, SourceId};
use proptest::prelude::*;
use std::collections::HashMap;

/// The dictionary's tokens in id order, their frequencies, and each
/// text's id list, computed the old way from string token sets.
fn reference(texts: &[String]) -> (Vec<String>, Vec<u32>, Vec<Vec<u32>>) {
    let sets: Vec<_> = texts.iter().map(|t| tokenize(t)).collect();
    let mut freq: HashMap<&str, u32> = HashMap::new();
    for set in &sets {
        for tok in set.tokens() {
            *freq.entry(tok.as_str()).or_insert(0) += 1;
        }
    }
    let mut tokens: Vec<&str> = freq.keys().copied().collect();
    tokens.sort_unstable_by(|a, b| freq[a].cmp(&freq[b]).then_with(|| a.cmp(b)));
    let id: HashMap<&str, u32> = tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();
    let ids = sets
        .iter()
        .map(|set| {
            let mut ids: Vec<u32> = set.tokens().iter().map(|t| id[t.as_str()]).collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    let freqs = tokens.iter().map(|t| freq[t]).collect();
    (tokens.into_iter().map(str::to_string).collect(), freqs, ids)
}

fn assert_matches_reference(table: &TokenTable, texts: &[String]) {
    let (tokens, freqs, ids) = reference(texts);
    let dict = table.dict();
    assert_eq!(dict.len(), tokens.len(), "distinct tokens");
    for (id, (tok, freq)) in tokens.iter().zip(&freqs).enumerate() {
        assert_eq!(dict.token(id as u32), tok, "token of id {id}");
        assert_eq!(dict.frequency(id as u32), *freq, "frequency of {tok:?}");
        assert_eq!(dict.id(tok), Some(id as u32), "id of {tok:?}");
    }
    assert_eq!(table.len(), texts.len());
    for (r, expect) in ids.iter().enumerate() {
        assert_eq!(
            table.ids(crowder_types::RecordId(r as u32)),
            &expect[..],
            "record {r} ({:?})",
            texts[r]
        );
    }
}

fn joined_texts(dataset: &Dataset) -> Vec<String> {
    dataset.records().iter().map(|r| r.joined_text()).collect()
}

#[test]
fn restaurant_matches_the_string_path() {
    let dataset = restaurant(&RestaurantConfig::default());
    assert_matches_reference(&TokenTable::build(&dataset), &joined_texts(&dataset));
}

#[test]
fn product_matches_the_string_path() {
    let dataset = product(&ProductConfig::default());
    assert_matches_reference(&TokenTable::build(&dataset), &joined_texts(&dataset));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Random three-field records with empty, punctuation-only and
    /// non-ASCII fields (`İ` lowercases to two chars, one of them a
    /// combining mark), through `build` and through `build_on_attrs`.
    #[test]
    fn random_records_match_the_string_path(
        rows in proptest::collection::vec(
            ("[a-cA-C0-9 .,!éÉüßİ-]{0,10}", "[.,! -]{0,3}", "[a-c日本 ]{0,6}"),
            0..20,
        ),
    ) {
        let mut dataset = Dataset::new(
            "random",
            vec!["a".into(), "b".into(), "c".into()],
            PairSpace::SelfJoin,
        );
        for (a, b, c) in &rows {
            dataset
                .push_record(SourceId(0), vec![a.clone(), b.clone(), c.clone()])
                .unwrap();
        }
        assert_matches_reference(&TokenTable::build(&dataset), &joined_texts(&dataset));
        let on_attrs: Vec<String> = rows.iter().map(|(a, _, c)| format!("{a} {c}")).collect();
        assert_matches_reference(&TokenTable::build_on_attrs(&dataset, &[0, 2]), &on_attrs);
    }
}
