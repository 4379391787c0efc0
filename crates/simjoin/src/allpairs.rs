//! Exhaustive parallel likelihood computation.
//!
//! Compares every candidate pair of the dataset's [`PairSpace`] and keeps
//! those with Jaccard likelihood ≥ threshold. The Product dataset's
//! 1.18M pairs × several runs motivate the fan-out: record rows are
//! strided across scoped worker threads, each thread appends into its
//! own local buffer, and the buffers are concatenated in thread order
//! after the scope joins — the hot loop takes no lock and touches no
//! shared state. Scoring merges the records' interned `u32` id lists
//! (see [`TokenTable`]), not strings.

use crate::tokens::TokenTable;
use crowder_text::jaccard_ids;
use crowder_types::{Dataset, Pair, PairSpace, RecordId, ScoredPair};

/// Compare all candidate pairs in parallel; return pairs with likelihood
/// ≥ `threshold` sorted by descending likelihood (deterministic order).
///
/// `threads = 0` selects the available parallelism.
pub fn all_pairs_scored(
    dataset: &Dataset,
    tokens: &TokenTable,
    threshold: f64,
    threads: usize,
) -> Vec<ScoredPair> {
    let threads = effective_threads(threads);
    let locals: Vec<Vec<ScoredPair>> = match dataset.pair_space {
        PairSpace::SelfJoin => {
            let n = dataset.len() as u32;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            // Strided rows balance the triangular workload.
                            let mut i = t as u32;
                            while i < n {
                                score_row_self(tokens, i, n, threshold, &mut local);
                                i += threads as u32;
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("similarity workers do not panic"))
                    .collect()
            })
        }
        PairSpace::CrossSource(sa, sb) => {
            let a_ids = dataset.source_records(sa);
            let b_ids = dataset.source_records(sb);
            std::thread::scope(|scope| {
                let (a_ids, b_ids) = (&a_ids, &b_ids);
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            let mut i = t;
                            while i < a_ids.len() {
                                // `CrossSource(a, a)` is a self-join of
                                // `a`: pair each record with later ones.
                                let partners = if sa == sb { &b_ids[i + 1..] } else { b_ids };
                                score_row_cross(tokens, a_ids[i], partners, threshold, &mut local);
                                i += threads;
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("similarity workers do not panic"))
                    .collect()
            })
        }
    };
    // Deterministic merge: buffers concatenate in thread order, then the
    // ranked sort fixes the final order independently of scheduling.
    let mut out: Vec<ScoredPair> = Vec::with_capacity(locals.iter().map(Vec::len).sum());
    for mut local in locals {
        out.append(&mut local);
    }
    crowder_types::pair::sort_ranked(&mut out);
    out
}

pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }
}

fn score_row_self(tokens: &TokenTable, i: u32, n: u32, threshold: f64, out: &mut Vec<ScoredPair>) {
    let a = tokens.ids(RecordId(i));
    for j in (i + 1)..n {
        let b = tokens.ids(RecordId(j));
        let sim = jaccard_ids(a, b);
        if sim >= threshold {
            let pair = Pair::new(RecordId(i), RecordId(j)).expect("i < j");
            out.push(ScoredPair::new(pair, sim));
        }
    }
}

fn score_row_cross(
    tokens: &TokenTable,
    a_id: RecordId,
    b_ids: &[RecordId],
    threshold: f64,
    out: &mut Vec<ScoredPair>,
) {
    let a = tokens.ids(a_id);
    for &b_id in b_ids {
        let b = tokens.ids(b_id);
        let sim = jaccard_ids(a, b);
        if sim >= threshold {
            let pair = Pair::new(a_id, b_id).expect("partners are other records");
            out.push(ScoredPair::new(pair, sim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::SourceId;

    fn table1() -> (Dataset, TokenTable) {
        let mut d = Dataset::new("table1", vec!["product_name".into()], PairSpace::SelfJoin);
        let rows = [
            "dummy r0 placeholder to align ids",
            "iPad Two 16GB WiFi White",
            "iPad 2nd generation 16GB WiFi White",
            "iPhone 4th generation White 16GB",
            "Apple iPhone 4 16GB White",
            "Apple iPhone 3rd generation Black 16GB",
            "iPhone 4 32GB White",
            "Apple iPad2 16GB WiFi White",
            "Apple iPod shuffle 2GB Blue",
            "Apple iPod shuffle USB Cable",
        ];
        for name in rows {
            d.push_record(SourceId(0), vec![name.into()]).unwrap();
        }
        let t = TokenTable::build(&d);
        (d, t)
    }

    #[test]
    fn paper_example1_ten_pairs_survive_threshold_03() {
        // Figure 2(a): at likelihood threshold 0.3 exactly ten pairs of
        // Table 1 survive (the r0 dummy shares no real tokens).
        let (d, t) = table1();
        let scored = all_pairs_scored(&d, &t, 0.3, 2);
        let pairs: std::collections::BTreeSet<Pair> = scored.iter().map(|s| s.pair).collect();
        let expected: std::collections::BTreeSet<Pair> = [
            Pair::of(1, 2),
            Pair::of(2, 3),
            Pair::of(1, 7),
            Pair::of(2, 7),
            Pair::of(3, 4),
            Pair::of(3, 5),
            Pair::of(4, 5),
            Pair::of(4, 6),
            Pair::of(4, 7),
            Pair::of(8, 9),
        ]
        .into_iter()
        .collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn zero_threshold_returns_every_overlapping_pair() {
        let (d, t) = table1();
        let scored = all_pairs_scored(&d, &t, 0.0, 3);
        // Threshold 0 keeps all candidate pairs (Jaccard ≥ 0 always).
        assert_eq!(scored.len(), d.candidate_pair_count());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (d, t) = table1();
        let one = all_pairs_scored(&d, &t, 0.2, 1);
        let four = all_pairs_scored(&d, &t, 0.2, 4);
        let zero = all_pairs_scored(&d, &t, 0.2, 0);
        let many = all_pairs_scored(&d, &t, 0.2, 16);
        assert_eq!(one, four);
        assert_eq!(one, zero);
        assert_eq!(one, many);
    }

    #[test]
    fn more_threads_than_records_is_fine() {
        let (d, t) = table1();
        let scored = all_pairs_scored(&d, &t, 0.3, 64);
        assert_eq!(scored.len(), 10);
    }

    #[test]
    fn cross_source_space_only_yields_cross_pairs() {
        let mut d = Dataset::new(
            "x",
            vec!["name".into()],
            PairSpace::CrossSource(SourceId(0), SourceId(1)),
        );
        d.push_record(SourceId(0), vec!["alpha beta".into()])
            .unwrap(); // r0
        d.push_record(SourceId(0), vec!["alpha beta".into()])
            .unwrap(); // r1
        d.push_record(SourceId(1), vec!["alpha beta".into()])
            .unwrap(); // r2
        let t = TokenTable::build(&d);
        let scored = all_pairs_scored(&d, &t, 0.5, 2);
        let pairs: Vec<Pair> = scored.iter().map(|s| s.pair).collect();
        // (r0, r1) is intra-source and must be absent.
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&Pair::of(0, 2)));
        assert!(pairs.contains(&Pair::of(1, 2)));
    }

    #[test]
    fn empty_dataset_is_fine() {
        let d = Dataset::new("e", vec!["x".into()], PairSpace::SelfJoin);
        let t = TokenTable::build(&d);
        assert!(all_pairs_scored(&d, &t, 0.1, 2).is_empty());
    }
}
