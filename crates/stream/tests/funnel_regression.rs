//! Funnel regression for both join engines' probe pipeline.
//!
//! PR 7 replaced the per-candidate length comparison with the binary-
//! searched skip over length-bucketed posting lists (out-of-window
//! records never reach the candidate stage). The adaptive-prefix tier
//! goes further: a per-probe count-filter level picked from live
//! posting mass, last-token truncation (candidates that cannot survive
//! the positional filter are never surfaced), and a 256-bit band-
//! signature reject between the positional and suffix filters.
//!
//! The pins below are measured on the deterministic Restaurant and
//! Product corpora, for the streaming `IncrementalResolver` and for the
//! batch `prefix_join_with_stats`. History of the stream's candidate
//! stage on Product at t = 0.3:
//!
//! * pre-PR-7 per-candidate length check: 411,175 candidates counted
//!   (out-of-window enumerations included);
//! * PR 7 length-bucketed skip: 411,175 still — the t = 0.3 window is
//!   too wide to bite on this corpus;
//! * adaptive tier: 16,037 — the count filter and truncation kill ~25x
//!   of the old candidate stage before any per-pair work, with the
//!   result set bit-identical (1,425 pairs);
//! * side-split delta index: **9,310** — the 8,148 intra-source
//!   candidates are never enumerated (see below).
//!
//! The batch join's index is split by join side (each record probes
//! only the partner source's postings), so its Product rows count no
//! intra-source candidate and `space_pruned` reads 0. The adaptive
//! level now weighs only the partner side's posting mass, which moves
//! the other buckets too; results are unchanged. Before → after, as
//! `[candidates, positional, space, signature, suffix, verified,
//! results]`:
//!
//! * t = 0.3: `[6513, 199, 3332, 1452, 99, 1431, 1425]` →
//!   `[3271, 89, 0, 1652, 99, 1431, 1425]`;
//! * t = 0.5: `[2292, 265, 1078, 634, 6, 309, 302]` →
//!   `[1503, 157, 0, 1031, 6, 309, 302]`;
//! * t = 0.7: `[768, 187, 198, 376, 1, 6, 5]` →
//!   `[768, 219, 0, 541, 1, 7, 5]` (one more candidate, killed before
//!   by the count filter at a higher level, now reaches verification).
//!
//! The Restaurant rows are a self-join (one side) and did not move.
//!
//! The stream's delta index is split by join side the same way, and the
//! space stage is gone from both funnels (no engine can enumerate a
//! pair outside the pair space any more), so the pins lost their space
//! column. On Product the stream counts no intra-source candidate, and
//! the adaptive level weighs only the partner side's smaller posting
//! mass, so it picks lower count-filter levels: more pairs survive the
//! count filter and die at the cheap signature check instead. Before →
//! after, as `[candidates, positional, space, signature, suffix,
//! verified, results]`:
//!
//! * t = 0.3: `[16037, 2010, 8148, 4314, 129, 1436, 1425]` →
//!   `[9310, 1684, —, 6059, 131, 1436, 1425]`;
//! * t = 0.6: `[3725, —, —, 961, —, 94, 88]` (the buckets pinned) →
//!   `[4474, 2606, —, 1769, 5, 94, 88]`.

use crowder_datagen::{product, restaurant, ProductConfig, RestaurantConfig};
use crowder_simjoin::{
    all_pairs_scored, prefix_join, prefix_join_with_stats, JoinStats, TokenTable,
};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, Pair, PairSpace, ScoredPair, SourceId};

/// The adaptive tier must keep the Product t = 0.3 candidate stage at
/// least ~3x below the ~200k (batch) / 411k (stream) the plain prefix
/// filter admitted. A hard ceiling rather than an exact pin so
/// estimator retuning has headroom without losing the gate.
const PRODUCT_T03_CANDIDATE_CEILING: u64 = 65_000;

/// Every candidate lands in exactly one downstream bucket.
fn assert_leak_free(stats: &JoinStats, what: &str) {
    assert_eq!(
        stats.candidates,
        stats.positional_pruned + stats.signature_rejected + stats.suffix_pruned + stats.verified,
        "{what}: funnel leaks"
    );
}

/// Stream the full Product corpus at `threshold`, returning the
/// cumulative probe funnel and the final pair count.
fn stream_product(threshold: f64) -> (JoinStats, usize) {
    let dataset = product(&ProductConfig::default());
    let mut resolver = IncrementalResolver::like(
        &dataset,
        StreamConfig {
            threshold,
            ..StreamConfig::default()
        },
    );
    let mut stats = JoinStats::default();
    for record in dataset.records() {
        let report = resolver
            .insert(record.source, record.fields.clone())
            .expect("schema matches");
        stats.absorb(&report.stats);
    }
    let pairs = resolver.ranked_pairs().len();
    (stats, pairs)
}

/// t = 0.3 — the streaming gate configuration, pinned exactly:
/// every funnel bucket is deterministic on the generated corpus, so any
/// drift in the adaptive level choice, the truncation cutoffs, or the
/// signature check shows up here before it shows up as a perf
/// surprise. The result set must stay bit-identical to the pre-tier
/// engine (1,425 pairs).
#[test]
fn product_funnel_is_pinned_at_the_bench_threshold() {
    let (stats, pairs) = stream_product(0.3);
    assert_eq!(stats.candidates, 9_310, "candidate stage diverged");
    assert_eq!(stats.positional_pruned, 1_684, "positional stage diverged");
    assert_eq!(stats.signature_rejected, 6_059, "signature stage diverged");
    assert_eq!(stats.suffix_pruned, 131, "suffix stage diverged");
    assert_eq!(stats.verified, 1_436, "verify stage diverged");
    assert_leak_free(&stats, "stream product t=0.3");
    assert_eq!(pairs, 1_425, "result set diverged");
}

/// The stream side of the [`PRODUCT_T03_CANDIDATE_CEILING`] gate.
#[test]
fn product_candidates_stay_under_the_enforced_ceiling() {
    let (stats, pairs) = stream_product(0.3);
    assert!(
        stats.candidates <= PRODUCT_T03_CANDIDATE_CEILING,
        "adaptive tier regressed: {} candidates > {PRODUCT_T03_CANDIDATE_CEILING} ceiling",
        stats.candidates
    );
    assert_eq!(pairs, 1_425, "result set diverged");
}

/// t = 0.6 — the length window and truncation both bite. The pre-tier
/// length-bucketed walk surfaced 68,383 candidates; the adaptive tier
/// cut that to 3,725, and the side split (lower levels on the smaller
/// partner side) reads 4,474, with identical results.
#[test]
fn tight_threshold_funnel_is_pinned() {
    const PRE_TIER_CANDIDATES: u64 = 68_383;
    let (stats, pairs) = stream_product(0.6);
    assert!(
        stats.candidates < PRE_TIER_CANDIDATES,
        "adaptive tier regressed: {} candidates, expected strictly fewer than {}",
        stats.candidates,
        PRE_TIER_CANDIDATES
    );
    assert_eq!(stats.candidates, 4_474, "candidate stage diverged");
    assert_eq!(stats.signature_rejected, 1_769, "signature stage diverged");
    assert_eq!(stats.verified, 94, "verify stage diverged");
    assert_leak_free(&stats, "stream product t=0.6");
    assert_eq!(pairs, 88, "result set diverged");
}

fn batch_funnel(dataset: &Dataset, threshold: f64) -> JoinStats {
    let tokens = TokenTable::build(dataset);
    prefix_join_with_stats(dataset, &tokens, threshold, 0).1
}

/// The batch `prefix_join_with_stats` funnel on both corpora at the
/// three gated thresholds, pinned exactly: candidates, then the
/// positional, signature and suffix rejects, then verified and
/// results. Restaurant t = 0.7 admits more candidates than t = 0.5 —
/// the adaptive level stays low at high thresholds and the signature
/// stage rejects nearly all of them.
#[test]
fn batch_funnels_are_pinned() {
    const PINS: [(&str, f64, [u64; 6]); 6] = [
        ("restaurant", 0.3, [4_131, 415, 2_694, 172, 850, 850]),
        ("restaurant", 0.5, [435, 52, 290, 0, 93, 93]),
        ("restaurant", 0.7, [2_696, 165, 2_473, 0, 58, 58]),
        ("product", 0.3, [3_271, 89, 1_652, 99, 1_431, 1_425]),
        ("product", 0.5, [1_503, 157, 1_031, 6, 309, 302]),
        ("product", 0.7, [768, 219, 541, 1, 7, 5]),
    ];
    let restaurant = restaurant(&RestaurantConfig::default());
    let product = product(&ProductConfig::default());
    for (corpus, threshold, pin) in PINS {
        let dataset = if corpus == "product" {
            &product
        } else {
            &restaurant
        };
        let s = batch_funnel(dataset, threshold);
        let what = format!("batch {corpus} t={threshold}");
        assert_leak_free(&s, &what);
        let got = [
            s.candidates,
            s.positional_pruned,
            s.signature_rejected,
            s.suffix_pruned,
            s.verified,
            s.results,
        ];
        assert_eq!(got, pin, "{what}: funnel diverged");
    }
}

/// The batch side of the [`PRODUCT_T03_CANDIDATE_CEILING`] gate.
#[test]
fn batch_product_candidates_stay_under_the_enforced_ceiling() {
    let stats = batch_funnel(&product(&ProductConfig::default()), 0.3);
    assert!(
        stats.candidates <= PRODUCT_T03_CANDIDATE_CEILING,
        "adaptive tier regressed: {} candidates > {PRODUCT_T03_CANDIDATE_CEILING} ceiling",
        stats.candidates
    );
}

/// Every batch machine pass returns the same pairs on Restaurant:
/// `prefix_join` single-threaded and at the available parallelism,
/// and the exhaustive `all_pairs_scored` both ways.
#[test]
fn batch_join_paths_agree() {
    let dataset = restaurant(&RestaurantConfig::default());
    let tokens = TokenTable::build(&dataset);
    let pairs = |v: Vec<ScoredPair>| v.into_iter().map(|sp| sp.pair).collect::<Vec<Pair>>();
    for threshold in [0.3, 0.5, 0.7] {
        let reference = pairs(prefix_join(&dataset, &tokens, threshold, 1));
        assert!(!reference.is_empty(), "t={threshold}: nothing joined");
        let others = [
            (
                "prefix_join threads=0",
                prefix_join(&dataset, &tokens, threshold, 0),
            ),
            (
                "all_pairs threads=1",
                all_pairs_scored(&dataset, &tokens, threshold, 1),
            ),
            (
                "all_pairs threads=0",
                all_pairs_scored(&dataset, &tokens, threshold, 0),
            ),
        ];
        for (what, got) in others {
            assert_eq!(pairs(got), reference, "t={threshold}: {what} disagrees");
        }
    }
}

/// Degenerate thresholds through the adaptive paths: t > 1 joins
/// nothing and counts nothing; t ≤ 0 degrades to the exhaustive scorer
/// (every live pair verified, no filter buckets); t = 1.0 keeps only
/// exact-duplicate token sets. One-token and empty records ride along —
/// their extended windows clamp to the record length, and the
/// count-filter cap ⌈t·lx⌉ pins them to level 1.
#[test]
fn degenerate_thresholds_and_tiny_records_survive() {
    let names = ["a", "", "a", "a b c d", "a b c d", "b", "---", "a b c e"];
    let run = |threshold: f64| -> (JoinStats, usize) {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold,
                ..StreamConfig::default()
            },
        );
        let mut stats = JoinStats::default();
        for name in names {
            let report = resolver
                .insert(SourceId(0), vec![name.to_string()])
                .expect("schema matches");
            stats.absorb(&report.stats);
        }
        (stats, resolver.ranked_pairs().len())
    };
    let (stats, pairs) = run(1.5);
    assert_eq!(pairs, 0, "t > 1 must join nothing");
    assert_eq!(stats, JoinStats::default());
    let (stats, pairs) = run(1.0);
    // Exactly the duplicate pairs: (0,2) "a" and (3,4) "a b c d".
    assert_eq!(pairs, 2, "t = 1.0 keeps exact duplicates");
    assert_eq!(stats.results, 2);
    let (stats, pairs) = run(0.0);
    // Exhaustive: every unordered live pair scored and verified.
    let n = names.len() as u64;
    assert_eq!(stats.verified, n * (n - 1) / 2);
    assert_eq!(pairs as u64, n * (n - 1) / 2);
    let (stats, pairs) = run(-0.5);
    assert_eq!(stats.verified, n * (n - 1) / 2);
    assert_eq!(pairs as u64, n * (n - 1) / 2);
    let (stats, pairs) = run(0.5);
    // The filtered path with 1-token and empty records in the mix:
    // "a"≡"a", "a b c d"≡"a b c d", "a b c d"~"a b c e" (x2).
    assert_eq!(pairs, 4, "filtered path");
    assert_leak_free(&stats, "tiny records t=0.5");
}
