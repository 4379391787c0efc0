//! PPJoin+-class similarity join: prefix, length, positional, and
//! suffix filtering over an indexing-prefix inverted index, with
//! resume-merge verification.
//!
//! The paper's footnote to §2.2 and its related-work pointers ([2, 5,
//! 26]) note that indexing avoids the all-pairs comparison. This module
//! implements the filter pipeline of Xiao et al.'s PPJoin+ for Jaccard
//! thresholds, on top of the interned, frequency-ordered id lists that
//! [`TokenTable`] builds once per corpus. Records are processed in
//! ascending `(token count, id)` order, so every probe is at least as
//! long as every indexed record it can reach. For a probing record `x`
//! and an indexed record `y` (`|y| ≤ |x|`), a pair survives only if it
//! passes, in order:
//!
//! 1. **prefix filter** — `x` probes with its *probe prefix*, the first
//!    `|x| − ⌈t·|x|⌉ + 1` (rarest) tokens, but the index holds only each
//!    record's *indexing prefix*, the first `|y| − ⌈2t/(1+t)·|y|⌉ + 1`
//!    tokens: since probes are never shorter than indexed records, the
//!    required overlap is at least `⌈2t/(1+t)·|y|⌉`, which shrinks both
//!    the index and the candidate count (the PPJoin index reduction);
//! 2. **length filter** — `|y| ≥ ⌈t·|x|⌉`, applied by binary-searching
//!    the length-ordered posting lists;
//! 3. **positional filter** (PPJoin) — at the first shared prefix token,
//!    sitting at position `i` of `x` and `j` of `y`, the overlap so far
//!    is exactly 1 (earlier shared tokens would have generated the
//!    candidate earlier), so the total overlap is at most
//!    `1 + min(|x|−i−1, |y|−j−1)`; if that cannot reach the required
//!    overlap `α = ⌈t/(1+t)·(|x|+|y|)⌉`, the candidate is dropped;
//! 4. **suffix filter** (PPJoin+) — the suffixes `x[i+1..]` and
//!    `y[j+1..]` must supply the remaining `α − 1` overlap, i.e. their
//!    Hamming distance can be at most
//!    `Hmax = |xs| + |ys| − 2·(α − 1)`. A recursive binary partition of
//!    both suffixes around pivot tokens (depth-bounded by
//!    [`SUFFIX_FILTER_DEPTH`], early-abandoning against the remaining
//!    budget) lower-bounds that distance without merging; candidates
//!    whose bound exceeds `Hmax` are dropped unverified;
//! 5. **resume-merge verification** — survivors are verified exactly,
//!    but the integer merge *resumes* at `(i+1, j+1)` with overlap 1
//!    instead of re-merging the whole id lists (everything at or before
//!    the first shared prefix position is already accounted for), and
//!    abandons as soon as the remaining tails cannot reach `α`.
//!
//! Between steps 2 and 3 the adaptive count filter and last-token
//! truncation drop pairs without surfacing them as candidates, and
//! between steps 3 and 4 a 256-bit band signature rejects short pairs
//! (see [`filters`](crate::filters)).
//!
//! The index is split by join side
//! ([`PairSpace::sides`](crowder_types::PairSpace::sides)): each record
//! is indexed under its own side and probes only its partner side's
//! lists. A self-join has one side; a cross-source join (Product's
//! Abt–Buy) indexes each source under its own side, so no intra-source
//! pair is ever enumerated, and a source outside the pair space is
//! neither indexed nor probed. Every candidate is therefore inside the
//! pair space, and [`JoinStats::space_pruned`] reads 0 on this path.
//!
//! This module keeps only what is batch-specific: the length-sorted
//! probe order, the sided indexing-prefix posting lists, and phase 1 of
//! the probe (walking those lists). The probe itself — adaptive level,
//! scratch, and the per-candidate steps 3–5 — is the shared kernel
//! [`filters::Probe`](crate::filters::Probe), the same code
//! `crowder-stream`'s delta join runs.
//!
//! The index is built once, sequentially (it is cheap: indexing prefixes
//! only); probing is parallelized by striding the length-sorted record
//! order across scoped threads, each with its own probe scratch, local
//! result buffer, and filter counters, concatenated/summed in thread
//! order.
//!
//! Output is identical to [`all_pairs_scored`](crate::all_pairs_scored)
//! for the same threshold — a property-tested invariant — and
//! [`prefix_join_with_stats`] reports how many candidates each filter
//! stage discarded.

use crate::allpairs::effective_threads;
use crate::filters::{
    extended_prefix_len, index_prefix_len, min_match_len, posting_tier, BandSignature, ProbeScratch,
};
use crate::tokens::TokenTable;
use crowder_types::{Dataset, Pair, RecordId, ScoredPair};

pub use crate::filters::SUFFIX_FILTER_DEPTH;

/// One index entry: which record (by position in the length-sorted
/// order) carries the token, where in its id list the token sits, and
/// the token's count-filter tier (0 inside the base indexing prefix,
/// `n ≥ 1` for the n-th frontier token — only probes running the count
/// filter at level `> n` may count it).
#[derive(Debug, Clone, Copy, Default)]
struct Posting {
    rank: u32,
    pos: u32,
    tier: u8,
}

/// The inverted index over *extended* indexing prefixes, one posting
/// array per join side ([`PairSpace::sides`](crowder_types::PairSpace::sides)):
/// side `s`'s list of token `tok` is
/// `postings[s][offsets[s][tok]..offsets[s][tok + 1]]`, ascending in
/// rank and therefore in record length. Tokens past the base indexing
/// prefix carry their count-filter tier, so level-1 probes skip them
/// and higher-level probes count them (the Adapt-Join extension).
struct SidedIndex {
    offsets: Vec<Vec<u32>>,
    postings: Vec<Vec<Posting>>,
}

impl SidedIndex {
    /// Index every record with a side under that side: a counting pass
    /// sizes each list, then a fill pass writes the postings in rank
    /// order.
    fn build(
        dataset: &Dataset,
        order: &[u32],
        docs: &[&[u32]],
        vocabulary: usize,
        threshold: f64,
    ) -> Self {
        let space = dataset.pair_space;
        let side_count = dataset
            .records()
            .iter()
            .filter_map(|r| space.sides(r.source))
            .map(|(side, _)| side + 1)
            .max()
            .unwrap_or(0);
        // The indexed window of each record in rank order, with its
        // side; empty records and records no pair involves are left out.
        let windows = || {
            order.iter().enumerate().filter_map(|(rank, &x)| {
                let (side, _) = space.sides(dataset.records()[x as usize].source)?;
                let doc = docs[x as usize];
                if doc.is_empty() {
                    return None;
                }
                let base = index_prefix_len(doc.len(), threshold);
                let window = extended_prefix_len(base, doc.len());
                Some((rank as u32, side, &doc[..window], base))
            })
        };
        let mut offsets = vec![vec![0u32; vocabulary + 1]; side_count];
        for (_, side, window, _) in windows() {
            for &tok in window {
                offsets[side][tok as usize + 1] += 1;
            }
        }
        for side in &mut offsets {
            for tok in 0..vocabulary {
                side[tok + 1] += side[tok];
            }
        }
        let mut next: Vec<Vec<u32>> = offsets.clone();
        let mut postings: Vec<Vec<Posting>> = offsets
            .iter()
            .map(|side| vec![Posting::default(); side[vocabulary] as usize])
            .collect();
        for (rank, side, window, base) in windows() {
            for (pos, &tok) in window.iter().enumerate() {
                let slot = &mut next[side][tok as usize];
                postings[side][*slot as usize] = Posting {
                    rank,
                    pos: pos as u32,
                    tier: posting_tier(pos, base),
                };
                *slot += 1;
            }
        }
        SidedIndex { offsets, postings }
    }

    /// Side `side`'s posting list of `tok` (empty for a side no record
    /// is indexed under).
    #[inline]
    fn list(&self, side: usize, tok: u32) -> &[Posting] {
        match self.offsets.get(side) {
            Some(offsets) => {
                let tok = tok as usize;
                &self.postings[side][offsets[tok] as usize..offsets[tok + 1] as usize]
            }
            None => &[],
        }
    }
}

/// Per-join filter-funnel counters, summed across worker threads.
///
/// `candidates` splits into the five leak-free buckets
/// `positional_pruned + space_pruned + signature_rejected +
/// suffix_pruned + verified`; `results ≤ verified`. Pairs killed
/// *before* the candidate stage — the length skip, the count filter,
/// and the last-token truncation — never surface in the funnel at all:
/// they were proven dead from the index geometry alone, without
/// enumerating the pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Distinct pairs surviving prefix + length filtering, the count
    /// filter, and last-token truncation (index hits after per-probe
    /// dedup).
    pub candidates: u64,
    /// Candidates discarded by the positional filter.
    pub positional_pruned: u64,
    /// Candidates discarded because the pair is outside the dataset's
    /// [`PairSpace`](crowder_types::PairSpace) (e.g. intra-source).
    /// Always 0 for [`prefix_join_with_stats`], which probes only the
    /// partner side; `crowder-stream`'s delta probe still counts them.
    pub space_pruned: u64,
    /// Candidates discarded by the 256-bit band-signature lower bound
    /// on the symmetric difference (short records only: the check
    /// self-gates once `lx + ly − 2α ≥ 256`).
    pub signature_rejected: u64,
    /// Candidates discarded by the suffix filter.
    pub suffix_pruned: u64,
    /// Candidates that reached exact (resume-merge) verification.
    pub verified: u64,
    /// Verified candidates meeting the threshold — the output size.
    pub results: u64,
}

impl JoinStats {
    /// Accumulate another funnel's counters (summing across worker
    /// threads, or across delta joins in `crowder-stream`).
    pub fn absorb(&mut self, other: &JoinStats) {
        self.candidates += other.candidates;
        self.positional_pruned += other.positional_pruned;
        self.space_pruned += other.space_pruned;
        self.signature_rejected += other.signature_rejected;
        self.suffix_pruned += other.suffix_pruned;
        self.verified += other.verified;
        self.results += other.results;
    }
}

/// Publish a funnel into the global `simjoin.funnel.*` observability
/// counters — the shared export path for every engine that runs the
/// PPJoin+ filter pipeline (the batch join here, the per-arrival
/// `DeltaIndex` probe in `crowder-stream`). Called once per join/probe,
/// not per candidate, so the cost is a handful of relaxed atomics.
pub fn publish_funnel(stats: &JoinStats) {
    if !crowder_obs::recording() {
        return;
    }
    crowder_obs::counter!("simjoin.funnel.candidates").add(stats.candidates);
    crowder_obs::counter!("simjoin.funnel.positional_pruned").add(stats.positional_pruned);
    crowder_obs::counter!("simjoin.funnel.space_pruned").add(stats.space_pruned);
    crowder_obs::counter!("simjoin.funnel.signature_rejected").add(stats.signature_rejected);
    crowder_obs::counter!("simjoin.funnel.suffix_pruned").add(stats.suffix_pruned);
    crowder_obs::counter!("simjoin.funnel.verified").add(stats.verified);
    crowder_obs::counter!("simjoin.funnel.results").add(stats.results);
}

/// Jaccard similarity join via the PPJoin+ filter pipeline (see the
/// module docs). Returns pairs with similarity ≥ `threshold`, sorted by
/// descending likelihood.
///
/// `threads = 0` selects the available parallelism.
///
/// Out-of-range thresholds degrade like
/// [`all_pairs_scored`](crate::all_pairs_scored) instead of being
/// rejected: `threshold ≤ 0` falls back to the exhaustive pass (a zero
/// threshold keeps everything and no filter can help), and
/// `threshold > 1` returns no pairs (Jaccard never exceeds 1).
pub fn prefix_join(
    dataset: &Dataset,
    tokens: &TokenTable,
    threshold: f64,
    threads: usize,
) -> Vec<ScoredPair> {
    prefix_join_with_stats(dataset, tokens, threshold, threads).0
}

/// [`prefix_join`] plus the filter-funnel counters. On the
/// `threshold ≤ 0` fallback path no filters run, so only
/// `verified`/`results` are populated (every candidate pair is verified).
pub fn prefix_join_with_stats(
    dataset: &Dataset,
    tokens: &TokenTable,
    threshold: f64,
    threads: usize,
) -> (Vec<ScoredPair>, JoinStats) {
    let _timer = crowder_obs::span!("simjoin.prefix_join_ns");
    if threshold <= 0.0 {
        let out = crate::allpairs::all_pairs_scored(dataset, tokens, threshold, threads);
        let stats = JoinStats {
            candidates: dataset.candidate_pair_count() as u64,
            verified: dataset.candidate_pair_count() as u64,
            results: out.len() as u64,
            ..JoinStats::default()
        };
        publish_funnel(&stats);
        return (out, stats);
    }
    if threshold > 1.0 {
        // No pair can qualify; the prefix formulas would underflow.
        return (Vec::new(), JoinStats::default());
    }
    let n = dataset.len();
    let docs: Vec<&[u32]> = (0..n).map(|i| tokens.ids(RecordId(i as u32))).collect();

    // Probe records in ascending (token count, id) order so every pair
    // is generated exactly once, with the probing side the longer one —
    // the precondition for the indexing-prefix reduction.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (docs[i as usize].len(), i));
    let lens: Vec<u32> = order
        .iter()
        .map(|&i| docs[i as usize].len() as u32)
        .collect();
    let index = SidedIndex::build(dataset, &order, &docs, tokens.dict().len(), threshold);

    // Per-record 256-bit band signatures (ids are dense rarest-first
    // ranks, so the 256 residue classes spread well).
    let sigs: Vec<BandSignature> = docs.iter().map(|d| BandSignature::build(d)).collect();

    let threads = effective_threads(threads).min(n.max(1));
    let locals: Vec<(Vec<ScoredPair>, JoinStats)> = std::thread::scope(|scope| {
        let (order, lens, docs, index, sigs) = (&order, &lens, &docs, &index, &sigs);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut stats = JoinStats::default();
                    let mut scratch = ProbeScratch::new();
                    // Strided ranks balance the skew of long records.
                    let mut rank = t;
                    while rank < order.len() {
                        probe(
                            dataset,
                            docs,
                            order,
                            lens,
                            index,
                            sigs,
                            threshold,
                            rank,
                            &mut scratch,
                            &mut local,
                            &mut stats,
                        );
                        rank += threads;
                    }
                    (local, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("prefix-join workers do not panic"))
            .collect()
    });

    let mut out: Vec<ScoredPair> = Vec::with_capacity(locals.iter().map(|(v, _)| v.len()).sum());
    let mut stats = JoinStats::default();
    for (mut local, local_stats) in locals {
        out.append(&mut local);
        stats.absorb(&local_stats);
    }
    crowder_types::pair::sort_ranked(&mut out);
    publish_funnel(&stats);
    (out, stats)
}

/// Probe one record (by rank) against the index of all shorter-or-equal
/// records earlier in the order: collect window hits per candidate
/// (phase 1), then filter + verify each candidate through the shared
/// kernel (phase 2, [`Probe::verify`](crate::filters::Probe::verify)).
#[allow(clippy::too_many_arguments)]
fn probe(
    dataset: &Dataset,
    docs: &[&[u32]],
    order: &[u32],
    lens: &[u32],
    index: &SidedIndex,
    sigs: &[BandSignature],
    threshold: f64,
    rank: usize,
    scratch: &mut ProbeScratch,
    out: &mut Vec<ScoredPair>,
    stats: &mut JoinStats,
) {
    let x = order[rank];
    let doc = docs[x as usize];
    let Some((_, partner)) = dataset
        .pair_space
        .sides(dataset.records()[x as usize].source)
    else {
        return;
    };
    if doc.is_empty() {
        return;
    }
    let min_len_y = min_match_len(doc.len(), threshold);
    let mut probe = scratch.start(doc, sigs[x as usize], threshold, docs.len(), |tok| {
        index.list(partner, tok).len() as u64
    });
    let level = probe.level();

    // Phase 1: every posting list ascends in rank and therefore in
    // record length, so the admissible postings of a window token form
    // one contiguous run: past the too-short records (the length
    // filter, binary-searched), up to the probing rank (later ranks
    // probe this record themselves) — and at level 1 up to the
    // position's truncation cutoff.
    for (i, &tok) in probe.window().iter().enumerate() {
        let plist = index.list(partner, tok);
        let start = plist.partition_point(|p| (lens[p.rank as usize] as usize) < min_len_y);
        let max_len_y = if level == 1 { probe.cut(i) } else { usize::MAX };
        let mut hits = probe.at(i);
        for p in &plist[start..] {
            let ly = lens[p.rank as usize] as usize;
            if p.rank as usize >= rank || ly > max_len_y {
                break;
            }
            if (p.tier as usize) < level {
                hits.hit(order[p.rank as usize], ly, p.pos);
            }
        }
    }

    // Phase 2: the shared filter + verify kernel.
    let pair_of = |y: u32| {
        Pair::new(RecordId(x), RecordId(y)).expect("distinct ranks imply distinct records")
    };
    for &y in probe.candidates() {
        // Only the partner side was scanned, so every candidate lies in
        // the pair space.
        let space_ok = || {
            debug_assert!(dataset.is_candidate(&pair_of(y)));
            true
        };
        if let Some(sim) = probe.verify(y, docs[y as usize], &sigs[y as usize], space_ok, stats) {
            out.push(ScoredPair::new(pair_of(y), sim));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allpairs::all_pairs_scored;
    use crate::filters::suffix_hamming_lb;
    use crowder_types::{PairSpace, SourceId};
    use proptest::prelude::*;

    fn dataset_from_names(names: &[String], cross: bool) -> Dataset {
        let space = if cross {
            PairSpace::CrossSource(SourceId(0), SourceId(1))
        } else {
            PairSpace::SelfJoin
        };
        let mut d = Dataset::new("t", vec!["name".into()], space);
        for (i, n) in names.iter().enumerate() {
            let src = if cross {
                SourceId((i % 2) as u8)
            } else {
                SourceId(0)
            };
            d.push_record(src, vec![n.clone()]).unwrap();
        }
        d
    }

    /// String-based brute-force oracle: enumerate candidate pairs and
    /// score them with the *string* Jaccard over raw token sets —
    /// independent of the interning layer, the filters, and the
    /// threading, so it cross-checks the whole interned stack.
    fn brute_force_oracle(d: &Dataset, t: &TokenTable, thr: f64) -> Vec<ScoredPair> {
        let mut out: Vec<ScoredPair> = d
            .candidate_pairs()
            .filter_map(|pair| {
                let sim = crowder_text::jaccard(t.set(pair.lo()), t.set(pair.hi()));
                (sim >= thr).then_some(ScoredPair::new(pair, sim))
            })
            .collect();
        crowder_types::pair::sort_ranked(&mut out);
        out
    }

    #[test]
    fn matches_all_pairs_on_table1() {
        let names: Vec<String> = [
            "iPad Two 16GB WiFi White",
            "iPad 2nd generation 16GB WiFi White",
            "iPhone 4th generation White 16GB",
            "Apple iPhone 4 16GB White",
            "Apple iPhone 3rd generation Black 16GB",
            "iPhone 4 32GB White",
            "Apple iPad2 16GB WiFi White",
            "Apple iPod shuffle 2GB Blue",
            "Apple iPod shuffle USB Cable",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        for thr in [0.1, 0.3, 0.5, 0.9, 1.0] {
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, 1);
            assert_eq!(brute, fast, "threshold {thr}");
            assert_eq!(
                brute,
                brute_force_oracle(&d, &t, thr),
                "oracle, threshold {thr}"
            );
        }
    }

    #[test]
    fn stats_funnel_is_leak_free() {
        let names: Vec<String> = (0..60)
            .map(|i| {
                format!(
                    "tok{} tok{} tok{} shared common extra{}",
                    i % 9,
                    i % 5,
                    i % 3,
                    i
                )
            })
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.3, 0.5, 0.8] {
            let (out, s) = prefix_join_with_stats(&d, &t, thr, 2);
            assert_eq!(
                s.candidates,
                s.positional_pruned
                    + s.space_pruned
                    + s.signature_rejected
                    + s.suffix_pruned
                    + s.verified,
                "threshold {thr}: {s:?}"
            );
            assert_eq!(s.results as usize, out.len(), "threshold {thr}");
            assert!(s.results <= s.verified, "threshold {thr}");
        }
    }

    #[test]
    fn cross_source_stats_count_space_pruning() {
        // Each source probes only the other's postings, so no
        // intra-source pair becomes a candidate and the space filter
        // never fires; a third source's record is never indexed and
        // never probes, so adding one leaves the funnel unchanged.
        let names: Vec<String> = (0..20)
            .map(|i| format!("alpha beta gamma d{}", i % 4))
            .collect();
        let mut d = dataset_from_names(&names, true);
        let t = TokenTable::build_with_sets(&d);
        let (out, s) = prefix_join_with_stats(&d, &t, 0.5, 1);
        assert_eq!(s.space_pruned, 0, "{s:?}");
        assert!(s.candidates <= 10 * 10, "only cross pairs: {s:?}");
        assert_eq!(s.results as usize, out.len());
        // Every cross pair shares alpha, beta and gamma: Jaccard 3/5.
        assert_eq!(out.len(), 10 * 10);
        assert_eq!(out, brute_force_oracle(&d, &t, 0.5));
        d.push_record(SourceId(2), vec![names[0].clone()]).unwrap();
        let t = TokenTable::build(&d);
        let (with_third, s3) = prefix_join_with_stats(&d, &t, 0.5, 1);
        assert_eq!(with_third, out);
        assert_eq!(s3, s);
    }

    #[test]
    fn empty_token_records_never_match() {
        let names = vec!["---".to_string(), "!!!".to_string(), "abc".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        assert!(prefix_join(&d, &t, 0.5, 1).is_empty());
    }

    #[test]
    fn zero_threshold_falls_back_to_bruteforce() {
        let names = vec!["a b".to_string(), "b c".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        let res = prefix_join(&d, &t, 0.0, 2);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn above_one_threshold_returns_nothing() {
        // Unvalidated callers (e.g. CrowdJoin::threshold) may pass
        // thresholds above 1; Jaccard never exceeds 1, so the join must
        // return empty — like all_pairs_scored — instead of underflowing
        // the prefix formulas.
        let names = vec!["a b".to_string(), "a b".to_string()];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [1.0 + f64::EPSILON, 1.5, 100.0] {
            let (res, stats) = prefix_join_with_stats(&d, &t, thr, 2);
            assert!(res.is_empty(), "threshold {thr}");
            assert_eq!(stats, JoinStats::default(), "threshold {thr}");
            assert!(all_pairs_scored(&d, &t, thr, 1).is_empty());
        }
    }

    #[test]
    fn duplicate_records_all_pair_up() {
        // Identical records exercise the tie-handling of the
        // length-sorted order and the positional filter at j == i.
        let names = vec!["a b c".to_string(); 5];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        let res = prefix_join(&d, &t, 1.0, 2);
        assert_eq!(res.len(), 5 * 4 / 2);
        assert!(res.iter().all(|sp| sp.likelihood == 1.0));
    }

    // ---- degenerate joins: the classic PPJoin+ off-by-one sites ----

    #[test]
    fn single_token_records_join_correctly() {
        // Single-token records have probe/indexing prefix 1 and *empty*
        // suffixes: the suffix filter and resume merge both see zero
        // remaining tokens and must still admit exact matches.
        let names: Vec<String> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        for thr in [0.5, 1.0] {
            let fast = prefix_join(&d, &t, thr, 1);
            assert_eq!(fast, brute_force_oracle(&d, &t, thr), "threshold {thr}");
            assert_eq!(fast.len(), 3 + 1, "threshold {thr}: aa, aa, aa, bb");
        }
    }

    #[test]
    fn threshold_one_requires_identity() {
        let names: Vec<String> = ["a b c d", "a b c d", "a b c", "a b c d e", "q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build_with_sets(&d);
        let res = prefix_join(&d, &t, 1.0, 2);
        assert_eq!(res.len(), 1, "only the exact duplicate pair survives");
        assert_eq!(res[0].pair, Pair::of(0, 1));
        assert_eq!(res, brute_force_oracle(&d, &t, 1.0));
    }

    #[test]
    fn degenerate_mixes_agree_with_oracle() {
        // Empty token sets, identical records, and singletons in one
        // corpus, across thresholds, thread counts, and pair spaces.
        let names: Vec<String> = ["", "x", "x", "---", "x y z", "x y z", "y", "", "x y"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for cross in [false, true] {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build_with_sets(&d);
            for thr in [0.05, 0.5, 1.0] {
                for threads in [0, 1, 2] {
                    assert_eq!(
                        prefix_join(&d, &t, thr, threads),
                        brute_force_oracle(&d, &t, thr),
                        "cross={cross} thr={thr} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_identical_records_at_every_threshold() {
        let names = vec!["alpha beta gamma delta".to_string(); 8];
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.1, 0.5, 1.0] {
            let (res, stats) = prefix_join_with_stats(&d, &t, thr, 2);
            assert_eq!(res.len(), 8 * 7 / 2, "threshold {thr}");
            assert!(res.iter().all(|sp| sp.likelihood == 1.0));
            // Identical records must never be suffix-pruned.
            assert_eq!(stats.suffix_pruned, 0, "threshold {thr}: {stats:?}");
        }
    }

    #[test]
    fn suffix_filter_bound_is_sound() {
        // The lower bound must never exceed the true Hamming distance.
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[1, 2, 3], &[]),
            (&[1, 3, 5, 7], &[2, 4, 6, 8]),
            (&[1, 2, 3, 4, 5], &[1, 2, 3, 4, 5]),
            (&[1, 2, 3, 4, 5], &[2, 3, 4]),
            (&[10, 20, 30, 40, 50, 60], &[15, 20, 35, 40, 55, 60]),
        ];
        for (a, b) in cases {
            let true_h = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(a, b);
            for depth in 0..=4 {
                let lb = suffix_hamming_lb(a, b, usize::MAX, depth);
                assert!(lb <= true_h, "lb {lb} > true {true_h} for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let names: Vec<String> = (0..40)
            .map(|i| format!("tok{} tok{} tok{} shared common", i % 7, i % 5, i % 3))
            .collect();
        let d = dataset_from_names(&names, false);
        let t = TokenTable::build(&d);
        for thr in [0.2, 0.5, 0.8] {
            let one = prefix_join(&d, &t, thr, 1);
            let two = prefix_join(&d, &t, thr, 2);
            let five = prefix_join(&d, &t, thr, 5);
            let auto = prefix_join(&d, &t, thr, 0);
            assert_eq!(one, two, "threshold {thr}");
            assert_eq!(one, five, "threshold {thr}");
            assert_eq!(one, auto, "threshold {thr}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn agrees_with_bruteforce(
            names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 2..24),
            thr in 0.05f64..=1.0,
            cross in proptest::bool::ANY,
        ) {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build(&d);
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, 1);
            prop_assert_eq!(brute, fast);
        }

        /// The interned parallel implementations must agree with the
        /// string-based oracle — across thresholds, pair spaces, and
        /// thread counts (0 = auto included).
        #[test]
        fn interned_joins_agree_with_string_oracle(
            names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 2..24),
            thr in 0.05f64..=1.0,
            cross in proptest::bool::ANY,
            threads in 0usize..=4,
        ) {
            let d = dataset_from_names(&names, cross);
            let t = TokenTable::build_with_sets(&d);
            let oracle = brute_force_oracle(&d, &t, thr);
            prop_assert_eq!(&oracle, &all_pairs_scored(&d, &t, thr, threads.max(1)));
            prop_assert_eq!(&oracle, &prefix_join(&d, &t, thr, threads));
        }

        /// Records from three sources under every pair-space shape: the
        /// sided index must find exactly the exhaustive scorer's pairs,
        /// whichever source is indexed under which side, and the third
        /// source must join nothing under a cross-source space.
        #[test]
        fn sided_joins_agree_with_bruteforce_on_three_sources(
            rows in proptest::collection::vec(
                (0u8..3, "[a-e]{1,2}( [a-e]{1,2}){0,5}"),
                2..24,
            ),
            thr in 0.05f64..=1.0,
            threads in 1usize..=3,
        ) {
            let spaces = [
                PairSpace::SelfJoin,
                PairSpace::CrossSource(SourceId(0), SourceId(1)),
                PairSpace::CrossSource(SourceId(1), SourceId(0)),
                PairSpace::CrossSource(SourceId(0), SourceId(0)),
            ];
            for space in spaces {
                let mut d = Dataset::new("t", vec!["name".into()], space);
                for (src, name) in &rows {
                    d.push_record(SourceId(*src), vec![name.clone()]).unwrap();
                }
                let t = TokenTable::build(&d);
                let (fast, stats) = prefix_join_with_stats(&d, &t, thr, threads);
                prop_assert_eq!(&fast, &all_pairs_scored(&d, &t, thr, 1));
                prop_assert_eq!(stats.space_pruned, 0);
            }
        }

        /// Longer, more overlapping records push candidates through the
        /// positional + suffix filters and the resume merge.
        #[test]
        fn long_record_joins_agree_with_bruteforce(
            names in proptest::collection::vec("[a-h]{1,2}( [a-h]{1,2}){4,12}", 2..20),
            thr in 0.05f64..=1.0,
            threads in 1usize..=3,
        ) {
            let d = dataset_from_names(&names, false);
            let t = TokenTable::build(&d);
            let brute = all_pairs_scored(&d, &t, thr, 1);
            let fast = prefix_join(&d, &t, thr, threads);
            prop_assert_eq!(brute, fast);
        }

        /// The suffix-filter lower bound never exceeds the true Hamming
        /// distance for random sorted sets at any recursion depth.
        #[test]
        fn suffix_bound_sound_on_random_sets(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
            depth in 0usize..=4,
        ) {
            let mut a = a;
            let mut b = b;
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let true_h = a.len() + b.len()
                - 2 * crowder_text::intersection_size_ids(&a, &b);
            prop_assert!(suffix_hamming_lb(&a, &b, usize::MAX, depth) <= true_h);
        }
    }
}
