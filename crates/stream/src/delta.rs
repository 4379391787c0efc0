//! The insert-capable prefix-filter index and the per-arrival delta
//! join.
//!
//! The batch engine (`crowder-simjoin::prefix_join`) probes records in
//! ascending length order, so the probing side is always the longer one
//! and the index can hold the *shortened* PPJoin indexing prefix. A
//! stream has no such luxury: an arriving record may be shorter or
//! longer than anything indexed. [`DeltaIndex`] therefore indexes each
//! record's full **probe prefix** (`|y| − ⌈t·|y|⌉ + 1` rarest-ranked
//! tokens) — the symmetric prefix-filter guarantee: any pair with
//! Jaccard ≥ t shares a token between its two probe prefixes, whichever
//! side is longer.
//!
//! ## The probe: one index, the shared kernel
//!
//! A probe runs the two-phase kernel of `crowder_simjoin::filters`
//! (`ProbeScratch` / `Probe`) — the same code the batch join runs, so a
//! filter change lands once for both engines. This module keeps only
//! what is stream-specific: the length-bucketed, counted postings of
//! the live records, and phase 1, which walks them.
//!
//! 1. **Hit collection.** One loop over the probe window, in ascending
//!    probe position, feeds every tier-admissible posting inside
//!    the length window to `Hits::hit`. The kernel keeps each
//!    candidate's first hit `(i, j)` — the pair's first shared prefix
//!    token: both token lists ascend in the same global rank order (see
//!    `StreamingDict`), so any smaller shared token would occupy smaller
//!    `i` and `j` in both — and its hit count.
//! 2. **Filter + verify.** Candidates, sorted by record id, go through
//!    `Probe::verify`: the count filter, then the positional filter,
//!    candidate-space filter, band-signature check, suffix filter, and
//!    resume-merge verification at `(i+1, j+1)` with overlap exactly 1
//!    at `(i, j)`.
//!
//! ## Length-bucketed postings — the binary-searched length skip
//!
//! Each rank's postings are **bucketed by record length**: bucket
//! headers ascend in `len`, and postings within a bucket append in
//! arrival order, so indexing one prefix token is an O(1) push (no
//! memmove through the list body). Phase 1 binary-searches the bucket
//! headers down to the window `⌈t·|x|⌉ ≤ |y| ≤ ⌊|x|/t⌋`, so records
//! outside it are *never enumerated* — the batch engine's
//! binary-searched length skip. Length-skipped records never count as
//! `candidates`, matching the batch funnel's accounting.
//!
//! Within-bucket order is deliberately *immaterial*: phase 1 visits
//! probe positions in ascending order, so a candidate's first hit is
//! its minimal-`i` hit whatever the bucket order, and phase 2 sorts the
//! candidate ids, so probe output is a pure function of the corpus no
//! matter what mutation history (or rebuild) populated the buckets.
//! Candidate enumeration — and therefore every downstream
//! order-sensitive structure, e.g. cluster merge sequences — is
//! reproducible across restarts; crash recovery depends on this.
//!
//! ## The adaptive count-filter tier, truncation, and band signatures
//!
//! The index stores each record's **extended** probe window
//! (`extended_prefix_len`), every posting carrying its `tier` — how far
//! past the base prefix its position sits. A probe picks a per-record
//! count-filter `level` (`adaptive_level`) from the posting mass under
//! its base prefix (the `PostingList::count` counters — exact, so the
//! estimate is invariant under mutation history and rebuilds): on hot
//! prefixes it extends the window and demands `level`
//! shared window tokens per the generalized prefix lemma (see
//! `crowder_simjoin::filters`). Hits at `tier ≥ level` are skipped, so
//! a level-1 probe sees exactly the classic prefix index.
//!
//! Two more pre-candidate kills ride the same scan, both order
//! insensitive:
//!
//! - **Last-token truncation**: from probe position `i`, a first hit on
//!   a record longer than `positional_len_cutoff(lx, i, t)` can never
//!   pass the positional filter, and the cutoff only tightens with `i`.
//!   At level 1 the cutoff clamps the bucket length window per position
//!   (those postings are never enumerated); at higher levels each hit
//!   on a reached candidate must be counted, so `Hits::hit` drops only
//!   over-cutoff *first* contacts — the same pairs.
//! - **Count filter**: candidates with fewer than `level` window hits
//!   are dropped.
//!
//! Like the length skip, pairs killed by either never surface as
//! `candidates` — they are proven dead from index geometry alone.
//! Survivors then face a 256-bit **band-signature** check
//! (`BandSignature`, XOR + popcount lower bound on the symmetric
//! difference) between positional/space filtering and the suffix
//! filter, tallied as `signature_rejected`.
//!
//! Degenerate thresholds mirror the batch engine so the cumulative
//! output stays bit-identical: `threshold ≤ 0` compares the arrival
//! against every indexed candidate exhaustively (no filter can help at
//! a zero threshold), and `threshold > 1` yields nothing.

use crowder_simjoin::filters::{
    extended_prefix_len, max_match_len, min_match_len, posting_tier, prefix_len, BandSignature,
    ProbeScratch,
};
use crowder_simjoin::JoinStats;
use crowder_text::jaccard_ids;
use crowder_types::{Dataset, Error, Pair, RecordId, ScoredPair};
use std::collections::HashMap;

use crate::dict::StreamingDict;

/// Publish the funnel increment of one probe into the shared
/// `simjoin.funnel.*` counters (the batch join publishes the same keys,
/// so one export shows the whole machine pass as a single funnel).
fn publish_probe_delta(before: &JoinStats, after: &JoinStats) {
    crowder_simjoin::publish_funnel(&JoinStats {
        candidates: after.candidates - before.candidates,
        positional_pruned: after.positional_pruned - before.positional_pruned,
        space_pruned: after.space_pruned - before.space_pruned,
        signature_rejected: after.signature_rejected - before.signature_rejected,
        suffix_pruned: after.suffix_pruned - before.suffix_pruned,
        verified: after.verified - before.verified,
        results: after.results - before.results,
    });
}

/// One index entry: the record holding the token and the token's
/// position in that record's rank-sorted list. The record's length —
/// the binary-search key of the length skip — lives one level up, in
/// the bucket header.
#[derive(Debug, Clone, Copy)]
struct Posting {
    record: u32,
    pos: u32,
    /// Extension tier of `pos` past the record's base probe prefix
    /// (`posting_tier`): 0 for base-prefix postings, `k` for the k-th
    /// extension token. A probe at count-filter level `l` only admits
    /// `tier < l`, so a level-1 probe sees exactly the classic index.
    tier: u8,
}

/// One rank's postings, bucketed by record length: buckets ascend in
/// `len`, postings within a bucket are appended in arrival order (O(1)
/// per insert — no memmove through the list body, which is what keeps
/// the per-arrival indexing cost flat). The length window of a probe
/// binary-searches the bucket headers, never the postings.
///
/// Within-bucket order is **immaterial** to every observable (see the
/// module docs), so a rebuilt index (buckets repopulated in record
/// order) enumerates differently but resolves identically.
#[derive(Debug, Clone, Default)]
struct PostingList {
    buckets: Vec<(u32, Vec<Posting>)>,
    /// Number of postings in the list — the adaptive-prefix selectivity
    /// estimate. Every posting is a live record's, so probes pick the
    /// same count-filter level no matter what mutation history
    /// populated the index, which is what keeps probe output a pure
    /// function of the corpus.
    count: u32,
}

impl PostingList {
    /// Append a posting to the `len` bucket, creating it at its sorted
    /// position if absent. The bucket-header vec is short (distinct
    /// record lengths under one rank), so the occasional header insert
    /// is cheap.
    fn push(&mut self, len: u32, posting: Posting) {
        self.count += 1;
        match self.buckets.binary_search_by_key(&len, |b| b.0) {
            Ok(at) => self.buckets[at].1.push(posting),
            Err(at) => self.buckets.insert(at, (len, vec![posting])),
        }
    }

    /// Drop `record`'s posting from the `len` bucket.
    fn remove(&mut self, len: u32, record: u32) {
        if let Ok(at) = self.buckets.binary_search_by_key(&len, |b| b.0) {
            let before = self.buckets[at].1.len();
            self.buckets[at].1.retain(|p| p.record != record);
            self.count -= (before - self.buckets[at].1.len()) as u32;
            if self.buckets[at].1.is_empty() {
                self.buckets.remove(at);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// The tokens of `doc` the index holds: its **extended** probe window,
/// or nothing outside the filtered threshold range `(0, 1]`.
fn indexed_window(doc: &[u32], threshold: f64) -> &[u32] {
    if doc.is_empty() || threshold <= 0.0 || threshold > 1.0 {
        return &[];
    }
    &doc[..extended_prefix_len(prefix_len(doc.len(), threshold), doc.len())]
}

/// Index `record`'s [`indexed_window`] into the length buckets — an
/// O(1) append per token (plus a binary search over the short
/// bucket-header vec). Postings past the base prefix carry their
/// extension tier so level-1 probes skip them.
fn index_doc(postings: &mut HashMap<u32, PostingList>, threshold: f64, record: u32, doc: &[u32]) {
    let window = indexed_window(doc, threshold);
    if window.is_empty() {
        return;
    }
    let (len, base) = (doc.len() as u32, prefix_len(doc.len(), threshold));
    for (pos, &rank) in window.iter().enumerate() {
        postings.entry(rank).or_default().push(
            len,
            Posting {
                record,
                pos: pos as u32,
                tier: posting_tier(pos, base),
            },
        );
    }
}

/// Mutable prefix-filter index over an appendable corpus. A removed
/// record keeps its slot (record ids stay dense in arrival order) but
/// loses its postings, doc and signature at once, so the postings only
/// ever name live records.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    threshold: f64,
    /// `rank → length-bucketed postings`. Keyed by *rank* (the join's
    /// sort key), which is stable between dictionary epochs; `rebuild`
    /// re-keys everything.
    postings: HashMap<u32, PostingList>,
    /// Per-record token lists, as ranks sorted ascending.
    docs: Vec<Vec<u32>>,
    /// Per-record 256-bit band signatures over the rank lists —
    /// recomputed wherever `docs` changes (push, update, rebuild):
    /// ranks shift between dictionary epochs, so signatures are
    /// epoch-local just like the docs they summarize.
    sigs: Vec<BandSignature>,
    /// Scratch of the shared probe kernel.
    scratch: ProbeScratch,
    /// `false` for deleted records (slots are never reused).
    alive: Vec<bool>,
    /// Live record count.
    live: usize,
}

impl DeltaIndex {
    /// An empty index joining at `threshold`.
    pub fn new(threshold: f64) -> Self {
        DeltaIndex {
            threshold,
            postings: HashMap::new(),
            docs: Vec::new(),
            sigs: Vec::new(),
            scratch: ProbeScratch::new(),
            alive: Vec::new(),
            live: 0,
        }
    }

    /// Rebuild an index from exported per-record rank lists (empty for
    /// deleted records) plus liveness flags — the snapshot-import
    /// constructor. Buckets fill in record order; probe output does not
    /// depend on within-bucket order (see the module docs), so a
    /// recovered index resolves exactly like the index it was exported
    /// from. A deleted record with a non-empty list is rejected.
    pub fn from_docs(
        threshold: f64,
        docs: Vec<Vec<u32>>,
        alive: Vec<bool>,
    ) -> crowder_types::Result<Self> {
        if docs.len() != alive.len() {
            return Err(Error::InvalidData(format!(
                "index import: {} docs but {} liveness flags",
                docs.len(),
                alive.len()
            )));
        }
        if let Some(r) = (0..docs.len()).find(|&r| !alive[r] && !docs[r].is_empty()) {
            return Err(Error::InvalidData(format!(
                "index import: deleted record {r} has tokens"
            )));
        }
        let mut index = DeltaIndex {
            live: alive.iter().filter(|&&a| a).count(),
            sigs: docs.iter().map(|d| BandSignature::build(d)).collect(),
            docs,
            alive,
            ..Self::new(threshold)
        };
        for (r, doc) in index.docs.iter().enumerate() {
            index_doc(&mut index.postings, threshold, r as u32, doc);
        }
        Ok(index)
    }

    /// Number of record slots (arrivals ever indexed, deletions
    /// included).
    #[inline]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Number of live (non-deleted) records.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True iff no record was indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Is `record` still live?
    #[inline]
    pub fn is_alive(&self, record: RecordId) -> bool {
        self.alive[record.index()]
    }

    /// Delete one record: its postings are stripped and its doc and
    /// signature cleared, so no later probe can reach it. The slot
    /// stays. Idempotent.
    pub fn remove(&mut self, record: RecordId) {
        let slot = record.index();
        if std::mem::replace(&mut self.alive[slot], false) {
            self.live -= 1;
            self.unindex(slot);
            self.docs[slot] = Vec::new();
            self.sigs[slot] = BandSignature::default();
        }
    }

    /// Strip the postings of `slot`'s current doc, dropping lists that
    /// empty.
    fn unindex(&mut self, slot: usize) {
        let len = self.docs[slot].len() as u32;
        for rank in indexed_window(&self.docs[slot], self.threshold) {
            if let Some(list) = self.postings.get_mut(rank) {
                list.remove(len, slot as u32);
                if list.is_empty() {
                    self.postings.remove(rank);
                }
            }
        }
    }

    /// The rank-sorted token list of an indexed record.
    #[inline]
    pub fn doc(&self, record: RecordId) -> &[u32] {
        &self.docs[record.index()]
    }

    /// Join threshold the index was built for.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Delta-join the next record (rank-sorted token list `doc`) against
    /// everything indexed, then index it. The record's id must be
    /// `self.len()` — records arrive densely — and must already be
    /// pushed into `dataset` (the candidate-space filter reads its
    /// source). New pairs are appended to `out` in ascending candidate
    /// order; filter decisions are tallied into `stats` with the same
    /// bucket semantics as the batch funnel.
    pub fn join_and_insert(
        &mut self,
        dataset: &Dataset,
        doc: Vec<u32>,
        out: &mut Vec<ScoredPair>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.probe_ns");
        let before = *stats;
        let x = RecordId(self.docs.len() as u32);
        debug_assert_eq!(dataset.len(), self.docs.len() + 1, "push record first");
        self.probe(
            Some(x.0),
            &doc,
            |y| dataset.is_candidate(&Pair::new(x, RecordId(y)).expect("y != x")),
            |y, sim| {
                let pair = Pair::new(x, RecordId(y)).expect("probe never yields x");
                out.push(ScoredPair::new(pair, sim));
            },
            stats,
        );
        index_doc(&mut self.postings, self.threshold, x.0, &doc);
        self.sigs.push(BandSignature::build(&doc));
        self.docs.push(doc);
        self.alive.push(true);
        self.live += 1;
        publish_probe_delta(&before, stats);
    }

    /// Probe a record that is **not** part of the corpus — the
    /// read-only query half of a `resolve()` call. `doc` must be the
    /// rank-sorted encoding of the query's token set (see
    /// `StreamingDict::encode_query`), `space_ok` the candidate-space
    /// filter for the query's source. Matches are appended to `out` in
    /// ascending record order with their exact Jaccard similarity —
    /// bit-for-bit what [`DeltaIndex::join_and_insert`] would have
    /// surfaced had the record arrived — and nothing is indexed or
    /// mutated besides probe scratch. The funnel of the probe is
    /// tallied into `stats` but *not* published to the shared
    /// `simjoin.funnel.*` counters: queries are not part of the machine
    /// pass.
    pub fn probe_query<F: Fn(u32) -> bool>(
        &mut self,
        doc: &[u32],
        space_ok: F,
        out: &mut Vec<(RecordId, f64)>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.query_probe_ns");
        self.probe(
            None,
            doc,
            space_ok,
            |y, sim| out.push((RecordId(y), sim)),
            stats,
        );
    }

    /// Replace the token list of an existing *live* record in place —
    /// the index half of an atomic correction. The record's stale
    /// prefix postings are stripped first (it must not match its own
    /// old tokens), the new doc is probed against every other live
    /// record exactly like an arrival (same funnel buckets, appended to
    /// `out`), and its new prefix is re-indexed.
    pub fn update_doc(
        &mut self,
        dataset: &Dataset,
        record: RecordId,
        doc: Vec<u32>,
        out: &mut Vec<ScoredPair>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.update_probe_ns");
        let before = *stats;
        let slot = record.index();
        debug_assert!(self.alive[slot], "update of a deleted record");
        self.unindex(slot);
        self.probe(
            Some(record.0),
            &doc,
            |y| dataset.is_candidate(&Pair::new(record, RecordId(y)).expect("y != record")),
            |y, sim| {
                let pair = Pair::new(record, RecordId(y)).expect("probe never yields the record");
                out.push(ScoredPair::new(pair, sim));
            },
            stats,
        );
        index_doc(&mut self.postings, self.threshold, record.0, &doc);
        self.sigs[slot] = BandSignature::build(&doc);
        self.docs[slot] = doc;
        publish_probe_delta(&before, stats);
    }

    /// Probe `doc` against every live indexed record, handing each match
    /// `(y, sim)` to `emit` in ascending record order. `skip` is the
    /// probing record's own slot, if it has one (only the exhaustive
    /// path can reach it: the filtered path probes before indexing).
    fn probe(
        &mut self,
        skip: Option<u32>,
        doc: &[u32],
        space_ok: impl Fn(u32) -> bool,
        emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        if self.threshold > 1.0 {
            // Jaccard never exceeds 1: nothing can match.
        } else if self.threshold <= 0.0 {
            self.exhaustive_probe(skip, doc, space_ok, emit, stats);
        } else {
            self.filtered_probe(doc, space_ok, emit, stats);
        }
    }

    /// The `threshold ≤ 0` degradation: every candidate pair is scored
    /// (mirrors the batch fallback to `all_pairs_scored` — a zero
    /// threshold keeps everything, so no filter can help).
    fn exhaustive_probe(
        &self,
        skip: Option<u32>,
        doc: &[u32],
        space_ok: impl Fn(u32) -> bool,
        mut emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        for y in 0..self.docs.len() as u32 {
            if Some(y) == skip || !self.alive[y as usize] || !space_ok(y) {
                continue;
            }
            stats.candidates += 1;
            stats.verified += 1;
            let sim = jaccard_ids(doc, &self.docs[y as usize]);
            if sim >= self.threshold {
                stats.results += 1;
                emit(y, sim);
            }
        }
    }

    /// The two-phase kernel for `0 < threshold ≤ 1` (see the module
    /// docs).
    fn filtered_probe(
        &mut self,
        doc: &[u32],
        space_ok: impl Fn(u32) -> bool,
        mut emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        if doc.is_empty() {
            return; // Jaccard with an empty set is 0 < threshold.
        }
        let t = self.threshold;
        let (min_ly, max_ly) = (min_match_len(doc.len(), t), max_match_len(doc.len(), t));
        let (postings, docs, sigs) = (&self.postings, &self.docs, &self.sigs);
        let sig = BandSignature::build(doc);
        let mut probe = self.scratch.start(doc, sig, t, docs.len(), |rank| {
            postings.get(&rank).map_or(0, |l| l.count as u64)
        });
        let level = probe.level();

        // Phase 1: bucket headers ascend in `len`, so the admissible
        // lengths form one contiguous window of buckets (clamped by the
        // position's truncation cutoff at level 1).
        for (i, rank) in probe.window().iter().enumerate() {
            let Some(list) = postings.get(rank) else {
                continue;
            };
            let max_len = if level == 1 {
                max_ly.min(probe.cut(i))
            } else {
                max_ly
            };
            let lo = list.buckets.partition_point(|b| (b.0 as usize) < min_ly);
            let hi = list.buckets.partition_point(|b| (b.0 as usize) <= max_len);
            let mut hits = probe.at(i);
            for (len, bucket) in &list.buckets[lo..hi.max(lo)] {
                for p in bucket {
                    if (p.tier as usize) < level {
                        hits.hit(p.record, *len as usize, p.pos);
                    }
                }
            }
        }

        // Phase 2, in ascending record order: the canonical enumeration,
        // independent of bucket order.
        probe.sort_candidates();
        for &y in probe.candidates() {
            let yi = y as usize;
            if let Some(sim) = probe.verify(y, &docs[yi], &sigs[yi], || space_ok(y), stats) {
                emit(y, sim);
            }
        }
    }

    /// Re-encode every record against the dictionary's current ranks and
    /// rebuild the postings — the epoch step after
    /// [`StreamingDict::rerank`]. `token_ids[r]` is record `r`'s stable
    /// token ids.
    pub fn rebuild(&mut self, dict: &StreamingDict, token_ids: &[Vec<u32>]) {
        debug_assert_eq!(token_ids.len(), self.docs.len());
        self.postings.clear();
        for (r, ids) in token_ids.iter().enumerate() {
            if !self.alive[r] {
                continue; // a deleted record holds no doc
            }
            let doc = &mut self.docs[r];
            doc.clear();
            doc.extend(ids.iter().map(|&id| dict.rank(id)));
            doc.sort_unstable();
            // Ranks shifted with the epoch, so the signature is rebuilt
            // from the fresh rank list.
            self.sigs[r] = BandSignature::build(doc);
            index_doc(&mut self.postings, self.threshold, r as u32, doc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_text::tokenize;
    use crowder_types::{PairSpace, SourceId};

    fn feed(names: &[&str], threshold: f64) -> (Vec<ScoredPair>, JoinStats) {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(threshold);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        for name in names {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        }
        (out, stats)
    }

    #[test]
    fn finds_matches_in_arrival_order() {
        let (out, stats) = feed(&["a b c d", "a b c d", "x y", "a b c e"], 0.5);
        let pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        assert_eq!(pairs, vec![Pair::of(0, 1), Pair::of(0, 3), Pair::of(1, 3)]);
        assert_eq!(stats.results, 3);
        assert_eq!(
            stats.candidates,
            stats.positional_pruned
                + stats.space_pruned
                + stats.signature_rejected
                + stats.suffix_pruned
                + stats.verified
        );
    }

    #[test]
    fn length_skip_never_enumerates_out_of_window_candidates() {
        // Probe "a b" (len 2) at t = 0.5: the length window is
        // [1, 4], so the len-8 record sharing token `a` must be
        // binary-search-skipped — not even counted as a candidate
        // (the old per-candidate length check counted it).
        let (out, stats) = feed(&["a b c d e f g h", "a b"], 0.5);
        assert!(out.is_empty());
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(stats.positional_pruned, 0);
    }

    #[test]
    fn shorter_arrival_still_matches_longer_indexed() {
        // The symmetric prefix must catch a probe *shorter* than the
        // indexed record — the case the batch engine never sees.
        let (out, _) = feed(&["a b c d e", "a b c d"], 0.8);
        assert_eq!(out.len(), 1);
        assert!((out[0].likelihood - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_threshold_scores_every_pair() {
        let (out, stats) = feed(&["a b", "c d", "e"], 0.0);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.verified, 3);
    }

    #[test]
    fn above_one_threshold_yields_nothing() {
        let (out, stats) = feed(&["a b", "a b"], 1.5);
        assert!(out.is_empty());
        assert_eq!(stats, JoinStats::default());
    }

    #[test]
    fn empty_records_never_match_at_positive_threshold() {
        let (out, _) = feed(&["", "---", "a", ""], 0.1);
        assert!(out.is_empty());
    }

    /// Feed helper returning the live state too.
    fn feed_state(names: &[&str], threshold: f64) -> (Dataset, StreamingDict, DeltaIndex) {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(threshold);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        for name in names {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        }
        (dataset, dict, index)
    }

    fn rank_doc(dict: &mut StreamingDict, name: &str) -> Vec<u32> {
        let ids = dict.encode_record(&tokenize(name));
        let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
        doc.sort_unstable();
        doc
    }

    #[test]
    fn probe_query_matches_what_an_arrival_would_surface() {
        let names = ["a b c d", "a b c e", "x y z", "a b"];
        let (_dataset, dict, mut index) = feed_state(&names, 0.5);
        // Query with record 0's exact content (as an outside query, not
        // an arrival): must match what arrival 0's own doc matches, over
        // the *current* corpus.
        let qdoc = dict.encode_query(&tokenize("a b c d"));
        let (mut matches, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&qdoc, |_| true, &mut matches, &mut stats);
        assert_eq!(
            matches,
            vec![
                (RecordId(0), 1.0), // identical
                (RecordId(1), 0.6), // 3 shared / 5 union
                (RecordId(3), 0.5), // 2 shared / 4 union
            ]
        );
        // Unknown query tokens lengthen the query exactly like an
        // arrival's fresh tokens would.
        let diluted = dict.encode_query(&tokenize("a b c d zz1 zz2 zz3 zz4 zz5"));
        let (mut none, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&diluted, |_| true, &mut none, &mut stats);
        assert!(
            none.is_empty(),
            "diluted to 4/9 < t against every record: {none:?}"
        );
        // The index is untouched: same query, same answer.
        let (mut again, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(&qdoc, |_| true, &mut again, &mut stats);
        assert_eq!(again, matches);
    }

    #[test]
    fn update_doc_rematches_under_the_same_id() {
        let (mut dataset, mut dict, mut index) =
            feed_state(&["a b c d", "x y z w", "a b c e"], 0.5);
        // Rewrite record 1 from {x y z w} to {a b c d}: it must now
        // match records 0 and 2, and stop matching nothing it used to.
        dataset
            .set_fields(RecordId(1), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        index.update_doc(&dataset, RecordId(1), doc, &mut out, &mut stats);
        let mut pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        pairs.sort();
        assert_eq!(pairs, vec![Pair::of(0, 1), Pair::of(1, 2)]);
        assert!(out.iter().any(|s| s.likelihood == 1.0), "{out:?}");
        // A later arrival sees the *new* tokens, not the stale ones.
        dataset
            .push_record(SourceId(0), vec!["x y z w".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "x y z w");
        let mut out2 = Vec::new();
        index.join_and_insert(&dataset, doc, &mut out2, &mut stats);
        assert!(out2.is_empty(), "stale postings must be stripped: {out2:?}");
    }

    #[test]
    fn update_doc_never_matches_itself() {
        // Re-probing an identical doc under an existing id must not
        // surface a self-pair (`Pair::new` would panic through the
        // probe's expect) on either the filtered or exhaustive path.
        for threshold in [0.0, 0.5] {
            let (dataset, mut dict, mut index) = feed_state(&["a b c d", "q r"], threshold);
            let doc = rank_doc(&mut dict, "a b c d");
            let mut out = Vec::new();
            let mut stats = JoinStats::default();
            index.update_doc(&dataset, RecordId(0), doc, &mut out, &mut stats);
            let expected = if threshold == 0.0 { 1 } else { 0 };
            assert_eq!(out.len(), expected, "threshold {threshold}: {out:?}");
        }
    }

    #[test]
    fn remove_strips_dead_postings_and_preserves_results() {
        let (mut dataset, mut dict, mut index) =
            feed_state(&["a b c d", "a b c d", "a b c e"], 0.5);
        index.remove(RecordId(0));
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc cleared");
        assert_live_only(&index);
        assert!(!index.doc(RecordId(1)).is_empty());
        // A new arrival still matches the live records, and only them.
        dataset
            .push_record(SourceId(0), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let (mut out, mut stats) = (Vec::new(), JoinStats::default());
        index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        let mut pairs: Vec<Pair> = out.iter().map(|s| s.pair).collect();
        pairs.sort();
        assert_eq!(pairs, vec![Pair::of(1, 3), Pair::of(2, 3)]);
    }

    #[test]
    fn from_docs_round_trips_probe_behavior() {
        let names = ["a b c d", "a b c e", "x y z", "a b c d e"];
        let (mut dataset, mut dict, mut index) = feed_state(&names, 0.4);
        index.remove(RecordId(2));
        // Export docs (dead ones empty) and rebuild.
        let docs: Vec<Vec<u32>> = (0..index.len())
            .map(|r| {
                if index.is_alive(RecordId(r as u32)) {
                    index.doc(RecordId(r as u32)).to_vec()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let alive: Vec<bool> = (0..index.len())
            .map(|r| index.is_alive(RecordId(r as u32)))
            .collect();
        let mut imported = DeltaIndex::from_docs(0.4, docs, alive).unwrap();
        assert_eq!(imported.live(), index.live());
        // Identical probes on both sides: bit-identical output.
        dataset
            .push_record(SourceId(0), vec!["a b c d".into()])
            .unwrap();
        let doc = rank_doc(&mut dict, "a b c d");
        let (mut out_a, mut stats_a) = (Vec::new(), JoinStats::default());
        let (mut out_b, mut stats_b) = (Vec::new(), JoinStats::default());
        index.join_and_insert(&dataset, doc.clone(), &mut out_a, &mut stats_a);
        imported.join_and_insert(&dataset, doc, &mut out_b, &mut stats_b);
        assert_eq!(out_a, out_b);
        assert_eq!(stats_a, stats_b);
        // Mismatched import lengths are rejected.
        assert!(DeltaIndex::from_docs(0.4, vec![vec![1]], vec![true, false]).is_err());
    }

    #[test]
    fn tombstoned_records_stop_matching() {
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(0.5);
        let mut out = Vec::new();
        let mut stats = JoinStats::default();
        let push = |dataset: &mut Dataset,
                    dict: &mut StreamingDict,
                    index: &mut DeltaIndex,
                    out: &mut Vec<ScoredPair>,
                    stats: &mut JoinStats,
                    name: &str| {
            dataset
                .push_record(SourceId(0), vec![name.to_string()])
                .unwrap();
            let ids = dict.encode_record(&tokenize(name));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            index.join_and_insert(dataset, doc, out, stats);
        };
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c d",
        );
        index.remove(RecordId(0));
        assert_eq!(index.live(), 0);
        assert!(!index.is_alive(RecordId(0)));
        // An identical arrival finds nothing: the only indexed record
        // is deleted (filtered probe path).
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c d",
        );
        assert!(out.is_empty(), "{out:?}");
        // The exhaustive path (threshold 0) also skips deleted records.
        let mut dataset0 = Dataset::new("z", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict0 = StreamingDict::new();
        let mut index0 = DeltaIndex::new(0.0);
        let mut out0 = Vec::new();
        let mut stats0 = JoinStats::default();
        push(
            &mut dataset0,
            &mut dict0,
            &mut index0,
            &mut out0,
            &mut stats0,
            "x y",
        );
        index0.remove(RecordId(0));
        push(
            &mut dataset0,
            &mut dict0,
            &mut index0,
            &mut out0,
            &mut stats0,
            "x y",
        );
        assert!(out0.is_empty());
        // The dead doc is gone at once and stays gone across a rebuild;
        // live records still match.
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc cleared");
        push(
            &mut dataset,
            &mut dict,
            &mut index,
            &mut out,
            &mut stats,
            "a b c e",
        );
        assert_eq!(out.len(), 1, "record 1 (live) matches record 2");
        dict.rerank();
        let token_ids: Vec<Vec<u32>> = (0..dataset.len())
            .map(|r| {
                let mut ids = dict.encode_record(&tokenize(&dataset.records()[r].joined_text()));
                // encode_record bumps dfs; acceptable in a test.
                ids.sort_unstable();
                ids
            })
            .collect();
        index.rebuild(&dict, &token_ids);
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc stays empty");
        assert!(!index.doc(RecordId(1)).is_empty());
        assert_live_only(&index);
    }

    /// The index holds only live records: no posting names a dead
    /// record, no dead record keeps a doc, and each list's count equals
    /// its number of postings (no list or bucket is left empty).
    fn assert_live_only(index: &DeltaIndex) {
        for (rank, list) in &index.postings {
            let mut postings = 0;
            for (len, bucket) in &list.buckets {
                assert!(!bucket.is_empty(), "rank {rank}: empty bucket {len}");
                for p in bucket {
                    assert!(
                        index.alive[p.record as usize],
                        "rank {rank}: dead {}",
                        p.record
                    );
                }
                postings += bucket.len();
            }
            assert!(postings > 0, "rank {rank}: empty list");
            assert_eq!(list.count as usize, postings, "rank {rank}: count");
        }
        for (r, doc) in index.docs.iter().enumerate() {
            assert!(
                index.alive[r] || doc.is_empty(),
                "dead record {r} keeps a doc"
            );
        }
    }

    #[test]
    fn postings_hold_only_live_records_through_a_mutation_script() {
        const WORDS: [&str; 10] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut roll = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut dataset = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        let mut dict = StreamingDict::new();
        let mut index = DeltaIndex::new(0.4);
        let mut token_ids: Vec<Vec<u32>> = Vec::new();
        let (mut out, mut stats) = (Vec::new(), JoinStats::default());
        for _ in 0..400 {
            let name: Vec<&str> = (0..1 + roll(6)).map(|_| WORDS[roll(WORDS.len())]).collect();
            let ids = dict.encode_record(&tokenize(&name.join(" ")));
            let mut doc: Vec<u32> = ids.iter().map(|&id| dict.rank(id)).collect();
            doc.sort_unstable();
            let alive: Vec<u32> = (0..index.len() as u32)
                .filter(|&r| index.is_alive(RecordId(r)))
                .collect();
            out.clear();
            match roll(10) {
                0..=4 => {
                    dataset
                        .push_record(SourceId(0), vec![name.join(" ")])
                        .unwrap();
                    token_ids.push(ids);
                    index.join_and_insert(&dataset, doc, &mut out, &mut stats);
                }
                5 | 6 if !alive.is_empty() => index.remove(RecordId(alive[roll(alive.len())])),
                7 | 8 if !alive.is_empty() => {
                    let record = RecordId(alive[roll(alive.len())]);
                    token_ids[record.index()] = ids;
                    index.update_doc(&dataset, record, doc, &mut out, &mut stats);
                }
                _ => {
                    dict.rerank();
                    index.rebuild(&dict, &token_ids);
                }
            }
            assert_live_only(&index);
            let live_pair = |p: Pair| index.is_alive(p.lo()) && index.is_alive(p.hi());
            assert!(out.iter().all(|sp| live_pair(sp.pair)), "{out:?}");
        }
        assert!(
            index.live() > 0 && index.live() < index.len(),
            "script exercised removes"
        );
    }
}
