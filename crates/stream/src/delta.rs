//! The insert-capable prefix-filter index and the per-arrival delta
//! join.
//!
//! The batch engine (`crowder-simjoin::prefix_join`) probes records in
//! ascending length order, so the probing side is always the longer one
//! and the index can hold the *shortened* PPJoin indexing prefix. A
//! stream has no such luxury: an arriving record may be shorter or
//! longer than anything indexed. [`DeltaIndex`] therefore indexes each
//! record's full **probe prefix** (`|y| − ⌈t·|y|⌉ + 1` rarest-ranked
//! tokens), and a probe decides per pair which windows it counts —
//! PPJoin's indexing-prefix lemma applied to whichever side is longer:
//!
//! - an indexed `y` no longer than the probe `x` counts only inside its
//!   shorter **indexing prefix** (`|y| − ⌈2t/(1+t)·|y|⌉ + 1` tokens),
//!   against `x`'s whole probe window;
//! - a longer `y` counts inside its probe prefix, but only from `x`'s
//!   indexing prefix: past it, the probe's length window is clamped to
//!   `|x|`.
//!
//! Any pair with Jaccard ≥ t shares a token between the two windows
//! (at count-filter level `l`, both extended by `l − 1`, it shares `l`;
//! see `crowder_simjoin::filters`). The windows are prefixes, so the
//! pair's first shared token lies inside both.
//!
//! ## The probe: one index per join side, the shared kernel
//!
//! The index is split by join side
//! ([`PairSpace::sides`](crowder_types::PairSpace::sides)), as the batch
//! join's is: each record slot keeps its `(indexed, probed)` sides, is
//! indexed under its own side and probes only its partner side's
//! postings. A self-join has one side; a cross-source join (Product's
//! Abt–Buy) indexes each source under its own side, so no intra-source
//! pair is ever enumerated, and a record whose source lies outside the
//! pair space is neither indexed nor probed. Every candidate is
//! therefore inside the pair space. Sides are a function of the
//! dataset's sources, so they are derived again on import, never
//! stored in a snapshot.
//!
//! A probe runs the two-phase kernel of `crowder_simjoin::filters`
//! (`ProbeScratch` / `Probe`) — the same code the batch join runs, so a
//! filter change lands once for both engines. This module keeps only
//! what is stream-specific: the length-sorted, sided postings of the
//! live records, and phase 1, which walks them.
//!
//! 1. **Hit collection.** One loop over the probe window, in ascending
//!    probe position, feeds every posting inside both windows and the
//!    length window to `Hits::hit`. The kernel keeps each
//!    candidate's first hit `(i, j)` — the pair's first shared prefix
//!    token: both token lists ascend in the same global rank order (see
//!    `StreamingDict`), so any smaller shared token would occupy smaller
//!    `i` and `j` in both — and its hit count.
//! 2. **Filter + verify.** Candidates, in first-hit order, go through
//!    `Probe::verify`: the count filter, then the positional filter,
//!    band-signature check, suffix filter, and resume-merge
//!    verification at `(i+1, j+1)` with overlap exactly 1 at `(i, j)`.
//!    The matches alone — under one per probe on the benchmark corpora,
//!    against hundreds of candidates — are then sorted by record id and
//!    emitted.
//!
//! ## Length-sorted postings — the binary-searched length skip
//!
//! Each (side, rank) list is **one vector of postings ordered by record
//! length**, each posting carrying its record's length. An insert goes
//! after the last posting of its length (`partition_point(len ≤ l)`),
//! so postings of one length sit in arrival order; a removal searches
//! only its own length run. Phase 1 binary-searches the list down to
//! the window `⌈t·|x|⌉ ≤ |y| ≤ ⌊|x|/t⌋` and scans that one contiguous
//! slice, so records outside it are *never enumerated* — the batch
//! engine's binary-searched length skip. Length-skipped records never
//! count as `candidates`, matching the batch funnel's accounting.
//!
//! Order within a length run is deliberately *immaterial*: phase 1
//! visits probe positions in ascending order, so a candidate's first hit
//! is its minimal-`i` hit whatever the run order, every funnel bucket is
//! a sum, and phase 2 sorts the matches by id, so probe output is a
//! pure function of the corpus no matter what mutation history (or
//! rebuild) populated the lists.
//! Candidate enumeration — and therefore every downstream
//! order-sensitive structure, e.g. cluster merge sequences — is
//! reproducible across restarts; crash recovery depends on this.
//!
//! ## The adaptive count-filter tier, truncation, and band signatures
//!
//! The index stores each record's **extended** probe window
//! (`extended_prefix_len`). A probe picks a per-record count-filter
//! `level` (`adaptive_level`) from the posting mass of its partner side
//! under its base prefix (the list lengths — exact, so the estimate is
//! invariant under mutation history and rebuilds): on hot prefixes it
//! extends the window and demands `level` shared window tokens per the
//! generalized prefix lemma (see `crowder_simjoin::filters`). Every
//! window above grows by `level − 1`, so a level-1 probe sees exactly
//! the classic asymmetric windows. Whether a posting lies inside its
//! record's window follows from its position and length, so phase 1
//! works out one position limit per length run.
//!
//! Two more pre-candidate kills ride the same scan, both order
//! insensitive:
//!
//! - **Last-token truncation**: from probe position `i`, a first hit on
//!   a record longer than `positional_len_cutoff(lx, i, t)` can never
//!   pass the positional filter, and the cutoff only tightens with `i`.
//!   At level 1 the cutoff clamps the length window per position
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
//! difference) between the positional and suffix filters, tallied as
//! `signature_rejected`.
//!
//! Degenerate thresholds mirror the batch engine so the cumulative
//! output stays bit-identical: `threshold ≤ 0` compares the arrival
//! against every indexed record of its partner side exhaustively (no
//! filter can help at a zero threshold), and `threshold > 1` yields
//! nothing.

use crowder_simjoin::filters::{
    extended_prefix_len, index_prefix_len, max_match_len, min_match_len, prefix_len, BandSignature,
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
        signature_rejected: after.signature_rejected - before.signature_rejected,
        suffix_pruned: after.suffix_pruned - before.suffix_pruned,
        verified: after.verified - before.verified,
        results: after.results - before.results,
    });
}

/// One index entry: the record holding the token, the record's length
/// (the sort key of the list), and the token's position in that
/// record's rank-sorted list. A probe of `lx` tokens at count-filter
/// level `l` admits only positions below `index_prefix_len(len) + l − 1`
/// when `len ≤ lx`, and below `prefix_len(len) + l − 1` otherwise.
#[derive(Debug, Clone, Copy)]
struct Posting {
    record: u32,
    len: u32,
    pos: u32,
}

/// One (side, rank) list: a single posting vector ascending in record
/// length, postings of one length in the order they were indexed. The
/// length window of a probe is one contiguous slice, found by two
/// binary searches.
///
/// Order within a length run is **immaterial** to every observable (see
/// the module docs), so a rebuilt index (runs refilled in record order)
/// enumerates differently but resolves identically. Every posting is a
/// live record's, so the list length — the adaptive level's posting
/// mass — is a pure function of the corpus.
#[derive(Debug, Clone, Default)]
struct PostingList(Vec<Posting>);

impl PostingList {
    /// Insert `posting` after every posting of length `≤ posting.len`.
    fn insert(&mut self, posting: Posting) {
        let at = self.0.partition_point(|p| p.len <= posting.len);
        self.0.insert(at, posting);
    }

    /// Drop `record`'s posting, searching only the `len` run.
    fn remove(&mut self, len: u32, record: u32) {
        let lo = self.0.partition_point(|p| p.len < len);
        let hi = lo + self.0[lo..].partition_point(|p| p.len == len);
        if let Some(k) = self.0[lo..hi].iter().position(|p| p.record == record) {
            self.0.remove(lo + k);
        }
    }

    /// The postings of records with `min_len ≤ len ≤ max_len`.
    fn within(&self, min_len: usize, max_len: usize) -> &[Posting] {
        let lo = self.0.partition_point(|p| (p.len as usize) < min_len);
        let hi = self.0.partition_point(|p| (p.len as usize) <= max_len);
        &self.0[lo..hi.max(lo)]
    }
}

/// `rank → postings` of one join side. Keyed by *rank* (the join's sort
/// key), which is stable between dictionary epochs; `rebuild` re-keys
/// everything.
type SidePostings = HashMap<u32, PostingList>;

/// A record's join sides `(indexed, probed)` (see
/// [`PairSpace::sides`](crowder_types::PairSpace::sides)), or `None`
/// if no candidate pair involves its source.
type Sides = Option<(u8, u8)>;

fn sides_of(dataset: &Dataset, record: usize) -> Sides {
    let (indexed, probed) = dataset.pair_space.sides(dataset.records()[record].source)?;
    Some((indexed as u8, probed as u8))
}

/// The tokens of `doc` the index holds: its **extended** probe window,
/// or nothing outside the filtered threshold range `(0, 1]`.
fn indexed_window(doc: &[u32], threshold: f64) -> &[u32] {
    if doc.is_empty() || threshold <= 0.0 || threshold > 1.0 {
        return &[];
    }
    &doc[..extended_prefix_len(prefix_len(doc.len(), threshold), doc.len())]
}

/// The postings of `record`'s [`indexed_window`], each handed to
/// `add` with its rank.
fn doc_postings(threshold: f64, record: u32, doc: &[u32], mut add: impl FnMut(u32, Posting)) {
    let len = doc.len() as u32;
    for (pos, &rank) in indexed_window(doc, threshold).iter().enumerate() {
        let pos = pos as u32;
        add(rank, Posting { record, len, pos });
    }
}

/// Mutable prefix-filter index over an appendable corpus. A removed
/// record keeps its slot (record ids stay dense in arrival order) but
/// loses its postings, doc and signature at once, so the postings only
/// ever name live records.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    threshold: f64,
    /// One posting map per join side (side 1 stays empty in a
    /// self-join).
    postings: [SidePostings; 2],
    /// Per-record join sides, derived from the record's source.
    sides: Vec<Sides>,
    /// Per-record token lists, as ranks sorted ascending.
    docs: Vec<Vec<u32>>,
    /// Per-record 256-bit band signatures over the rank lists —
    /// recomputed wherever `docs` changes (push, update, rebuild):
    /// ranks shift between dictionary epochs, so signatures are
    /// epoch-local just like the docs they summarize.
    sigs: Vec<BandSignature>,
    /// Scratch of the shared probe kernel.
    scratch: ProbeScratch,
    /// One probe's matches `(record, similarity)`, reused across probes.
    matches: Vec<(u32, f64)>,
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
            postings: Default::default(),
            sides: Vec::new(),
            docs: Vec::new(),
            sigs: Vec::new(),
            scratch: ProbeScratch::new(),
            matches: Vec::new(),
            alive: Vec::new(),
            live: 0,
        }
    }

    /// Rebuild an index over `dataset`'s records from exported
    /// per-record rank lists (empty for deleted records) plus liveness
    /// flags — the snapshot-import constructor. Each record's sides are
    /// derived from its source; lists fill in record order, and probe
    /// output does not depend on the order within a length run (see the
    /// module docs), so a recovered index resolves exactly like the
    /// index it was exported from. A deleted record with a non-empty
    /// list is rejected.
    pub fn from_docs(
        dataset: &Dataset,
        threshold: f64,
        docs: Vec<Vec<u32>>,
        alive: Vec<bool>,
    ) -> crowder_types::Result<Self> {
        if docs.len() != alive.len() || docs.len() != dataset.len() {
            return Err(Error::InvalidData(format!(
                "index import: {} docs and {} liveness flags for {} records",
                docs.len(),
                alive.len(),
                dataset.len()
            )));
        }
        if let Some(r) = (0..docs.len()).find(|&r| !alive[r] && !docs[r].is_empty()) {
            return Err(Error::InvalidData(format!(
                "index import: deleted record {r} has tokens"
            )));
        }
        let mut index = DeltaIndex {
            live: alive.iter().filter(|&&a| a).count(),
            sides: (0..docs.len()).map(|r| sides_of(dataset, r)).collect(),
            sigs: docs.iter().map(|d| BandSignature::build(d)).collect(),
            docs,
            alive,
            ..Self::new(threshold)
        };
        index.index_all();
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

    /// Index `slot`'s doc under its own side (nothing for a record
    /// outside the pair space).
    fn index(&mut self, slot: usize) {
        if let Some((side, _)) = self.sides[slot] {
            let postings = &mut self.postings[side as usize];
            doc_postings(self.threshold, slot as u32, &self.docs[slot], |rank, p| {
                postings.entry(rank).or_default().insert(p)
            });
        }
    }

    /// Index every live record from scratch, in record order: each list
    /// is filled by appends, then stably sorted by length, which leaves
    /// each length run in record order — what inserting one record
    /// after another would give, without the memmoves.
    fn index_all(&mut self) {
        for side in &mut self.postings {
            side.clear();
        }
        for (slot, doc) in self.docs.iter().enumerate() {
            if let Some((side, _)) = self.sides[slot] {
                let postings = &mut self.postings[side as usize];
                doc_postings(self.threshold, slot as u32, doc, |rank, p| {
                    postings.entry(rank).or_default().0.push(p)
                });
            }
        }
        for list in self.postings.iter_mut().flat_map(|side| side.values_mut()) {
            list.0.sort_by_key(|p| p.len);
        }
    }

    /// Strip the postings of `slot`'s current doc, dropping lists that
    /// empty.
    fn unindex(&mut self, slot: usize) {
        let Some((side, _)) = self.sides[slot] else {
            return;
        };
        let postings = &mut self.postings[side as usize];
        let len = self.docs[slot].len() as u32;
        for rank in indexed_window(&self.docs[slot], self.threshold) {
            if let Some(list) = postings.get_mut(rank) {
                list.remove(len, slot as u32);
                if list.0.is_empty() {
                    postings.remove(rank);
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
    /// everything indexed on its partner side, then index it under its
    /// own side. The record's id must be `self.len()` — records arrive
    /// densely — and must already be pushed into `dataset` (its source
    /// picks its sides). New pairs are appended to `out` in ascending
    /// candidate order; filter decisions are tallied into `stats` with
    /// the same bucket semantics as the batch funnel.
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
        let sides = sides_of(dataset, x.index());
        if let Some((_, probed)) = sides {
            self.probe(
                Some(x.0),
                probed,
                &doc,
                |y, sim| {
                    let pair = Pair::new(x, RecordId(y)).expect("probe never yields x");
                    debug_assert!(dataset.is_candidate(&pair), "{pair:?} outside the space");
                    out.push(ScoredPair::new(pair, sim));
                },
                stats,
            );
        }
        self.sides.push(sides);
        self.sigs.push(BandSignature::build(&doc));
        self.docs.push(doc);
        self.alive.push(true);
        self.live += 1;
        self.index(x.index());
        publish_probe_delta(&before, stats);
    }

    /// Probe a record that is **not** part of the corpus — the
    /// read-only query half of a `query()` call. `doc` must be the
    /// rank-sorted encoding of the query's token set (see
    /// `StreamingDict::encode_query`), `probed` the side the query's
    /// source probes ([`PairSpace::sides`](crowder_types::PairSpace::sides)).
    /// Matches are appended to `out` in ascending record order with
    /// their exact Jaccard similarity — bit-for-bit what
    /// [`DeltaIndex::join_and_insert`] would have surfaced had the
    /// record arrived — and nothing is indexed or mutated besides probe
    /// scratch. The funnel of the probe is tallied into `stats` but
    /// *not* published to the shared `simjoin.funnel.*` counters:
    /// queries are not part of the machine pass.
    pub fn probe_query(
        &mut self,
        probed: usize,
        doc: &[u32],
        out: &mut Vec<(RecordId, f64)>,
        stats: &mut JoinStats,
    ) {
        let _timer = crowder_obs::span_light!("stream.delta.query_probe_ns");
        self.probe(
            None,
            probed as u8,
            doc,
            |y, sim| out.push((RecordId(y), sim)),
            stats,
        );
    }

    /// Replace the token list of an existing *live* record in place —
    /// the index half of an atomic correction. The record's stale
    /// prefix postings are stripped first (it must not match its own
    /// old tokens), the new doc is probed against every other live
    /// record of its partner side exactly like an arrival (same funnel
    /// buckets, appended to `out`), and its new prefix is re-indexed.
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
        if let Some((_, probed)) = self.sides[slot] {
            self.probe(
                Some(record.0),
                probed,
                &doc,
                |y, sim| {
                    let pair =
                        Pair::new(record, RecordId(y)).expect("probe never yields the record");
                    debug_assert!(dataset.is_candidate(&pair), "{pair:?} outside the space");
                    out.push(ScoredPair::new(pair, sim));
                },
                stats,
            );
        }
        self.sigs[slot] = BandSignature::build(&doc);
        self.docs[slot] = doc;
        self.index(slot);
        publish_probe_delta(&before, stats);
    }

    /// Probe `doc` against every live record indexed under side
    /// `probed`, handing each match `(y, sim)` to `emit` in ascending
    /// record order. `skip` is the probing record's own slot, if it has
    /// one (only the exhaustive path can reach it: the filtered path
    /// probes before indexing).
    fn probe(
        &mut self,
        skip: Option<u32>,
        probed: u8,
        doc: &[u32],
        emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        if self.threshold > 1.0 {
            // Jaccard never exceeds 1: nothing can match.
        } else if self.threshold <= 0.0 {
            self.exhaustive_probe(skip, probed, doc, emit, stats);
        } else {
            self.filtered_probe(probed, doc, emit, stats);
        }
    }

    /// The `threshold ≤ 0` degradation: every candidate pair is scored
    /// (mirrors the batch fallback to `all_pairs_scored` — a zero
    /// threshold keeps everything, so no filter can help). A record `y`
    /// is a candidate iff it is live and indexed under side `probed`.
    fn exhaustive_probe(
        &self,
        skip: Option<u32>,
        probed: u8,
        doc: &[u32],
        mut emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        for y in 0..self.docs.len() as u32 {
            let on_side = self.sides[y as usize].is_some_and(|(side, _)| side == probed);
            if Some(y) == skip || !self.alive[y as usize] || !on_side {
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

    /// The two-phase kernel for `0 < threshold ≤ 1` over side `probed`
    /// (see the module docs).
    fn filtered_probe(
        &mut self,
        probed: u8,
        doc: &[u32],
        mut emit: impl FnMut(u32, f64),
        stats: &mut JoinStats,
    ) {
        if doc.is_empty() {
            return; // Jaccard with an empty set is 0 < threshold.
        }
        let (t, lx) = (self.threshold, doc.len());
        let (min_ly, max_ly) = (min_match_len(lx, t), max_match_len(lx, t));
        let (postings, docs, sigs) = (&self.postings[probed as usize], &self.docs, &self.sigs);
        let sig = BandSignature::build(doc);
        let mut probe = self.scratch.start(doc, sig, t, docs.len(), |rank| {
            postings.get(&rank).map_or(0, |l| l.0.len() as u64)
        });
        let level = probe.level();
        // Records longer than the probe are reached only from its
        // indexing window.
        let longer_reach = index_prefix_len(lx, t) + level - 1;

        // Phase 1: each list ascends in `len`, so the admissible
        // lengths form one contiguous slice (clamped to `lx` past the
        // indexing window, and by the position's truncation cutoff at
        // level 1).
        for (i, rank) in probe.window().iter().enumerate() {
            let Some(list) = postings.get(rank) else {
                continue;
            };
            let mut max_len = if i < longer_reach { max_ly } else { lx };
            if level == 1 {
                max_len = max_len.min(probe.cut(i));
            }
            let mut hits = probe.at(i);
            // A record no longer than the probe counts hits inside its
            // indexing window, a longer one inside its probe window,
            // each extended by `level − 1`: one limit per length run.
            let (mut run_len, mut pos_limit) = (0, 0);
            for p in list.within(min_ly, max_len) {
                if p.len != run_len {
                    run_len = p.len;
                    let ly = run_len as usize;
                    let base = if ly <= lx {
                        index_prefix_len(ly, t)
                    } else {
                        prefix_len(ly, t)
                    };
                    pos_limit = (base + level - 1) as u32;
                }
                if p.pos < pos_limit {
                    hits.hit(p.record, p.len as usize, p.pos);
                }
            }
        }

        // Phase 2 in first-hit order; only the matches are sorted, so
        // the output ascends in record id whatever the order within
        // length runs, and every funnel bucket is an order-free sum.
        let matches = &mut self.matches;
        matches.clear();
        for &y in probe.candidates() {
            let yi = y as usize;
            if let Some(sim) = probe.verify(y, &docs[yi], &sigs[yi], stats) {
                matches.push((y, sim));
            }
        }
        matches.sort_unstable_by_key(|&(y, _)| y);
        for &(y, sim) in matches.iter() {
            emit(y, sim);
        }
    }

    /// Re-encode every record against the dictionary's current ranks and
    /// rebuild the postings — the epoch step after
    /// [`StreamingDict::rerank`]. `token_ids[r]` is record `r`'s stable
    /// token ids.
    pub fn rebuild(&mut self, dict: &StreamingDict, token_ids: &[Vec<u32>]) {
        debug_assert_eq!(token_ids.len(), self.docs.len());
        for (r, ids) in token_ids.iter().enumerate() {
            if !self.alive[r] {
                continue; // a deleted record holds no doc
            }
            self.docs[r] = dict.sorted_ranks(ids);
            // Ranks shifted with the epoch, so the signature is rebuilt
            // from the fresh rank list.
            self.sigs[r] = BandSignature::build(&self.docs[r]);
        }
        self.index_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let ids = dict.encode_record([*name]);
            let doc = dict.sorted_ranks(&ids);
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
            let ids = dict.encode_record([*name]);
            let doc = dict.sorted_ranks(&ids);
            index.join_and_insert(&dataset, doc, &mut out, &mut stats);
        }
        (dataset, dict, index)
    }

    fn rank_doc(dict: &mut StreamingDict, name: &str) -> Vec<u32> {
        let ids = dict.encode_record([name]);
        dict.sorted_ranks(&ids)
    }

    #[test]
    fn probe_query_matches_what_an_arrival_would_surface() {
        let names = ["a b c d", "a b c e", "x y z", "a b"];
        let (_dataset, mut dict, mut index) = feed_state(&names, 0.5);
        // Query with record 0's exact content (as an outside query, not
        // an arrival): must match what arrival 0's own doc matches, over
        // the *current* corpus.
        let qdoc = dict.encode_query(["a b c d"]);
        let (mut matches, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(0, &qdoc, &mut matches, &mut stats);
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
        let diluted = dict.encode_query(["a b c d zz1 zz2 zz3 zz4 zz5"]);
        let (mut none, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(0, &diluted, &mut none, &mut stats);
        assert!(
            none.is_empty(),
            "diluted to 4/9 < t against every record: {none:?}"
        );
        // The index is untouched: same query, same answer.
        let (mut again, mut stats) = (Vec::new(), JoinStats::default());
        index.probe_query(0, &qdoc, &mut again, &mut stats);
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
        let mut imported = DeltaIndex::from_docs(&dataset, 0.4, docs, alive).unwrap();
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
        assert!(DeltaIndex::from_docs(&dataset, 0.4, vec![vec![1]], vec![true, false]).is_err());
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
            let ids = dict.encode_record([name]);
            let doc = dict.sorted_ranks(&ids);
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
                // encode_record bumps dfs; acceptable in a test.
                dict.encode_record(dataset.records()[r].fields.iter().map(String::as_str))
            })
            .collect();
        index.rebuild(&dict, &token_ids);
        assert!(index.doc(RecordId(0)).is_empty(), "dead doc stays empty");
        assert!(!index.doc(RecordId(1)).is_empty());
        assert_live_only(&index);
    }

    /// The index holds only live records, each on its own side: every
    /// posting names a live record indexed under the posting's side,
    /// with that record's length and the rank at its position; every
    /// list is non-empty and ascends in length; each side holds exactly
    /// the indexed windows of its live records (so a record outside the
    /// pair space holds no postings); and no dead record keeps a doc.
    fn assert_live_only(index: &DeltaIndex) {
        for (side, postings) in index.postings.iter().enumerate() {
            let mut held = 0;
            for (rank, list) in postings {
                assert!(!list.0.is_empty(), "side {side} rank {rank}: empty list");
                assert!(
                    list.0.windows(2).all(|w| w[0].len <= w[1].len),
                    "side {side} rank {rank}: lengths not ascending"
                );
                for p in &list.0 {
                    let r = p.record as usize;
                    assert!(index.alive[r], "side {side} rank {rank}: dead {r}");
                    assert_eq!(index.sides[r].map(|s| s.0 as usize), Some(side), "{r}");
                    assert_eq!(p.len as usize, index.docs[r].len(), "{r}: stale length");
                    assert_eq!(index.docs[r][p.pos as usize], *rank, "{r}: stale position");
                }
                held += list.0.len();
            }
            let expected: usize = (0..index.len())
                .filter(|&r| index.sides[r].is_some_and(|s| s.0 as usize == side))
                .map(|r| indexed_window(&index.docs[r], index.threshold).len())
                .sum();
            assert_eq!(held, expected, "side {side}: postings vs indexed windows");
        }
        for (r, doc) in index.docs.iter().enumerate() {
            assert!(
                index.alive[r] || doc.is_empty(),
                "dead record {r} keeps a doc"
            );
        }
    }

    #[test]
    fn postings_keep_lengths_and_positions_past_sixteen_bits() {
        // At t = 0.05 a 70,001-token record indexes 66,501 prefix
        // tokens, so both its length and its last positions overflow
        // 16 bits; `assert_live_only` checks every posting's length and
        // the rank at its position, and a copy still matches.
        let giant = (0..=70_000)
            .map(|i| format!("t{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let (dataset, _dict, index) = feed_state(&["t1 t2", &giant, &giant], 0.05);
        assert_live_only(&index);
        let longest = index.postings[0].values().flat_map(|l| &l.0);
        assert!(longest.map(|p| p.pos).max() > Some(u16::MAX as u32));
        assert_eq!(dataset.len(), 3);
        let (out, _) = feed(&[&giant, &giant], 0.05);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].likelihood, 1.0);
    }

    #[test]
    fn postings_hold_only_live_records_through_a_mutation_script() {
        const WORDS: [&str; 10] = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        let spaces = [
            PairSpace::SelfJoin,
            PairSpace::CrossSource(SourceId(0), SourceId(1)),
            PairSpace::CrossSource(SourceId(1), SourceId(0)),
            PairSpace::CrossSource(SourceId(0), SourceId(0)),
        ];
        for space in spaces {
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut roll = |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            // Records from three sources, so every space has a source
            // outside it or an intra-source pair to keep out.
            let mut dataset = Dataset::new("t", vec!["name".into()], space);
            let mut dict = StreamingDict::new();
            let mut index = DeltaIndex::new(0.4);
            let mut token_ids: Vec<Vec<u32>> = Vec::new();
            let (mut out, mut stats) = (Vec::new(), JoinStats::default());
            for _ in 0..400 {
                let name: Vec<&str> = (0..1 + roll(6)).map(|_| WORDS[roll(WORDS.len())]).collect();
                let ids = dict.encode_record(name.iter().copied());
                let doc = dict.sorted_ranks(&ids);
                let alive: Vec<u32> = (0..index.len() as u32)
                    .filter(|&r| index.is_alive(RecordId(r)))
                    .collect();
                out.clear();
                match roll(10) {
                    0..=4 => {
                        let source = SourceId(roll(3) as u8);
                        dataset.push_record(source, vec![name.join(" ")]).unwrap();
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
                assert!(
                    out.iter().all(|sp| dataset.is_candidate(&sp.pair)),
                    "{space:?}: {out:?}"
                );
            }
            assert!(
                index.live() > 0 && index.live() < index.len(),
                "script exercised removes"
            );
            assert!(stats.results > 0, "{space:?}: script joined nothing");
        }
    }

    /// Every live record on side `probed` (other than `skip`) whose
    /// Jaccard similarity with `doc` reaches `t`, ascending: the
    /// brute-force oracle of one probe.
    fn brute_matches(index: &DeltaIndex, probed: u8, skip: u32, doc: &[u32]) -> Vec<(u32, f64)> {
        (0..index.len() as u32)
            .filter(|&y| y != skip && index.alive[y as usize])
            .filter(|&y| index.sides[y as usize].is_some_and(|s| s.0 == probed))
            .map(|y| (y, jaccard_ids(doc, &index.docs[y as usize])))
            .filter(|&(_, sim)| !doc.is_empty() && sim >= index.threshold)
            .collect()
    }

    /// The count-filter level a probe of `doc` on side `probed` picks,
    /// worked out the way `ProbeScratch::start` does.
    fn level_of(index: &DeltaIndex, probed: u8, doc: &[u32]) -> usize {
        let t = index.threshold;
        crowder_simjoin::filters::adaptive_level(doc, prefix_len(doc.len(), t), t, |rank| {
            index.postings[probed as usize]
                .get(&rank)
                .map_or(0, |l| l.0.len() as u64)
        })
    }

    /// The asymmetric windows at count-filter levels 2 and 3: a corpus
    /// on a small, skewed vocabulary gives hot posting lists, so probes
    /// extend their windows. Arrivals come in ascending-length,
    /// descending-length and alternating order, with updates that
    /// lengthen or shorten a record, removes and re-ranks between them.
    /// Every insert and update equals the brute-force oracle, and a
    /// query equals what the insert then surfaces.
    #[test]
    fn asymmetric_windows_stay_exact_at_count_filter_levels_two_and_three() {
        const WORDS: [&str; 20] = [
            "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q",
            "r", "s", "t",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut roll = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for (space, order) in [
            (PairSpace::SelfJoin, "ascending"),
            (PairSpace::SelfJoin, "descending"),
            (PairSpace::SelfJoin, "alternating"),
            (
                PairSpace::CrossSource(SourceId(0), SourceId(1)),
                "alternating",
            ),
        ] {
            // Skewed draws: low word indexes are frequent.
            let mut names: Vec<Vec<&str>> = (0..360)
                .map(|_| {
                    let mut words: Vec<&str> = (0..3 + roll(10))
                        .map(|_| {
                            let hot = 1 + roll(WORDS.len());
                            WORDS[roll(hot)]
                        })
                        .collect();
                    words.sort_unstable();
                    words.dedup();
                    words
                })
                .collect();
            names.sort_by_key(|w| w.len());
            match order {
                "descending" => names.reverse(),
                "alternating" => {
                    let (short, long) = names.split_at(names.len() / 2);
                    names = short
                        .iter()
                        .zip(long.iter().rev())
                        .flat_map(|(s, l)| [s.clone(), l.clone()])
                        .collect();
                }
                _ => {}
            }
            let threshold = 0.4;
            let mut dataset = Dataset::new("t", vec!["name".into()], space);
            let mut dict = StreamingDict::new();
            let mut index = DeltaIndex::new(threshold);
            let mut token_ids: Vec<Vec<u32>> = Vec::new();
            let mut current: Vec<Vec<&str>> = Vec::new();
            let mut levels = [0usize; 4];
            let mut results = 0;
            for (k, words) in names.iter().enumerate() {
                let source = SourceId((k % 2) as u8);
                let ids = dict.encode_record(words.iter().copied());
                let doc = dict.sorted_ranks(&ids);
                dataset.push_record(source, vec![words.join(" ")]).unwrap();
                let (_, probed) = sides_of(&dataset, k).expect("both sources join");
                levels[level_of(&index, probed, &doc)] += 1;
                let (mut queried, mut stats) = (Vec::new(), JoinStats::default());
                index.probe_query(probed as usize, &doc, &mut queried, &mut stats);
                token_ids.push(ids);
                current.push(words.clone());
                let x = k as u32;
                let expected = brute_matches(&index, probed, x, &doc);
                let mut out = Vec::new();
                index.join_and_insert(&dataset, doc, &mut out, &mut stats);
                let got: Vec<(u32, f64)> = out
                    .iter()
                    .map(|sp| (sp.pair.lo().0, sp.likelihood))
                    .collect();
                assert_eq!(got, expected, "{space:?} {order}: insert {k}");
                let queried: Vec<(u32, f64)> = queried.iter().map(|&(y, s)| (y.0, s)).collect();
                assert_eq!(queried, expected, "{space:?} {order}: query {k}");
                results += got.len();

                // Every fifth arrival, lengthen or shorten a live record.
                if k % 5 == 4 {
                    let live: Vec<u32> = (0..index.len() as u32)
                        .filter(|&r| index.is_alive(RecordId(r)))
                        .collect();
                    let record = live[roll(live.len())];
                    let old = &current[record as usize];
                    let new: Vec<&str> = if roll(2) == 0 {
                        old.iter()
                            .copied()
                            .chain((0..4).map(|_| WORDS[roll(20)]))
                            .collect()
                    } else {
                        old[..old.len().div_ceil(2)].to_vec()
                    };
                    let ids = dict.encode_record(new.iter().copied());
                    let doc = dict.sorted_ranks(&ids);
                    let (_, probed) = index.sides[record as usize].unwrap();
                    levels[level_of(&index, probed, &doc)] += 1;
                    dataset
                        .set_fields(RecordId(record), vec![new.join(" ")])
                        .unwrap();
                    token_ids[record as usize] = ids;
                    current[record as usize] = new;
                    let mut out = Vec::new();
                    // The oracle sees the corpus without the record's old
                    // doc, as `update_doc` probes it.
                    let expected = brute_matches(&index, probed, record, &doc);
                    index.update_doc(&dataset, RecordId(record), doc, &mut out, &mut stats);
                    let got: Vec<(u32, f64)> = out
                        .iter()
                        .map(|sp| (sp.pair.other(RecordId(record)).unwrap().0, sp.likelihood))
                        .collect();
                    assert_eq!(got, expected, "{space:?} {order}: update of {record}");
                }
                if k % 37 == 36 {
                    let live: Vec<u32> = (0..index.len() as u32)
                        .filter(|&r| index.is_alive(RecordId(r)))
                        .collect();
                    index.remove(RecordId(live[roll(live.len())]));
                }
                if k % 97 == 96 {
                    dict.rerank();
                    index.rebuild(&dict, &token_ids);
                }
            }
            assert_live_only(&index);
            assert!(results > 0, "{space:?} {order}: joined nothing");
            assert!(
                levels[2] > 0 && levels[3] > 0,
                "{space:?} {order}: levels {levels:?} miss level 2 or 3"
            );
        }
    }
}
