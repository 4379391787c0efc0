//! The incremental resolver: a fully-mutable ER corpus whose pair set,
//! clustering, and HIT set are maintained under record arrivals,
//! record *deletions*, and revocable crowd evidence.
//!
//! ## The mutation API
//!
//! * [`IncrementalResolver::insert`] — append a record: delta-join it
//!   against the live corpus, thread new match edges into the dynamic
//!   cluster graph, mark touched clusters dirty.
//! * [`IncrementalResolver::remove`] — tombstone a record (GDPR-style
//!   deletion): its slot stays but its index postings are stripped, every pair
//!   touching it is dropped from the pair set, its evidence is purged,
//!   and each of its cluster edges is cut — clusters *shrink or split*
//!   and are marked dirty so the next flush re-checks their HITs.
//! * [`IncrementalResolver::retract`] — forget all crowd evidence for
//!   one pair. If the evidence was what committed the edge, the edge
//!   decommits and the clustering reverts to its pre-edge shape.
//! * [`IncrementalResolver::record_evidence`] — one signed, weighted
//!   crowd vote (see [`EvidenceLedger`]). Votes can commit an edge
//!   (possibly merging clusters), decommit it again (possibly
//!   splitting), or veto a machine edge outright.
//!
//! ## Edge state
//!
//! A pair's edge is **active** in the cluster graph iff
//!
//! ```text
//! (machine-surfaced ∧ ¬vetoed) ∨ crowd-committed
//! ```
//!
//! where *vetoed* and *crowd-committed* are threshold predicates over
//! the signed vote tally ([`EvidenceConfig`]). The same pair is
//! **listed** for HIT generation iff it is machine-surfaced, both
//! records are alive, and it is neither vetoed nor committed — the
//! crowd has answered those, so republishing them would only re-ask.
//! A decommit re-lists the pair for re-verification. Every listed pair
//! has an active edge, so its endpoints always share a cluster.
//!
//! ## HIT flushes
//!
//! [`IncrementalResolver::regenerate_hits`] repairs the published HIT
//! set rather than replacing it. It looks only at the HITs of clusters
//! marked dirty since the last flush. A HIT is **kept** (same id, same
//! content) while its records are alive, share one cluster and include
//! a listed pair; a kept HIT on the detached side of a split is
//! re-filed under that side. Every other HIT of a dirty cluster is
//! **retired**. The two-tiered generator then runs per cluster over the
//! pairs listed since the last flush — new pairs, re-listed pairs, and
//! pairs whose new evidence left them unsettled — and the listed pairs
//! that only a retired HIT covered; never over a whole cluster, unless a
//! cluster of more than `k` records holds over 1.5 times as many HITs
//! as after its last full generation, in which case it is regenerated
//! in full. After every flush each listed pair is covered by a live
//! HIT.

use crowder_graph::{DynamicConnectivity, EdgeCut, EdgeLink};
use crowder_hitgen::{ClusterGenerator, Hit, TwoTieredGenerator};
use crowder_simjoin::JoinStats;
use crowder_types::{Dataset, Error, Pair, PairSpace, RecordId, ScoredPair, SourceId};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};

use crate::delta::DeltaIndex;
use crate::dict::{StreamingDict, FRESH_SPAN};
use crate::evidence::{valid_weight, EvidenceConfig, EvidenceLedger, EvidenceShift, Tally};
use crate::live::{HitId, LiveHits};
use crate::state::ResolverState;

/// A flush regenerates a dirty cluster of more than `k` records in full
/// once its repaired HIT set would exceed this multiple of the
/// cluster's baseline, its HIT count right after its last full
/// generation. On the `contract_fixture` op script the live set ends at
/// 1.80× a fresh generation without the fallback and at 1.19× with it.
/// A cluster of at most `k` records is exempt: a fresh generation gives
/// it one HIT, and its extra HITs are fresh work for pairs an answer
/// left unsettled.
const MAX_DRIFT: f64 = 1.5;

/// Tuning of the incremental resolver.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Machine-pass likelihood threshold: pairs below never surface.
    /// Degrades exactly like the batch engine outside `(0, 1]`
    /// (`≤ 0` keeps every candidate pair, `> 1` keeps none).
    pub threshold: f64,
    /// Cluster-HIT size threshold `k` (paper §5).
    pub cluster_size: usize,
    /// Minimum arrivals between dictionary re-rank epochs. The actual
    /// spacing is `max(rebuild_min_interval, corpus/2)`, so rebuild work
    /// stays O(1) amortized per arrival.
    pub rebuild_min_interval: usize,
    /// Commit/veto thresholds of the signed evidence ledger.
    pub evidence: EvidenceConfig,
}

impl Default for StreamConfig {
    /// The batch workflow's defaults: τ = 0.2, k = 10.
    fn default() -> Self {
        StreamConfig {
            threshold: 0.2,
            cluster_size: 10,
            rebuild_min_interval: 256,
            evidence: EvidenceConfig::default(),
        }
    }
}

/// One answer of a read-only [`IncrementalResolver::query`] probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMatch {
    /// The matching live record.
    pub record: RecordId,
    /// Exact Jaccard similarity to the queried fields.
    pub similarity: f64,
}

/// What one arrival did to the resolver state.
#[derive(Debug, Clone)]
pub struct InsertReport {
    /// Id assigned to the arrived record.
    pub record: RecordId,
    /// Pairs the delta join surfaced (all involve `record`).
    pub new_pairs: Vec<ScoredPair>,
    /// Filter funnel of this arrival's delta join.
    pub stats: JoinStats,
    /// True iff this arrival triggered a dictionary re-rank epoch (and
    /// therefore a full index rebuild).
    pub rebuilt_index: bool,
    /// Cluster merges caused by the new edges.
    pub merges: usize,
}

/// What one record deletion did.
#[derive(Debug, Clone)]
pub struct RemoveReport {
    /// The tombstoned record.
    pub record: RecordId,
    /// Machine pairs dropped from the pair set.
    pub dropped_pairs: usize,
    /// Pairs whose crowd evidence was purged.
    pub purged_evidence: usize,
    /// Cluster splits caused by cutting the record's edges.
    pub splits: usize,
}

/// What one atomic in-place correction
/// ([`IncrementalResolver::update`]) did.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// The corrected record (same id before and after).
    pub record: RecordId,
    /// The machine pairs the corrected record surfaces *now* (the full
    /// post-update set, changed or not).
    pub new_pairs: Vec<ScoredPair>,
    /// Previously surfaced pairs the corrected record no longer
    /// matches.
    pub dropped_pairs: usize,
    /// Pairs whose crowd evidence was purged because their similarity
    /// verdict changed.
    pub purged_evidence: usize,
    /// Filter funnel of the correction's re-probe.
    pub stats: JoinStats,
    /// Cluster merges caused by newly surfaced edges.
    pub merges: usize,
    /// Cluster splits caused by dropped or decommitted edges.
    pub splits: usize,
}

/// What recording one piece of evidence (or a retraction) did.
#[derive(Debug, Clone, Default)]
pub struct EvidenceReport {
    /// Did the pair's commit state shift?
    pub committed: bool,
    /// Did the pair fall out of the committed state?
    pub decommitted: bool,
    /// Did clusters merge (edge activated across two clusters)?
    pub merged: bool,
    /// Did a cluster split (a bridge edge deactivated)?
    pub split: bool,
}

/// Outcome of one HIT flush ([`IncrementalResolver::regenerate_hits`]):
/// which HITs it retired and published. Every other live HIT — kept by
/// the repair or never looked at — keeps its id and content.
#[derive(Debug, Clone)]
pub struct HitDelta {
    /// Ids retired by this flush (their HITs are withdrawn), in filing
    /// order of the dirty clusters taken by ascending label.
    pub retired: Vec<HitId>,
    /// Ids newly published by this flush, in ascending id order.
    pub created: Vec<HitId>,
    /// Live HITs that survived the flush (stable ids, stable content).
    pub stable: usize,
}

/// A fully-mutable ER corpus with incrementally-maintained pairs,
/// clusters, and HITs. See the crate docs for the component map and
/// the module docs for the mutation API.
///
/// The per-mutation invariant — property-tested in this crate and in
/// the workspace integration tests — is **exactness**: after any
/// interleaving of inserts and removes,
/// [`IncrementalResolver::ranked_pairs`] restricted to live records is
/// bit-identical to a batch
/// [`prefix_join`](crowder_simjoin::prefix_join) over the live corpus
/// at the same threshold (up to the dense re-numbering of record ids —
/// see [`IncrementalResolver::live_dataset`]).
#[derive(Debug, Clone)]
pub struct IncrementalResolver {
    config: StreamConfig,
    dataset: Dataset,
    dict: StreamingDict,
    index: DeltaIndex,
    /// Per-record stable token ids (ascending id order) — the ground
    /// truth the index re-encodes from at each epoch.
    token_ids: Vec<Vec<u32>>,
    /// Live machine pairs in discovery order (deletions compact it).
    pairs: Vec<ScoredPair>,
    /// Live machine pairs for O(1) membership.
    machine: HashSet<Pair>,
    /// Signed crowd-vote tallies.
    ledger: EvidenceLedger,
    /// Funnel counters summed over all delta joins.
    cumulative: JoinStats,
    /// The dynamic cluster graph (machine + committed crowd edges).
    conn: DynamicConnectivity,
    /// Pairs awaiting crowd verification (see module docs for the
    /// listing rule).
    listed: HashSet<Pair>,
    /// Pairs to publish at the next flush, in order: newly listed ones
    /// and listed ones whose new evidence left them unsettled (a pair
    /// can appear twice; the flush drops the ones no longer listed and
    /// the repeats).
    fresh: Vec<Pair>,
    /// Component labels whose clusters changed since the last flush.
    dirty: BTreeSet<usize>,
    live: LiveHits,
    inserts_since_rebuild: usize,
}

impl IncrementalResolver {
    /// An empty resolver over the given schema and candidate-pair space.
    pub fn new(
        name: impl Into<String>,
        schema: Vec<String>,
        pair_space: PairSpace,
        config: StreamConfig,
    ) -> Self {
        IncrementalResolver {
            index: DeltaIndex::new(config.threshold),
            ledger: EvidenceLedger::new(config.evidence),
            config,
            dataset: Dataset::new(name, schema, pair_space),
            dict: StreamingDict::new(),
            token_ids: Vec::new(),
            pairs: Vec::new(),
            machine: HashSet::new(),
            cumulative: JoinStats::default(),
            conn: DynamicConnectivity::new(0),
            listed: HashSet::new(),
            fresh: Vec::new(),
            dirty: BTreeSet::new(),
            live: LiveHits::new(),
            inserts_since_rebuild: 0,
        }
    }

    /// An empty resolver mirroring an existing dataset's shape (name,
    /// schema, pair space) — the usual way to stream a known corpus.
    pub fn like(dataset: &Dataset, config: StreamConfig) -> Self {
        Self::new(
            dataset.name.clone(),
            dataset.schema.clone(),
            dataset.pair_space,
            config,
        )
    }

    /// Append one record: delta-join it against the live corpus, grow
    /// the clustering with any new match edges, and mark touched
    /// clusters dirty. Errors only on schema mismatch (like
    /// [`Dataset::push_record`]).
    pub fn insert(
        &mut self,
        source: SourceId,
        fields: Vec<String>,
    ) -> crowder_types::Result<InsertReport> {
        let _timer = crowder_obs::span_light!("stream.resolver.insert_ns");
        let record = self.dataset.push_record(source, fields)?;
        let fields = &self.dataset.record(record)?.fields;
        let ids = self.dict.encode_record(fields.iter().map(String::as_str));
        let doc = self.dict.sorted_ranks(&ids);

        let mut new_pairs = Vec::new();
        let mut stats = JoinStats::default();
        self.index
            .join_and_insert(&self.dataset, doc, &mut new_pairs, &mut stats);

        self.token_ids.push(ids);
        self.conn.make_vertex();
        let mut merges = 0usize;
        for sp in &new_pairs {
            self.machine.insert(sp.pair);
            let shift = self.sync_pair(sp.pair);
            merges += shift.merged as usize;
        }
        self.pairs.extend_from_slice(&new_pairs);
        self.cumulative.absorb(&stats);
        self.inserts_since_rebuild += 1;
        let rebuilt_index = self.maybe_rebuild();

        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.inserts").incr();
            crowder_obs::counter!("stream.resolver.merges").add(merges as u64);
            if rebuilt_index {
                crowder_obs::counter!("stream.resolver.index_rebuilds").incr();
            }
            self.observe_cluster_state();
        }
        Ok(InsertReport {
            record,
            new_pairs,
            stats,
            rebuilt_index,
            merges,
        })
    }

    /// [`IncrementalResolver::insert`] over a whole batch; reports are
    /// returned in arrival order.
    pub fn insert_batch<I>(&mut self, records: I) -> crowder_types::Result<Vec<InsertReport>>
    where
        I: IntoIterator<Item = (SourceId, Vec<String>)>,
    {
        records
            .into_iter()
            .map(|(source, fields)| self.insert(source, fields))
            .collect()
    }

    /// Answer a **read-only similarity query**: which live records
    /// would a record with these fields (from this source) match, and
    /// at what Jaccard similarity? The answer is bit-for-bit what
    /// [`IncrementalResolver::insert`] would have surfaced for the same
    /// fields over the current corpus — same filters, same verification
    /// — but nothing is interned, indexed, logged, or clustered; the
    /// query probes only the join side its source pairs with (a source
    /// outside the pair space matches nothing), and the corpus is
    /// untouched (only probe scratch inside the index
    /// mutates, which is not part of any exported state). Matches come
    /// back in ascending record order. Errors only on schema mismatch.
    pub fn query(
        &mut self,
        source: SourceId,
        fields: &[String],
    ) -> crowder_types::Result<Vec<QueryMatch>> {
        let _timer = crowder_obs::span_light!("stream.resolver.query_ns");
        if fields.len() != self.dataset.schema.len() {
            return Err(Error::InvalidData(format!(
                "query has {} fields, schema has {}",
                fields.len(),
                self.dataset.schema.len()
            )));
        }
        let doc = self.dict.encode_query(fields.iter().map(String::as_str));
        let mut found = Vec::new();
        if let Some((_, probed)) = self.dataset.pair_space.sides(source) {
            let mut stats = JoinStats::default();
            self.index.probe_query(probed, &doc, &mut found, &mut stats);
        }
        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.queries").incr();
        }
        Ok(found
            .into_iter()
            .map(|(record, similarity)| QueryMatch { record, similarity })
            .collect())
    }

    /// Tombstone one record. Every pair touching it is dropped from
    /// the machine pair set, its evidence is purged, and its cluster
    /// edges are cut — clusters can shrink or split; all touched
    /// clusters are marked dirty. Errors on an unknown or already
    /// deleted record. The record id is never reused.
    pub fn remove(&mut self, record: RecordId) -> crowder_types::Result<RemoveReport> {
        let _timer = crowder_obs::span_light!("stream.resolver.remove_ns");
        if record.index() >= self.dataset.len() {
            return Err(Error::UnknownRecord(record.0));
        }
        if !self.index.is_alive(record) {
            return Err(Error::InvalidData(format!(
                "record {record} is already deleted"
            )));
        }
        self.index.remove(record);
        self.dict.release(&self.token_ids[record.index()]);

        // Every pair with machine support or crowd evidence goes. A
        // machine pair of a live record is a cluster edge unless it is
        // vetoed, and a vetoed pair has evidence, so the record's edges
        // and its evidence pairs hold every machine pair touching it.
        let evidence_pairs = self.ledger.pairs_touching(record);
        let purged_evidence = evidence_pairs.len();
        let touching: BTreeSet<Pair> = self
            .conn
            .neighbors(record.index())
            .map(|u| Pair::of(record.0, u as u32))
            .chain(evidence_pairs)
            .collect();
        let dropped_pairs = touching.iter().filter(|p| self.machine.contains(p)).count();

        let mut splits = 0usize;
        for pair in touching {
            self.machine.remove(&pair);
            self.ledger.purge(&pair);
            let shift = self.sync_pair(pair);
            splits += shift.split as usize;
        }
        self.pairs.retain(|sp| !sp.pair.contains(record));
        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.removes").incr();
            crowder_obs::counter!("stream.resolver.splits").add(splits as u64);
            self.observe_cluster_state();
        }
        Ok(RemoveReport {
            record,
            dropped_pairs,
            purged_evidence,
            splits,
        })
    }

    /// Atomically correct a live record **in place**: its fields are
    /// replaced under the same [`RecordId`] (every pair involving it
    /// keeps its identity), the delta join re-probes it against the
    /// live corpus, and crowd evidence is purged *only* for pairs whose
    /// similarity verdict actually changed — surfaced↔unsurfaced, or a
    /// different likelihood. A committed crowd edge on a pair the
    /// machine never surfaced (before or after) survives: the crowd's
    /// answer did not depend on the corrected fields' similarity.
    ///
    /// Errors on an unknown or deleted record, or on a schema mismatch
    /// (in which case nothing was mutated).
    pub fn update(
        &mut self,
        record: RecordId,
        fields: Vec<String>,
    ) -> crowder_types::Result<UpdateReport> {
        let _timer = crowder_obs::span_light!("stream.resolver.update_ns");
        if record.index() >= self.dataset.len() {
            return Err(Error::UnknownRecord(record.0));
        }
        if !self.index.is_alive(record) {
            return Err(Error::InvalidData(format!(
                "cannot update deleted record {record}"
            )));
        }
        // Old similarity verdicts of every pair the record surfaces.
        let old_scores: HashMap<Pair, u64> = self
            .pairs
            .iter()
            .filter(|sp| sp.pair.contains(record))
            .map(|sp| (sp.pair, sp.likelihood.to_bits()))
            .collect();
        // Schema validation happens before any other mutation.
        self.dataset.set_fields(record, fields)?;
        let fields = &self.dataset.record(record)?.fields;
        self.dict.release(&self.token_ids[record.index()]);
        let ids = self.dict.encode_record(fields.iter().map(String::as_str));
        let doc = self.dict.sorted_ranks(&ids);
        let mut new_pairs = Vec::new();
        let mut stats = JoinStats::default();
        self.index
            .update_doc(&self.dataset, record, doc, &mut new_pairs, &mut stats);
        self.token_ids[record.index()] = ids;
        self.cumulative.absorb(&stats);
        let new_scores: HashMap<Pair, u64> = new_pairs
            .iter()
            .map(|sp| (sp.pair, sp.likelihood.to_bits()))
            .collect();

        // Purge evidence only where the verdict changed. BTreeSet order
        // keeps the purge/sync sequence deterministic.
        let mut affected: BTreeSet<Pair> = old_scores.keys().copied().collect();
        affected.extend(new_scores.keys().copied());
        let mut purged_evidence = 0usize;
        for pair in &affected {
            let changed = match (old_scores.get(pair), new_scores.get(pair)) {
                (Some(a), Some(b)) => a != b,
                // Surfaced on exactly one side (affected = old ∪ new).
                _ => true,
            };
            if changed && self.ledger.tally(pair).is_some() {
                self.ledger.purge(pair);
                purged_evidence += 1;
            }
        }

        // Reconcile the machine pair set: unchanged pairs keep their
        // discovery slot, dropped pairs leave, changed and new pairs
        // append in probe order.
        let mut dropped_pairs = 0usize;
        for pair in old_scores.keys() {
            if !new_scores.contains_key(pair) {
                self.machine.remove(pair);
                dropped_pairs += 1;
            }
        }
        for sp in &new_pairs {
            self.machine.insert(sp.pair);
        }
        self.pairs.retain(|sp| {
            !sp.pair.contains(record) || new_scores.get(&sp.pair) == Some(&sp.likelihood.to_bits())
        });
        self.pairs.extend(
            new_pairs
                .iter()
                .filter(|sp| old_scores.get(&sp.pair) != Some(&sp.likelihood.to_bits()))
                .copied(),
        );

        // Re-sync every affected pair's edge and listing state.
        let (mut merges, mut splits) = (0usize, 0usize);
        for pair in affected {
            let shift = self.sync_pair(pair);
            merges += shift.merged as usize;
            splits += shift.split as usize;
        }
        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.updates").incr();
            crowder_obs::counter!("stream.resolver.merges").add(merges as u64);
            crowder_obs::counter!("stream.resolver.splits").add(splits as u64);
            self.observe_cluster_state();
        }
        Ok(UpdateReport {
            record,
            new_pairs,
            dropped_pairs,
            purged_evidence,
            stats,
            merges,
            splits,
        })
    }

    /// Record one signed crowd vote for `pair` with the given worker
    /// weight (see [`crate::evidence::vote_weight`]). Votes addressed
    /// to deleted or unknown records are dropped (the carry-over path
    /// delivers answers for retired HITs, whose records may since have
    /// been removed), and so are votes whose weight is NaN, infinite,
    /// or negative ([`valid_weight`]) — they would poison the pair's
    /// tally for good. Edge commits can merge clusters; decommits and
    /// vetoes can split them.
    pub fn record_evidence(&mut self, pair: Pair, verdict: bool, weight: f64) -> EvidenceReport {
        let _timer = crowder_obs::span_light!("stream.resolver.evidence_ns");
        if !valid_weight(weight)
            || pair.hi().index() >= self.dataset.len()
            || !self.index.is_alive(pair.lo())
            || !self.index.is_alive(pair.hi())
        {
            return EvidenceReport::default();
        }
        let was_listed = self.listed.contains(&pair);
        let shift = self.ledger.record(pair, verdict, weight);
        let cluster = self.sync_pair(pair);
        self.ask_again_if_unsettled(pair, was_listed);
        let report = EvidenceReport {
            committed: shift == EvidenceShift::Committed,
            decommitted: shift == EvidenceShift::Decommitted,
            merged: cluster.merged,
            split: cluster.split,
        };
        self.observe_evidence(&report);
        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.evidence_records").incr();
        }
        report
    }

    /// Forget all crowd evidence for `pair`. If the evidence was
    /// holding a committed edge (or a veto), the clustering reverts to
    /// the machine-only state for that pair. A pair naming a record id
    /// past the corpus is a no-op, as in [`Self::record_evidence`].
    pub fn retract(&mut self, pair: Pair) -> EvidenceReport {
        let _timer = crowder_obs::span_light!("stream.resolver.retract_ns");
        if pair.hi().index() >= self.dataset.len() {
            return EvidenceReport::default();
        }
        let had_evidence = self.ledger.tally(&pair).is_some();
        let was_listed = self.listed.contains(&pair);
        let shift = self.ledger.purge(&pair);
        let cluster = self.sync_pair(pair);
        self.ask_again_if_unsettled(pair, had_evidence && was_listed);
        let report = EvidenceReport {
            committed: false,
            decommitted: shift == EvidenceShift::Decommitted,
            merged: cluster.merged,
            split: cluster.split,
        };
        self.observe_evidence(&report);
        if crowder_obs::recording() {
            crowder_obs::counter!("stream.resolver.retractions").incr();
        }
        report
    }

    /// Update the observability gauge tracking how many clusters await
    /// a HIT flush. Called at the end of every mutating operation.
    fn observe_cluster_state(&self) {
        if !crowder_obs::recording() {
            return;
        }
        crowder_obs::gauge!("stream.resolver.dirty_clusters").set(self.dirty.len() as i64);
    }

    /// Tally an evidence outcome's edge and cluster transitions into
    /// the commit/decommit and merge/split counters.
    fn observe_evidence(&self, report: &EvidenceReport) {
        if !crowder_obs::recording() {
            return;
        }
        crowder_obs::counter!("stream.resolver.commits").add(report.committed as u64);
        crowder_obs::counter!("stream.resolver.decommits").add(report.decommitted as u64);
        crowder_obs::counter!("stream.resolver.merges").add(report.merged as u64);
        crowder_obs::counter!("stream.resolver.splits").add(report.split as u64);
        self.observe_cluster_state();
    }

    /// Should `pair` be an edge of the cluster graph right now?
    fn edge_desired(&self, pair: &Pair) -> bool {
        if !self.index.is_alive(pair.lo()) || !self.index.is_alive(pair.hi()) {
            return false;
        }
        (self.machine.contains(pair) && !self.ledger.vetoed(pair)) || self.ledger.committed(pair)
    }

    /// Should `pair` await crowd verification right now?
    /// Committed and vetoed pairs have been answered — republishing
    /// them would re-ask the crowd what it already said. A decommit
    /// (contradicting evidence) re-lists the pair for re-verification.
    fn listed_desired(&self, pair: &Pair) -> bool {
        self.machine.contains(pair)
            && !self.ledger.vetoed(pair)
            && !self.ledger.committed(pair)
            && self.index.is_alive(pair.lo())
            && self.index.is_alive(pair.hi())
    }

    /// Reconcile one pair's edge and listing state with the cluster
    /// graph, marking every touched component dirty.
    fn sync_pair(&mut self, pair: Pair) -> ClusterShift {
        let (a, b) = (pair.lo().index(), pair.hi().index());
        let mut shift = ClusterShift::default();

        // 1. Unlist: the pair's cluster loses a to-verify pair.
        if self.listed.contains(&pair) && !self.listed_desired(&pair) {
            self.listed.remove(&pair);
            self.dirty.insert(self.conn.root(a));
        }

        // 2. Edge reconciliation.
        let desired = self.edge_desired(&pair);
        if desired && !self.conn.has_edge(a, b) {
            match self.conn.add_edge(a, b) {
                EdgeLink::Merged { winner, absorbed } => {
                    self.live.merge_roots(winner, absorbed);
                    self.dirty.remove(&absorbed);
                    self.dirty.insert(winner);
                    shift.merged = true;
                }
                EdgeLink::Internal => {
                    self.dirty.insert(self.conn.root(a));
                }
                EdgeLink::Duplicate => unreachable!("guarded by has_edge"),
            }
        } else if !desired && self.conn.has_edge(a, b) {
            match self.conn.remove_edge(a, b) {
                EdgeCut::Kept => {
                    self.dirty.insert(self.conn.root(a));
                }
                EdgeCut::Split { kept, split_off } => {
                    self.dirty.insert(kept);
                    self.dirty.insert(split_off);
                    shift.split = true;
                }
                EdgeCut::Missing => unreachable!("guarded by has_edge"),
            }
        }

        // 3. List: the pair's cluster, merged in step 2 if need be,
        //    gains a to-verify pair, which the next flush publishes.
        if !self.listed.contains(&pair) && self.listed_desired(&pair) {
            self.listed.insert(pair);
            self.fresh.push(pair);
            self.dirty.insert(self.conn.root(a));
        }
        shift
    }

    /// Evidence for a `pair` that `was_listed` changed and left it
    /// listed: the answers did not settle it, so the next flush
    /// publishes fresh work for it (a kept HIT covering it has already
    /// been answered).
    fn ask_again_if_unsettled(&mut self, pair: Pair, was_listed: bool) {
        if was_listed && self.listed.contains(&pair) {
            self.fresh.push(pair);
            self.dirty.insert(self.conn.root(pair.lo().index()));
        }
    }

    /// Rebuild the rank order and index once enough arrivals accumulate
    /// (see [`StreamConfig::rebuild_min_interval`]).
    fn maybe_rebuild(&mut self) -> bool {
        let spacing = self.config.rebuild_min_interval.max(self.index.len() / 2);
        let due =
            self.inserts_since_rebuild >= spacing || self.dict.fresh_tokens() >= FRESH_SPAN / 2;
        if due {
            self.dict.rerank();
            self.index.rebuild(&self.dict, &self.token_ids);
            self.inserts_since_rebuild = 0;
        }
        due
    }

    /// Force a dictionary re-rank epoch and a full index rebuild right
    /// now, regardless of the automatic cadence. The durability layer
    /// logs this as an explicit operation so a replayed resolver
    /// re-ranks at exactly the same points.
    pub fn rerank_now(&mut self) {
        self.dict.rerank();
        self.index.rebuild(&self.dict, &self.token_ids);
        self.inserts_since_rebuild = 0;
    }

    /// Repair the live HIT set after the mutations since the last
    /// flush. Only HITs filed under a dirty cluster are looked at; every
    /// other cluster's HITs (ids and content) are untouched.
    ///
    /// * **Keep.** A HIT stays published, same id and content, while its
    ///   records are alive, share one cluster and include at least one
    ///   listed pair. A kept HIT that now sits in another cluster (the
    ///   detached side of a split) is re-filed under that cluster.
    /// * **Retire** every other HIT of a dirty cluster.
    /// * **Publish** fresh HITs, through the two-tiered generator run
    ///   per cluster, over the pairs listed since the last flush (so a
    ///   re-listed pair, or one that new evidence left unsettled, is
    ///   asked again) plus the listed pairs that a retired HIT covered
    ///   and no kept HIT does.
    /// * **Regenerate in full** a dirty cluster of more than `k` records
    ///   whose live HITs would exceed 1.5 times its baseline (its count
    ///   right after its last full generation, see [`LiveHits`]): all
    ///   its HITs retire and the generator runs over all its listed
    ///   pairs.
    ///
    /// Every listed pair is therefore covered by a live HIT after each
    /// flush. The result depends only on the resolver state and the
    /// mutations since the last flush, never on hash order. On a
    /// generator error (an invalid `k`) nothing changes. Clears the
    /// dirty set.
    pub fn regenerate_hits(&mut self) -> crowder_types::Result<HitDelta> {
        let _timer = crowder_obs::span!("stream.resolver.flush_ns");
        let roots: Vec<usize> = self.dirty.iter().copied().collect();
        let filed: Vec<HitId> = roots
            .iter()
            .flat_map(|&root| self.live.ids_of(root).iter().copied())
            .collect();
        let shown: Vec<Cow<'_, [RecordId]>> =
            filed.iter().map(|&id| self.hit_records(id)).collect();
        // Keep or retire every HIT filed under a dirty cluster; a retired
        // HIT orphans the listed pairs it covered.
        let mut homes: Vec<Option<usize>> = Vec::with_capacity(filed.len());
        let mut orphans: HashSet<Pair> = HashSet::new();
        for records in &shown {
            let home = self.home_of(records);
            if home.is_none() {
                orphans.extend(self.listed_among(records));
            }
            homes.push(home);
        }
        if !orphans.is_empty() {
            self.drop_covered(&mut orphans, &shown, &homes);
        }
        // The pairs that need a fresh HIT, grouped by cluster.
        let mut pending: Vec<(usize, Pair)> = self
            .fresh
            .iter()
            .filter(|p| self.listed.contains(p))
            .chain(&orphans)
            .map(|&p| (self.conn.root(p.lo().index()), p))
            .collect();
        pending.sort_unstable();
        pending.dedup();
        let mut kept_in: HashMap<usize, usize> = HashMap::new();
        for home in homes.iter().flatten() {
            *kept_in.entry(*home).or_default() += 1;
        }

        // One generator run per cluster, over all of its listed pairs if
        // the repaired set would drift past the fallback bound.
        let k = self.config.cluster_size;
        let generator = TwoTieredGenerator::new();
        let mut fresh_hits: Vec<(usize, Vec<Hit>)> = Vec::new();
        let mut regenerated: Vec<usize> = Vec::new();
        for group in pending.chunk_by(|x, y| x.0 == y.0) {
            let root = group[0].0;
            let mut pairs: Vec<Pair> = group.iter().map(|&(_, p)| p).collect();
            let mut hits = generator.generate(&pairs, k)?;
            let live = kept_in.get(&root).copied().unwrap_or(0) + hits.len();
            let drifted = self.conn.component_size(root) > k
                && self
                    .live
                    .baseline(root)
                    .is_some_and(|base| live as f64 > MAX_DRIFT * base as f64);
            if drifted {
                for (records, home) in shown.iter().zip(homes.iter_mut()) {
                    if *home == Some(root) {
                        pairs.extend(self.listed_among(records));
                        *home = None;
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                hits = generator.generate(&pairs, k)?;
                regenerated.push(root);
            }
            fresh_hits.push((root, hits));
        }

        let kept = homes.iter().flatten().count();
        let (retired, created) = self.live.repair(&roots, &homes, fresh_hits, &regenerated);
        self.fresh.clear();
        self.dirty.clear();
        crowder_obs::counter!("stream.resolver.hits_retired").add(retired.len() as u64);
        crowder_obs::counter!("stream.resolver.hits_kept").add(kept as u64);
        crowder_obs::counter!("stream.resolver.hits_created").add(created.len() as u64);
        crowder_obs::counter!("stream.resolver.full_regenerations").add(regenerated.len() as u64);
        crowder_obs::gauge!("stream.resolver.live_hits").set(self.live.len() as i64);
        crowder_obs::gauge!("stream.resolver.hits_per_listed_pair_milli")
            .set((self.hits_per_listed_pair() * 1000.0).round() as i64);
        self.observe_cluster_state();
        Ok(HitDelta {
            stable: self.live.len() - created.len(),
            retired,
            created,
        })
    }

    /// The records a live HIT shows, borrowed for cluster-based HITs
    /// (the only kind the generator publishes).
    fn hit_records(&self, id: HitId) -> Cow<'_, [RecordId]> {
        match self.live.get(id).expect("filed ids are live") {
            Hit::ClusterBased { records } => Cow::Borrowed(records),
            hit => Cow::Owned(hit.records()),
        }
    }

    /// The cluster a HIT over `records` belongs to if it stays
    /// published: all records alive, in one cluster, and at least one
    /// listed pair among them. `None` if it must be retired.
    fn home_of(&self, records: &[RecordId]) -> Option<usize> {
        let root = self.conn.root(records.first()?.index());
        let intact = records
            .iter()
            .all(|&r| self.index.is_alive(r) && self.conn.root(r.index()) == root);
        let useful = intact && pairs_among(records).any(|p| self.listed.contains(&p));
        useful.then_some(root)
    }

    /// The listed pairs among `records`.
    fn listed_among<'a>(&'a self, records: &'a [RecordId]) -> impl Iterator<Item = Pair> + 'a {
        pairs_among(records).filter(|p| self.listed.contains(p))
    }

    /// Remove from `orphans` every pair a kept HIT covers: `shown[i]`
    /// with `homes[i]` set. (An orphan's cluster is always dirty — the
    /// retired HIT lost a record, spanned a split or sat in a merged
    /// cluster — so no HIT of a clean cluster can cover it.)
    fn drop_covered(
        &self,
        orphans: &mut HashSet<Pair>,
        shown: &[Cow<'_, [RecordId]>],
        homes: &[Option<usize>],
    ) {
        let mut ends = vec![false; self.dataset.len()];
        for p in orphans.iter() {
            ends[p.lo().index()] = true;
            ends[p.hi().index()] = true;
        }
        for (records, _) in shown.iter().zip(homes).filter(|(_, home)| home.is_some()) {
            let touched: Vec<RecordId> = records
                .iter()
                .filter(|r| ends[r.index()])
                .copied()
                .collect();
            for pair in pairs_among(&touched) {
                orphans.remove(&pair);
            }
        }
    }

    /// Live HITs per listed pair: the drift of the repaired HIT set,
    /// comparable against a fresh two-tiered generation over the same
    /// pairs. 0 when nothing is listed.
    pub fn hits_per_listed_pair(&self) -> f64 {
        if self.listed.is_empty() {
            0.0
        } else {
            self.live.len() as f64 / self.listed.len() as f64
        }
    }

    /// Export the complete resolver state in the deterministic snapshot
    /// form (see [`ResolverState`]). Only legal at a flush boundary —
    /// with dirty clusters the live HIT set does not yet reflect the
    /// cluster graph, and a restore would freeze that inconsistency.
    pub fn export_state(&self) -> crowder_types::Result<ResolverState> {
        if !self.dirty.is_empty() {
            return Err(Error::InvalidData(format!(
                "cannot export with {} dirty clusters: flush HITs first",
                self.dirty.len()
            )));
        }
        let mut gold: Vec<Pair> = self.dataset.gold.iter().copied().collect();
        gold.sort_unstable();
        let records = self
            .dataset
            .records()
            .iter()
            .map(|r| (r.source.0, r.fields.clone()))
            .collect();
        let alive = (0..self.dataset.len() as u32)
            .map(|i| self.index.is_alive(RecordId(i)))
            .collect();
        let (dict_tokens, dict_dfs, dict_ranks, dict_fresh, dict_epochs) = self.dict.export_parts();
        let mut tallies: Vec<(Pair, u64, u64, u32)> = self
            .ledger
            .iter()
            .map(|(p, t)| (*p, t.yes.to_bits(), t.no.to_bits(), t.votes))
            .collect();
        tallies.sort_unstable_by_key(|e| e.0);
        let (hits, hit_roots, next_hit) = self.live.export_parts();
        Ok(ResolverState {
            name: self.dataset.name.clone(),
            schema: self.dataset.schema.clone(),
            pair_space: self.dataset.pair_space,
            gold,
            records,
            alive,
            dict_tokens,
            dict_dfs,
            dict_ranks,
            dict_fresh,
            dict_epochs,
            pairs: self.pairs.clone(),
            tallies,
            cumulative: self.cumulative,
            labels: self.conn.labels().to_vec(),
            hits: hits.into_iter().map(|(id, h)| (id.0, h)).collect(),
            hit_roots: hit_roots
                .into_iter()
                .map(|(root, base, ids)| {
                    (root, base as u64, ids.into_iter().map(|id| id.0).collect())
                })
                .collect(),
            next_hit,
            inserts_since_rebuild: self.inserts_since_rebuild as u64,
        })
    }

    /// Rebuild a resolver from an exported [`ResolverState`] under the
    /// given configuration (tuning is not part of the snapshot — the
    /// deployment supplies it, exactly as it supplied it to the
    /// original resolver). Everything derivable is recomputed —
    /// token-id lists re-encode through the imported dictionary, index
    /// postings rebuild in canonical order, the cluster edges and the
    /// to-verify set follow from the pairs, tallies and liveness flags
    /// under the edge-state rule (module docs) — and everything
    /// history-dependent (cluster labels, pair order, HIT ids) is
    /// restored verbatim, so the imported resolver's future behavior is
    /// bit-for-bit the exporter's. Structural inconsistencies (dangling
    /// ids, labels that break the graph invariants or split a derived
    /// edge, unknown tokens) are rejected with [`Error::InvalidData`].
    pub fn import_state(config: StreamConfig, state: ResolverState) -> crowder_types::Result<Self> {
        let ResolverState {
            name,
            schema,
            pair_space,
            gold,
            records,
            alive,
            dict_tokens,
            dict_dfs,
            dict_ranks,
            dict_fresh,
            dict_epochs,
            pairs,
            tallies,
            cumulative,
            labels,
            hits,
            hit_roots,
            next_hit,
            inserts_since_rebuild,
        } = state;
        let mut dataset = Dataset::new(name, schema, pair_space);
        for (source, fields) in records {
            dataset.push_record(SourceId(source), fields)?;
        }
        for pair in gold {
            dataset.gold.insert(pair);
        }
        if alive.len() != dataset.len() {
            return Err(Error::InvalidData(format!(
                "state import: {} liveness flags for {} records",
                alive.len(),
                dataset.len()
            )));
        }
        let mut dict =
            StreamingDict::from_parts(dict_tokens, dict_dfs, dict_ranks, dict_fresh, dict_epochs)?;
        let mut token_ids = Vec::with_capacity(dataset.len());
        for record in dataset.records() {
            let ids = dict
                .known_ids(record.fields.iter().map(String::as_str))
                .map_err(|token| {
                    Error::InvalidData(format!(
                        "state import: token `{token}` of {} missing from the dictionary",
                        record.id
                    ))
                })?;
            token_ids.push(ids);
        }
        let docs: Vec<Vec<u32>> = token_ids
            .iter()
            .zip(&alive)
            .map(|(ids, &live)| {
                if live {
                    dict.sorted_ranks(ids)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let index = DeltaIndex::from_docs(&dataset, config.threshold, docs, alive)?;
        for (pair, _, _, _) in &tallies {
            if pair.hi().index() >= dataset.len() {
                return Err(Error::UnknownRecord(pair.hi().0));
            }
        }
        let mut machine = HashSet::with_capacity(pairs.len());
        for sp in &pairs {
            if sp.pair.hi().index() >= dataset.len() {
                return Err(Error::UnknownRecord(sp.pair.hi().0));
            }
            if !machine.insert(sp.pair) {
                return Err(Error::InvalidData(format!(
                    "state import: machine pair {} appears twice",
                    sp.pair
                )));
            }
        }
        let ledger = EvidenceLedger::from_tallies(
            config.evidence,
            tallies.into_iter().map(|(pair, yes, no, votes)| {
                (
                    pair,
                    Tally {
                        yes: f64::from_bits(yes),
                        no: f64::from_bits(no),
                        votes,
                    },
                )
            }),
        );
        for (id, hit) in &hits {
            let records = hit.records();
            if records.is_empty() || records.iter().any(|r| r.index() >= dataset.len()) {
                return Err(Error::InvalidData(format!(
                    "state import: {} shows no records or an unknown one",
                    HitId(*id)
                )));
            }
        }
        let live = LiveHits::from_parts(
            hits.into_iter().map(|(id, h)| (HitId(id), h)).collect(),
            hit_roots
                .into_iter()
                .map(|(root, base, ids)| {
                    (root, base as usize, ids.into_iter().map(HitId).collect())
                })
                .collect(),
            next_hit,
        )?;
        let mut resolver = IncrementalResolver {
            index,
            ledger,
            config,
            dataset,
            dict,
            token_ids,
            pairs,
            machine,
            cumulative,
            conn: DynamicConnectivity::new(0),
            listed: HashSet::new(),
            fresh: Vec::new(),
            dirty: BTreeSet::new(),
            live,
            inserts_since_rebuild: inserts_since_rebuild as usize,
        };
        // Derive the cluster edges and the to-verify set. Only machine
        // pairs and pairs with evidence can hold either state.
        let edges: Vec<(u32, u32)> = resolver
            .machine
            .iter()
            .chain(resolver.ledger.iter().map(|(p, _)| p))
            .filter(|p| resolver.edge_desired(p))
            .map(|p| (p.lo().0, p.hi().0))
            .collect();
        if labels.len() != resolver.dataset.len() {
            return Err(Error::InvalidData(format!(
                "state import: {} cluster labels for {} records",
                labels.len(),
                resolver.dataset.len()
            )));
        }
        resolver.conn = DynamicConnectivity::from_parts(labels, &edges)?;
        resolver.listed = resolver
            .machine
            .iter()
            .filter(|p| resolver.listed_desired(p))
            .copied()
            .collect();
        Ok(resolver)
    }

    /// The stream configuration in force.
    #[inline]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Every live machine pair, in discovery order.
    #[inline]
    pub fn pairs(&self) -> &[ScoredPair] {
        &self.pairs
    }

    /// The live pair set in the deterministic ranked order — directly
    /// comparable against a batch `prefix_join` over the live corpus
    /// (see [`IncrementalResolver::live_dataset`] for the id mapping).
    pub fn ranked_pairs(&self) -> Vec<ScoredPair> {
        let mut out = self.pairs.clone();
        crowder_types::pair::sort_ranked(&mut out);
        out
    }

    /// The corpus accumulated so far — including tombstoned records
    /// (ids are stable and never reused).
    #[inline]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The live records as a dense batch dataset, plus the original id
    /// of each dense record — the reference corpus of the exactness
    /// contract under deletions. The mapping is monotone, so ranked
    /// order is preserved by the re-numbering.
    pub fn live_dataset(&self) -> (Dataset, Vec<RecordId>) {
        let mut dense = Dataset::new(
            self.dataset.name.clone(),
            self.dataset.schema.clone(),
            self.dataset.pair_space,
        );
        let mut original = Vec::new();
        for record in self.dataset.records() {
            if self.index.is_alive(record.id) {
                dense
                    .push_record(record.source, record.fields.clone())
                    .expect("schema matches by construction");
                original.push(record.id);
            }
        }
        (dense, original)
    }

    /// Mutable access to the corpus gold standard (arriving labels).
    #[inline]
    pub fn gold_mut(&mut self) -> &mut crowder_types::GoldStandard {
        &mut self.dataset.gold
    }

    /// Records ever inserted (deletions included — slots are stable).
    #[inline]
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Live (non-deleted) records.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.index.live()
    }

    /// Is `record` present and not deleted?
    #[inline]
    pub fn is_alive(&self, record: RecordId) -> bool {
        record.index() < self.dataset.len() && self.index.is_alive(record)
    }

    /// True iff no record has arrived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// Clusters (connected components with at least one pair awaiting
    /// verification). Counts the distinct labels over the to-verify
    /// pairs: O(listed pairs) per call.
    pub fn cluster_count(&self) -> usize {
        self.listed
            .iter()
            .map(|p| self.conn.root(p.lo().index()))
            .collect::<HashSet<_>>()
            .len()
    }

    /// The cluster label of a record (its component in the dynamic
    /// graph). Singletons are their own label.
    #[inline]
    pub fn cluster_of(&self, record: RecordId) -> usize {
        self.conn.root(record.index())
    }

    /// The records of the cluster labelled `label` (unordered).
    pub fn cluster_members(&self, label: usize) -> Vec<RecordId> {
        self.conn
            .component_members(label)
            .iter()
            .map(|&v| RecordId(v))
            .collect()
    }

    /// Clusters touched since the last [`IncrementalResolver::regenerate_hits`].
    #[inline]
    pub fn dirty_clusters(&self) -> usize {
        self.dirty.len()
    }

    /// The live HIT set.
    #[inline]
    pub fn live_hits(&self) -> &LiveHits {
        &self.live
    }

    /// The signed evidence ledger (read-only).
    #[inline]
    pub fn ledger(&self) -> &EvidenceLedger {
        &self.ledger
    }

    /// All currently crowd-committed pairs (sorted). The fault-
    /// tolerance suite counts wrong merges against this set.
    pub fn committed_pairs(&self) -> Vec<Pair> {
        let mut out: Vec<Pair> = self
            .ledger
            .iter()
            .filter(|(p, _)| self.ledger.committed(p))
            .map(|(p, _)| *p)
            .collect();
        out.sort();
        out
    }

    /// Dictionary re-rank epochs completed so far.
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.dict.epochs()
    }

    /// Filter-funnel counters summed over every delta join so far.
    #[inline]
    pub fn cumulative_stats(&self) -> JoinStats {
        self.cumulative
    }

    /// The join threshold the resolver maintains.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }

    /// Records deleted so far (ids are never reused, so this is the
    /// count of dead slots).
    #[inline]
    pub fn removed(&self) -> usize {
        self.dataset.len() - self.index.live()
    }
}

/// Every pair of two distinct records of `records`.
fn pairs_among(records: &[RecordId]) -> impl Iterator<Item = Pair> + '_ {
    records.iter().enumerate().flat_map(move |(i, &a)| {
        records[i + 1..]
            .iter()
            .filter_map(move |&b| Pair::new(a, b).ok())
    })
}

/// Internal: how one pair sync moved the cluster structure.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterShift {
    merged: bool,
    split: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_simjoin::{prefix_join, TokenTable};

    fn resolver(threshold: f64) -> IncrementalResolver {
        IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold,
                cluster_size: 4,
                ..StreamConfig::default()
            },
        )
    }

    fn feed(r: &mut IncrementalResolver, names: &[&str]) {
        for n in names {
            r.insert(SourceId(0), vec![n.to_string()]).unwrap();
        }
    }

    /// Batch reference over the same record sequence.
    fn batch_pairs(dataset: &Dataset, threshold: f64) -> Vec<ScoredPair> {
        let tokens = TokenTable::build(dataset);
        prefix_join(dataset, &tokens, threshold, 1)
    }

    #[test]
    fn streaming_matches_batch_on_table1() {
        let names = [
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
        for thr in [0.0, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let mut r = resolver(thr);
            feed(&mut r, &names);
            assert_eq!(
                r.ranked_pairs(),
                batch_pairs(r.dataset(), thr),
                "threshold {thr}"
            );
        }
    }

    #[test]
    fn clusters_track_connected_components() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c", "a b c", "x y z", "x y z w", "q"]);
        assert_eq!(r.cluster_count(), 2);
        assert_eq!(r.dirty_clusters(), 2);
        let delta = r.regenerate_hits().unwrap();
        assert_eq!(delta.stable, 0);
        assert!(!delta.created.is_empty());
        assert_eq!(r.dirty_clusters(), 0);
    }

    /// Every live HIT as `(id, content)`, in id order.
    fn snapshot_hits(r: &IncrementalResolver) -> Vec<(HitId, Hit)> {
        r.live_hits()
            .iter()
            .map(|(id, h)| (id, h.clone()))
            .collect()
    }

    #[test]
    fn untouched_clusters_keep_stable_hit_ids() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c", "a b c", "x y z", "x y z w"]);
        r.regenerate_hits().unwrap();
        let before = snapshot_hits(&r);
        assert_eq!(before.len(), 2);
        // A record joining only the {x y z} cluster dirties that cluster
        // alone. Both HITs survive with the same ids and content: the
        // a-b-c one is not even looked at, the x-y-z one still covers a
        // listed pair. One fresh HIT covers the new pairs.
        r.insert(SourceId(0), vec!["x y z w v".into()]).unwrap();
        assert_eq!(r.dirty_clusters(), 1);
        let delta = r.regenerate_hits().unwrap();
        assert!(delta.retired.is_empty(), "{delta:?}");
        assert_eq!(delta.created.len(), 1);
        assert_eq!(delta.stable, 2);
        let after = snapshot_hits(&r);
        for hit in &before {
            assert!(after.contains(hit), "{hit:?} kept with stable content");
        }
        let fresh = r.live_hits().get(delta.created[0]).unwrap();
        assert!(fresh.covers(&Pair::of(3, 4)) && fresh.covers(&Pair::of(2, 4)));
    }

    #[test]
    fn a_drifted_cluster_is_regenerated_in_full() {
        let mut r = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.5,
                cluster_size: 2,
                ..StreamConfig::default()
            },
        );
        feed(&mut r, &["a b c", "a b c"]);
        r.regenerate_hits().unwrap();
        let first = snapshot_hits(&r)[0].0;
        let base = |r: &IncrementalResolver| r.live_hits().baseline(r.cluster_of(RecordId(0)));
        assert_eq!(base(&r), Some(1));
        // A third copy adds two pairs. At k = 2 the cluster now holds
        // more records than one HIT can show, and keeping the first HIT
        // beside two fresh ones would make 3 HITs against a baseline of
        // 1, past the 1.5× bound. The cluster is regenerated in full:
        // all three pairs, one HIT each.
        r.insert(SourceId(0), vec!["a b c".into()]).unwrap();
        let delta = r.regenerate_hits().unwrap();
        assert_eq!(delta.retired, vec![first]);
        assert_eq!(delta.created.len(), 3);
        assert_eq!(base(&r), Some(3));
    }

    #[test]
    fn flushes_publish_kept_created_and_drift() {
        let counter = |name| crowder_obs::global().counter(name).value();
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c", "a b c", "x y z", "x y z w"]);
        r.regenerate_hits().unwrap();
        let kept = counter("stream.resolver.hits_kept");
        let created = counter("stream.resolver.hits_created");
        r.insert(SourceId(0), vec!["x y z w v".into()]).unwrap();
        r.regenerate_hits().unwrap();
        // Counters are process-wide and other tests flush concurrently.
        assert!(counter("stream.resolver.hits_kept") > kept);
        assert!(counter("stream.resolver.hits_created") > created);
        // Three HITs over four listed pairs.
        assert_eq!(r.hits_per_listed_pair(), 0.75);
    }

    #[test]
    fn merging_clusters_keeps_both_sides() {
        let mut r = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.5,
                ..StreamConfig::default()
            },
        );
        feed(&mut r, &["a b c d", "a b c d", "e f g h", "e f g h"]);
        r.regenerate_hits().unwrap();
        let before = snapshot_hits(&r);
        assert_eq!(r.cluster_count(), 2);
        assert_eq!(before.len(), 2);
        // A bridge record overlapping both clusters merges them.
        r.insert(SourceId(0), vec!["a b c d e f g h".into()])
            .unwrap();
        assert_eq!(r.cluster_count(), 1);
        let delta = r.regenerate_hits().unwrap();
        assert!(delta.retired.is_empty(), "both sides' HITs stay: {delta:?}");
        assert_eq!(delta.stable, 2);
        let after = snapshot_hits(&r);
        for hit in &before {
            assert!(after.contains(hit), "{hit:?} kept with stable content");
        }
        // One fresh HIT covers the bridge's four pairs.
        assert_eq!(delta.created.len(), 1);
        let fresh = r.live_hits().get(delta.created[0]).unwrap();
        assert!((0..4).all(|i| fresh.covers(&Pair::of(i, 4))));
    }

    #[test]
    fn a_split_retires_exactly_the_hits_spanning_the_cut() {
        let mut r = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.5,
                cluster_size: 3,
                ..StreamConfig::default()
            },
        );
        // A chain 0-1-2-3: neighbours share 3 of 5 tokens, the rest at
        // most 2 of 6.
        feed(&mut r, &["a b c d", "b c d e", "c d e f", "d e f g"]);
        assert_eq!(r.pairs().len(), 3);
        r.regenerate_hits().unwrap();
        let before = snapshot_hits(&r);
        // Two NO votes veto the middle edge: {0, 1} and {2, 3} split.
        r.record_evidence(Pair::of(1, 2), false, 1.0);
        assert!(r.record_evidence(Pair::of(1, 2), false, 1.0).split);
        let spans = |r: &IncrementalResolver, h: &Hit| {
            let sides: HashSet<usize> = h.records().iter().map(|&x| r.cluster_of(x)).collect();
            sides.len() > 1
        };
        let spanning: Vec<HitId> = before
            .iter()
            .filter(|(_, h)| spans(&r, h))
            .map(|(id, _)| *id)
            .collect();
        assert!(!spanning.is_empty(), "a k = 3 HIT straddles the middle");
        let delta = r.regenerate_hits().unwrap();
        assert_eq!(delta.retired, spanning);
        let after = snapshot_hits(&r);
        for hit in before.iter().filter(|(id, _)| !spanning.contains(id)) {
            assert!(after.contains(hit), "{hit:?} kept with stable content");
        }
        // The cut pairs are covered again, each side on its own.
        for p in [Pair::of(0, 1), Pair::of(2, 3)] {
            assert!(after.iter().any(|(_, h)| h.covers(&p)), "{p} covered");
        }
        assert!(after.iter().all(|(_, h)| !spans(&r, h)));
    }

    #[test]
    fn epoch_rebuild_preserves_exactness() {
        let mut r = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.3,
                rebuild_min_interval: 4, // force frequent epochs
                ..StreamConfig::default()
            },
        );
        let names: Vec<String> = (0..40)
            .map(|i| format!("tok{} tok{} tok{} shared common", i % 7, i % 5, i % 3))
            .collect();
        for n in &names {
            r.insert(SourceId(0), vec![n.clone()]).unwrap();
        }
        assert!(r.epochs() >= 2, "rebuilds must actually fire");
        assert_eq!(r.ranked_pairs(), batch_pairs(r.dataset(), 0.3));
    }

    #[test]
    fn cross_source_space_is_respected() {
        let mut r = IncrementalResolver::new(
            "x",
            vec!["name".into()],
            PairSpace::CrossSource(SourceId(0), SourceId(1)),
            StreamConfig {
                threshold: 0.5,
                ..StreamConfig::default()
            },
        );
        r.insert(SourceId(0), vec!["alpha beta".into()]).unwrap();
        r.insert(SourceId(0), vec!["alpha beta".into()]).unwrap();
        r.insert(SourceId(1), vec!["alpha beta".into()]).unwrap();
        let pairs: Vec<Pair> = r.ranked_pairs().iter().map(|s| s.pair).collect();
        assert_eq!(pairs, vec![Pair::of(0, 2), Pair::of(1, 2)]);
        // Each source probes only the other's postings: the two
        // cross pairs are the only candidates ever enumerated, and the
        // same-source pair (0, 1) never was one.
        assert_eq!(r.cumulative_stats().candidates, 2);
        assert_eq!(r.ranked_pairs(), batch_pairs(r.dataset(), 0.5));
    }

    #[test]
    fn funnel_is_leak_free_cumulatively() {
        let mut r = resolver(0.4);
        let names: Vec<String> = (0..30)
            .map(|i| format!("a{} b{} c{} common", i % 6, i % 4, i % 3))
            .collect();
        for n in &names {
            r.insert(SourceId(0), vec![n.clone()]).unwrap();
        }
        let s = r.cumulative_stats();
        assert_eq!(
            s.candidates,
            s.positional_pruned + s.signature_rejected + s.suffix_pruned + s.verified,
            "{s:?}"
        );
        assert_eq!(s.results as usize, r.pairs().len());
    }

    #[test]
    fn deletion_matches_batch_over_live_corpus() {
        let mut r = resolver(0.4);
        feed(
            &mut r,
            &["a b c d", "a b c e", "a b c f", "x y z", "x y z w"],
        );
        r.remove(RecordId(1)).unwrap();
        assert_eq!(r.live_len(), 4);
        let (dense, original) = r.live_dataset();
        let to_dense: HashMap<RecordId, u32> = original
            .iter()
            .enumerate()
            .map(|(d, &o)| (o, d as u32))
            .collect();
        let remapped: Vec<ScoredPair> = r
            .ranked_pairs()
            .iter()
            .map(|sp| {
                ScoredPair::new(
                    Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                    sp.likelihood,
                )
            })
            .collect();
        assert_eq!(remapped, batch_pairs(&dense, 0.4));
    }

    #[test]
    fn deletion_splits_a_chain_cluster() {
        let mut r = resolver(0.5);
        // A chain: 0-1 (J=0.8) and 1-2 (J=0.6) match; 0-2 (J=0.4) does not.
        feed(&mut r, &["a b c d", "a b c d e", "c d e"]);
        assert_eq!(r.cluster_count(), 1);
        r.regenerate_hits().unwrap();
        // Deleting the middle record severs the chain into singletons.
        let report = r.remove(RecordId(1)).unwrap();
        assert_eq!(report.dropped_pairs, 2);
        assert!(report.splits >= 1, "{report:?}");
        assert_eq!(r.cluster_count(), 0);
        let delta = r.regenerate_hits().unwrap();
        assert!(!delta.retired.is_empty(), "the chain's HITs retire");
        assert!(delta.created.is_empty());
        assert!(r.live_hits().is_empty());
    }

    #[test]
    fn double_delete_and_unknown_record_error() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b", "a b"]);
        r.remove(RecordId(0)).unwrap();
        assert!(r.remove(RecordId(0)).is_err());
        assert!(r.remove(RecordId(9)).is_err());
        assert!(!r.is_alive(RecordId(0)));
        assert!(r.is_alive(RecordId(1)));
    }

    #[test]
    fn reinsert_after_delete_rematches() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c", "a b c"]);
        assert_eq!(r.pairs().len(), 1);
        r.remove(RecordId(1)).unwrap();
        assert!(r.pairs().is_empty());
        r.insert(SourceId(0), vec!["a b c".into()]).unwrap();
        let pairs: Vec<Pair> = r.ranked_pairs().iter().map(|s| s.pair).collect();
        assert_eq!(pairs, vec![Pair::of(0, 2)], "fresh id, same match");
    }

    #[test]
    fn committed_evidence_merges_and_decommit_splits() {
        let mut r = resolver(0.6);
        feed(&mut r, &["a b c d", "a b c d", "w x y z", "w x y z"]);
        assert_eq!(r.cluster_count(), 2);
        r.regenerate_hits().unwrap();
        let bridge = Pair::of(1, 2);
        // A wrong YES commits the bridge (default margin 1.0): the two
        // clusters merge.
        let rep = r.record_evidence(bridge, true, 1.0);
        assert!(rep.committed && rep.merged, "{rep:?}");
        assert_eq!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));
        let before = snapshot_hits(&r);
        let delta = r.regenerate_hits().unwrap();
        assert!(delta.retired.is_empty(), "both halves' HITs stay");
        assert!(delta.created.is_empty(), "no pair awaits a fresh HIT");
        // Contradicting evidence decommits the bridge: the cluster
        // splits back apart.
        let rep = r.record_evidence(bridge, false, 1.0);
        assert!(rep.decommitted && rep.split, "{rep:?}");
        assert_ne!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));
        let delta = r.regenerate_hits().unwrap();
        assert!(delta.retired.is_empty(), "no HIT spans the cut");
        assert_eq!(snapshot_hits(&r), before, "each side keeps its HIT");
        assert_eq!(r.cluster_count(), 2);
    }

    #[test]
    fn non_finite_or_negative_weights_are_dropped() {
        let mut r = resolver(0.6);
        feed(&mut r, &["a b c d", "a b c d", "w x y z", "w x y z"]);
        let bridge = Pair::of(1, 2);
        for weight in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let rep = r.record_evidence(bridge, true, weight);
            assert!(!rep.committed && !rep.merged, "weight {weight}: {rep:?}");
        }
        assert!(r.ledger().is_empty(), "no tally was opened");
        // The pair's tally is unpoisoned: one unit YES still commits it.
        let rep = r.record_evidence(bridge, true, 1.0);
        assert!(rep.committed && rep.merged, "{rep:?}");
        assert_eq!(r.ledger().tally(&bridge).map(|t| t.net()), Some(1.0));
    }

    #[test]
    fn veto_suppresses_a_machine_edge() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c d", "a b c d"]);
        let p = Pair::of(0, 1);
        assert_eq!(r.cluster_count(), 1);
        // Two unit NO votes reach the default veto margin (2.0).
        r.record_evidence(p, false, 1.0);
        let rep = r.record_evidence(p, false, 1.0);
        assert!(rep.split, "{rep:?}");
        assert_ne!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(1)));
        assert_eq!(r.cluster_count(), 0, "vetoed pair leaves the HIT list");
        // The machine pair itself survives in the ranked list — the
        // exactness contract is about the join, not the crowd.
        assert_eq!(r.pairs().len(), 1);
        // Retracting the veto restores the machine edge.
        let rep = r.retract(p);
        assert!(rep.merged);
        assert_eq!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(1)));
        assert_eq!(r.cluster_count(), 1);
    }

    #[test]
    fn retracting_all_evidence_restores_pre_edge_clustering() {
        let mut r = resolver(0.6);
        feed(&mut r, &["a b c d", "a b c d", "w x y z", "w x y z"]);
        let roots_before: Vec<usize> = (0..4).map(|i| r.cluster_of(RecordId(i))).collect();
        let bridge = Pair::of(0, 3);
        r.record_evidence(bridge, true, 3.0);
        assert_eq!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));
        r.retract(bridge);
        let roots_after: Vec<usize> = (0..4).map(|i| r.cluster_of(RecordId(i))).collect();
        // Same partition: records 0,1 together; 2,3 together; sides apart.
        assert_eq!(roots_after[0], roots_after[1]);
        assert_eq!(roots_after[2], roots_after[3]);
        assert_ne!(roots_after[0], roots_after[2]);
        // And the partition matches the pre-evidence one.
        let part = |roots: &[usize]| {
            let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
            for (i, &root) in roots.iter().enumerate() {
                groups.entry(root).or_default().push(i);
            }
            let mut out: Vec<Vec<usize>> = groups.into_values().collect();
            out.sort();
            out
        };
        assert_eq!(part(&roots_before), part(&roots_after));
        assert!(r.ledger().is_empty());
    }

    #[test]
    fn update_rematches_under_the_same_id() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c d", "x y z w", "a b c e"]);
        assert_eq!(r.pairs().len(), 1, "only 0-2 match initially");
        // Correct record 1: it now matches records 0 and 2.
        let rep = r.update(RecordId(1), vec!["a b c d".into()]).unwrap();
        assert_eq!(rep.record, RecordId(1));
        assert_eq!(rep.new_pairs.len(), 2);
        assert_eq!(rep.dropped_pairs, 0);
        assert!(rep.merges >= 1, "{rep:?}");
        assert_eq!(r.ranked_pairs(), batch_pairs(r.dataset(), 0.5));
        assert_eq!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(1)));
        // Correct it away again: the pairs drop, the cluster splits.
        let rep = r.update(RecordId(1), vec!["q q q".into()]).unwrap();
        assert_eq!(rep.dropped_pairs, 2);
        assert!(rep.new_pairs.is_empty());
        assert!(rep.splits >= 1, "{rep:?}");
        assert_eq!(r.ranked_pairs(), batch_pairs(r.dataset(), 0.5));
        assert_ne!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(1)));
    }

    #[test]
    fn update_purges_only_changed_verdicts() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c d", "a b c d", "a b c d x", "w w w"]);
        // Evidence on three kinds of pairs:
        // (0,1): surfaced, likelihood will NOT change under the update.
        r.record_evidence(Pair::of(0, 1), true, 1.0);
        // (2,3): never surfaced, never will be — a pure crowd edge.
        r.record_evidence(Pair::of(2, 3), true, 1.0);
        // (0,2): surfaced; the update changes its likelihood.
        r.record_evidence(Pair::of(0, 2), true, 1.0);
        // Update record 2 so (0,2)/(1,2) likelihoods change but
        // (0,1) and the crowd-only (2,3) verdicts do not.
        let rep = r.update(RecordId(2), vec!["a b c d y z".into()]).unwrap();
        assert_eq!(rep.purged_evidence, 1, "{rep:?}");
        assert!(
            r.ledger().tally(&Pair::of(0, 1)).is_some(),
            "unchanged verdict keeps votes"
        );
        assert!(
            r.ledger().tally(&Pair::of(2, 3)).is_some(),
            "crowd-only pair keeps votes"
        );
        assert!(
            r.ledger().tally(&Pair::of(0, 2)).is_none(),
            "changed verdict purged"
        );
        assert_eq!(r.ranked_pairs(), batch_pairs(r.dataset(), 0.5));
        // A dropped pair's evidence goes too.
        r.record_evidence(Pair::of(0, 2), true, 1.0);
        r.update(RecordId(2), vec!["z z z".into()]).unwrap();
        assert!(r.ledger().tally(&Pair::of(0, 2)).is_none());
    }

    #[test]
    fn update_rejects_bad_targets_without_mutating() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b", "a b"]);
        assert!(matches!(
            r.update(RecordId(9), vec!["x".into()]),
            Err(Error::UnknownRecord(9))
        ));
        r.remove(RecordId(1)).unwrap();
        assert!(r.update(RecordId(1), vec!["x".into()]).is_err());
        // Schema mismatch: rejected before any state moves.
        let pairs_before = r.ranked_pairs();
        let fields_before = r.dataset().record(RecordId(0)).unwrap().fields.clone();
        assert!(r.update(RecordId(0), vec!["x".into(), "y".into()]).is_err());
        assert_eq!(
            r.dataset().record(RecordId(0)).unwrap().fields,
            fields_before
        );
        assert_eq!(r.ranked_pairs(), pairs_before);
    }

    #[test]
    fn rerank_now_after_a_remove_preserves_exactness() {
        let mut r = resolver(0.4);
        feed(
            &mut r,
            &["a b c d", "a b c e", "a b c f", "x y z", "x y z w"],
        );
        r.remove(RecordId(1)).unwrap();
        let before = r.ranked_pairs();
        let epochs = r.epochs();
        r.rerank_now();
        assert_eq!(r.epochs(), epochs + 1);
        assert_eq!(r.ranked_pairs(), before);
        r.insert(SourceId(0), vec!["a b c d".into()]).unwrap();
        let (dense, original) = r.live_dataset();
        let to_dense: HashMap<RecordId, u32> = original
            .iter()
            .enumerate()
            .map(|(d, &o)| (o, d as u32))
            .collect();
        let remapped: Vec<ScoredPair> = r
            .ranked_pairs()
            .iter()
            .map(|sp| {
                ScoredPair::new(
                    Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                    sp.likelihood,
                )
            })
            .collect();
        assert_eq!(remapped, batch_pairs(&dense, 0.4));
    }

    #[test]
    fn state_round_trip_is_bit_exact_and_future_proof() {
        let mut r = resolver(0.4);
        feed(
            &mut r,
            &["a b c d", "a b c e", "x y z", "x y z w", "a b c d e"],
        );
        r.record_evidence(Pair::of(0, 1), true, 1.0);
        r.record_evidence(Pair::of(2, 3), false, 0.5);
        r.remove(RecordId(4)).unwrap();
        // Export is only legal at a flush boundary.
        assert!(r.export_state().is_err(), "dirty clusters block export");
        r.regenerate_hits().unwrap();
        let state = r.export_state().unwrap();
        let mut imported =
            IncrementalResolver::import_state(r.config().clone(), state.clone()).unwrap();
        // Identical present state…
        assert_eq!(imported.ranked_pairs(), r.ranked_pairs());
        assert_eq!(imported.pairs(), r.pairs());
        assert_eq!(imported.cumulative_stats(), r.cumulative_stats());
        for i in 0..r.len() as u32 {
            assert_eq!(imported.cluster_of(RecordId(i)), r.cluster_of(RecordId(i)));
        }
        let live_a: Vec<_> = r
            .live_hits()
            .iter()
            .map(|(id, h)| (id, h.clone()))
            .collect();
        let live_b: Vec<_> = imported
            .live_hits()
            .iter()
            .map(|(id, h)| (id, h.clone()))
            .collect();
        assert_eq!(live_a, live_b);
        // …and identical future behavior, including fresh HIT ids.
        for resolver in [&mut r, &mut imported] {
            resolver
                .insert(SourceId(0), vec!["a b c d".into()])
                .unwrap();
            resolver
                .update(RecordId(0), vec!["a b c q".into()])
                .unwrap();
            resolver.record_evidence(Pair::of(0, 1), false, 2.0);
            resolver.regenerate_hits().unwrap();
        }
        assert_eq!(imported.ranked_pairs(), r.ranked_pairs());
        assert_eq!(
            imported.export_state().unwrap(),
            r.export_state().unwrap(),
            "post-recovery evolution is bit-for-bit identical"
        );
    }

    #[test]
    fn corrupted_state_imports_are_rejected() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b c", "a b c", "x y"]);
        r.regenerate_hits().unwrap();
        let good = r.export_state().unwrap();
        let config = r.config().clone();
        assert!(IncrementalResolver::import_state(config.clone(), good.clone()).is_ok());
        // Liveness flags out of sync with the corpus.
        let mut bad = good.clone();
        bad.alive.pop();
        assert!(IncrementalResolver::import_state(config.clone(), bad).is_err());
        // A token missing from the dictionary.
        let mut bad = good.clone();
        bad.dict_tokens.clear();
        bad.dict_dfs.clear();
        bad.dict_ranks.clear();
        assert!(IncrementalResolver::import_state(config.clone(), bad).is_err());
        // Cluster labels violating the graph invariant.
        let mut bad = good.clone();
        bad.labels = vec![2, 0, 1];
        assert!(IncrementalResolver::import_state(config.clone(), bad).is_err());
        // A machine pair pointing past the corpus.
        let mut bad = good.clone();
        bad.pairs.push(ScoredPair::new(Pair::of(0, 99), 0.9));
        assert!(IncrementalResolver::import_state(config.clone(), bad).is_err());
        // A HIT showing a record past the corpus.
        let mut bad = good.clone();
        bad.hits[0].1 = Hit::cluster([RecordId(0), RecordId(9)]);
        assert!(IncrementalResolver::import_state(config.clone(), bad).is_err());
        // Labels that split the machine pair (0, 1)'s derived edge.
        let mut bad = good;
        bad.labels = vec![0, 1, 2];
        assert!(matches!(
            IncrementalResolver::import_state(config, bad),
            Err(Error::InvalidData(msg)) if msg.contains("spans two component labels")
        ));
    }

    #[test]
    fn evidence_for_dead_records_is_dropped() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b", "a b"]);
        r.remove(RecordId(1)).unwrap();
        let rep = r.record_evidence(Pair::of(0, 1), true, 5.0);
        assert!(!rep.committed && !rep.merged);
        assert!(r.ledger().is_empty());
        let rep = r.record_evidence(Pair::of(0, 7), true, 5.0);
        assert!(!rep.committed, "{rep:?}");
    }

    #[test]
    fn retracting_a_pair_past_the_corpus_is_a_no_op() {
        let mut r = resolver(0.5);
        feed(&mut r, &["a b", "a b"]);
        let before = (r.ranked_pairs(), r.cluster_count(), r.dirty_clusters());
        let rep = r.retract(Pair::of(0, 999));
        assert!(!rep.decommitted && !rep.merged && !rep.split, "{rep:?}");
        assert_eq!(
            (r.ranked_pairs(), r.cluster_count(), r.dirty_clusters()),
            before
        );
    }

    /// The exported document frequency of each token, by token string.
    fn exported_dfs(r: &mut IncrementalResolver) -> HashMap<String, u32> {
        r.regenerate_hits().unwrap();
        let state = r.export_state().unwrap();
        state.dict_tokens.into_iter().zip(state.dict_dfs).collect()
    }

    #[test]
    fn document_frequencies_follow_the_live_corpus() {
        let mut r = resolver(0.4);
        feed(&mut r, &["alpha beta", "alpha gamma"]);
        r.update(RecordId(0), vec!["delta beta".into()]).unwrap();
        r.remove(RecordId(1)).unwrap();
        let dfs = exported_dfs(&mut r);
        let expected = [("alpha", 0), ("beta", 1), ("gamma", 0), ("delta", 1)];
        for (token, df) in expected {
            assert_eq!(dfs[token], df, "{token}: {dfs:?}");
        }
        assert_eq!(dfs.len(), expected.len(), "released tokens keep their ids");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// After any script of inserts, updates and removes, each
        /// exported document frequency equals a recount over the live
        /// records, and tokens no live record holds read 0.
        #[test]
        fn exported_dfs_equal_a_recount_over_live_records(
            script in proptest::collection::vec((0usize..10, 0usize..64, 0u32..1 << 20), 1..40),
        ) {
            const WORDS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
            let mut r = resolver(0.4);
            let mut live: Vec<Option<String>> = Vec::new();
            for (op, pick, bits) in script {
                let name: Vec<&str> = (0..WORDS.len())
                    .filter(|w| bits >> (2 * w) & 3 == 0)
                    .map(|w| WORDS[w])
                    .collect();
                let name = name.join(" ");
                let alive: Vec<usize> = (0..live.len()).filter(|&i| live[i].is_some()).collect();
                match op {
                    0..=3 if !alive.is_empty() => {
                        let record = alive[pick % alive.len()];
                        if op < 2 {
                            r.remove(RecordId(record as u32)).unwrap();
                            live[record] = None;
                        } else {
                            r.update(RecordId(record as u32), vec![name.clone()]).unwrap();
                            live[record] = Some(name);
                        }
                    }
                    _ => {
                        r.insert(SourceId(0), vec![name.clone()]).unwrap();
                        live.push(Some(name));
                    }
                }
            }
            let mut recount: HashMap<String, u32> = HashMap::new();
            for name in live.iter().flatten() {
                for token in crowder_text::tokenize(name).tokens() {
                    *recount.entry(token.clone()).or_default() += 1;
                }
            }
            for (token, df) in exported_dfs(&mut r) {
                proptest::prop_assert_eq!(df, recount.get(&token).copied().unwrap_or(0), "{}", token);
            }
        }
    }
}
