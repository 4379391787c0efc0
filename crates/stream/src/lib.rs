//! # crowder-stream
//!
//! The incremental ER engine: CrowdER's batch pipeline (machine pass →
//! HIT generation → crowd) re-cast as an always-on system that absorbs
//! record arrivals one at a time — and, since the fault-tolerance PR,
//! record *deletions* and crowd-answer *retractions* too. Where the
//! paper's workflow (Figure 1) recomputes everything per run, this
//! crate maintains the same state *deltas*: each mutation touches only
//! the postings, clusters, and HITs it actually affects.
//!
//! ## Component map (paper / related-work sources)
//!
//! * [`StreamingDict`] — the corpus token order behind prefix filtering.
//!   Both engines turn record fields into token ids through one
//!   [`TokenDict`](crowder_text::TokenDict) (§7.1's token sets, one map
//!   lookup per token occurrence). Batch CrowdER renumbers it once in
//!   ascending document-frequency order (the classic rarest-first
//!   prefix order of Chaudhuri et al. 2006 / Bayardo et al. 2007).
//!   Streaming keeps only what is stream-specific on top: stable token
//!   *ids* split from mutable *ranks*. Unseen tokens intern on the fly
//!   into a reserved low-rank band (a fresh token has df 1 — the rarest
//!   thing in the corpus), and an epoch-based
//!   [`rerank`](StreamingDict::rerank) periodically restores the exact
//!   df order as frequencies drift. Filter *correctness* needs only one
//!   consistent total order, so rank staleness costs selectivity, never
//!   results.
//! * [`DeltaIndex`] — the machine pass (§2.1.1's likelihood = Jaccard,
//!   §2.2's footnote on indexed joins) as an insert-capable PPJoin+
//!   probe: symmetric prefix filter, positional filter, suffix filter,
//!   and resume-merge verification. The probe itself is the kernel the
//!   batch engine runs too (`crowder_simjoin::filters::Probe`); this
//!   crate keeps only the posting lists. They are **split by join
//!   side** ([`PairSpace::sides`](crowder_types::PairSpace::sides)), as
//!   the batch join's are, so an arrival probes only the source it can
//!   pair with and no pair outside the pair space is ever enumerated;
//!   and each (side, rank) list is **one vector sorted by record
//!   length**, so the length filter is one binary-searched slice, not a
//!   per-candidate check — see the [`delta`] module docs. Deletion strips the dead
//!   record's postings at once (the same strip an in-place update
//!   runs), so the index only ever holds live records and churn never
//!   degrades it. Read-only **query probes**
//!   ([`IncrementalResolver::query`] over
//!   [`DeltaIndex::probe_query`]) answer "what would this record
//!   match?" without mutating the corpus — the serving surface
//!   (`crowder-serve`) builds its `resolve()` API on them.
//! * [`EvidenceLedger`] — crowd answers as signed, weighted, revocable
//!   votes (Gruenheid et al. 2015's fault-tolerant ER model). A pair's
//!   edge **commits** while its net weight reaches the commit margin and
//!   decommits when contradicting answers pull it back; a machine edge
//!   is **vetoed** when net weight falls past the veto margin. Vote
//!   weights are Youden's J over Dawid–Skene worker-quality estimates
//!   ([`vote_weight`]), so spammers weigh ~0 and
//!   estimated liars are silenced.
//! * [`IncrementalResolver`] — the mutable core. Clustering lives in a
//!   [`DynamicConnectivity`](crowder_graph::DynamicConnectivity) graph
//!   (not a union-find): edges appear when a pair is machine-surfaced
//!   and un-vetoed *or* crowd-committed, and disappear when deletions or
//!   evidence shifts deactivate them — so clusters can **split**, not
//!   just grow. The mutation API is `insert` / `remove` / `retract` /
//!   `record_evidence`; see the [`resolver`] module docs for the exact
//!   edge-state rule and the per-mutation reports. The pairs awaiting
//!   crowd verification are one set, not per-cluster lists; the pairs
//!   listed since the last flush are one queue the flush drains.
//! * [`LiveHits`] — the published HIT set, repaired per flush: a HIT of
//!   a dirty cluster keeps its [`HitId`] and content while its records
//!   are alive, share one cluster and include a listed pair; the rest
//!   retire, and the paper's two-tiered generator (§5, Algorithms 1–2 +
//!   the cutting-stock packing of §5.3) runs per cluster only over the
//!   newly listed pairs and the ones a retired HIT leaves uncovered. A
//!   split retires only the HITs spanning the cut; a merge keeps both
//!   sides' HITs. An answer that leaves a pair unsettled publishes it
//!   again. A cluster of more than `k` records whose live HITs pass 1.5
//!   times its count after its last full generation is regenerated in
//!   full.
//! * [`ResolverState`] — the snapshot form: history only (corpus,
//!   dictionary, pair order, tallies, cluster labels, HIT books and
//!   their baselines).
//!   Cluster edges, the to-verify set and the removal count are
//!   re-derived on import.
//!
//! ## The exactness contract
//!
//! After any interleaving of arrivals and deletions,
//! [`IncrementalResolver::ranked_pairs`] restricted to live records is
//! **bit-identical** to a batch
//! [`prefix_join`](crowder_simjoin::prefix_join) over the live corpus at
//! the same threshold — same pairs, same `f64` likelihoods, same order
//! (up to the monotone dense re-numbering returned by
//! [`IncrementalResolver::live_dataset`]). And evidence is exactly
//! revocable: retracting every vote for a pair restores the clustering
//! to its pre-evidence shape. Both properties are enforced by proptests
//! here and in the workspace integration suite.
//!
//! The interactive half — interleaving arrival batches, deletions, and
//! simulated crowd sessions with fault injection — lives in
//! `crowder-core`'s `StreamingWorkflow`, which drives this crate
//! together with `crowder-crowd` and `crowder-aggregate`.

pub mod delta;
pub mod dict;
pub mod evidence;
pub mod live;
pub mod resolver;
pub mod state;

pub use delta::DeltaIndex;
pub use dict::StreamingDict;
pub use evidence::{
    valid_weight, vote_weight, EvidenceConfig, EvidenceLedger, EvidenceShift, Tally,
};
pub use live::{HitId, LiveHits};
pub use resolver::{
    EvidenceReport, HitDelta, IncrementalResolver, InsertReport, QueryMatch, RemoveReport,
    StreamConfig, UpdateReport,
};
pub use state::ResolverState;
