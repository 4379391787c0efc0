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
//!   Batch CrowdER interns tokens once in ascending document-frequency
//!   order (§7.1's token sets + the classic rarest-first prefix order of
//!   Chaudhuri et al. 2006 / Bayardo et al. 2007). Streaming splits
//!   stable token *ids* from mutable *ranks*: unseen tokens intern on
//!   the fly into a reserved low-rank band (a fresh token has df 1 — the
//!   rarest thing in the corpus), and an epoch-based
//!   [`rerank`](StreamingDict::rerank) periodically restores the exact
//!   df order as frequencies drift. Filter *correctness* needs only one
//!   consistent total order, so rank staleness costs selectivity, never
//!   results.
//! * [`DeltaIndex`] — the machine pass (§2.1.1's likelihood = Jaccard,
//!   §2.2's footnote on indexed joins) as an insert-capable PPJoin+
//!   probe: symmetric prefix filter, positional filter, suffix filter,
//!   and resume-merge verification. The probe itself is the kernel the
//!   batch engine runs too (`crowder_simjoin::filters::Probe`); this
//!   crate keeps only the posting lists, which are **bucketed by record
//!   length** (O(1) append per arrival) so the length filter is a
//!   binary-searched window over bucket headers, not a per-candidate
//!   check — see the [`delta`] module docs. Deletion is a **tombstone**: the dead
//!   slot is skipped by every probe immediately (O(1) to delete) and its
//!   postings are swept out at the next epoch rebuild, so churn never
//!   degrades the index permanently. Read-only **query probes**
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
//!   crowd verification are one set, not per-cluster lists: a cluster's
//!   share is read off its members' edges when its HITs regenerate.
//! * [`LiveHits`] — live HIT regeneration: dirty clusters re-enter the
//!   paper's two-tiered generator (§5, Algorithms 1–2 + the
//!   cutting-stock packing of §5.3) while untouched clusters keep their
//!   published HITs under stable [`HitId`]s. Splits retire the old
//!   cluster's HITs and publish fresh ones for each side; a cluster that
//!   loses its last to-verify pair just has its HITs withdrawn.
//! * [`ResolverState`] — the snapshot form: history only (corpus,
//!   dictionary, pair order, tallies, cluster labels, HIT books).
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
