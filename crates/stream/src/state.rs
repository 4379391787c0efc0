//! The snapshot form of an [`IncrementalResolver`]: the resolver's
//! history, flattened into plain vectors with deterministic ordering.
//!
//! The durability layer's exactness contract — recover-and-replay is
//! bit-for-bit identical to never having crashed — only holds if the
//! snapshot captures *all* state the resolver's future behavior depends
//! on. What is **stored** is what the current corpus, pairs and votes
//! cannot reproduce:
//!
//! * the **corpus** (fields, sources, liveness flags, gold pairs) and
//!   the **dictionary** (stable ids, document frequencies, current
//!   ranks, epoch counters);
//! * **pair discovery order**, plus each likelihood as exact `f64`
//!   bits, and the signed **evidence tallies**;
//! * **cluster labels**, which depend on the merge/split *sequence*,
//!   not just the current edge set;
//! * the **HIT id counter**, the live HITs and the per-cluster id
//!   books, so regenerated HITs continue the same never-reused id
//!   sequence.
//!
//! What is **derived** on import: token-id lists re-encode from the
//! stored fields through the dictionary; index postings rebuild from
//! the rank lists in canonical record order (see `DeltaIndex`); the
//! `machine` membership set is the pair list; the cluster edges and
//! the to-verify pairs follow from the pairs, the tallies and the
//! liveness flags under the edge-state rule (see the `resolver` module
//! docs); and the removal count is the number of dead slots. HIT
//! regeneration reads each cluster's to-verify pairs as a set — the
//! two-tiered generator sorts its input — so no list order is stored.
//!
//! [`IncrementalResolver`]: crate::IncrementalResolver

use crowder_hitgen::Hit;
use crowder_simjoin::JoinStats;
use crowder_types::{Pair, PairSpace, ScoredPair};

/// Complete deterministic export of an
/// [`IncrementalResolver`](crate::IncrementalResolver) at a flush
/// boundary (no dirty clusters). Produced by
/// [`export_state`](crate::IncrementalResolver::export_state), consumed
/// by [`import_state`](crate::IncrementalResolver::import_state); the
/// durability layer serializes it into snapshot files.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverState {
    /// Dataset name.
    pub name: String,
    /// Attribute names.
    pub schema: Vec<String>,
    /// Candidate-pair space.
    pub pair_space: PairSpace,
    /// Gold-standard pairs, sorted.
    pub gold: Vec<Pair>,
    /// `(source, fields)` per record slot, dense in arrival order —
    /// tombstoned slots keep their last fields.
    pub records: Vec<(u8, Vec<String>)>,
    /// Liveness flag per record slot.
    pub alive: Vec<bool>,
    /// Dictionary tokens in stable-id order.
    pub dict_tokens: Vec<String>,
    /// Document frequency per token id.
    pub dict_dfs: Vec<u32>,
    /// Current rank per token id.
    pub dict_ranks: Vec<u32>,
    /// Tokens interned since the last re-rank epoch.
    pub dict_fresh: u32,
    /// Completed re-rank epochs.
    pub dict_epochs: u64,
    /// Live machine pairs in discovery order (likelihoods are exact).
    pub pairs: Vec<ScoredPair>,
    /// Evidence tallies sorted by pair: `(pair, yes-weight bits,
    /// no-weight bits, vote count)`.
    pub tallies: Vec<(Pair, u64, u64, u32)>,
    /// Funnel counters summed over every delta join so far.
    pub cumulative: JoinStats,
    /// Cluster label per vertex (history-dependent — see module docs).
    pub labels: Vec<u32>,
    /// Live HITs in ascending id order.
    pub hits: Vec<(u64, Hit)>,
    /// Per-cluster published HIT ids, sorted by cluster label.
    pub hit_roots: Vec<(usize, Vec<u64>)>,
    /// Next HIT id to assign (ids are never reused).
    pub next_hit: u64,
    /// Arrivals since the last re-rank epoch.
    pub inserts_since_rebuild: u64,
}
