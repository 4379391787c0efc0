//! # crowder-simjoin
//!
//! The *machine* half of the hybrid workflow (paper Figure 1): compute,
//! for every candidate pair, the likelihood that the two records refer to
//! the same entity, and keep only pairs at or above a likelihood
//! threshold. The paper instantiates the likelihood with Jaccard
//! similarity over whole-record token sets and calls the technique
//! `simjoin` (§7.1).
//!
//! All strategies share one substrate: [`TokenTable`] interns the
//! corpus tokens to `u32` ids ordered by ascending corpus frequency
//! (via [`crowder_text::TokenDict`]) and caches each record's sorted id
//! list at construction. Scoring a pair is then an integer-slice merge;
//! the global rarest-first id order doubles as the prefix-filtering
//! token order, so no strategy re-derives a vocabulary per call.
//!
//! ## Execution strategies
//!
//! * [`all_pairs_scored`] — exhaustive comparison of every candidate
//!   pair, parallelized with scoped threads over strided rows; each
//!   thread fills a local buffer and buffers concatenate in thread
//!   order (lock-free, deterministic). No filtering: `O(n²)` merges.
//!   **Wins** when the threshold is very low (little to prune), when
//!   record token sets are tiny, or as the trusted reference — the
//!   other strategies are property-tested against it.
//!
//! * [`prefix_join`] — PPJoin+-class inverted-index join applying four
//!   lossless filters before any verification:
//!   1. *prefix filter*: a probe's `|x| − ⌈t·|x|⌉ + 1` rarest tokens are
//!      matched against an index holding only each record's *indexing
//!      prefix* of `|y| − ⌈2t/(1+t)·|y|⌉ + 1` tokens (probes are never
//!      shorter than indexed records);
//!   2. *length filter*: `|y| ≥ t·|x|`, applied by binary search on the
//!      length-ordered posting lists;
//!   3. *positional filter* (PPJoin): from the first shared prefix
//!      token's positions, the achievable overlap
//!      `1 + min(|x|−i−1, |y|−j−1)` must reach `⌈t/(1+t)·(|x|+|y|)⌉`;
//!   4. *suffix filter* (PPJoin+): a depth-bounded recursive partition
//!      lower-bounds the suffixes' Hamming distance without merging.
//!
//!   Survivors are verified by *resuming* the integer merge after the
//!   first shared prefix position, abandoning once the threshold is out
//!   of reach. Probing is parallelized by partitioning the length-sorted
//!   record order across threads against the shared one-shot index.
//!   **Wins** — usually by a wide margin — at moderate-to-high
//!   thresholds on realistic data, where the filters eliminate the vast
//!   majority of the `O(n²)` verifications. Output is bit-identical to
//!   [`all_pairs_scored`]; [`prefix_join_with_stats`] additionally
//!   reports the per-filter candidate funnel.
//!
//! [`threshold_sweep`] reproduces Table 2's likelihood-threshold
//! selection rows, running [`prefix_join`] once at the lowest positive
//! threshold and bucketing the output.

pub mod allpairs;
pub mod filters;
pub mod prefix;
pub mod sweep;
pub mod tokens;

pub use allpairs::all_pairs_scored;
pub use prefix::{prefix_join, prefix_join_with_stats, publish_funnel, JoinStats};
pub use sweep::{threshold_sweep, SweepRow};
pub use tokens::TokenTable;
