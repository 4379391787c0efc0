//! # crowder-hitgen
//!
//! HIT generation — the algorithmic heart of the paper (§3–§6).
//!
//! Given the set of record pairs that survived the machine pass, HITs
//! must be generated so the crowd can verify them. Two shapes exist:
//!
//! * **pair-based** ([`generate_pair_hits`]) — batches of explicit pairs,
//!   `⌈|P|/k⌉` HITs (§3.1);
//! * **cluster-based** — sets of ≤ `k` records; a HIT verifies every pair
//!   whose two records it contains. Minimizing their number is NP-Hard
//!   (§3.2, Theorem 1), so the paper evaluates five generators, all
//!   implemented here behind the [`ClusterGenerator`] trait:
//!   [`RandomGenerator`], [`BfsGenerator`], [`DfsGenerator`],
//!   [`ApproxGenerator`] (Goldschmidt et al.'s k-clique cover
//!   approximation, §4) and [`TwoTieredGenerator`] (the paper's
//!   contribution, §5).
//!
//! All five build one flat [`HitGraph`](crowder_graph::HitGraph) from
//! their pairs (the two-tiered generator one per large connected
//! component) and remove covered edges from it as they emit HITs. Its
//! dense local ids order like record ids, so every "smallest id"
//! tie-break, and with it every HIT, is the same as over record ids.
//!
//! [`comparisons`] implements the §6 back-of-the-envelope model of how
//! many record comparisons a worker performs per HIT; the crowd
//! simulator's latency model is built on it. [`validate`] checks the
//! Definition 1 requirements and backs the cross-generator property
//! tests.

pub mod approx;
pub mod bfsdfs;
pub mod comparisons;
pub mod hit;
pub mod pairhits;
pub mod random;
pub mod twotiered;
pub mod validate;

pub use approx::ApproxGenerator;
pub use bfsdfs::{BfsGenerator, DfsGenerator};
pub use comparisons::{best_order_comparisons, cluster_comparisons, worst_order_comparisons};
pub use hit::{ClusterGenerator, Hit};
pub use pairhits::generate_pair_hits;
pub use random::RandomGenerator;
pub use twotiered::{partition_lcc, TwoTieredConfig, TwoTieredGenerator};
pub use validate::{validate_cluster_hits, validate_pair_hits};
