//! # crowder
//!
//! A from-scratch Rust reproduction of **CrowdER: Crowdsourcing Entity
//! Resolution** (Wang, Kraska, Franklin, Feng — PVLDB 5(11), 2012).
//!
//! CrowdER resolves duplicate records with a *hybrid human–machine
//! workflow* (paper Figure 1):
//!
//! 1. a cheap **machine pass** scores every candidate pair with a match
//!    likelihood (Jaccard over record token sets) and prunes pairs below
//!    a threshold;
//! 2. the surviving pairs are compiled into **HITs** — either pair-based
//!    batches or *cluster-based* record groups, whose minimum-count
//!    generation is NP-Hard and solved by the paper's two-tiered
//!    heuristic (greedy graph partitioning + cutting-stock bin packing);
//! 3. the **crowd** verifies the HITs (simulated here — see
//!    `crowder-crowd`), with each HIT replicated across 3 workers;
//! 4. answers are **aggregated** by Dawid–Skene EM into a final ranked
//!    list of matching pairs.
//!
//! Beyond the paper's one-shot batch, the workspace also runs the
//! pipeline **incrementally** (`crowder-stream` + `run_streaming`):
//! records arrive continuously, each is delta-joined against the
//! existing corpus, and only the clusters it touches get their HITs
//! regenerated — with the streamed pair set bit-identical to the batch
//! machine pass.
//!
//! This facade crate re-exports the whole workspace; depend on it alone
//! and import [`prelude`].
//!
//! ## Quick start
//!
//! ```
//! use crowder::prelude::*;
//!
//! // The paper's Table 1 products.
//! let dataset = crowder_datagen::table1();
//! let crowd = WorkerPopulation::generate(&PopulationConfig::default(), 7);
//! let config = HybridConfig {
//!     likelihood_threshold: 0.3,
//!     cluster_size: 4,
//!     ..HybridConfig::default()
//! };
//! let outcome = run_hybrid(&dataset, &crowd, &config).unwrap();
//! // The four true matching pairs of Figure 2(c) rank at the top.
//! let top: Vec<_> = outcome.ranked.iter().take(4).map(|s| s.pair).collect();
//! assert!(top.iter().all(|p| dataset.gold.is_match(p)));
//! ```

pub use crowder_core::*;

/// The observability runtime ([`crowder_obs`]): metric registry, spans,
/// event journal, and a Prometheus exporter. Re-exported so facade
/// users can `crowder::obs::install_recorder()` without naming the
/// sub-crate.
pub use crowder_obs as obs;

/// The concurrent serving layer ([`crowder_serve`]): a
/// `ResolverService` owning the incremental resolver behind a bounded
/// command queue — multi-producer ingest with explicit backpressure,
/// `resolve()` reads against the live state, group-commit durability.
/// Re-exported so facade users can
/// `crowder::serve::ResolverService::in_memory(...)` without naming
/// the sub-crate.
pub use crowder_serve as serve;
