//! # crowder-aggregate
//!
//! Combining the three assignments of every HIT into one decision.
//!
//! The paper (§7.3): *"A simple technique would be to average the three
//! responses for each HIT, but this approach is susceptible to spammers.
//! Instead we adopted the EM-based algorithm \[9\]"* — Dawid & Skene's
//! observer-error-rate model, shown effective on AMT by Ipeirotis et
//! al. \[16\]. Both aggregators are implemented:
//!
//! * [`majority_vote`] — the baseline: fraction of YES votes per pair,
//! * [`DawidSkene`] — full EM: alternately estimate per-worker
//!   sensitivity/specificity and per-pair match posteriors; spammers'
//!   votes are automatically down-weighted. Pairs answered alike share
//!   a posterior, so EM runs once per distinct vote pattern, weighted
//!   by how many pairs share it.
//!
//! Output in both cases is a ranked list of [`ScoredPair`](crowder_types::ScoredPair)s (likelihood =
//! posterior / vote share) feeding the precision–recall machinery.

pub mod dawid_skene;
pub mod majority;

pub use dawid_skene::{DawidSkene, DawidSkeneOutcome, WorkerQuality};
pub use majority::majority_vote;

use crowder_types::Pair;

/// One crowd vote: `(pair, worker-index, verdict)`.
///
/// Worker identifiers are plain `usize` here so the aggregator stays
/// decoupled from the crowd simulator (real deployments would map AMT
/// worker ids the same way).
pub type Vote = (Pair, usize, bool);
