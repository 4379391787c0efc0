//! # crowder-core
//!
//! The hybrid human–machine workflow of the CrowdER reproduction (paper
//! Figure 1): machine pass → HIT generation → simulated crowd →
//! aggregation, plus budget planning and CrowdSQL-style joins.
//!
//! Applications normally depend on the `crowder` facade crate, which
//! re-exports everything here (see its crate docs for a quick-start
//! example); the workspace crates are re-exported under [`prelude`] so
//! downstream users need a single dependency.

pub mod baselines;
pub mod budget;
pub mod query;
pub mod streaming;
pub mod workflow;

pub use baselines::{simjoin_ranking, svm_average_curve, svm_rankings};
pub use budget::{plan_budget, BudgetPlan, BudgetPoint};
pub use query::{CrowdJoin, CrowdJoinResult};
pub use streaming::{
    run_streaming, DurabilityOptions, FaultPlan, RoundReport, StreamingConfig, StreamingOutcome,
};
pub use workflow::{run_hybrid, Aggregation, HitStrategy, HybridConfig, HybridOutcome};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::baselines::{simjoin_ranking, svm_average_curve, svm_rankings};
    pub use crate::budget::{plan_budget, BudgetPlan, BudgetPoint};
    pub use crate::query::{CrowdJoin, CrowdJoinResult};
    pub use crate::streaming::{
        run_streaming, DurabilityOptions, FaultPlan, RoundReport, StreamingConfig, StreamingOutcome,
    };
    pub use crate::workflow::{run_hybrid, Aggregation, HitStrategy, HybridConfig, HybridOutcome};
    pub use crowder_aggregate::{majority_vote, DawidSkene};
    pub use crowder_crowd::{CrowdConfig, PopulationConfig, QualificationConfig, WorkerPopulation};
    pub use crowder_datagen::{
        product, product_dup, restaurant, table1, ProductConfig, ProductDupConfig, RestaurantConfig,
    };
    pub use crowder_durable::{
        digest, Dir, DurabilityConfig, DurableResolver, FaultyDir, FsDir, MemDir, RecoveryReport,
        StateDigest, WalOp,
    };
    pub use crowder_hitgen::{
        generate_pair_hits, ApproxGenerator, BfsGenerator, ClusterGenerator, DfsGenerator, Hit,
        RandomGenerator, TwoTieredConfig, TwoTieredGenerator,
    };
    pub use crowder_metrics::{pr_curve, precision_at_recall, AsciiTable, PrCurve};
    pub use crowder_simjoin::{
        all_pairs_scored, prefix_join, prefix_join_with_stats, threshold_sweep, JoinStats,
        TokenTable,
    };
    pub use crowder_stream::{
        vote_weight, EvidenceConfig, EvidenceLedger, HitDelta, HitId, IncrementalResolver,
        InsertReport, LiveHits, QueryMatch, RemoveReport, ResolverState, StreamConfig,
        UpdateReport,
    };
    pub use crowder_types::{
        Dataset, GoldStandard, Pair, PairSpace, Record, RecordId, ScoredPair, SourceId,
    };
}
