//! The hybrid human–machine workflow (paper Figure 1).

use crowder_aggregate::{majority_vote, DawidSkene, Vote};
use crowder_crowd::{simulate, CrowdConfig, SimOutcome, WorkerPopulation};
use crowder_hitgen::{
    generate_pair_hits, ClusterGenerator, Hit, TwoTieredConfig, TwoTieredGenerator,
};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_types::{Dataset, Error, Pair, Result, ScoredPair};

/// How surviving pairs are compiled into HITs.
#[derive(Debug, Clone)]
pub enum HitStrategy {
    /// Pair-based HITs with `per_hit` pairs each (§3.1).
    PairBased {
        /// Pairs batched per HIT.
        per_hit: usize,
    },
    /// Cluster-based HITs from the two-tiered generator (§5); the
    /// cluster-size threshold is [`HybridConfig::cluster_size`].
    ClusterBased {
        /// Two-tiered tuning (packing and tie-break ablations).
        config: TwoTieredConfig,
    },
}

/// How the three assignments per HIT are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Average of votes — the paper's spammer-susceptible baseline.
    MajorityVote,
    /// Dawid–Skene EM — the paper's choice (§7.3).
    DawidSkene,
}

impl Aggregation {
    /// The voted pairs ranked by aggregated posterior; no votes rank
    /// nothing.
    pub fn rank(self, votes: &[Vote]) -> Result<Vec<ScoredPair>> {
        if votes.is_empty() {
            return Ok(Vec::new());
        }
        Ok(match self {
            Aggregation::MajorityVote => majority_vote(votes),
            Aggregation::DawidSkene => DawidSkene::default().run(votes)?.ranked,
        })
    }
}

/// Full workflow configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Machine-pass likelihood threshold (pairs below are pruned).
    pub likelihood_threshold: f64,
    /// Cluster-size threshold `k`.
    pub cluster_size: usize,
    /// HIT compilation strategy.
    pub strategy: HitStrategy,
    /// Crowd-platform parameters.
    pub crowd: CrowdConfig,
    /// Answer aggregation.
    pub aggregation: Aggregation,
    /// Worker threads for the similarity pass (0 = all cores).
    pub similarity_threads: usize,
}

impl Default for HybridConfig {
    /// The paper's §7.3 configuration: cluster-based HITs, k = 10, three
    /// assignments, EM aggregation.
    fn default() -> Self {
        HybridConfig {
            likelihood_threshold: 0.2,
            cluster_size: 10,
            strategy: HitStrategy::ClusterBased {
                config: TwoTieredConfig::default(),
            },
            crowd: CrowdConfig::default(),
            aggregation: Aggregation::DawidSkene,
            similarity_threads: 0,
        }
    }
}

/// Everything the workflow produced, stage by stage.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// Pairs that survived the machine pass, ranked by likelihood.
    pub candidate_pairs: Vec<ScoredPair>,
    /// Generated HITs.
    pub hits: Vec<Hit>,
    /// Crowd-simulation result (assignments, latency, cost).
    pub sim: SimOutcome,
    /// Final ranked list: crowd-verified pairs by aggregated posterior.
    pub ranked: Vec<ScoredPair>,
}

impl HybridOutcome {
    /// Pairs whose aggregated posterior clears 0.5 — the workflow's
    /// "output matching pairs" (Figure 2(c)).
    pub fn matching_pairs(&self) -> Vec<Pair> {
        self.ranked
            .iter()
            .filter(|sp| sp.likelihood > 0.5)
            .map(|sp| sp.pair)
            .collect()
    }
}

/// Run the hybrid workflow end to end on `dataset` with the given
/// simulated worker `population`.
pub fn run_hybrid(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &HybridConfig,
) -> Result<HybridOutcome> {
    run_stages(dataset, &TokenTable::build(dataset), population, config)
}

/// Stages 1–4 of Figure 1 with the machine pass over `tokens`, which
/// may cover only some attributes ([`CrowdJoin`](crate::CrowdJoin)).
pub(crate) fn run_stages(
    dataset: &Dataset,
    tokens: &TokenTable,
    population: &WorkerPopulation,
    config: &HybridConfig,
) -> Result<HybridOutcome> {
    if !(0.0..=1.0).contains(&config.likelihood_threshold) {
        return Err(Error::InvalidConfig {
            param: "likelihood_threshold",
            message: format!("must be in [0, 1], got {}", config.likelihood_threshold),
        });
    }
    // Stage 1: machine-based likelihood + pruning, through the filtered
    // PPJoin+ engine (identical output to the exhaustive pass, but the
    // filters skip most comparisons at any positive threshold).
    let candidate_pairs = prefix_join(
        dataset,
        tokens,
        config.likelihood_threshold,
        config.similarity_threads,
    );
    let pairs: Vec<Pair> = candidate_pairs.iter().map(|sp| sp.pair).collect();

    // Stage 2: HIT generation.
    let hits = match &config.strategy {
        HitStrategy::PairBased { per_hit } => generate_pair_hits(&pairs, *per_hit)?,
        HitStrategy::ClusterBased { config: tt } => {
            TwoTieredGenerator::with_config(tt.clone()).generate(&pairs, config.cluster_size)?
        }
    };

    // Stage 3: crowdsource.
    let sim = simulate(&hits, &dataset.gold, population, &config.crowd)?;

    // Stage 4: aggregate into the final ranked list.
    let n_votes = sim
        .assignments
        .iter()
        .map(|a| a.answer.verdicts.len())
        .sum();
    let mut votes: Vec<Vote> = Vec::with_capacity(n_votes);
    for a in &sim.assignments {
        let worker = a.worker.0 as usize;
        votes.extend(a.answer.verdicts.iter().map(|&(pair, v)| (pair, worker, v)));
    }
    let ranked = config.aggregation.rank(&votes)?;

    Ok(HybridOutcome {
        candidate_pairs,
        hits,
        sim,
        ranked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_crowd::PopulationConfig;
    use crowder_datagen::table1;

    fn crowd() -> WorkerPopulation {
        WorkerPopulation::generate(&PopulationConfig::default(), 42)
    }

    #[test]
    fn toy_walkthrough_reproduces_example1() {
        // Example 1: τ = 0.3 leaves 10 pairs (plus price tokens shift
        // things slightly — we use name+price likelihoods here, so assert
        // on outcome quality instead of the exact pair list).
        let dataset = table1();
        let config = HybridConfig {
            likelihood_threshold: 0.3,
            cluster_size: 4,
            ..Default::default()
        };
        let out = run_hybrid(&dataset, &crowd(), &config).unwrap();
        assert!(!out.hits.is_empty());
        // All four gold pairs are verified and rank top.
        let top: Vec<Pair> = out.ranked.iter().take(4).map(|s| s.pair).collect();
        let correct = top.iter().filter(|p| dataset.gold.is_match(p)).count();
        assert!(correct >= 3, "only {correct}/4 gold pairs in the top ranks");
        assert!(out.sim.cost_dollars > 0.0);
    }

    #[test]
    fn pair_based_strategy_works_too() {
        let dataset = table1();
        let config = HybridConfig {
            likelihood_threshold: 0.3,
            strategy: HitStrategy::PairBased { per_hit: 2 },
            ..Default::default()
        };
        let out = run_hybrid(&dataset, &crowd(), &config).unwrap();
        assert!(out.hits.len() >= 5); // ⌈pairs/2⌉ with ≥ 10 surviving pairs
        assert!(!out.ranked.is_empty());
    }

    #[test]
    fn majority_vote_aggregation() {
        let dataset = table1();
        let config = HybridConfig {
            likelihood_threshold: 0.3,
            cluster_size: 4,
            aggregation: Aggregation::MajorityVote,
            ..Default::default()
        };
        let out = run_hybrid(&dataset, &crowd(), &config).unwrap();
        assert!(!out.matching_pairs().is_empty());
    }

    #[test]
    fn threshold_one_yields_empty_everything() {
        let dataset = table1();
        let config = HybridConfig {
            likelihood_threshold: 1.0,
            ..Default::default()
        };
        let out = run_hybrid(&dataset, &crowd(), &config).unwrap();
        assert!(out.candidate_pairs.is_empty());
        assert!(out.hits.is_empty());
        assert!(out.ranked.is_empty());
        assert_eq!(out.sim.cost_dollars, 0.0);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let dataset = table1();
        let config = HybridConfig {
            likelihood_threshold: 1.5,
            ..Default::default()
        };
        assert!(run_hybrid(&dataset, &crowd(), &config).is_err());
    }
}
