//! A CrowdSQL-style fuzzy self-join — the query interface the paper's
//! introduction motivates.
//!
//! §1 of the paper expresses entity resolution as a crowd-enabled query:
//!
//! ```sql
//! SELECT p.id, q.id FROM product p, product q
//! WHERE p.product_name ~= q.product_name;
//! ```
//!
//! [`CrowdJoin`] is that query as a typed builder: pick the attributes
//! the `~=` predicate compares, a likelihood threshold, and a HIT shape;
//! `run` executes the full hybrid workflow (machine pass on exactly
//! those attributes → HIT generation → simulated crowd → EM
//! aggregation) and returns the matched id pairs.

use crate::workflow::{run_stages, Aggregation, HitStrategy, HybridConfig};
use crowder_crowd::{CrowdConfig, WorkerPopulation};
use crowder_simjoin::TokenTable;
use crowder_types::{Dataset, Error, Pair, Result, ScoredPair};

/// A fuzzy-match self-join query (`WHERE p.attr ~= q.attr`): the
/// compared attributes and the [`HybridConfig`] the workflow runs with.
#[derive(Debug, Clone)]
pub struct CrowdJoin {
    attrs: Vec<String>,
    config: HybridConfig,
}

impl Default for CrowdJoin {
    /// The batch workflow's defaults ([`HybridConfig::default`]) at
    /// threshold 0.3.
    fn default() -> Self {
        CrowdJoin {
            attrs: Vec::new(),
            config: HybridConfig {
                likelihood_threshold: 0.3,
                ..HybridConfig::default()
            },
        }
    }
}

/// Result of executing a [`CrowdJoin`].
#[derive(Debug, Clone)]
pub struct CrowdJoinResult {
    /// Pairs the crowd confirmed (aggregated posterior > 0.5), the
    /// query's `SELECT p.id, q.id` output.
    pub matches: Vec<Pair>,
    /// The full ranked list with posteriors, for callers that want a
    /// confidence cut other than 0.5.
    pub ranked: Vec<ScoredPair>,
    /// Pairs the machine pass retained (the crowd workload).
    pub candidates: usize,
    /// HITs published.
    pub hits: usize,
    /// Dollars spent on the crowd.
    pub cost_dollars: f64,
}

impl CrowdJoin {
    /// Start building a join.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compare this attribute in the `~=` predicate (call repeatedly for
    /// multi-attribute predicates). An unknown attribute name fails at
    /// `run` time. No calls = compare whole records.
    pub fn on_attribute(mut self, name: impl Into<String>) -> Self {
        self.attrs.push(name.into());
        self
    }

    /// Likelihood threshold of the machine pass (default 0.3). A
    /// threshold outside `[0, 1]` fails at `run` time.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.likelihood_threshold = threshold;
        self
    }

    /// Cluster-size threshold `k` for cluster-based HITs (default 10).
    pub fn cluster_size(mut self, k: usize) -> Self {
        self.config.cluster_size = k;
        self
    }

    /// Use pair-based HITs with the given batch size instead of the
    /// default cluster-based generation.
    pub fn pair_based(mut self, per_hit: usize) -> Self {
        self.config.strategy = HitStrategy::PairBased { per_hit };
        self
    }

    /// Override the crowd-marketplace configuration.
    pub fn crowd(mut self, config: CrowdConfig) -> Self {
        self.config.crowd = config;
        self
    }

    /// Aggregate with majority vote instead of Dawid–Skene EM.
    pub fn majority_vote(mut self) -> Self {
        self.config.aggregation = Aggregation::MajorityVote;
        self
    }

    /// Execute against a dataset and a (simulated) worker population.
    pub fn run(&self, dataset: &Dataset, population: &WorkerPopulation) -> Result<CrowdJoinResult> {
        // Resolve attribute names to schema positions.
        let attr_idx: Vec<usize> = self
            .attrs
            .iter()
            .map(|name| {
                dataset
                    .schema
                    .iter()
                    .position(|a| a == name)
                    .ok_or_else(|| Error::InvalidConfig {
                        param: "on_attribute",
                        message: format!("attribute `{name}` not in schema {:?}", dataset.schema),
                    })
            })
            .collect::<Result<_>>()?;

        let tokens = if attr_idx.is_empty() {
            TokenTable::build(dataset)
        } else {
            TokenTable::build_on_attrs(dataset, &attr_idx)
        };
        let outcome = run_stages(dataset, &tokens, population, &self.config)?;
        Ok(CrowdJoinResult {
            matches: outcome.matching_pairs(),
            candidates: outcome.candidate_pairs.len(),
            hits: outcome.hits.len(),
            cost_dollars: outcome.sim.cost_dollars,
            ranked: outcome.ranked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_crowd::PopulationConfig;
    use crowder_datagen::{table1, toy::figure2a_pairs};

    fn crowd() -> WorkerPopulation {
        WorkerPopulation::generate(&PopulationConfig::default(), 99)
    }

    #[test]
    fn name_only_join_reproduces_example1_candidates() {
        // The paper's §1 query compares product_name; at τ = 0.3 the
        // machine pass must retain exactly Figure 2(a)'s ten pairs.
        let dataset = table1();
        let join = CrowdJoin::new()
            .on_attribute("product_name")
            .threshold(0.3)
            .cluster_size(4);
        let result = join.run(&dataset, &crowd()).unwrap();
        assert_eq!(result.candidates, figure2a_pairs().len());
        // And the crowd confirms the four gold pairs.
        let correct = result
            .matches
            .iter()
            .filter(|p| dataset.gold.is_match(p))
            .count();
        assert!(correct >= 3, "{correct}/4 gold pairs confirmed");
        assert!(result.cost_dollars > 0.0);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let dataset = table1();
        let err = CrowdJoin::new()
            .on_attribute("no_such_column")
            .run(&dataset, &crowd());
        assert!(matches!(err, Err(Error::InvalidConfig { .. })));
    }

    #[test]
    fn out_of_range_threshold_is_rejected() {
        let dataset = table1();
        for threshold in [-0.1, 1.5, f64::NAN] {
            let err = CrowdJoin::new()
                .on_attribute("product_name")
                .threshold(threshold)
                .run(&dataset, &crowd());
            assert!(
                matches!(
                    err,
                    Err(Error::InvalidConfig {
                        param: "likelihood_threshold",
                        ..
                    })
                ),
                "{threshold}: {err:?}"
            );
        }
    }

    #[test]
    fn pair_based_variant_and_majority_vote() {
        let dataset = table1();
        let result = CrowdJoin::new()
            .on_attribute("product_name")
            .threshold(0.3)
            .pair_based(2)
            .majority_vote()
            .run(&dataset, &crowd())
            .unwrap();
        assert_eq!(result.hits, 5); // ⌈10 pairs / 2⌉, the paper's §3.1 count
        assert!(!result.matches.is_empty());
    }

    #[test]
    fn whole_record_default_differs_from_name_only() {
        // Without attribute selection the distinct price tokens dilute
        // every likelihood; at τ = 0.4 the name-only predicate keeps
        // several pairs while the whole-record one keeps almost none.
        let dataset = table1();
        let name_only = CrowdJoin::new()
            .on_attribute("product_name")
            .threshold(0.4)
            .cluster_size(4)
            .run(&dataset, &crowd())
            .unwrap();
        let whole = CrowdJoin::new()
            .threshold(0.4)
            .cluster_size(4)
            .run(&dataset, &crowd())
            .unwrap();
        assert!(
            whole.candidates < name_only.candidates,
            "whole-record {} vs name-only {}",
            whole.candidates,
            name_only.candidates
        );
    }
}
