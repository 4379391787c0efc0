//! Budget planning — the §9 future-work direction, implemented.
//!
//! *"Users may wish to trade off cost, quality and latency"*: for a grid
//! of likelihood thresholds, the planner measures how many cluster-based
//! HITs the two-tiered generator needs, what they cost, and what recall
//! ceiling the threshold imposes (matches pruned by the machine pass are
//! unrecoverable). The result is a cost/recall frontier plus the best
//! affordable point for a given budget.

use crowder_hitgen::{ClusterGenerator, TwoTieredGenerator};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_types::{Dataset, Error, Pair, Result};

/// One point of the cost/recall frontier.
#[derive(Debug, Clone)]
pub struct BudgetPoint {
    /// Likelihood threshold.
    pub threshold: f64,
    /// Pairs the crowd would verify.
    pub pairs: usize,
    /// Cluster-based HITs needed (two-tiered, cluster size `k`).
    pub hits: usize,
    /// Dollars: `hits × assignments × (reward + fee)`.
    pub cost_dollars: f64,
    /// Recall ceiling: fraction of true matches that survive the
    /// machine pass.
    pub recall_ceiling: f64,
}

/// The planner's output.
#[derive(Debug, Clone)]
pub struct BudgetPlan {
    /// The full frontier, one point per threshold (descending τ).
    pub frontier: Vec<BudgetPoint>,
    /// Index into `frontier` of the highest-recall point whose cost fits
    /// the budget; `None` if nothing fits.
    pub chosen: Option<usize>,
}

/// Compute the cost/recall frontier over `thresholds` and pick the best
/// point affordable within `budget_dollars`.
pub fn plan_budget(
    dataset: &Dataset,
    thresholds: &[f64],
    k: usize,
    assignments_per_hit: usize,
    dollars_per_assignment: f64,
    budget_dollars: f64,
) -> Result<BudgetPlan> {
    if thresholds.is_empty() {
        return Err(Error::InvalidConfig {
            param: "thresholds",
            message: "need at least one threshold".into(),
        });
    }
    let tokens = TokenTable::build(dataset);
    let generator = TwoTieredGenerator::new();
    let mut frontier = Vec::with_capacity(thresholds.len());
    for &threshold in thresholds {
        let scored = prefix_join(dataset, &tokens, threshold, 0);
        let pairs: Vec<Pair> = scored.iter().map(|sp| sp.pair).collect();
        let hits = generator.generate(&pairs, k)?;
        let cost = hits.len() as f64 * assignments_per_hit as f64 * dollars_per_assignment;
        let recall_ceiling = dataset.gold.recall(pairs.iter());
        frontier.push(BudgetPoint {
            threshold,
            pairs: pairs.len(),
            hits: hits.len(),
            cost_dollars: cost,
            recall_ceiling,
        });
    }
    // Highest recall ceiling that fits; ties go to the cheaper point.
    let chosen = frontier
        .iter()
        .enumerate()
        .filter(|(_, p)| p.cost_dollars <= budget_dollars)
        .max_by(|(_, a), (_, b)| {
            a.recall_ceiling
                .partial_cmp(&b.recall_ceiling)
                .expect("recalls are finite")
                .then(
                    b.cost_dollars
                        .partial_cmp(&a.cost_dollars)
                        .expect("costs are finite"),
                )
        })
        .map(|(i, _)| i);
    Ok(BudgetPlan { frontier, chosen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_datagen::{restaurant, RestaurantConfig};

    fn dataset() -> Dataset {
        restaurant(&RestaurantConfig {
            unique_entities: 120,
            duplicated_entities: 40,
            seed: 9,
        })
    }

    #[test]
    fn frontier_is_monotone_in_threshold() {
        let d = dataset();
        let plan = plan_budget(&d, &[0.5, 0.4, 0.3, 0.2], 10, 3, 0.025, 1000.0).unwrap();
        for w in plan.frontier.windows(2) {
            assert!(w[0].pairs <= w[1].pairs);
            assert!(w[0].recall_ceiling <= w[1].recall_ceiling + 1e-12);
            assert!(w[0].cost_dollars <= w[1].cost_dollars + 1e-12);
        }
        // A huge budget picks a point with the maximal recall ceiling;
        // among recall ties the cheaper (higher-threshold) point wins.
        let ix = plan.chosen.expect("a huge budget always affords something");
        let max_recall = plan
            .frontier
            .iter()
            .map(|p| p.recall_ceiling)
            .fold(0.0, f64::max);
        assert!((plan.frontier[ix].recall_ceiling - max_recall).abs() < 1e-12);
        let cheapest_at_max = plan
            .frontier
            .iter()
            .filter(|p| (p.recall_ceiling - max_recall).abs() < 1e-12)
            .map(|p| p.cost_dollars)
            .fold(f64::INFINITY, f64::min);
        assert!((plan.frontier[ix].cost_dollars - cheapest_at_max).abs() < 1e-9);
    }

    #[test]
    fn tight_budget_picks_cheaper_point() {
        let d = dataset();
        let plan = plan_budget(&d, &[0.5, 0.2], 10, 3, 0.025, 2.0).unwrap();
        if let Some(ix) = plan.chosen {
            assert!(plan.frontier[ix].cost_dollars <= 2.0);
        }
    }

    #[test]
    fn impossible_budget_chooses_nothing() {
        let d = dataset();
        let plan = plan_budget(&d, &[0.2], 10, 3, 0.025, 0.0).unwrap();
        // τ=0.2 on this dataset needs at least one HIT, which costs more
        // than $0.
        assert_eq!(plan.chosen, None);
    }

    #[test]
    fn empty_thresholds_rejected() {
        let d = dataset();
        assert!(plan_budget(&d, &[], 10, 3, 0.025, 1.0).is_err());
    }
}
