//! Precision–recall curves over ranked pair lists.

use crowder_types::{GoldStandard, ScoredPair};

/// One point of a precision–recall curve (the state after identifying
/// the top-`n` pairs as matches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Number of top-ranked pairs declared matches.
    pub n: usize,
    /// Fraction of declared pairs that are true matches.
    pub precision: f64,
    /// Fraction of all true matches declared.
    pub recall: f64,
}

/// A full precision–recall curve.
#[derive(Debug, Clone, Default)]
pub struct PrCurve {
    /// Points for n = 1..=len(ranked).
    pub points: Vec<PrPoint>,
}

impl PrCurve {
    /// Maximum F1 over the curve.
    pub fn max_f1(&self) -> f64 {
        self.points
            .iter()
            .map(|p| {
                if p.precision + p.recall == 0.0 {
                    0.0
                } else {
                    2.0 * p.precision * p.recall / (p.precision + p.recall)
                }
            })
            .fold(0.0, f64::max)
    }

    /// Highest recall reached.
    pub fn max_recall(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.recall)
    }
}

/// Compute the curve for a ranked list against the gold standard.
///
/// The list must already be sorted by descending likelihood (the
/// producers in this workspace all guarantee it).
pub fn pr_curve(ranked: &[ScoredPair], gold: &GoldStandard) -> PrCurve {
    let total_matches = gold.len();
    let mut points = Vec::with_capacity(ranked.len());
    let mut hits = 0usize;
    for (i, sp) in ranked.iter().enumerate() {
        if gold.is_match(&sp.pair) {
            hits += 1;
        }
        let n = i + 1;
        points.push(PrPoint {
            n,
            precision: hits as f64 / n as f64,
            recall: if total_matches == 0 {
                1.0
            } else {
                hits as f64 / total_matches as f64
            },
        });
    }
    PrCurve { points }
}

/// Interpolated precision at a recall level: the maximum precision over
/// all points whose recall is ≥ `recall` (the standard IR convention).
/// Returns 0 if the curve never reaches that recall.
pub fn precision_at_recall(curve: &PrCurve, recall: f64) -> f64 {
    curve
        .points
        .iter()
        .filter(|p| p.recall >= recall - 1e-12)
        .map(|p| p.precision)
        .fold(0.0, f64::max)
}

/// Average a set of curves onto a recall grid: for each grid recall, the
/// mean interpolated precision. This is how the SVM baseline's 10 trials
/// are combined into one Figure 12 series.
pub fn average_precision(curves: &[PrCurve], recall_grid: &[f64]) -> Vec<PrPoint> {
    recall_grid
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let mean = if curves.is_empty() {
                0.0
            } else {
                curves
                    .iter()
                    .map(|c| precision_at_recall(c, r))
                    .sum::<f64>()
                    / curves.len() as f64
            };
            PrPoint {
                n: i,
                precision: mean,
                recall: r,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::Pair;
    use proptest::prelude::*;

    fn gold() -> GoldStandard {
        GoldStandard::from_pairs(vec![Pair::of(0, 1), Pair::of(2, 3)])
    }

    fn ranked(order: &[(u32, u32)]) -> Vec<ScoredPair> {
        order
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| ScoredPair::new(Pair::of(a, b), 1.0 - i as f64 * 0.1))
            .collect()
    }

    #[test]
    fn perfect_ranking() {
        let list = ranked(&[(0, 1), (2, 3), (4, 5)]);
        let curve = pr_curve(&list, &gold());
        assert_eq!(
            curve.points[0],
            PrPoint {
                n: 1,
                precision: 1.0,
                recall: 0.5
            }
        );
        assert_eq!(
            curve.points[1],
            PrPoint {
                n: 2,
                precision: 1.0,
                recall: 1.0
            }
        );
        assert!((curve.points[2].precision - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(curve.max_recall(), 1.0);
        assert!((curve.max_f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking() {
        let list = ranked(&[(4, 5), (6, 7), (0, 1)]);
        let curve = pr_curve(&list, &gold());
        assert_eq!(curve.points[0].precision, 0.0);
        assert!((curve.points[2].precision - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(curve.max_recall(), 0.5);
    }

    #[test]
    fn interpolated_precision() {
        let list = ranked(&[(0, 1), (8, 9), (2, 3)]);
        let curve = pr_curve(&list, &gold());
        // Recall 1.0 first reached at n=3 with precision 2/3.
        assert!((precision_at_recall(&curve, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        // Recall 0.5 is satisfied at n=1 (precision 1.0).
        assert_eq!(precision_at_recall(&curve, 0.5), 1.0);
        // Unreachable recall.
        let short = pr_curve(&ranked(&[(8, 9)]), &gold());
        assert_eq!(precision_at_recall(&short, 0.9), 0.0);
    }

    #[test]
    fn averaging_two_trials() {
        let c1 = pr_curve(&ranked(&[(0, 1), (2, 3)]), &gold()); // perfect
        let c2 = pr_curve(&ranked(&[(8, 9), (0, 1), (2, 3)]), &gold()); // one miss
        let avg = average_precision(&[c1, c2], &[0.5, 1.0]);
        // Interpolated precision takes the max over recalls ≥ r, so the
        // second curve contributes 2/3 (its n=3 point) at both levels.
        assert!((avg[0].precision - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert!((avg[1].precision - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let curve = pr_curve(&[], &gold());
        assert!(curve.points.is_empty());
        assert_eq!(curve.max_f1(), 0.0);
        assert!(average_precision(&[], &[0.5])[0].precision == 0.0);
    }

    proptest! {
        #[test]
        fn recall_is_monotone_and_bounded(
            n_pairs in 1usize..40,
            match_mask in proptest::collection::vec(proptest::bool::ANY, 40),
        ) {
            let pairs: Vec<Pair> = (0..n_pairs as u32).map(|i| Pair::of(2 * i, 2 * i + 1)).collect();
            let gold = GoldStandard::from_pairs(
                pairs.iter().zip(&match_mask).filter(|(_, &m)| m).map(|(p, _)| *p),
            );
            let ranked: Vec<ScoredPair> = pairs
                .iter()
                .enumerate()
                .map(|(i, p)| ScoredPair::new(*p, 1.0 / (i + 1) as f64))
                .collect();
            let curve = pr_curve(&ranked, &gold);
            for w in curve.points.windows(2) {
                prop_assert!(w[1].recall >= w[0].recall);
            }
            for p in &curve.points {
                prop_assert!((0.0..=1.0).contains(&p.precision));
                prop_assert!((0.0..=1.0).contains(&p.recall));
            }
        }
    }
}
