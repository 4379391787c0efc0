//! Likelihood-threshold sweeps — Table 2 of the paper.
//!
//! For each threshold the sweep reports how many pairs survive, how many
//! of them are true matches, and the resulting recall; the paper uses
//! these rows to argue that a low threshold retains almost all matches
//! while pruning orders of magnitude of pairs.

use crate::prefix::prefix_join;
use crate::tokens::TokenTable;
use crowder_types::Dataset;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Likelihood threshold τ.
    pub threshold: f64,
    /// Pairs with likelihood ≥ τ.
    pub total_pairs: usize,
    /// True matches among them.
    pub matches: usize,
    /// `matches / |gold|`.
    pub recall: f64,
}

impl SweepRow {
    /// Render like the paper: `0.3  4,788  105  99.1%`.
    pub fn display_row(&self) -> String {
        format!(
            "{:>9.1} {:>12} {:>8} {:>7.1}%",
            self.threshold,
            group_thousands(self.total_pairs),
            self.matches,
            self.recall * 100.0
        )
    }
}

/// Insert thousands separators (`4788` → `"4,788"`).
fn group_thousands(v: usize) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Run a likelihood-threshold sweep over `thresholds` (each in `[0, 1]`).
///
/// The similarity pass runs once at the smallest positive threshold —
/// through [`prefix_join`], whose filters skip most comparisons and
/// whose output is bit-identical to
/// [`all_pairs_scored`](crate::all_pairs_scored) — and each row is then
/// a bucket count. A `0.0` threshold row is computed from the
/// candidate-pair total directly (Jaccard ≥ 0 holds for every pair),
/// exactly as the paper's `threshold 0` rows count all `n(n−1)/2` /
/// `n_a · n_b` pairs.
pub fn threshold_sweep(
    dataset: &Dataset,
    tokens: &TokenTable,
    thresholds: &[f64],
) -> Vec<SweepRow> {
    let min_positive = thresholds
        .iter()
        .copied()
        .filter(|&t| t > 0.0)
        .fold(f64::INFINITY, f64::min);
    let scored = if min_positive.is_finite() {
        prefix_join(dataset, tokens, min_positive, 0)
    } else {
        Vec::new()
    };
    let gold_total = dataset.gold.len();
    thresholds
        .iter()
        .map(|&thr| {
            if thr <= 0.0 {
                return SweepRow {
                    threshold: thr,
                    total_pairs: dataset.candidate_pair_count(),
                    matches: gold_total,
                    recall: 1.0,
                };
            }
            let mut total = 0usize;
            let mut matches = 0usize;
            for sp in &scored {
                if sp.likelihood >= thr {
                    total += 1;
                    if dataset.gold.is_match(&sp.pair) {
                        matches += 1;
                    }
                }
            }
            SweepRow {
                threshold: thr,
                total_pairs: total,
                matches,
                recall: if gold_total == 0 {
                    1.0
                } else {
                    matches as f64 / gold_total as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_types::{GoldStandard, Pair, PairSpace, SourceId};

    fn tiny_dataset() -> Dataset {
        let mut d = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        for name in [
            "alpha beta gamma",
            "alpha beta gamma", // exact dup of r0
            "alpha beta delta", // 0.5 to r0/r1
            "omega psi chi",    // unrelated
        ] {
            d.push_record(SourceId(0), vec![name.into()]).unwrap();
        }
        d.gold = GoldStandard::from_pairs(vec![Pair::of(0, 1), Pair::of(0, 2)]);
        d
    }

    #[test]
    fn sweep_counts_and_recall() {
        let d = tiny_dataset();
        let t = TokenTable::build(&d);
        let rows = threshold_sweep(&d, &t, &[1.0, 0.5, 0.0]);
        // τ=1.0: only the exact duplicate pair.
        assert_eq!(rows[0].total_pairs, 1);
        assert_eq!(rows[0].matches, 1);
        assert!((rows[0].recall - 0.5).abs() < 1e-12);
        // τ=0.5: (0,1), (0,2), (1,2).
        assert_eq!(rows[1].total_pairs, 3);
        assert_eq!(rows[1].matches, 2);
        assert!((rows[1].recall - 1.0).abs() < 1e-12);
        // τ=0: all 6 candidate pairs, all matches by definition.
        assert_eq!(rows[2].total_pairs, 6);
        assert_eq!(rows[2].matches, 2);
        assert_eq!(rows[2].recall, 1.0);
    }

    #[test]
    fn monotonicity_of_rows() {
        let d = tiny_dataset();
        let t = TokenTable::build(&d);
        let rows = threshold_sweep(&d, &t, &[0.5, 0.4, 0.3, 0.2, 0.1]);
        for w in rows.windows(2) {
            assert!(w[0].total_pairs <= w[1].total_pairs);
            assert!(w[0].matches <= w[1].matches);
            assert!(w[0].recall <= w[1].recall + 1e-12);
        }
    }

    #[test]
    fn thousands_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(4788), "4,788");
        assert_eq!(group_thousands(1_180_452), "1,180,452");
    }

    #[test]
    fn display_row_formats() {
        let row = SweepRow {
            threshold: 0.3,
            total_pairs: 4788,
            matches: 105,
            recall: 0.991,
        };
        let s = row.display_row();
        assert!(s.contains("4,788"));
        assert!(s.contains("99.1%"));
    }
}
