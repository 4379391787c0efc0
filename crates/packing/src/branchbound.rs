//! Exact bin-completion search for the packing instance.
//!
//! Used when the FFD packing exceeds the L2 lower bound — the rare case
//! where neither can certify optimality. The search is a
//! *bin-completion* branch-and-bound (branch on the full content of the
//! next bin) restricted to bins that are (a) within the remaining
//! demands, (b) contain the largest remaining size class (symmetry
//! breaking: some bin must hold that item), and (c) *maximal* (a
//! dominance rule: any packing can be rewritten so every bin is maximal
//! without increasing the bin count).
//!
//! A bin is a count vector: `bin[j-1]` items of size `j`, the paper's HIT
//! pattern `p = [a₁ … a_k]` truncated after the largest demanded size.

use std::collections::HashMap;

/// Nodes the search may expand before it settles for the best packing
/// found so far (flagged non-optimal).
const NODE_BUDGET: usize = 200_000;

/// Outcome of the exact search.
#[derive(Debug, Clone)]
pub struct BbOutcome {
    /// The best packing found, one count vector per bin, if it uses
    /// fewer bins than the `upper_bound` the search started from.
    pub bins: Option<Vec<Vec<u32>>>,
    /// True iff the best bin count (found, or `upper_bound`) is optimal:
    /// the search ran to completion or met the lower bound.
    pub proven_optimal: bool,
}

struct Searcher {
    capacity: usize,
    lower_bound: usize,
    nodes: usize,
    best_len: usize,
    best: Option<Vec<Vec<u32>>>,
    /// Demand vectors already expanded at a bin count ≤ the recorded
    /// value; revisiting them cannot improve the incumbent.
    seen: HashMap<Vec<u64>, usize>,
    exhausted_budget: bool,
}

impl Searcher {
    fn search(&mut self, demands: &mut Vec<u64>, used: &mut Vec<Vec<u32>>) {
        if self.nodes >= NODE_BUDGET {
            self.exhausted_budget = true;
            return;
        }
        self.nodes += 1;

        let total: u64 = demands
            .iter()
            .enumerate()
            .map(|(idx, &d)| (idx as u64 + 1) * d)
            .sum();
        if total == 0 {
            if used.len() < self.best_len {
                self.best_len = used.len();
                self.best = Some(used.clone());
            }
            return;
        }
        // Volume bound prune.
        let lb = used.len() + (total.div_ceil(self.capacity as u64) as usize);
        if lb >= self.best_len {
            return;
        }
        // Memoization prune: same residual demands reached with fewer or
        // equal bins before.
        if let Some(&prev) = self.seen.get(demands.as_slice()) {
            if prev <= used.len() {
                return;
            }
        }
        self.seen.insert(demands.clone(), used.len());

        for bin in candidate_bins(demands, self.capacity) {
            for (d, &c) in demands.iter_mut().zip(&bin) {
                *d -= u64::from(c);
            }
            used.push(bin);
            self.search(demands, used);
            let bin = used.pop().expect("pushed above");
            for (d, &c) in demands.iter_mut().zip(&bin) {
                *d += u64::from(c);
            }
            // Early exit once the incumbent matches the global lower bound.
            if self.best_len <= self.lower_bound || self.exhausted_budget {
                return;
            }
        }
    }
}

/// Enumerate the candidate bins: each includes at least one item of the
/// largest demanded size, stays within demands, and is maximal.
fn candidate_bins(demands: &[u64], capacity: usize) -> Vec<Vec<u32>> {
    let Some(largest_idx) = demands.iter().rposition(|&d| d > 0) else {
        return Vec::new();
    };
    let largest = largest_idx + 1;
    let mut out = Vec::new();
    let mut counts = vec![0u32; demands.len()];
    counts[largest_idx] = 1;
    extend(largest, capacity - largest, demands, &mut counts, &mut out);
    out
}

/// Recursive completion of `counts` over sizes ≤ `max_size`, with
/// `remaining` capacity left; pushes every maximal completion to `out`.
fn extend(
    max_size: usize,
    remaining: usize,
    demands: &[u64],
    counts: &mut Vec<u32>,
    out: &mut Vec<Vec<u32>>,
) {
    if max_size == 0 {
        // Maximal: no further demanded item fits in the slack.
        let maximal = demands
            .iter()
            .zip(counts.iter())
            .take(remaining)
            .all(|(&d, &c)| d <= u64::from(c));
        if maximal {
            out.push(counts.clone());
        }
        return;
    }
    let idx = max_size - 1;
    let already = u64::from(counts[idx]);
    let max_extra =
        ((remaining / max_size) as u64).min(demands[idx].saturating_sub(already)) as u32;
    for extra in (0..=max_extra).rev() {
        counts[idx] += extra;
        extend(
            max_size - 1,
            remaining - max_size * extra as usize,
            demands,
            counts,
            out,
        );
        counts[idx] -= extra;
    }
}

/// Search for a packing of `demands` (items per size class `1..=len`)
/// into bins of `capacity` using fewer than `upper_bound` bins (e.g. the
/// FFD count).
///
/// `lower_bound` is a proven lower bound (e.g. L2); the search stops as
/// soon as it is met. After `NODE_BUDGET` (200 000) expanded nodes the best
/// packing found so far is returned with `proven_optimal = false`.
pub fn branch_and_bound(
    demands: &[u64],
    capacity: usize,
    upper_bound: usize,
    lower_bound: usize,
) -> BbOutcome {
    let mut searcher = Searcher {
        capacity,
        lower_bound,
        nodes: 0,
        best_len: upper_bound,
        best: None,
        seen: HashMap::new(),
        exhausted_budget: false,
    };
    searcher.search(&mut demands.to_vec(), &mut Vec::new());
    BbOutcome {
        proven_optimal: !searcher.exhausted_budget || searcher.best_len <= lower_bound,
        bins: searcher.best,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bound::martello_toth_l2;
    use crate::ffd::first_fit_decreasing;
    use proptest::prelude::*;

    /// Sizes with `demands[j-1]` items of size `j`.
    pub(crate) fn sizes_of(demands: &[u64]) -> Vec<usize> {
        let mut sizes = Vec::new();
        for (idx, &d) in demands.iter().enumerate() {
            sizes.extend(std::iter::repeat_n(idx + 1, d as usize));
        }
        sizes
    }

    fn ffd_count(demands: &[u64], capacity: usize) -> usize {
        first_fit_decreasing(&sizes_of(demands), capacity)
            .unwrap()
            .len()
    }

    /// Search as `pack_items` does, from the FFD count and L2; returns
    /// the resulting bin count and the outcome.
    fn solve(demands: &[u64], capacity: usize) -> (usize, BbOutcome) {
        let ffd = ffd_count(demands, capacity);
        let out = branch_and_bound(demands, capacity, ffd, martello_toth_l2(demands, capacity));
        (out.bins.as_ref().map_or(ffd, Vec::len), out)
    }

    #[test]
    fn paper_example_needs_three_bins() {
        let (bins, out) = solve(&[0, 2, 0, 2], 4);
        assert_eq!(bins, 3);
        assert!(out.proven_optimal);
    }

    #[test]
    fn classic_ffd_suboptimal_instance() {
        // Sizes {3,3,2,2,2} into 6 give 2 bins whichever way they are
        // packed; the search must agree with FFD's optimal count.
        let (bins, out) = solve(&[0, 3, 2], 6);
        assert_eq!(bins, 2);
        assert!(out.proven_optimal);
        // Sizes {4,4,4,3,3,3,3,3,3} into 10 (volume 30): FFD packs
        // 4+4, 4+3+3, 3+3+3, 3 = 4 bins; 4+3+3 three times is 3.
        let demands = [0, 0, 6, 3];
        assert_eq!(ffd_count(&demands, 10), 4);
        let (bins, out) = solve(&demands, 10);
        assert_eq!(bins, 3);
        assert!(out.proven_optimal);
    }

    #[test]
    fn empty_demands_need_no_bins() {
        let (bins, out) = solve(&[0, 0, 0], 5);
        assert_eq!(bins, 0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn bins_cover_exact_demands() {
        // No upper bound: the search returns the packing it settles on.
        let demands = [2u64, 3, 1, 0, 2];
        let out = branch_and_bound(&demands, 8, usize::MAX, 0);
        let mut covered = vec![0u64; demands.len()];
        for bin in out.bins.expect("some packing beats usize::MAX bins") {
            for (idx, &c) in bin.iter().enumerate() {
                covered[idx] += u64::from(c);
            }
        }
        // Bin-completion uses each item exactly once: coverage == demand.
        assert_eq!(covered, demands);
    }

    #[test]
    fn candidate_bins_are_maximal() {
        // §5.3: demands [0,2,0,2] at k = 4 — a size-4 SCC fills a bin.
        assert_eq!(candidate_bins(&[0, 2, 0, 2], 4), vec![vec![0, 0, 0, 1]]);
        // [0,1] leaves room for the second size-2 item: not maximal.
        assert_eq!(candidate_bins(&[0, 2], 4), vec![vec![0, 2]]);
        // Every candidate holds a 3 and leaves no demanded item that
        // would still fit: [0,1,1] and [2,0,1] are dominated.
        assert_eq!(
            candidate_bins(&[3, 1, 2], 6),
            vec![vec![0, 0, 2], vec![1, 1, 1], vec![3, 0, 1]]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bb_is_within_bounds_and_feasible(
            demands in proptest::collection::vec(0u64..5, 1..6),
            capacity in 6usize..=12,
        ) {
            let (bins, out) = solve(&demands, capacity);
            prop_assert!(bins >= martello_toth_l2(&demands, capacity));
            prop_assert!(bins <= ffd_count(&demands, capacity));
            for bin in out.bins.iter().flatten() {
                let used: usize = bin.iter().enumerate().map(|(idx, &c)| (idx + 1) * c as usize).sum();
                prop_assert!(used <= capacity);
            }
            prop_assert!(out.proven_optimal);
        }
    }
}
