//! The public packing entry point.
//!
//! Derive the demand vector `cⱼ` from the component sizes, pack with FFD,
//! and compare against the Martello–Toth L2 lower bound. Only when FFD
//! exceeds L2 does the bin-completion search run, and its packing
//! replaces FFD's only if it uses strictly fewer bins. Size classes are
//! then mapped back to concrete item indices so callers receive bins of
//! *items*, not count vectors.

use crate::bound::martello_toth_l2;
use crate::branchbound::branch_and_bound;
use crate::ffd::first_fit_decreasing;
use crowder_types::{Error, Result};
use std::collections::VecDeque;

/// Tuning knobs for [`pack_items`].
#[derive(Debug, Clone, Default)]
pub struct PackingConfig {
    /// Skip the search and return the FFD packing — the paper's bottom
    /// tier without its optimization, used as an ablation.
    pub ffd_only: bool,
}

/// A bin packing of concrete items.
#[derive(Debug, Clone)]
pub struct PackingSolution {
    /// Bins as lists of item indices into the input `sizes` slice.
    pub bins: Vec<Vec<usize>>,
    /// The Martello–Toth L2 lower bound on the optimal bin count (at
    /// least the volume bound `⌈Σ sizes / capacity⌉`).
    pub lower_bound: usize,
    /// True iff `bins.len()` is proven optimal: it meets `lower_bound`,
    /// or the search ran to completion within its node budget. Under
    /// `ffd_only` only the first applies.
    pub optimal: bool,
}

/// Pack items with the given `sizes` into the minimum number of bins of
/// `capacity` (the cluster-size threshold `k`).
///
/// Zero-sized items are rejected: a connected component always has at
/// least one record. Work and memory grow with the number and sizes of
/// the items, never with `capacity`.
pub fn pack_items(
    sizes: &[usize],
    capacity: usize,
    config: &PackingConfig,
) -> Result<PackingSolution> {
    if capacity == 0 {
        return Err(Error::InvalidConfig {
            param: "capacity",
            message: "cluster-size threshold must be positive".into(),
        });
    }
    if sizes.contains(&0) {
        return Err(Error::InvalidData(
            "zero-sized item in packing input".into(),
        ));
    }
    if let Some(&big) = sizes.iter().find(|&&s| s > capacity) {
        return Err(Error::Infeasible(format!(
            "component of size {big} exceeds cluster-size threshold {capacity}"
        )));
    }

    let ffd_bins = first_fit_decreasing(sizes, capacity)?;
    // Demand vector c_j over size classes 1..=largest item.
    let mut demands = vec![0u64; sizes.iter().copied().max().unwrap_or(0)];
    for &s in sizes {
        demands[s - 1] += 1;
    }
    let lower_bound = martello_toth_l2(&demands, capacity);

    if config.ffd_only || ffd_bins.len() <= lower_bound {
        return Ok(PackingSolution {
            optimal: ffd_bins.len() <= lower_bound,
            bins: ffd_bins,
            lower_bound,
        });
    }

    let outcome = branch_and_bound(&demands, capacity, ffd_bins.len(), lower_bound);
    let bins = match outcome.bins {
        Some(found) => counts_to_bins(&found, sizes),
        None => ffd_bins,
    };
    Ok(PackingSolution {
        bins,
        lower_bound,
        optimal: outcome.proven_optimal,
    })
}

/// Materialize count-vector bins into item-index bins: items of each size
/// class are handed out in ascending index order, which keeps the mapping
/// deterministic.
fn counts_to_bins(count_bins: &[Vec<u32>], sizes: &[usize]) -> Vec<Vec<usize>> {
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); max_size + 1];
    for (i, &size) in sizes.iter().enumerate() {
        queues[size].push_back(i);
    }
    count_bins
        .iter()
        .map(|counts| {
            let mut bin = Vec::new();
            for (idx, &count) in counts.iter().enumerate() {
                let queue = &mut queues[idx + 1];
                bin.extend(queue.drain(..count as usize));
            }
            bin
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_section53_optimal_is_three() {
        // SCCs {r3,r4,r5,r6}, {r1,r2,r3,r7}, {r4,r7}, {r8,r9}: sizes
        // [4, 4, 2, 2], k = 4 → optimal 3 cluster-based HITs, not the
        // naive 4 the paper first exhibits.
        let sol = pack_items(&[4, 4, 2, 2], 4, &PackingConfig::default()).unwrap();
        assert_eq!(sol.bins.len(), 3);
        assert!(sol.optimal);
        assert_eq!(sol.lower_bound, 3);
    }

    #[test]
    fn empty_input() {
        let sol = pack_items(&[], 10, &PackingConfig::default()).unwrap();
        assert!(sol.bins.is_empty());
        assert!(sol.optimal);
    }

    #[test]
    fn rejects_bad_inputs() {
        let cfg = PackingConfig::default();
        assert!(pack_items(&[1], 0, &cfg).is_err());
        assert!(pack_items(&[0], 4, &cfg).is_err());
        assert!(matches!(
            pack_items(&[9], 4, &cfg),
            Err(Error::Infeasible(_))
        ));
    }

    #[test]
    fn ffd_only_ablation_runs() {
        let sol = pack_items(&[4, 4, 2, 2], 4, &PackingConfig { ffd_only: true }).unwrap();
        assert_eq!(sol.bins.len(), 3); // FFD happens to be optimal here
    }

    #[test]
    fn every_item_lands_in_exactly_one_bin() {
        let sizes = [5usize, 3, 3, 2, 2, 2, 1, 1, 4];
        let sol = pack_items(&sizes, 6, &PackingConfig::default()).unwrap();
        let mut seen: Vec<usize> = sol.bins.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..sizes.len()).collect::<Vec<_>>());
        for bin in &sol.bins {
            let used: usize = bin.iter().map(|&i| sizes[i]).sum();
            assert!(used <= 6);
        }
    }

    #[test]
    fn search_saves_a_hit_on_the_four_fig10_11_cells() {
        // The only Fig 10/11-style cells (Restaurant/Product × τ 0.5…0.1
        // × k 5/10/15/20) where FFD is one HIT above the optimum:
        // (demands c₁…c_k, k, optimal bins).
        let cells: [(&[u64], usize, usize); 4] = [
            // Restaurant τ0.3 k15.
            (&[0, 48, 16, 11, 12, 4, 2, 2, 4, 0, 2, 0, 0, 2, 28], 15, 54),
            // Product τ0.5 k15.
            (&[0, 250, 13, 6, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 15, 40),
            // Product τ0.4 k10.
            (&[0, 338, 27, 32, 12, 10, 4, 2, 1, 5], 10, 111),
            // Product τ0.2 k10.
            (&[0, 136, 24, 40, 17, 11, 13, 14, 7, 175], 10, 268),
        ];
        for (demands, k, expected) in cells {
            let sizes = crate::branchbound::tests::sizes_of(demands);
            let ffd = first_fit_decreasing(&sizes, k).unwrap();
            assert_eq!(ffd.len(), expected + 1, "FFD on {demands:?}");
            let sol = pack_items(&sizes, k, &PackingConfig::default()).unwrap();
            assert_eq!(sol.bins.len(), expected, "search on {demands:?}");
            assert!(sol.lower_bound <= expected);
        }
    }

    /// Optimal bin count by exhaustive search over item subsets: the
    /// cheapest packing of `mask` opens a bin holding its lowest item.
    fn brute_force_optimum(sizes: &[usize], capacity: usize) -> usize {
        let full = (1usize << sizes.len()) - 1;
        let fits = |mask: usize| {
            let used: usize = (0..sizes.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| sizes[i])
                .sum();
            used <= capacity
        };
        let mut best = vec![usize::MAX; full + 1];
        best[0] = 0;
        for mask in 1..=full {
            let lowest = mask & mask.wrapping_neg();
            let rest = mask ^ lowest;
            let mut others = rest;
            loop {
                let bin = others | lowest;
                if fits(bin) {
                    best[mask] = best[mask].min(best[mask ^ bin] + 1);
                }
                if others == 0 {
                    break;
                }
                others = (others - 1) & rest;
            }
        }
        best[full]
    }

    /// `lower_bound ≤ OPT ≤ bins`, `optimal ⇒ bins = OPT`, and never
    /// worse than FFD.
    fn check_against_brute_force(
        sizes: &[usize],
        capacity: usize,
    ) -> std::result::Result<(), proptest::TestCaseError> {
        let opt = brute_force_optimum(sizes, capacity);
        let sol = pack_items(sizes, capacity, &PackingConfig::default()).unwrap();
        prop_assert!(sol.lower_bound <= opt);
        prop_assert!(opt <= sol.bins.len());
        if sol.optimal {
            prop_assert_eq!(sol.bins.len(), opt);
        }
        let ffd = first_fit_decreasing(sizes, capacity).unwrap();
        prop_assert!(sol.bins.len() <= ffd.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_brute_force_optimum(
            raw in proptest::collection::vec(1usize..=8, 0..=9),
            capacity in 1usize..=8,
        ) {
            let sizes: Vec<usize> = raw.iter().map(|&s| (s - 1) % capacity + 1).collect();
            check_against_brute_force(&sizes, capacity)?;
        }

        // FFD is optimal on all but 48 of the 43,749 size multisets with
        // ≤ 9 items and capacity ≤ 8, so uniform sizes rarely reach the
        // search; sizes 2..=4 in bins of 6..=8 defeat FFD in ~3 % of cases.
        #[test]
        fn matches_brute_force_optimum_where_ffd_struggles(
            sizes in proptest::collection::vec(2usize..=4, 6..=9),
            capacity in 6usize..=8,
        ) {
            check_against_brute_force(&sizes, capacity)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn solver_invariants(
            sizes in proptest::collection::vec(1usize..=8, 1..40),
            capacity in 8usize..=15,
        ) {
            let sol = pack_items(&sizes, capacity, &PackingConfig::default()).unwrap();
            // Partition property.
            let mut seen: Vec<usize> = sol.bins.iter().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..sizes.len()).collect::<Vec<_>>());
            // Capacity property.
            for bin in &sol.bins {
                let used: usize = bin.iter().map(|&i| sizes[i]).sum();
                prop_assert!(used <= capacity);
            }
            // Bound sanity.
            prop_assert!(sol.bins.len() >= sol.lower_bound);
            let ffd = first_fit_decreasing(&sizes, capacity).unwrap();
            prop_assert!(sol.bins.len() <= ffd.len());
        }
    }
}
