//! The Martello–Toth L2 lower bound on the bin count.
//!
//! For a threshold `α ≤ k/2`, split the items into `J₁` (size `> k − α`),
//! `J₂` (`k/2 <` size `≤ k − α`) and `J₃` (`α ≤` size `≤ k/2`). No two
//! items of `J₁ ∪ J₂` share a bin, and no `J₃` item fits beside a `J₁`
//! item, so `J₃` can at best fill the slack `|J₂|·k − Σ J₂` of the `J₂`
//! bins:
//!
//! ```text
//!   L(α) = |J₁| + |J₂| + ⌈max(0, Σ J₃ − (|J₂|·k − Σ J₂)) / k⌉
//! ```
//!
//! L2 is the maximum of `L(α)`. Between two item sizes, raising `α` only
//! moves items from `J₂` to `J₁`, which cannot lower `L(α)`, so it
//! suffices to try `α = 0` and every distinct item size `≤ k/2`. `L(0)`
//! is `max(|items > k/2|, ⌈volume / k⌉)`, so L2 dominates the volume
//! bound.

/// L2 for `demands[j-1]` items of size `j` and bins of `capacity`.
pub fn martello_toth_l2(demands: &[u64], capacity: usize) -> usize {
    let k = capacity as u64;
    let classes: Vec<(u64, u64)> = demands
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(idx, &count)| (idx as u64 + 1, count))
        .collect();
    let alphas = classes
        .iter()
        .map(|&(size, _)| size)
        .filter(|&size| 2 * size <= k);
    std::iter::once(0)
        .chain(alphas)
        .map(|alpha| {
            let (mut large, mut large_slack, mut small_volume) = (0u64, 0u64, 0u64);
            for &(size, count) in &classes {
                if 2 * size > k {
                    // J₁ ∪ J₂: one bin each; only J₂ bins take J₃ items.
                    large += count;
                    if size <= k - alpha {
                        large_slack += count * (k - size);
                    }
                } else if size >= alpha {
                    small_volume += count * size;
                }
            }
            large + small_volume.saturating_sub(large_slack).div_ceil(k)
        })
        .max()
        .unwrap_or(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_section53_l2_bound_is_three() {
        // Demands c = [0, 2, 0, 2] (two SCCs of size 2, two of size 4),
        // k = 4: the paper's optimal packing is 3 HITs, and L2 proves it.
        assert_eq!(martello_toth_l2(&[0, 2, 0, 2], 4), 3);
    }

    #[test]
    fn zero_demands_cost_nothing() {
        assert_eq!(martello_toth_l2(&[0, 0, 0], 5), 0);
        assert_eq!(martello_toth_l2(&[], 5), 0);
    }

    #[test]
    fn uniform_items_match_volume_bound() {
        // 10 items of size 3 into capacity 9: ⌈30 / 9⌉ = 4.
        assert_eq!(martello_toth_l2(&[0, 0, 10], 9), 4);
    }

    #[test]
    fn items_above_half_capacity_need_a_bin_each() {
        // Three items of size 6 into capacity 10: volume says 2, but no
        // two of them share a bin.
        assert_eq!(martello_toth_l2(&[0, 0, 0, 0, 0, 3], 10), 3);
        // Two 7s and three 4s: volume and α = 0 both say 3, but at α = 4
        // no 4 fits beside a 7, so 2 + ⌈12 / 10⌉ = 4 (the optimum).
        assert_eq!(martello_toth_l2(&[0, 0, 0, 3, 0, 0, 2], 10), 4);
    }

    proptest! {
        #[test]
        fn l2_sandwiched_between_volume_and_ffd(
            demands in proptest::collection::vec(0u64..6, 1..8),
            capacity in 8usize..=16,
        ) {
            let l2 = martello_toth_l2(&demands, capacity);
            let sizes = crate::branchbound::tests::sizes_of(&demands);
            prop_assert!(l2 >= sizes.iter().sum::<usize>().div_ceil(capacity));
            // FFD is a feasible packing, so L2 ≤ FFD.
            let ffd = crate::ffd::first_fit_decreasing(&sizes, capacity).unwrap();
            prop_assert!(l2 <= ffd.len());
        }
    }
}
