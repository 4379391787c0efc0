//! First-fit decreasing — the classical bin-packing heuristic.
//!
//! FFD is the bottom tier's first packing: the search runs only when it
//! exceeds the L2 bound, and must beat its bin count to replace it. On
//! its own it is the packing ablation baseline ("what if the bottom tier
//! skipped the search?"). It is guaranteed to use at most
//! `11/9·OPT + 2/3` bins.

use crowder_types::{Error, Result};

/// Pack items (given by their sizes) into bins of `capacity` using
/// first-fit decreasing. Returns bins as lists of *item indices* into
/// `sizes`.
///
/// Fails if any item exceeds the capacity or the capacity is zero.
pub fn first_fit_decreasing(sizes: &[usize], capacity: usize) -> Result<Vec<Vec<usize>>> {
    if capacity == 0 {
        return Err(Error::InvalidConfig {
            param: "capacity",
            message: "bin capacity must be positive".into(),
        });
    }
    if let Some(&too_big) = sizes.iter().find(|&&s| s > capacity) {
        return Err(Error::Infeasible(format!(
            "item of size {too_big} exceeds bin capacity {capacity}"
        )));
    }
    // Sort item indices by decreasing size; ties by index for determinism.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));

    let mut bins: Vec<Vec<usize>> = Vec::new();
    let mut free: Vec<usize> = Vec::new(); // remaining capacity per bin
    for idx in order {
        let size = sizes[idx];
        if size == 0 {
            // Zero-sized items (empty components) go into the first bin
            // (creating one if needed) without consuming capacity.
            if bins.is_empty() {
                bins.push(Vec::new());
                free.push(capacity);
            }
            bins[0].push(idx);
            continue;
        }
        match free.iter().position(|&f| f >= size) {
            Some(b) => {
                bins[b].push(idx);
                free[b] -= size;
            }
            None => {
                bins.push(vec![idx]);
                free.push(capacity - size);
            }
        }
    }
    Ok(bins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_no_bins() {
        assert!(first_fit_decreasing(&[], 10).unwrap().is_empty());
    }

    #[test]
    fn paper_section53_instance() {
        // SCC sizes {4, 4, 2, 2}, k = 4: FFD finds the optimal 3 bins
        // ({4}, {4}, {2,2}) that the paper reports.
        let bins = first_fit_decreasing(&[4, 4, 2, 2], 4).unwrap();
        assert_eq!(bins.len(), 3);
        let total: usize = bins.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn oversized_item_is_infeasible() {
        assert!(matches!(
            first_fit_decreasing(&[5], 4),
            Err(Error::Infeasible(_))
        ));
        assert!(first_fit_decreasing(&[1], 0).is_err());
    }

    #[test]
    fn perfect_fit() {
        let bins = first_fit_decreasing(&[3, 3, 2, 2, 2], 6).unwrap();
        assert_eq!(bins.len(), 2);
    }

    #[test]
    fn zero_sized_items_do_not_consume_capacity() {
        let bins = first_fit_decreasing(&[0, 0, 4], 4).unwrap();
        let total: usize = bins.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        for bin in &bins {
            let used: usize = bin.iter().map(|&i| [0usize, 0, 4][i]).sum();
            assert!(used <= 4);
        }
    }

    proptest! {
        #[test]
        fn bins_respect_capacity_and_cover_items(
            sizes in proptest::collection::vec(1usize..=10, 0..60),
            capacity in 10usize..=20,
        ) {
            let bins = first_fit_decreasing(&sizes, capacity).unwrap();
            let mut seen: Vec<usize> = bins.iter().flatten().copied().collect();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..sizes.len()).collect();
            prop_assert_eq!(seen, expect); // every item exactly once
            for bin in &bins {
                let used: usize = bin.iter().map(|&i| sizes[i]).sum();
                prop_assert!(used <= capacity);
                prop_assert!(!bin.is_empty());
            }
        }

        #[test]
        fn never_worse_than_trivial_bound(
            sizes in proptest::collection::vec(1usize..=10, 1..60),
        ) {
            let capacity = 10usize;
            let bins = first_fit_decreasing(&sizes, capacity).unwrap();
            // FFD is at most the item count, and at least the volume bound.
            let volume: usize = sizes.iter().sum();
            let lb = volume.div_ceil(capacity);
            prop_assert!(bins.len() >= lb);
            prop_assert!(bins.len() <= sizes.len());
        }
    }
}
