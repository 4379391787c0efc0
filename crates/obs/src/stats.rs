//! Exact (sorted-sample) percentiles: the oracle the histogram
//! accuracy tests compare [`crate::HistogramSnapshot::percentile`]
//! against.

/// The quantile `p` in `[0, 1]` of an ascending-sorted sample, using
/// nearest-rank on `round((len-1)·p)` — the same rank selection as
/// [`crate::HistogramSnapshot::percentile`], so the two are directly
/// comparable. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&s, 0.50), 51); // round(99·0.5)=50 → s[50]
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
