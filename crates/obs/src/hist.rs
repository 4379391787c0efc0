//! Log2-bucketed latency histograms.
//!
//! A [`Histogram`] is 65 relaxed atomic bucket counters — bucket `b`
//! holds values with exactly `b` significant bits, i.e. the range
//! `[2^(b-1), 2^b - 1]` (bucket 0 holds only zero) — plus sum, min,
//! and max (the count is the bucket total, computed at snapshot time).
//! Recording is lock-free and wait-free: one bucket add, a sum add,
//! and a min/max pair, all `Relaxed`. The
//! geometric buckets bound percentile error by construction: any value
//! reported for a rank lies in the same bucket as the true sample at
//! that rank, so a reported quantile is within a factor of 2 of the
//! exact one (and within one bucket index — the property
//! `tests/histogram_props.rs` checks).

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: one per significant-bit count of a `u64` (1..=64),
/// plus bucket 0 for the value zero.
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: its number of significant bits.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Smallest value in bucket `b`.
pub fn bucket_low(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Largest value in bucket `b`.
pub fn bucket_high(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Midpoint of bucket `b` — the representative a quantile query
/// returns for ranks landing in the bucket.
fn bucket_mid(b: usize) -> u64 {
    let low = bucket_low(b);
    low + (bucket_high(b) - low) / 2
}

/// A concurrent log2-bucketed histogram of `u64` samples
/// (conventionally nanoseconds; metric names end in `_ns`).
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Histogram {
            name: name.into(),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The metric key this histogram was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one sample — four relaxed atomics, no locks, no
    /// allocation. The total count is not tracked separately; it is the
    /// sum of the buckets, computed at snapshot time.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        crate::count_op();
    }

    /// Samples recorded so far (sums the buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copy the current state out. Buckets are read individually with
    /// relaxed loads; under concurrent recording the snapshot is a
    /// consistent-enough view (counts never decrease, aggregates may
    /// trail the buckets by in-flight records).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            name: self.name.clone(),
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric key.
    pub name: String,
    /// Per-bucket sample counts, [`NUM_BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping is the caller's lookout at 2^64 ns
    /// ≈ 585 years of accumulated latency).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty(name: impl Into<String>) -> Self {
        HistogramSnapshot {
            name: name.into(),
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Merge another snapshot into this one (bucket-wise addition;
    /// min/max widen). Associative and commutative up to `name` — the
    /// accumulator's name wins — so shard snapshots can be folded in
    /// any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The quantile `p` in `[0, 1]`, as the midpoint of the bucket the
    /// rank falls in. Rank selection mirrors
    /// [`crate::stats::percentile_sorted`]: rank = `round((count-1)·p)`,
    /// zero-based. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return bucket_mid(b);
            }
        }
        // Unreachable when bucket counts sum to `count`; under a torn
        // concurrent snapshot fall back to the largest seen value.
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean sample, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_low(b)), b);
            assert_eq!(bucket_index(bucket_high(b)), b);
            assert!(bucket_low(b) <= bucket_high(b));
            if b > 0 {
                assert_eq!(bucket_low(b), bucket_high(b - 1).wrapping_add(1));
            }
        }
    }

    #[test]
    fn record_and_snapshot_agree() {
        let h = Histogram::new("t");
        for v in [0u64, 1, 2, 3, 100, 1000, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 2106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[7], 1); // 100
        assert_eq!(s.buckets[10], 2); // 1000 twice
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let h = Histogram::new("t");
        for _ in 0..98 {
            h.record(10);
        }
        h.record(1_000_000);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(bucket_index(s.p50()), bucket_index(10));
        assert_eq!(bucket_index(s.p99()), bucket_index(1_000_000));
        assert_eq!(HistogramSnapshot::empty("e").percentile(0.5), 0);
    }
}
