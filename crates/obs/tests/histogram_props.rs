//! Property tests for the histogram core: merge algebra, percentile
//! error bounds against a sorted oracle, and lossless concurrent
//! recording.

use crowder_obs::stats::percentile_sorted;
use crowder_obs::{bucket_index, Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn hist_of(name: &str, samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new(name);
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging is commutative: a⊕b == b⊕a (names aside — the
    /// accumulator keeps its own).
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(0u64..2_000_000, 0..64),
        b in proptest::collection::vec(0u64..2_000_000, 0..64),
    ) {
        let (sa, sb) = (hist_of("m", &a), hist_of("m", &b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
    }

    /// Merging is associative: (a⊕b)⊕c == a⊕(b⊕c), and either order
    /// equals recording every sample into one histogram.
    #[test]
    fn merge_is_associative_and_lossless(
        a in proptest::collection::vec(0u64..2_000_000, 0..48),
        b in proptest::collection::vec(0u64..2_000_000, 0..48),
        c in proptest::collection::vec(0u64..2_000_000, 0..48),
    ) {
        let (sa, sb, sc) = (hist_of("m", &a), hist_of("m", &b), hist_of("m", &c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        let direct = hist_of("m", &all);
        prop_assert_eq!(left.count, direct.count);
        prop_assert_eq!(left.sum, direct.sum);
        prop_assert_eq!(&left.buckets, &direct.buckets);
        if !all.is_empty() {
            prop_assert_eq!(left.min, direct.min);
            prop_assert_eq!(left.max, direct.max);
        }
    }

    /// Extracted percentiles stay within the log2 bucket error bound of
    /// the exact sorted-sample oracle: same or adjacent bucket, and
    /// within a factor of 2 of the true value (the bucket width).
    #[test]
    fn percentiles_track_the_sorted_oracle(
        samples in proptest::collection::vec(0u64..50_000_000, 1..256),
        p_raw in 0u32..101,
    ) {
        let p = p_raw as f64 / 100.0;
        let snap = hist_of("m", &samples);
        let mut sorted: Vec<u128> = samples.iter().map(|&v| v as u128).collect();
        sorted.sort_unstable();
        let exact = percentile_sorted(&sorted, p) as u64;
        let reported = snap.percentile(p);
        let (be, br) = (bucket_index(exact), bucket_index(reported));
        prop_assert!(
            be.abs_diff(br) <= 1,
            "p={} exact={} (bucket {}) reported={} (bucket {})",
            p, exact, be, reported, br
        );
        // Same-bucket ⇒ factor-of-2 bound; adjacent adds one doubling.
        let (lo, hi) = (exact / 4, exact.saturating_mul(4).max(4));
        prop_assert!(reported >= lo && reported <= hi,
            "p={} exact={} reported={}", p, exact, reported);
    }
}

/// Concurrent recording from scoped threads loses no counts: bucket
/// totals, count, and sum all equal the single-threaded reference.
#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Histogram::new("concurrent");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                // Distinct per-thread value streams spanning many buckets.
                for i in 0..PER_THREAD {
                    h.record(t * 1_000_000 + (i * i) % 777_777);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);

    let reference = Histogram::new("reference");
    let mut sum = 0u64;
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let v = t * 1_000_000 + (i * i) % 777_777;
            reference.record(v);
            sum += v;
        }
    }
    let expect = reference.snapshot();
    assert_eq!(snap.buckets, expect.buckets);
    assert_eq!(snap.sum, sum);
    assert_eq!(snap.min, expect.min);
    assert_eq!(snap.max, expect.max);
}

/// Fixed distributions — a uniform ramp, repeated doublings across 21
/// buckets, and a quadratic heavy tail — whose p50 and p99 estimates
/// must land within one log2 bucket of the sorted-sample oracle.
#[test]
fn histogram_percentiles_stay_within_one_bucket_of_the_oracle() {
    let distributions: [(&str, Vec<u64>); 3] = [
        ("uniform-ramp", (1..=10_000u64).collect()),
        ("doubling", (0..4096u64).map(|i| 1u64 << (i % 21)).collect()),
        ("heavy-tail", (1..=3_000u64).map(|i| i * i).collect()),
    ];
    for (label, values) in distributions {
        let snap = hist_of(label, &values);
        let mut sorted: Vec<u128> = values.iter().map(|&v| v as u128).collect();
        sorted.sort_unstable();
        for p in [0.50, 0.99] {
            let exact = percentile_sorted(&sorted, p) as u64;
            let estimated = snap.percentile(p);
            let delta = bucket_index(estimated).abs_diff(bucket_index(exact));
            assert!(
                delta <= 1,
                "{label} p{}: exact {exact} estimated {estimated} ({delta} buckets apart)",
                p * 100.0
            );
        }
    }
}
