//! The benchmark's own arithmetic: medians, the ten-beyond percentile
//! rule, open-loop due-time latency and ladder-rate selection.

use std::time::{Duration, Instant};

/// A percentile is reported only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count), as
/// Python's `statistics.median` gives it. `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The nearest-rank `q` percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q) - 1])
}

/// The highest of `quantiles` (tried in order, highest first) that
/// `samples` supports, with the quantile it was taken at.
pub fn highest_supported(samples: &[f64], quantiles: &[f64]) -> Option<(f64, f64)> {
    quantiles
        .iter()
        .find_map(|&q| percentile(samples, q).map(|v| (q, v)))
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer arrived.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Timed {
    /// Latency from the due time, so a generator stall is charged to
    /// every request it delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One step of the open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, records per second.
    pub rate: f64,
    /// The rung's ack latency at the ladder's percentile, ms (`None`
    /// when too few acks support it).
    pub tail_ms: Option<f64>,
    /// Median ack latency of the rung's first and last quarter, ms.
    pub early_ms: f64,
    pub late_ms: f64,
    /// Batches refused or failed on the rung.
    pub failed: usize,
}

impl Rung {
    /// A rung passes when its tail latency is measured and within
    /// `limit_ms`, nothing failed, and its backlog did not grow: the
    /// last quarter's median latency exceeds the first quarter's by
    /// less than half the limit.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.tail_ms.is_some_and(|t| t <= limit_ms)
            && self.late_ms - self.early_ms < limit_ms / 2.0
    }
}

/// The sustained rate of an ascending ladder: the highest rate reached
/// before the first rung that fails. `None` if the first rung fails.
pub fn sustained_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .last()
        .map(|r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: ten beyond, so supported.
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(percentile(&seq(100), 0.9), Some(90.0));
        // p99 of 100 samples has one beyond: refused.
        assert_eq!(percentile(&seq(100), 0.99), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&seq(999), 0.99), None);
        assert_eq!(percentile(&seq(1000), 0.99), Some(990.0));
        // The median of 20 samples has ten beyond; of 19, nine.
        assert_eq!(percentile(&seq(20), 0.5), Some(10.0));
        assert_eq!(percentile(&seq(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_supported_falls_back_to_lower_quantiles() {
        let q = [0.99, 0.9, 0.5];
        assert_eq!(highest_supported(&seq(1000), &q), Some((0.99, 990.0)));
        assert_eq!(highest_supported(&seq(150), &q), Some((0.9, 135.0)));
        assert_eq!(highest_supported(&seq(30), &q), Some((0.5, 15.0)));
        assert_eq!(highest_supported(&seq(5), &q), None);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Due at 10 ms, sent at 25 ms because the generator stalled,
        // answered at 30 ms: 20 ms latency, 15 ms of it lateness.
        let r = Timed {
            due: at(10),
            sent: at(25),
            done: at(30),
        };
        assert_eq!(r.latency(), Duration::from_millis(20));
        assert_eq!(r.lateness(), Duration::from_millis(15));
        // An early send is not negative lateness.
        let early = Timed {
            due: at(10),
            sent: at(5),
            done: at(12),
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_millis(2));
    }

    fn rung(rate: f64, tail: Option<f64>, early: f64, late: f64) -> Rung {
        Rung {
            rate,
            tail_ms: tail,
            early_ms: early,
            late_ms: late,
            failed: 0,
        }
    }

    #[test]
    fn ladder_picks_the_last_rate_before_the_first_failure() {
        let limit = 50.0;
        let rungs = [
            rung(1000.0, Some(10.0), 2.0, 2.0),
            rung(2000.0, Some(30.0), 3.0, 4.0),
            // Tail over the limit.
            rung(3000.0, Some(80.0), 5.0, 6.0),
            // Passes, but after a failure: not sustained.
            rung(4000.0, Some(20.0), 5.0, 6.0),
        ];
        assert_eq!(sustained_rate(&rungs, limit), Some(2000.0));
        // A growing backlog fails a rung whose tail is still in limit.
        let growing = [
            rung(1000.0, Some(10.0), 2.0, 2.0),
            rung(2000.0, Some(45.0), 3.0, 40.0),
        ];
        assert_eq!(sustained_rate(&growing, limit), Some(1000.0));
        // Unsupported tails and failed batches fail a rung.
        let thin = [rung(1000.0, None, 1.0, 1.0)];
        assert_eq!(sustained_rate(&thin, limit), None);
        let mut refused = rung(1000.0, Some(1.0), 1.0, 1.0);
        refused.failed = 1;
        assert_eq!(sustained_rate(&[refused], limit), None);
    }
}
