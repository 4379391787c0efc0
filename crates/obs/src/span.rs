//! RAII span timers and the process monotonic clock.
//!
//! [`Span::enter`] (normally via the [`span!`](crate::span!) macro) is
//! the *only* sanctioned way to time a hot path outside the bench
//! crates — CI greps for stray `Instant::now` calls. When no recorder
//! is installed a span costs one relaxed load; when one is installed it
//! reads the clock on open and close, records the elapsed nanoseconds
//! into its histogram, and journals a `SpanEnd` event.
//!
//! Per-record paths (a delta-join probe, one resolver mutation) use the
//! lighter [`span_light!`](crate::span_light) /
//! [`Span::enter_light`] variant: the latency histogram still gets
//! every sample, but nothing is journaled — the journal carries the
//! per-round, per-batch, and per-session events, which is what its
//! bounded capacity is budgeted for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::hist::Histogram;
use crate::journal::EventKind;

static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Highest timestamp handed out, so [`now_ns`] is monotone even if the
/// platform clock stalls at nanosecond granularity.
static LAST_NS: AtomicU64 = AtomicU64::new(0);

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let raw = EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64;
    LAST_NS.fetch_max(raw, Ordering::Relaxed).max(raw)
}

/// An open span; records on drop. Construct through
/// [`span!`](crate::span!) or [`span_light!`](crate::span_light), which
/// supply the per-call-site histogram cache slot.
#[must_use = "a span records when dropped; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    /// `Some(name)` journals a `SpanEnd` on drop; `None` is the light
    /// variant (histogram only).
    journal_as: Option<&'static str>,
    /// Borrowed straight out of the call site's `'static` cache slot —
    /// no refcount traffic on the hot path.
    hist: &'static Histogram,
    t_ns: u64,
    start: Instant,
}

impl Span {
    /// Open a journaled span named `name`, resolving its histogram
    /// through the call site's cache `slot`. Inert when no recorder is
    /// installed.
    pub fn enter(name: &'static str, slot: &'static OnceLock<Arc<Histogram>>) -> Span {
        Self::open(name, slot, true)
    }

    /// Open a histogram-only span: every sample still lands in the
    /// latency histogram, but no journal event is written. For
    /// per-record hot paths.
    pub fn enter_light(name: &'static str, slot: &'static OnceLock<Arc<Histogram>>) -> Span {
        Self::open(name, slot, false)
    }

    fn open(name: &'static str, slot: &'static OnceLock<Arc<Histogram>>, journal: bool) -> Span {
        if !crate::recording() {
            return Span { inner: None };
        }
        let hist: &'static Histogram = slot.get_or_init(|| crate::global().histogram(name));
        // One clock read serves both the start timestamp and the
        // duration baseline; `Instant` is monotone, so deriving `t_ns`
        // from the epoch needs no fetch_max guard.
        let epoch = *EPOCH.get_or_init(Instant::now);
        let start = Instant::now();
        Span {
            inner: Some(SpanInner {
                journal_as: journal.then_some(name),
                hist,
                t_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                start,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = inner.start.elapsed().as_nanos() as u64;
            inner.hist.record(dur_ns);
            if let Some(name) = inner.journal_as {
                crate::journal().push(EventKind::SpanEnd, name, inner.t_ns, dur_ns, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut last = 0;
        for _ in 0..1000 {
            let t = now_ns();
            assert!(t >= last);
            last = t;
        }
    }
}
