//! # crowder-obs
//!
//! Zero-dependency observability runtime for the CrowdER workspace: a
//! process-global [`Registry`] of atomic [`Counter`]s, [`Gauge`]s, and
//! log2-bucketed latency [`Histogram`]s with p50/p90/p99 extraction and
//! mergeable [`Snapshot`]s; RAII [`Span`] timers (the [`span!`] macro)
//! that feed histograms and a bounded structured event [`Journal`] with
//! sequence numbers and monotonic timestamps; and a Prometheus
//! exporter ([`export::prometheus_text`]). [`json`] holds the
//! hand-rolled JSON writer of the `perfbench` report.
//!
//! ## Recorder-installation contract
//!
//! Instruments come in two cost classes:
//!
//! * **Counters, gauges, and direct histogram records are always live
//!   as primitives.** Each operation is a handful of relaxed atomic
//!   stores. Call sites on *per-batch or rarer* paths (a WAL group
//!   commit, a crowd session, a streaming round, recovery) use them
//!   unconditionally.
//! * **Spans, marks, and the journal are gated on an installed
//!   recorder.** Until [`install_recorder`] runs, [`span!`] performs one
//!   relaxed load and constructs nothing: no clock read, no histogram
//!   update, no journal event. [`pause_recorder`] flips the gate back
//!   off (benchmarks use this to measure both sides in one process).
//!   *Per-record* call sites (one delta-join probe, one resolver
//!   mutation, one WAL frame, one assignment) put their counter updates
//!   behind the same [`recording`] check, so an uninstrumented process
//!   pays one relaxed load per record and nothing else — the bound
//!   the `crowder-bench` gate table (`bench_gates`) enforces.
//!
//! Binaries that want metrics and traces opt in once at startup:
//!
//! ```
//! crowder_obs::install_recorder();
//! {
//!     let _timer = crowder_obs::span!("demo.docs.work");
//!     crowder_obs::counter!("demo.docs.widgets").add(3);
//! }
//! let snap = crowder_obs::snapshot();
//! assert_eq!(snap.counter("demo.docs.widgets"), 3);
//! assert!(snap.histogram("demo.docs.work").is_some());
//! print!("{}", crowder_obs::export::prometheus_text(&snap));
//! ```
//!
//! ## Metric naming convention
//!
//! Keys are dotted lower-case paths, `<crate>.<subsystem>.<name>`:
//! `simjoin.funnel.candidates`, `stream.resolver.insert_ns`,
//! `durable.wal.fsync_ns`, `crowd.session.assignments_completed`,
//! `core.stream.round_ns`. Latency histograms end in `_ns` (the unit
//! recorded); counters are plural nouns; gauges are instantaneous
//! levels. The Prometheus exporter maps `.` to `_`.
//!
//! ## The join funnel counters
//!
//! Both the batch `prefix_join` and the streaming `DeltaIndex` probe
//! publish into one shared family, so a single export shows the whole
//! machine pass as one funnel. `simjoin.funnel.candidates` counts pairs
//! that survived the index-geometry kills (length skip, adaptive count
//! filter, last-token truncation — those never surface at all); each
//! candidate then lands in exactly one of `positional_pruned`,
//! `signature_rejected` (the 256-bit band-signature lower bound on the
//! symmetric difference), `suffix_pruned`, or `verified`, and `results`
//! counts verified pairs at or above the threshold. Both engines probe
//! only the partner side of the pair space, so no candidate lies
//! outside it and there is no space stage. The leak-free invariant
//! `candidates == positional_pruned + signature_rejected +
//! suffix_pruned + verified` is asserted by the observability example
//! and the join funnel regression tests.
//!
//! The [`stats`] module hosts the exact sorted-sample percentile the
//! histogram tests compare against.

pub mod export;
pub mod hist;
pub mod journal;
pub mod json;
pub mod registry;
pub mod span;
pub mod stats;

pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use journal::{Event, EventKind, Journal};
pub use registry::{Counter, Gauge, Registry, Snapshot};
pub use span::{now_ns, Span};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The process-global recorder gate (see the crate docs for the
/// contract). `false` until [`install_recorder`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Instrument operations performed while no recorder is installed
/// (counter adds, gauge stores, histogram records). The overhead bench
/// multiplies this census by a microbenched per-op cost to bound the
/// no-recorder instrument overhead.
static OPS: AtomicU64 = AtomicU64::new(0);

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static JOURNAL: OnceLock<Journal> = OnceLock::new();

/// The process-global registry every [`counter!`]/[`gauge!`]/[`span!`]
/// call site resolves against.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The process-global bounded event journal (capacity
/// [`journal::DEFAULT_CAPACITY`]). Only written while the recorder is
/// installed.
pub fn journal() -> &'static Journal {
    JOURNAL.get_or_init(|| Journal::new(journal::DEFAULT_CAPACITY))
}

/// Install the recorder: spans start timing and the journal starts
/// collecting. Idempotent.
pub fn install_recorder() {
    ENABLED.store(true, Ordering::Release);
}

/// Pause the recorder: spans and marks become no-ops again. Counters,
/// gauges, and direct histogram records keep working (always-on class).
pub fn pause_recorder() {
    ENABLED.store(false, Ordering::Release);
}

/// Is a recorder currently installed? One relaxed load — this is the
/// whole cost of a disabled [`span!`].
#[inline]
pub fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Instrument operations recorded so far, process-wide. Only ticks
/// while the recorder is *paused*: the counter exists so the overhead
/// bench can census the ops a no-recorder process still performs, and
/// skipping it while installed keeps the recorded path one RMW cheaper.
pub fn ops_recorded() -> u64 {
    OPS.load(Ordering::Relaxed)
}

/// Internal: bump the paused-state op census (see [`ops_recorded`]).
#[inline]
pub(crate) fn count_op() {
    if !recording() {
        OPS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Append a named point event with a value to the journal (gated on the
/// recorder like spans). Use for discrete milestones — round numbers,
/// recovery completions — that a latency histogram can't express.
pub fn mark(name: &'static str, value: u64) {
    if recording() {
        journal().push(EventKind::Mark, name, now_ns(), 0, value);
    }
}

/// Snapshot every instrument in the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Copy out the global journal's current events, oldest first.
pub fn journal_events() -> Vec<Event> {
    journal().events()
}

/// Resolve (registering on first use) a counter in the global registry
/// and cache the handle per call site. Accepts any `&str` expression,
/// though hot paths should pass literals so the cache key is stable.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__OBS_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Resolve (registering on first use) a gauge in the global registry,
/// cached per call site like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __OBS_GAUGE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__OBS_GAUGE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Resolve (registering on first use) a histogram in the global
/// registry, cached per call site like [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __OBS_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__OBS_HIST.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// Open an RAII span: on drop, the elapsed nanoseconds are recorded
/// into the global histogram named `$name` and a `SpanEnd` event is
/// journaled. When no recorder is installed this is one relaxed load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __OBS_SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter($name, &__OBS_SPAN_HIST)
    }};
}

/// Like [`span!`] but histogram-only: the elapsed nanoseconds are
/// recorded, no journal event is written. Use on per-record hot paths
/// so the bounded journal keeps its capacity for per-round, per-batch,
/// and per-session events.
#[macro_export]
macro_rules! span_light {
    ($name:expr) => {{
        static __OBS_SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter_light($name, &__OBS_SPAN_HIST)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_register_and_update_global_instruments() {
        counter!("obs.test.macro_counter").add(2);
        counter!("obs.test.macro_counter").incr();
        gauge!("obs.test.macro_gauge").set(-7);
        histogram!("obs.test.macro_hist").record(1000);
        let snap = snapshot();
        assert_eq!(snap.counter("obs.test.macro_counter"), 3);
        assert_eq!(snap.gauge("obs.test.macro_gauge"), -7);
        assert_eq!(snap.histogram("obs.test.macro_hist").unwrap().count, 1);
    }

    #[test]
    fn spans_are_inert_without_a_recorder_and_record_with_one() {
        // Tests in this binary share the global gate; this is the only
        // test that toggles it, so no serialization is needed.
        pause_recorder();
        {
            let _s = span!("obs.test.gated_span");
        }
        assert!(snapshot().histogram("obs.test.gated_span").is_none());
        // The paused-state op census ticks while the gate is off.
        let ops_before = ops_recorded();
        counter!("obs.test.ops_probe").add(5);
        histogram!("obs.test.ops_probe_ns").record(9);
        assert!(ops_recorded() >= ops_before + 2);

        install_recorder();
        let seq_before = journal().next_seq();
        {
            let _s = span!("obs.test.gated_span");
            std::hint::black_box(());
        }
        mark("obs.test.gated_mark", 42);
        pause_recorder();

        let snap = snapshot();
        let hist = snap.histogram("obs.test.gated_span").unwrap();
        assert_eq!(hist.count, 1);
        let events = journal_events();
        let ours: Vec<&Event> = events.iter().filter(|e| e.seq >= seq_before).collect();
        assert!(ours
            .iter()
            .any(|e| e.kind == EventKind::SpanEnd && e.name == "obs.test.gated_span"));
        assert!(ours.iter().any(|e| e.kind == EventKind::Mark
            && e.name == "obs.test.gated_mark"
            && e.value == 42));
        // Sequence numbers strictly increase, timestamps never regress.
        for w in ours.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }
}
