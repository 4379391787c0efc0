//! End-to-end observability: one durable streaming run lights up every
//! instrumented subsystem — the simjoin candidate funnel, the
//! incremental resolver's mutation latencies and cluster churn, the
//! write-ahead log's group-commit and fsync stats, and the crowd
//! platform's session counters — and a single Prometheus export plus
//! the event journal shows all of it. The example then asserts the
//! cross-subsystem invariants the metrics must satisfy: the WAL logged
//! at least one frame per resolver mutation, the join funnel is
//! leak-free, and the journal saw exactly one round span per round the
//! workflow reports.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use crowder::obs;
use crowder::prelude::*;

fn main() {
    // Traces and metrics are opt-in: without this, spans cost one
    // relaxed load and per-record counters are skipped entirely.
    obs::install_recorder();

    let dataset = restaurant(&RestaurantConfig::default());
    let population = WorkerPopulation::generate(&PopulationConfig::default(), 7);
    let wal_dir = std::env::temp_dir().join(format!("crowder-obs-example-{}", std::process::id()));
    let config = StreamingConfig {
        likelihood_threshold: 0.5,
        cluster_size: 6,
        batch_size: 40,
        durability: Some(DurabilityOptions::at(&wal_dir)),
        ..StreamingConfig::default()
    };

    let outcome = run_streaming(&dataset, &population, &config).expect("streaming workflow runs");
    let snap = obs::snapshot();
    let events = obs::journal_events();

    println!("{}", obs::export::prometheus_text(&snap));

    println!("journal tail ({} events total):", events.len());
    let tail = &events[events.len().saturating_sub(12)..];
    print!("{}", obs::export::journal_text(tail));

    // --- Invariant 1: durability saw every resolver mutation. Each
    // insert/remove/evidence/retraction the engine applied must have
    // logged at least one WAL frame (flushes and re-ranks log more).
    let mutations = snap.counter("stream.resolver.inserts")
        + snap.counter("stream.resolver.removes")
        + snap.counter("stream.resolver.evidence_records")
        + snap.counter("stream.resolver.retractions");
    let frames = snap.counter("durable.wal.frames_logged");
    assert!(
        frames >= mutations,
        "WAL logged {frames} frames for {mutations} resolver mutations"
    );
    assert!(mutations > 0, "the run performed no mutations");

    // --- Invariant 2: the candidate funnel is leak-free and
    // monotonically decreasing: every candidate is either pruned by
    // exactly one filter or verified, and results never exceed the
    // verified set.
    let candidates = snap.counter("simjoin.funnel.candidates");
    let pruned = snap.counter("simjoin.funnel.positional_pruned")
        + snap.counter("simjoin.funnel.signature_rejected")
        + snap.counter("simjoin.funnel.suffix_pruned");
    let verified = snap.counter("simjoin.funnel.verified");
    let results = snap.counter("simjoin.funnel.results");
    assert_eq!(
        candidates,
        pruned + verified,
        "funnel leaks candidates: {candidates} != {pruned} pruned + {verified} verified"
    );
    assert!(
        verified >= results,
        "verified {verified} < results {results}"
    );

    // --- Invariant 3: the journal carries one round span per round
    // the workflow reports, in strictly increasing sequence order.
    let round_spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::SpanEnd && e.name == "core.stream.round_ns")
        .collect();
    assert_eq!(
        round_spans.len(),
        outcome.rounds.len(),
        "journal round spans != reported rounds"
    );
    for w in round_spans.windows(2) {
        assert!(w[0].seq < w[1].seq);
        assert!(w[0].t_ns <= w[1].t_ns);
    }

    // --- Invariant 4: every subsystem is visible in this one export.
    assert_eq!(
        snap.counter("core.stream.rounds"),
        outcome.rounds.len() as u64
    );
    assert_eq!(
        snap.counter("crowd.session.sessions"),
        outcome.rounds.len() as u64,
        "one crowd session per round"
    );
    assert!(snap.counter("crowd.session.assignments_completed") > 0);
    for hist in [
        "stream.resolver.insert_ns",
        "stream.delta.probe_ns",
        "durable.wal.fsync_ns",
        "crowd.session.assignment_latency_ms",
        "core.stream.round_ns",
    ] {
        let h = snap
            .histogram(hist)
            .unwrap_or_else(|| panic!("histogram {hist} missing from the export"));
        assert!(h.count > 0, "histogram {hist} is empty");
    }

    println!();
    println!(
        "invariants hold: {frames} WAL frames >= {mutations} mutations; \
         funnel {candidates} -> {verified} verified -> {results} results; \
         {} round spans; resolver insert p99 {} ns; wal fsync p99 {} ns; \
         assignment latency p50 {} ms",
        round_spans.len(),
        snap.histogram("stream.resolver.insert_ns").unwrap().p99(),
        snap.histogram("durable.wal.fsync_ns").unwrap().p99(),
        snap.histogram("crowd.session.assignment_latency_ms")
            .unwrap()
            .p50(),
    );

    let _ = std::fs::remove_dir_all(&wal_dir);
}
