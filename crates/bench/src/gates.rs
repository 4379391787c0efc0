//! Same-run timing gates: each row is the ratio of two measurements
//! taken in one process on one machine, so its bound holds on any host
//! (a CI runner and a 1-CPU container alike), unlike a wall-clock
//! number. Every row streams one corpus at τ = 0.3 in rounds of 128
//! arrivals, each round ending in a HIT flush.
//!
//! | row | measured | bound |
//! |---|---|---|
//! | churn | churn cost per op ÷ insert-only cost per arrival | 10 |
//! | WAL | logged engine cost per op ÷ log-less engine cost per op (median of 5) | 3 |
//! | installed recorder | recorded stream ÷ paused stream (median of 5) | 1.05 |
//! | no recorder | always-live instrument cost ÷ paused stream | 0.005 |
//!
//! [`measure`] fills the table and [`check`] validates it; the
//! `bench_gates` binary runs both on the Restaurant corpus.
//! Deterministic gates (join funnels, recovery digests, cluster splits,
//! histogram accuracy) are tier-1 tests in the crates they cover.

use crowder::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Join threshold of every gated workload.
const THRESHOLD: f64 = 0.3;

/// Arrivals per round.
const BATCH: usize = 128;

/// Bound on churn cost per op over insert-only cost per arrival: full
/// mutability must stay within 10× of append-only ingest.
const MAX_CHURN_RATIO: f64 = 10.0;

/// Samples the WAL and installed-recorder rows take the median of.
const SAMPLES: usize = 5;

/// Shortest time each side of a recorder-row sample runs, in
/// nanoseconds. One Restaurant pass takes about 10 ms, short enough that
/// one fast or slow stretch of a shared host moved a one-pass ratio past
/// the 1.05 bound about one run in three to eight.
const MIN_SAMPLE_NS: u128 = 100_000_000;

/// One row of the gate table: a same-run ratio and the bound it must
/// not exceed.
#[derive(Debug)]
pub struct Gate {
    /// What the ratio compares.
    pub name: &'static str,
    /// The measured ratio.
    pub measured: f64,
    /// The largest passing value.
    pub bound: f64,
}

impl Gate {
    /// True iff the measurement is within its bound (a NaN never is).
    pub fn holds(&self) -> bool {
        self.measured <= self.bound
    }
}

/// Measure every row on `dataset`. Leaves the global recorder paused.
pub fn measure(dataset: &Dataset) -> Vec<Gate> {
    let (churn, _) = churn_ratio(dataset);
    let wal = wal_overhead(dataset);
    let (installed, no_recorder) = obs_overheads(dataset);
    vec![
        Gate {
            name: "churn / insert-only per op",
            measured: churn,
            bound: MAX_CHURN_RATIO,
        },
        Gate {
            name: "WAL / in-memory per op",
            measured: wal,
            bound: 3.0,
        },
        Gate {
            name: "installed / paused recorder",
            measured: installed,
            bound: 1.05,
        },
        Gate {
            name: "no-recorder cost / run",
            measured: no_recorder,
            bound: 0.005,
        },
    ]
}

/// `Ok` iff every row holds; otherwise the breached rows.
pub fn check(gates: &[Gate]) -> Result<(), String> {
    let breached: Vec<String> = gates
        .iter()
        .filter(|g| !g.holds())
        .map(|g| format!("{}: {} > {}", g.name, g.measured, g.bound))
        .collect();
    if breached.is_empty() {
        Ok(())
    } else {
        Err(breached.join("; "))
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: THRESHOLD,
        ..StreamConfig::default()
    }
}

/// One insert-only pass: every record, a HIT flush per round. Returns
/// elapsed nanoseconds.
fn stream_once(dataset: &Dataset) -> u128 {
    let mut resolver = IncrementalResolver::like(dataset, stream_config());
    let started = Instant::now();
    for chunk in dataset.records().chunks(BATCH) {
        for record in chunk {
            resolver
                .insert(record.source, record.fields.clone())
                .expect("schema matches");
        }
        resolver.regenerate_hits().expect("k is valid");
    }
    started.elapsed().as_nanos()
}

/// Mean cost per operation of a churn workload over the mean cost per
/// arrival of [`stream_once`] on the same corpus, and the cluster
/// splits the churn caused. Per round the churn inserts the chunk,
/// commits every third surfaced pair, contradicts half of those
/// (decommit, possibly a split) and retracts the rest, deletes a
/// quarter of the round's arrivals, and flushes.
fn churn_ratio(dataset: &Dataset) -> (f64, usize) {
    let insert_ns = stream_once(dataset) as f64 / dataset.len().max(1) as f64;

    let mut resolver = IncrementalResolver::like(dataset, stream_config());
    let mut rng = StdRng::seed_from_u64(0xFA_17);
    let mut ops = 0usize;
    let mut splits = 0usize;
    let started = Instant::now();
    for chunk in dataset.records().chunks(BATCH) {
        let mut arrived: Vec<RecordId> = Vec::with_capacity(chunk.len());
        let mut round_pairs: Vec<Pair> = Vec::new();
        for record in chunk {
            let report = resolver
                .insert(record.source, record.fields.clone())
                .expect("schema matches");
            ops += 1;
            arrived.push(report.record);
            round_pairs.extend(report.new_pairs.iter().map(|sp| sp.pair));
        }
        for (i, &pair) in round_pairs.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            splits += resolver.record_evidence(pair, true, 1.0).split as usize;
            let rep = if i % 6 == 0 {
                resolver.record_evidence(pair, false, 2.0)
            } else {
                resolver.retract(pair)
            };
            splits += rep.split as usize;
            ops += 2;
        }
        for _ in 0..chunk.len() / 4 {
            let victim = arrived[rng.random_range(0..arrived.len())];
            if resolver.is_alive(victim) {
                splits += resolver.remove(victim).expect("victim is alive").splits;
                ops += 1;
            }
        }
        resolver.regenerate_hits().expect("k is valid");
    }
    let churn_ns = started.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    (churn_ns / insert_ns.max(1.0), splits)
}

/// A deterministic mutation script over `dataset` carrying every op
/// kind the WAL logs. Per round: insert the chunk, correct the first
/// arrival, delete the last, commit evidence on every third surfaced
/// pair (retracting every ninth), sometimes re-weight a worker or
/// re-rank, and flush. Built against a scratch resolver so every op is
/// legal at its point in the sequence.
fn durable_script(dataset: &Dataset) -> Vec<WalOp> {
    let mut scratch = IncrementalResolver::like(dataset, stream_config());
    let mut script: Vec<WalOp> = Vec::new();
    for (round, chunk) in dataset.records().chunks(BATCH).enumerate() {
        let mut round_pairs: Vec<Pair> = Vec::new();
        let mut arrived: Vec<RecordId> = Vec::new();
        for record in chunk {
            let report = scratch
                .insert(record.source, record.fields.clone())
                .expect("schema matches");
            arrived.push(report.record);
            round_pairs.extend(report.new_pairs.iter().map(|sp| sp.pair));
            script.push(WalOp::Insert {
                source: record.source.0,
                fields: record.fields.clone(),
            });
        }
        if let (Some(&victim), Some(record)) = (arrived.first(), chunk.first()) {
            let mut fields = record.fields.clone();
            if let Some(f) = fields.first_mut() {
                f.push_str(" rev2");
            }
            scratch
                .update(victim, fields.clone())
                .expect("victim is alive");
            script.push(WalOp::Update {
                record: victim,
                fields,
            });
        }
        if let Some(&victim) = arrived.last() {
            if scratch.is_alive(victim) {
                scratch.remove(victim).expect("victim is alive");
                script.push(WalOp::Remove(victim));
            }
        }
        for (i, &pair) in round_pairs.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
            if !scratch.is_alive(pair.lo()) || !scratch.is_alive(pair.hi()) {
                continue;
            }
            let weight = [0.75, 1.0, 1.25][(i / 3) % 3];
            scratch.record_evidence(pair, true, weight);
            script.push(WalOp::Evidence {
                pair,
                verdict: true,
                weight,
            });
            if i % 9 == 0 {
                scratch.retract(pair);
                script.push(WalOp::Retract(pair));
            }
        }
        if round % 3 == 1 {
            script.push(WalOp::Weights(vec![(
                (round % 5) as u64,
                0.5 + 0.25 * (round % 3) as f64,
            )]));
        }
        if round % 4 == 3 {
            scratch.rerank_now();
            script.push(WalOp::EpochRerank);
        }
        scratch.regenerate_hits().expect("k is valid");
        script.push(WalOp::Flush);
    }
    script
}

/// A directory under the system temp dir, unique per process and per
/// call, removed on drop (panics included).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("crowder-bench-gates-{}-{n}", std::process::id()));
        // A leftover of an earlier process that had the same pid.
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The [`durable_script`] through [`DurableResolver::apply`] on an
/// engine logging to a real filesystem directory at the default
/// group-commit cadence, over the same script through the same method
/// on an engine without a log ([`DurableResolver::in_memory`]). The
/// ratio is the price of WAL encoding, group-commit fsyncs and
/// checkpoints alone.
///
/// One logged run follows the host's fsync latency, which on a shared
/// machine moved a single ratio between 1.1 and 4.9. The row is the
/// median of [`SAMPLES`] logged/log-less pairs, alternating which side
/// of a pair runs first.
fn wal_overhead(dataset: &Dataset) -> f64 {
    let script = durable_script(dataset);
    let run = |engine: &mut DurableResolver<FsDir>| {
        let started = Instant::now();
        for op in &script {
            engine.apply(op.clone()).expect("script op is legal");
        }
        engine.sync().expect("final group commit");
        started.elapsed().as_nanos()
    };
    let in_memory_ns = || {
        run(&mut DurableResolver::in_memory(IncrementalResolver::like(
            dataset,
            stream_config(),
        )))
    };
    let logged_ns = || {
        let root = ScratchDir::new();
        let dir = FsDir::new(&root.0).expect("temp dir is writable");
        run(&mut DurableResolver::create_with(
            dir,
            IncrementalResolver::like(dataset, stream_config()),
            DurabilityConfig::default(),
        )
        .expect("fresh durability directory"))
    };
    let ratios = (0..SAMPLES)
        .map(|i| {
            let (mem_ns, wal_ns) = if i % 2 == 0 {
                (in_memory_ns(), logged_ns())
            } else {
                let wal_ns = logged_ns();
                (in_memory_ns(), wal_ns)
            };
            wal_ns as f64 / mem_ns.max(1) as f64
        })
        .collect();
    median(ratios)
}

/// The middle value of `samples` (the upper one of an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The recorder rows: (median over samples of installed ÷ paused time,
/// always-live instrument cost of one pass ÷ the fastest paused pass).
///
/// A sample alternates paused and installed [`stream_once`] passes,
/// flipping which side runs first, until each side has run long enough
/// to span [`MIN_SAMPLE_NS`]. Both sides of a sample therefore see the
/// same stretch of the host's speed, which on a shared machine drifts
/// by a quarter over a few hundred milliseconds; the median over
/// samples discards a sample that still caught a spike. The always-live
/// instruments (counters, histograms) tick [`crowder_obs::ops_recorded`],
/// so the op count of one paused pass times the microbenched cost of one
/// op bounds their share. Leaves the recorder paused.
fn obs_overheads(dataset: &Dataset) -> (f64, f64) {
    crowder_obs::pause_recorder();
    // Warm-up (fills caches, faults in the corpus) and op census.
    let ops_before = crowder_obs::ops_recorded();
    let warm_ns = stream_once(dataset);
    let ops_per_run = crowder_obs::ops_recorded() - ops_before;
    let passes = (MIN_SAMPLE_NS / warm_ns.max(1) + 1) as usize;

    let mut ratios = Vec::with_capacity(SAMPLES);
    let mut fastest_paused = u128::MAX;
    for i in 0..SAMPLES {
        let (mut paused_ns, mut installed_ns) = (0u128, 0u128);
        for j in 0..passes {
            for installed in [(i + j) % 2 == 1, (i + j) % 2 == 0] {
                if installed {
                    crowder_obs::install_recorder();
                    installed_ns += stream_once(dataset);
                } else {
                    crowder_obs::pause_recorder();
                    let ns = stream_once(dataset);
                    paused_ns += ns;
                    fastest_paused = fastest_paused.min(ns);
                }
            }
        }
        ratios.push(installed_ns as f64 / paused_ns.max(1) as f64);
    }
    crowder_obs::pause_recorder();
    (
        median(ratios),
        disabled_op_cost_ns() * ops_per_run as f64 / fastest_paused.max(1) as f64,
    )
}

/// The cost of one always-live instrument op with the recorder paused:
/// the costlier of a counter add and a histogram record.
fn disabled_op_cost_ns() -> f64 {
    const N: u64 = 1_000_000;
    let counter = crowder_obs::global().counter("bench.gates.probe_counter");
    let started = Instant::now();
    for i in 0..N {
        counter.add(std::hint::black_box(i & 1));
    }
    let counter_ns = started.elapsed().as_nanos() as f64 / N as f64;
    let hist = crowder_obs::global().histogram("bench.gates.probe_hist");
    let started = Instant::now();
    for i in 0..N {
        hist.record(std::hint::black_box(i));
    }
    let hist_ns = started.elapsed().as_nanos() as f64 / N as f64;
    counter_ns.max(hist_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut d = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        for i in 0..40 {
            d.push_record(
                SourceId(0),
                vec![format!("tok{} tok{} shared common", i % 4, i % 3)],
            )
            .unwrap();
        }
        d
    }

    /// A smoke test of the churn row's workload on 40 records in the
    /// test profile: it runs, its ratio is under the bound and it splits
    /// clusters. At this size and build the ratio is mostly fixed costs,
    /// so it cannot catch a churn slowdown; `bench_gates` is the timing
    /// gate.
    #[test]
    fn churn_workload_runs_under_the_bound_and_splits_clusters() {
        let (ratio, splits) = churn_ratio(&tiny_dataset());
        assert!(
            ratio <= MAX_CHURN_RATIO,
            "churn ratio {ratio} exceeds bound"
        );
        assert!(splits > 0, "churn must exercise cluster splits");
    }

    #[test]
    fn a_breached_row_fails_check() {
        let row = |name, measured| Gate {
            name,
            measured,
            bound: 3.0,
        };
        assert_eq!(check(&[row("a", 1.0), row("b", 3.0)]), Ok(()));
        let err = check(&[row("a", 1.0), row("b", 3.5), row("c", f64::NAN)]).unwrap_err();
        assert!(err.contains("b: 3.5 > 3"), "{err}");
        assert!(err.contains("c: NaN > 3"), "{err}");
        assert!(!err.contains("a:"), "{err}");
    }
}
