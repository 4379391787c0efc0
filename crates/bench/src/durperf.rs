//! Machine-readable durability report for the WAL/snapshot engine —
//! `BENCH_durable.json`.
//!
//! Two questions, both workload-relative so they are meaningful to
//! assert in CI on any machine:
//!
//! * **WAL overhead per op**: the same deterministic mutation script
//!   (inserts, corrections, deletions, evidence, retractions, worker
//!   re-weights, HIT flushes) is applied to a plain in-memory
//!   [`IncrementalResolver`] and to a [`DurableResolver`] logging to a
//!   real filesystem directory at the **default group-commit cadence**
//!   ([`DurabilityConfig::default`]: fsync every 256 ops, snapshot
//!   every 4096). The validator *enforces* `wal_overhead ≤ 3×` — the
//!   PR's acceptance bound: durability must not triple the cost of the
//!   streaming engine.
//! * **Recovery time vs log length × snapshot cadence**: the script is
//!   replayed at several prefix lengths under several snapshot
//!   cadences; each cell times [`DurableResolver::recover`] and checks
//!   the recovered digest is bit-for-bit identical to the pre-crash
//!   state (`digest_ok`, enforced by the validator). Tighter cadences
//!   shorten the replayed WAL suffix at the price of more snapshot IO
//!   during the run.
//!
//! Serialization shares the hand-rolled [`JsonReport`]/[`JsonRow`]
//! writers and the recursive-descent [`parse_json`] validator with the
//! other `BENCH_*.json` reports (see [`crate::perf`]).

use crate::perf::{parse_json, Json, JsonReport, JsonRow};
use crowder::prelude::*;
use crowder_obs::stats::format_ns as fmt_ns;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default output path for the durability report.
pub const DURABLE_REPORT_PATH: &str = "BENCH_durable.json";

/// Schema version stamped into the report; bump on breaking changes.
pub const DURABLE_SCHEMA_VERSION: u32 = 1;

/// Join threshold of the workload (same regime as the other streaming
/// reports).
pub const DURABLE_THRESHOLD: f64 = 0.3;

/// Arrivals per round (each round ends in a HIT flush).
pub const DURABLE_BATCH: usize = 128;

/// The WAL-on / in-memory per-op cost ratio the validator enforces at
/// the default sync cadence (the PR's acceptance bound).
pub const DURABLE_MAX_OVERHEAD: f64 = 3.0;

/// Snapshot cadences of the recovery matrix (ops between checkpoints).
pub const DURABLE_SNAP_CADENCES: [usize; 3] = [64, 512, 1_000_000];

/// One cell of the recovery matrix.
#[derive(Debug, Clone)]
pub struct RecoveryCell {
    /// Operations logged before the simulated crash.
    pub ops: usize,
    /// Snapshot cadence the run used.
    pub snapshot_every: usize,
    /// Sequence number of the snapshot recovery loaded.
    pub snapshot_seq: u64,
    /// WAL frames replayed on top of the snapshot.
    pub replayed: usize,
    /// Wall-clock recovery time (read + verify + load + replay).
    pub recovery_ns: u128,
    /// 1 iff the recovered digest is bit-for-bit identical to the
    /// pre-crash engine's digest.
    pub digest_ok: bool,
}

/// The full durability perf report.
#[derive(Debug, Clone)]
pub struct DurablePerfReport {
    /// Available parallelism of the producing machine.
    pub available_parallelism: usize,
    /// Corpus name (`product`, `restaurant`).
    pub corpus: String,
    /// Records in the corpus.
    pub records: usize,
    /// Mutation script length (inserts + updates + removes + evidence
    /// + retractions + re-weights + flushes).
    pub ops: usize,
    /// Join threshold.
    pub threshold: f64,
    /// Group-commit cadence of the WAL-on run (default config).
    pub sync_every_ops: usize,
    /// Checkpoint cadence of the WAL-on run (default config).
    pub snapshot_every_ops: usize,
    /// In-memory run: total nanoseconds for the whole script.
    pub mem_total_ns: u128,
    /// In-memory run: mean cost per op.
    pub mem_per_op_ns: u128,
    /// WAL-on run (filesystem directory, default cadence): total ns.
    pub wal_total_ns: u128,
    /// WAL-on run: mean cost per op.
    pub wal_per_op_ns: u128,
    /// Bytes in the durability directory (WAL + snapshots) right
    /// before shutdown.
    pub wal_dir_bytes: u64,
    /// `wal_per_op_ns / mem_per_op_ns` — the acceptance ratio, bounded
    /// by [`DURABLE_MAX_OVERHEAD`].
    pub wal_overhead: f64,
    /// Recovery matrix cells.
    pub recovery: Vec<RecoveryCell>,
}

/// Compile the corpus into a deterministic mutation script. Every op
/// kind the WAL can carry appears: each round inserts a chunk, corrects
/// one record, deletes one, commits evidence on every third surfaced
/// pair (retracting every ninth), re-weights a worker occasionally, and
/// flushes HITs. Built against a scratch resolver so every op is legal
/// at its point in the sequence.
pub fn make_script(dataset: &Dataset, limit: usize, config: &StreamConfig) -> Vec<WalOp> {
    let mut scratch = IncrementalResolver::like(dataset, config.clone());
    let mut script: Vec<WalOp> = Vec::new();
    let records: Vec<_> = dataset.records().iter().take(limit).collect();
    for (round, chunk) in records.chunks(DURABLE_BATCH).enumerate() {
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
        // One in-place correction per round: re-state the first
        // arrival's fields with a marker token appended.
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
        // One deletion per round.
        if let Some(&victim) = arrived.last() {
            if scratch.is_alive(victim) {
                scratch.remove(victim).expect("victim is alive");
                script.push(WalOp::Remove(victim));
            }
        }
        // Evidence churn on this round's surfaced pairs.
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
        // Periodic worker re-weights and re-ranks.
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

/// Apply one logged op to a plain in-memory resolver (the baseline
/// mirror of `DurableResolver::apply`, minus logging).
fn apply_plain(resolver: &mut IncrementalResolver, op: &WalOp) {
    match op {
        WalOp::Insert { source, fields } => {
            resolver
                .insert(SourceId(*source), fields.clone())
                .expect("script op is legal");
        }
        WalOp::Remove(record) => {
            resolver.remove(*record).expect("script op is legal");
        }
        WalOp::Update { record, fields } => {
            resolver
                .update(*record, fields.clone())
                .expect("script op is legal");
        }
        WalOp::Retract(pair) => {
            resolver.retract(*pair);
        }
        WalOp::Evidence {
            pair,
            verdict,
            weight,
        } => {
            resolver.record_evidence(*pair, *verdict, *weight);
        }
        WalOp::EpochRerank => resolver.rerank_now(),
        WalOp::Flush => {
            resolver.regenerate_hits().expect("k is valid");
        }
        WalOp::Weights(_) => {} // engine-level serving state; no resolver effect
    }
}

fn percent_prefixes(len: usize) -> [usize; 2] {
    [len / 2, len]
}

/// A scratch directory under the system temp dir, unique per process
/// *and* per call (pid plus a process-wide counter), so suites running
/// concurrently in one process never share — or delete — each other's
/// directory. Removed on drop: on every exit path, panics included.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("crowder-bench-durable-{}-{n}", std::process::id()));
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

/// Run the full durability suite over `dataset`.
pub fn run_durable_suite(corpus: &str, dataset: &Dataset, limit: usize) -> DurablePerfReport {
    let stream = StreamConfig {
        threshold: DURABLE_THRESHOLD,
        ..StreamConfig::default()
    };
    let script = make_script(dataset, limit, &stream);
    let durable = DurabilityConfig::default();

    // In-memory baseline.
    let mut plain = IncrementalResolver::like(dataset, stream.clone());
    let t0 = Instant::now();
    for op in &script {
        apply_plain(&mut plain, op);
    }
    let mem_total_ns = t0.elapsed().as_nanos();

    // WAL-on run against a real filesystem directory, default cadence.
    let root = ScratchDir::new();
    let dir = FsDir::new(&root.0).expect("temp dir is writable");
    let mut engine = DurableResolver::create_with(
        dir.clone(),
        IncrementalResolver::like(dataset, stream.clone()),
        durable,
    )
    .expect("fresh durability directory");
    let t0 = Instant::now();
    for op in &script {
        engine.apply(op.clone()).expect("script op is legal");
    }
    engine.sync().expect("final group commit");
    let wal_total_ns = t0.elapsed().as_nanos();
    let wal_dir_bytes: u64 = dir
        .list()
        .expect("durability dir is listable")
        .iter()
        .map(|name| {
            dir.read(name)
                .expect("blob is readable")
                .map_or(0, |b| b.len() as u64)
        })
        .sum();
    drop(engine);
    drop(root);

    // Recovery matrix on in-memory storage: isolates replay/verify cost
    // from disk caches and keeps the cells deterministic.
    let mut recovery = Vec::new();
    for prefix in percent_prefixes(script.len()) {
        for snap_every in DURABLE_SNAP_CADENCES {
            let config = DurabilityConfig {
                snapshot_every_ops: snap_every,
                ..DurabilityConfig::default()
            };
            let mem = MemDir::new();
            let mut engine = DurableResolver::create_with(
                mem.clone(),
                IncrementalResolver::like(dataset, stream.clone()),
                config,
            )
            .expect("fresh durability directory");
            for op in &script[..prefix] {
                engine.apply(op.clone()).expect("script op is legal");
            }
            engine.sync().expect("final group commit");
            let expected = engine.digest();
            drop(engine); // simulated crash: only the synced image survives
            let tr = Instant::now();
            let (recovered, report) =
                DurableResolver::recover(mem, stream.clone(), config).expect("image is intact");
            let recovery_ns = tr.elapsed().as_nanos();
            recovery.push(RecoveryCell {
                ops: prefix,
                snapshot_every: snap_every,
                snapshot_seq: report.snapshot_seq,
                replayed: report.replayed,
                recovery_ns,
                digest_ok: recovered.digest() == expected,
            });
        }
    }

    let ops = script.len();
    let mem_per_op_ns = mem_total_ns / ops.max(1) as u128;
    let wal_per_op_ns = wal_total_ns / ops.max(1) as u128;
    DurablePerfReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        corpus: corpus.into(),
        records: limit.min(dataset.len()),
        ops,
        threshold: DURABLE_THRESHOLD,
        sync_every_ops: durable.sync_every_ops,
        snapshot_every_ops: durable.snapshot_every_ops,
        mem_total_ns,
        mem_per_op_ns,
        wal_total_ns,
        wal_per_op_ns,
        wal_dir_bytes,
        wal_overhead: wal_per_op_ns as f64 / mem_per_op_ns.max(1) as f64,
        recovery,
    }
}

impl DurablePerfReport {
    /// Serialize to the `BENCH_durable.json` schema.
    pub fn to_json(&self) -> String {
        JsonReport::new()
            .num("schema_version", DURABLE_SCHEMA_VERSION)
            .num("available_parallelism", self.available_parallelism)
            .str("corpus", &self.corpus)
            .num("records", self.records)
            .num("ops", self.ops)
            .num("threshold", self.threshold)
            .num("sync_every_ops", self.sync_every_ops)
            .num("snapshot_every_ops", self.snapshot_every_ops)
            .num("mem_total_ns", self.mem_total_ns)
            .num("mem_per_op_ns", self.mem_per_op_ns)
            .num("wal_total_ns", self.wal_total_ns)
            .num("wal_per_op_ns", self.wal_per_op_ns)
            .num("wal_dir_bytes", self.wal_dir_bytes)
            .num("wal_overhead", format!("{:.3}", self.wal_overhead))
            .rows(
                "recovery",
                self.recovery.iter().map(|c| {
                    JsonRow::new()
                        .num("ops", c.ops)
                        .num("snapshot_every", c.snapshot_every)
                        .num("snapshot_seq", c.snapshot_seq)
                        .num("replayed", c.replayed)
                        .num("recovery_ns", c.recovery_ns)
                        .num("digest_ok", c.digest_ok as u8)
                        .build()
                }),
            )
            .build()
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "durability perf: {} ({} records, {} ops, tau {}, {} core(s))\n\
             in-memory: {} / op; WAL-on (fsync/{} snap/{}): {} / op — overhead {:.2}x (bound {:.0}x)\n\
             durability dir at shutdown: {} bytes\n\n\
             recovery matrix (synced image, bit-exact digest required):\n\
             {:>6}  {:>10}  {:>9}  {:>9}  {:>12}  ok\n",
            self.corpus,
            self.records,
            self.ops,
            self.threshold,
            self.available_parallelism,
            fmt_ns(self.mem_per_op_ns),
            self.sync_every_ops,
            self.snapshot_every_ops,
            fmt_ns(self.wal_per_op_ns),
            self.wal_overhead,
            DURABLE_MAX_OVERHEAD,
            self.wal_dir_bytes,
            "ops",
            "snap-every",
            "snap-seq",
            "replayed",
            "recovery",
        );
        for c in &self.recovery {
            s.push_str(&format!(
                "{:>6}  {:>10}  {:>9}  {:>9}  {:>12}  {}\n",
                c.ops,
                c.snapshot_every,
                c.snapshot_seq,
                c.replayed,
                fmt_ns(c.recovery_ns),
                if c.digest_ok { "yes" } else { "NO" },
            ));
        }
        s
    }
}

/// Validate a `BENCH_durable.json` document: field presence, a
/// well-formed non-empty recovery matrix whose every cell recovered a
/// **bit-for-bit identical digest**, and the acceptance bound
/// `wal_overhead ≤ 3`. The overhead is WAL-on cost per op over
/// in-memory cost per op *measured on the same machine in the same
/// run*, so — unlike wall-clock numbers — it is meaningful to assert
/// in CI.
pub fn validate_durable_report_json(input: &str) -> Result<usize, String> {
    let doc = parse_json(input)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != DURABLE_SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} != {DURABLE_SCHEMA_VERSION}"
        ));
    }
    doc.get("corpus")
        .and_then(Json::as_str)
        .ok_or("missing string field corpus")?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {key}"))
    };
    for key in [
        "available_parallelism",
        "records",
        "ops",
        "threshold",
        "sync_every_ops",
        "snapshot_every_ops",
        "mem_total_ns",
        "mem_per_op_ns",
        "wal_total_ns",
        "wal_per_op_ns",
        "wal_dir_bytes",
    ] {
        num(key)?;
    }
    let overhead = num("wal_overhead")?;
    if overhead > DURABLE_MAX_OVERHEAD {
        return Err(format!(
            "wal_overhead {overhead} exceeds the {DURABLE_MAX_OVERHEAD}x acceptance bound"
        ));
    }
    let ops = num("ops")?;
    let rows = doc
        .get("recovery")
        .and_then(Json::as_array)
        .ok_or("missing recovery array")?;
    if rows.is_empty() {
        return Err("recovery array is empty".into());
    }
    for (i, r) in rows.iter().enumerate() {
        let cell = |key: &str| -> Result<f64, String> {
            r.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("recovery cell {i}: missing numeric field {key}"))
        };
        for key in ["ops", "snapshot_every", "snapshot_seq", "recovery_ns"] {
            cell(key)?;
        }
        if cell("replayed")? > ops {
            return Err(format!(
                "recovery cell {i}: replayed more ops than were logged"
            ));
        }
        if cell("digest_ok")? != 1.0 {
            return Err(format!(
                "recovery cell {i}: recovered digest diverged from the pre-crash state"
            ));
        }
    }
    Ok(rows.len())
}

/// Run the suite over the named corpus and write the report.
pub fn write_durable_report(
    path: &str,
    corpus: &str,
    dataset: &Dataset,
    limit: usize,
) -> std::io::Result<DurablePerfReport> {
    let report = run_durable_suite(corpus, dataset, limit);
    std::fs::write(path, report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut d = Dataset::new("t", vec!["name".into()], PairSpace::SelfJoin);
        for i in 0..48 {
            d.push_record(
                SourceId(0),
                vec![format!("tok{} tok{} shared common", i % 4, i % 3)],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let report = run_durable_suite("tiny", &tiny_dataset(), usize::MAX);
        assert_eq!(
            validate_durable_report_json(&report.to_json()),
            Ok(report.recovery.len())
        );
        assert!(report.ops > report.records, "script must go beyond inserts");
        assert!(report.recovery.iter().all(|c| c.digest_ok));
        assert!(report.wal_dir_bytes > 0);
    }

    #[test]
    fn tighter_snapshot_cadence_shortens_the_replayed_suffix() {
        let report = run_durable_suite("tiny", &tiny_dataset(), usize::MAX);
        // Within one log length, a tighter cadence never replays more.
        for w in report.recovery.chunks(DURABLE_SNAP_CADENCES.len()) {
            for pair in w.windows(2) {
                assert!(
                    pair[0].replayed <= pair[1].replayed,
                    "cadence {} replayed {} > cadence {} replayed {}",
                    pair[0].snapshot_every,
                    pair[0].replayed,
                    pair[1].snapshot_every,
                    pair[1].replayed,
                );
            }
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_durable_report_json("").is_err());
        assert!(validate_durable_report_json("{}").is_err());
        assert!(validate_durable_report_json("{\"schema_version\": 999}").is_err());
        let mut report = run_durable_suite("tiny", &tiny_dataset(), usize::MAX);
        report.wal_overhead = DURABLE_MAX_OVERHEAD + 1.0;
        assert!(validate_durable_report_json(&report.to_json())
            .unwrap_err()
            .contains("acceptance bound"));
        report = run_durable_suite("tiny", &tiny_dataset(), usize::MAX);
        report.recovery[0].digest_ok = false;
        assert!(validate_durable_report_json(&report.to_json())
            .unwrap_err()
            .contains("diverged"));
        report.recovery.clear();
        assert!(validate_durable_report_json(&report.to_json())
            .unwrap_err()
            .contains("empty"));
    }
}
