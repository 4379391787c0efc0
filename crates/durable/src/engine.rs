//! The durable resolver: the one mutation path over an
//! [`IncrementalResolver`]. With a log, every mutation is written ahead
//! to it, checkpointed into snapshots, and recoverable after a crash at
//! any byte; without one ([`DurableResolver::in_memory`]) the same
//! methods apply and return.
//!
//! The engine follows **apply-then-log**: a mutation is applied to
//! the in-memory resolver first and logged only if it succeeded, so
//! the WAL replays cleanly by construction. Recovery replays through
//! [`DurableResolver::apply`] on an engine whose log is not yet
//! attached, so a replayed operation runs exactly the code the live
//! one ran. Group commit batches
//! frames ([`DurabilityConfig::sync_every_ops`]); snapshots are taken
//! at flush boundaries ([`DurableResolver::regenerate_hits`]) once
//! [`DurabilityConfig::snapshot_every_ops`] operations have been
//! logged since the last one — the only points where the resolver has
//! no dirty clusters and
//! [`export_state`](IncrementalResolver::export_state) is legal.

use crowder_hitgen::Hit;
use crowder_simjoin::JoinStats;
use crowder_stream::{
    valid_weight, EvidenceReport, HitDelta, IncrementalResolver, InsertReport, QueryMatch,
    RemoveReport, StreamConfig, UpdateReport,
};
use crowder_types::{Error, Pair, PairSpace, RecordId, Result, SourceId};

use crate::snapshot::{load_latest_snapshot, prune_snapshots, write_snapshot};
use crate::storage::Dir;
use crate::wal::{read_wal, WalOp, WalWriter, WAL_NAME};

/// Durability tuning.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Group-commit cadence: flush + fsync the WAL every this many
    /// logged operations. `1` is classic per-op durability; larger
    /// values amortize the fsync at the cost of losing up to that
    /// many trailing operations in a crash.
    pub sync_every_ops: usize,
    /// Checkpoint cadence: at the next flush boundary after this many
    /// logged operations, write a snapshot and reset the log.
    pub snapshot_every_ops: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync_every_ops: 256,
            snapshot_every_ops: 4096,
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// WAL operations replayed on top of it.
    pub replayed: usize,
    /// Torn-tail bytes truncated from the log.
    pub torn_bytes: u64,
    /// Last durable operation — the recovered state reflects exactly
    /// operations `1..=last_seq` of the acknowledged history.
    pub last_seq: u64,
}

/// An [`IncrementalResolver`], with or without a write-ahead log and
/// snapshots in a [`Dir`]. All mutations go through this wrapper;
/// reads go through [`resolver`](Self::resolver).
///
/// An engine made by [`create`](Self::create),
/// [`create_with`](Self::create_with) or [`recover`](Self::recover)
/// logs every mutation. One made by [`in_memory`](Self::in_memory) has
/// no log: a mutation applies and returns, with no WAL encoding and no
/// copy of its fields; [`sync`](Self::sync) and
/// [`checkpoint`](Self::checkpoint) do nothing; [`close`](Self::close)
/// hands the resolver back. Both kinds run the same mutation methods, so
/// a logged engine and a log-less one fed the same operations reach the
/// same [`StateDigest`].
#[derive(Debug)]
pub struct DurableResolver<D: Dir + Clone> {
    resolver: IncrementalResolver,
    /// The log, absent on an in-memory engine.
    log: Option<Log<D>>,
}

/// The durable half of an engine: where it logs and how often it syncs
/// and checkpoints.
#[derive(Debug)]
struct Log<D: Dir + Clone> {
    wal: WalWriter<D>,
    dir: D,
    config: DurabilityConfig,
    ops_since_snapshot: usize,
}

impl<D: Dir + Clone> DurableResolver<D> {
    /// An engine without a log around `resolver`: nothing it does
    /// touches a [`Dir`].
    pub fn in_memory(resolver: IncrementalResolver) -> Self {
        DurableResolver {
            resolver,
            log: None,
        }
    }

    /// Initialize a fresh durable resolver in an empty `dir`: writes
    /// snapshot 0 of the empty resolver and an empty WAL. Errors if
    /// the directory already holds a log.
    pub fn create(
        dir: D,
        name: impl Into<String>,
        schema: Vec<String>,
        pair_space: PairSpace,
        stream: StreamConfig,
        config: DurabilityConfig,
    ) -> Result<Self> {
        let resolver = IncrementalResolver::new(name, schema, pair_space, stream);
        Self::create_with(dir, resolver, config)
    }

    /// Initialize a fresh durable resolver in an empty `dir` around a
    /// pre-built resolver (e.g. one whose gold standard is already
    /// loaded). The resolver must be at a flush boundary — snapshot 0
    /// captures it as the recovery baseline.
    pub fn create_with(
        dir: D,
        resolver: IncrementalResolver,
        config: DurabilityConfig,
    ) -> Result<Self> {
        if dir.read(WAL_NAME)?.is_some() {
            return Err(Error::InvalidData(
                "durable create: directory already holds a WAL — use recover".into(),
            ));
        }
        write_snapshot(&dir, 0, &resolver.export_state()?)?;
        let wal = WalWriter::create(dir.clone(), 0)?;
        let mut engine = Self::in_memory(resolver);
        engine.log = Some(Log {
            wal,
            dir,
            config,
            ops_since_snapshot: 0,
        });
        Ok(engine)
    }

    /// Shut down cleanly: make every logged operation durable and
    /// return the inner resolver. If the resolver is at a flush
    /// boundary a final checkpoint is written too, so the directory
    /// recovers instantly (snapshot only, empty log). An in-memory
    /// engine just returns its resolver.
    pub fn close(mut self) -> Result<IncrementalResolver> {
        if self.log.is_some() {
            self.sync()?;
            if self.resolver.dirty_clusters() == 0 {
                self.checkpoint()?;
            }
        }
        Ok(self.resolver)
    }

    /// Recover from whatever a crashed (or cleanly stopped) engine
    /// left in `dir`: validate the WAL, load the newest intact
    /// snapshot, replay the log suffix through [`apply`](Self::apply)
    /// on an engine without a log, then truncate the log's torn tail and
    /// attach it. On error the directory is left as it was. The
    /// recovered engine's future behavior is bit-for-bit identical to an
    /// engine that executed operations `1..=last_seq` and never crashed.
    pub fn recover(
        dir: D,
        stream: StreamConfig,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let _timer = crowder_obs::span!("durable.recovery.total_ns");
        let contents = read_wal(&dir)?;
        let (snap_seq, state) = load_latest_snapshot(&dir)?.ok_or_else(|| {
            Error::InvalidData("recover: no intact snapshot in the directory".into())
        })?;
        let mut engine = Self::in_memory(IncrementalResolver::import_state(stream, state)?);
        let last_seq = contents.last_seq().max(snap_seq);
        let torn_bytes = contents.torn_bytes;
        let mut replayed = 0;
        for (seq, op) in contents.frames {
            if seq <= snap_seq {
                continue;
            }
            engine.apply(op).map_err(|e| {
                Error::InvalidData(format!("recover: replay of op {seq} failed: {e}"))
            })?;
            replayed += 1;
        }
        // Only a recovery that succeeded cuts the torn tail, so a
        // directory this build refuses is left as it was found.
        if torn_bytes > 0 {
            dir.truncate(WAL_NAME, contents.valid_len)?;
            dir.sync(WAL_NAME)?;
        }
        let wal = WalWriter::resume(dir.clone(), last_seq)?;
        engine.log = Some(Log {
            wal,
            dir,
            config,
            ops_since_snapshot: replayed,
        });
        crowder_obs::counter!("durable.recovery.runs").incr();
        crowder_obs::counter!("durable.recovery.replayed_frames").add(replayed as u64);
        crowder_obs::counter!("durable.recovery.torn_bytes").add(torn_bytes);
        let report = RecoveryReport {
            snapshot_seq: snap_seq,
            replayed,
            torn_bytes,
            last_seq,
        };
        Ok((engine, report))
    }

    /// The underlying resolver, read-only. Mutations must go through
    /// the engine or they would not be logged.
    pub fn resolver(&self) -> &IncrementalResolver {
        &self.resolver
    }

    /// Sequence number of the last logged operation (0 without a log).
    pub fn last_seq(&self) -> u64 {
        self.log.as_ref().map_or(0, |log| log.wal.next_seq() - 1)
    }

    /// Logged operations not yet made durable by a flush.
    pub fn unsynced_ops(&self) -> usize {
        self.log.as_ref().map_or(0, |log| log.wal.buffered())
    }

    /// A copy of `value` for the log, or `None` without a log.
    fn for_log<T: Clone>(&self, value: &T) -> Option<T> {
        self.log.as_ref().map(|_| value.clone())
    }

    fn log(&mut self, op: WalOp) -> Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        log.wal.log(&op)?;
        log.ops_since_snapshot += 1;
        if log.wal.buffered() >= log.config.sync_every_ops {
            log.wal.flush()?;
        }
        Ok(())
    }

    /// Durably flush every logged-but-buffered operation now.
    pub fn sync(&mut self) -> Result<()> {
        match &mut self.log {
            Some(log) => log.wal.flush(),
            None => Ok(()),
        }
    }

    /// A record arrival (logged).
    pub fn insert(&mut self, source: SourceId, fields: Vec<String>) -> Result<InsertReport> {
        let logged = self.for_log(&fields);
        let report = self.resolver.insert(source, fields)?;
        if let Some(fields) = logged {
            self.log(WalOp::Insert {
                source: source.0,
                fields,
            })?;
        }
        Ok(report)
    }

    /// A read-only similarity query
    /// ([`IncrementalResolver::query`]) — answered from the live
    /// resolver, **not logged**: queries mutate nothing the WAL or a
    /// snapshot captures, so recovery is unaffected by any number of
    /// them.
    pub fn query(&mut self, source: SourceId, fields: &[String]) -> Result<Vec<QueryMatch>> {
        self.resolver.query(source, fields)
    }

    /// A record deletion (logged).
    pub fn remove(&mut self, record: RecordId) -> Result<RemoveReport> {
        let report = self.resolver.remove(record)?;
        self.log(WalOp::Remove(record))?;
        Ok(report)
    }

    /// An in-place correction (logged as one operation).
    pub fn update(&mut self, record: RecordId, fields: Vec<String>) -> Result<UpdateReport> {
        let logged = self.for_log(&fields);
        let report = self.resolver.update(record, fields)?;
        if let Some(fields) = logged {
            self.log(WalOp::Update { record, fields })?;
        }
        Ok(report)
    }

    /// One signed, weighted crowd vote (logged with its resolved
    /// weight, so replay needs no worker-quality estimate). A NaN,
    /// infinite, or negative weight is rejected with
    /// [`Error::InvalidData`] before anything is applied or logged: the
    /// WAL decoder refuses such a frame.
    pub fn record_evidence(
        &mut self,
        pair: Pair,
        verdict: bool,
        weight: f64,
    ) -> Result<EvidenceReport> {
        if !valid_weight(weight) {
            return Err(Error::InvalidData(format!(
                "vote weight {weight} is not finite and non-negative"
            )));
        }
        let report = self.resolver.record_evidence(pair, verdict, weight);
        self.log(WalOp::Evidence {
            pair,
            verdict,
            weight,
        })?;
        Ok(report)
    }

    /// Forget all evidence for a pair (logged).
    pub fn retract(&mut self, pair: Pair) -> Result<EvidenceReport> {
        let report = self.resolver.retract(pair);
        self.log(WalOp::Retract(pair))?;
        Ok(report)
    }

    /// Explicit dictionary re-rank + index rebuild (logged).
    pub fn rerank_now(&mut self) -> Result<()> {
        self.resolver.rerank_now();
        self.log(WalOp::EpochRerank)
    }

    /// Flush dirty clusters into regenerated HITs (logged — replay
    /// must flush at the same points to assign the same
    /// [`HitId`](crowder_stream::HitId)s), then checkpoint if the
    /// snapshot cadence has come due.
    pub fn regenerate_hits(&mut self) -> Result<HitDelta> {
        let delta = self.resolver.regenerate_hits()?;
        self.log(WalOp::Flush)?;
        if let Some(log) = &self.log {
            if log.ops_since_snapshot >= log.config.snapshot_every_ops {
                self.checkpoint()?;
            }
        }
        Ok(delta)
    }

    /// Take a snapshot now and reset the log; returns the snapshot's
    /// sequence number (0, and nothing written, without a log). Legal
    /// only at a flush boundary (no dirty clusters) — call
    /// [`regenerate_hits`](Self::regenerate_hits) first, which does
    /// this automatically on cadence.
    pub fn checkpoint(&mut self) -> Result<u64> {
        let Some(log) = &mut self.log else {
            return Ok(0);
        };
        log.wal.flush()?;
        let seq = log.wal.next_seq() - 1;
        {
            let _timer = crowder_obs::span!("durable.snapshot.write_ns");
            write_snapshot(&log.dir, seq, &self.resolver.export_state()?)?;
        }
        crowder_obs::counter!("durable.snapshot.writes").incr();
        log.wal = WalWriter::create(log.dir.clone(), seq)?;
        prune_snapshots(&log.dir, seq)?;
        log.ops_since_snapshot = 0;
        Ok(seq)
    }

    /// Apply one logged-operation value through the engine (applied,
    /// and logged if the engine has a log). The only dispatch over
    /// [`WalOp`]: recovery replays every frame through it, and the
    /// fault harness and benchmarks drive scripts through it.
    pub fn apply(&mut self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Insert { source, fields } => {
                self.insert(SourceId(source), fields)?;
            }
            WalOp::Remove(record) => {
                self.remove(record)?;
            }
            WalOp::Update { record, fields } => {
                self.update(record, fields)?;
            }
            WalOp::Retract(pair) => {
                self.retract(pair)?;
            }
            WalOp::Evidence {
                pair,
                verdict,
                weight,
            } => {
                self.record_evidence(pair, verdict, weight)?;
            }
            WalOp::EpochRerank => self.rerank_now()?,
            WalOp::Flush => {
                self.regenerate_hits()?;
            }
        }
        Ok(())
    }

    /// The digest of the current state (see [`digest`]).
    pub fn digest(&self) -> StateDigest {
        digest(&self.resolver)
    }
}

/// Everything observable about a resolver's serving state, in
/// deterministic order — the equality witness of the durability
/// contract. Two engines with equal digests answer every query
/// identically: same ranked pairs (exact likelihood bits), same
/// cluster labels, same live HITs under the same ids, same evidence
/// tallies, same join-funnel counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    /// Ranked pairs as `(lo, hi, likelihood bits)`.
    pub ranked: Vec<(u32, u32, u64)>,
    /// Cluster label per record slot.
    pub labels: Vec<usize>,
    /// Live HITs in ascending id order.
    pub hits: Vec<(u64, Hit)>,
    /// Evidence tallies, sorted by pair, weights as bits.
    pub tallies: Vec<(Pair, u64, u64, u32)>,
    /// Cumulative join funnel.
    pub cumulative: JoinStats,
    /// Dictionary re-rank epochs.
    pub epochs: u64,
    /// Live record count.
    pub live_len: usize,
    /// Deletions so far.
    pub removed: usize,
}

/// Compute the [`StateDigest`] of a resolver. Works in any state (flush
/// boundary not required).
pub fn digest(resolver: &IncrementalResolver) -> StateDigest {
    let ranked = resolver
        .ranked_pairs()
        .iter()
        .map(|sp| (sp.pair.lo().0, sp.pair.hi().0, sp.likelihood.to_bits()))
        .collect();
    let labels = (0..resolver.len() as u32)
        .map(|r| resolver.cluster_of(RecordId(r)))
        .collect();
    let hits = resolver
        .live_hits()
        .iter()
        .map(|(id, hit)| (id.0, hit.clone()))
        .collect();
    let mut tallies: Vec<(Pair, u64, u64, u32)> = resolver
        .ledger()
        .iter()
        .map(|(pair, t)| (*pair, t.yes.to_bits(), t.no.to_bits(), t.votes))
        .collect();
    tallies.sort_unstable_by_key(|&(pair, ..)| pair);
    StateDigest {
        ranked,
        labels,
        hits,
        tallies,
        cumulative: resolver.cumulative_stats(),
        epochs: resolver.epochs(),
        live_len: resolver.live_len(),
        removed: resolver.removed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemDir;

    #[test]
    fn unusable_weights_are_rejected_before_apply_or_log() {
        let mut engine = DurableResolver::create(
            MemDir::new(),
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap();
        engine.insert(SourceId(0), vec!["a b c".into()]).unwrap();
        engine.insert(SourceId(0), vec!["a b c".into()]).unwrap();
        let (seq, before) = (engine.last_seq(), engine.digest());
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            let err = engine.record_evidence(Pair::of(0, 1), true, w);
            assert!(matches!(err, Err(Error::InvalidData(_))), "{w}: {err:?}");
        }
        assert_eq!(engine.last_seq(), seq, "nothing was logged");
        assert_eq!(engine.digest(), before, "nothing was applied");
        engine.record_evidence(Pair::of(0, 1), true, 0.5).unwrap();
        assert_eq!(engine.last_seq(), seq + 1);
    }

    #[test]
    fn in_memory_engine_logs_nothing_and_matches_a_logged_one() {
        let resolver = || {
            IncrementalResolver::new(
                "t",
                vec!["name".into()],
                PairSpace::SelfJoin,
                StreamConfig::default(),
            )
        };
        let mut logged =
            DurableResolver::create_with(MemDir::new(), resolver(), DurabilityConfig::default())
                .unwrap();
        let mut in_memory = DurableResolver::<MemDir>::in_memory(resolver());
        let script = [
            WalOp::Insert {
                source: 0,
                fields: vec!["a b c".into()],
            },
            WalOp::Insert {
                source: 0,
                fields: vec!["a b d".into()],
            },
            WalOp::Evidence {
                pair: Pair::of(0, 1),
                verdict: true,
                weight: 0.5,
            },
            WalOp::Flush,
        ];
        for op in script {
            logged.apply(op.clone()).unwrap();
            in_memory.apply(op).unwrap();
        }
        assert_eq!(in_memory.digest(), logged.digest());
        assert_eq!((in_memory.last_seq(), logged.last_seq()), (0, 4));
        assert_eq!(in_memory.checkpoint().unwrap(), 0);
        assert_eq!(in_memory.close().unwrap().len(), 2);
    }

    #[test]
    fn older_format_directories_are_refused_untouched() {
        // A logged directory with a torn tail: one snapshot, frames
        // after it, and half a frame.
        let dir = MemDir::new();
        let mut engine = DurableResolver::create(
            dir.clone(),
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig::default(),
            DurabilityConfig::default(),
        )
        .unwrap();
        engine.insert(SourceId(0), vec!["a b c".into()]).unwrap();
        engine.insert(SourceId(0), vec!["a b d".into()]).unwrap();
        engine.sync().unwrap();
        dir.append(WAL_NAME, &[9, 0, 0, 0, 1]).unwrap();
        let snap = crate::snapshot::snap_name(0);
        // Patch the version field (after the 4-byte magic) of one blob.
        let with_version = |name: &str, version: u32| {
            let copy = MemDir::new();
            for blob in dir.list().unwrap() {
                copy.replace(&blob, &dir.read(&blob).unwrap().unwrap())
                    .unwrap();
            }
            let mut bytes = copy.read(name).unwrap().unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            copy.replace(name, &bytes).unwrap();
            copy
        };
        for old in [
            with_version(WAL_NAME, 1),
            with_version(&snap, 4),
            with_version(&snap, 5),
        ] {
            let before: Vec<_> = [WAL_NAME, snap.as_str()]
                .map(|name| old.read(name).unwrap())
                .into();
            let recovered = DurableResolver::recover(
                old.clone(),
                StreamConfig::default(),
                DurabilityConfig::default(),
            );
            assert!(matches!(recovered, Err(Error::InvalidData(_))));
            let after: Vec<_> = [WAL_NAME, snap.as_str()]
                .map(|name| old.read(name).unwrap())
                .into();
            assert_eq!(after, before, "a refused directory is left as it was");
        }
        // The current format recovers and cuts the torn tail.
        let (_, report) =
            DurableResolver::recover(dir, StreamConfig::default(), DurabilityConfig::default())
                .unwrap();
        assert_eq!((report.replayed, report.torn_bytes), (2, 5));
    }
}
