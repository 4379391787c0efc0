//! The serving front-end: one worker thread owning a
//! [`DurableResolver`], a bounded command queue in front of it,
//! group-commit acknowledgement behind it. The engine may have a log
//! ([`ResolverService::durable`] over a created or recovered engine) or
//! not ([`ResolverService::in_memory`]); the worker runs the same code
//! either way, and without a log its syncs and its shutdown checkpoint
//! do nothing. See the crate docs for the full model; the short form:
//!
//! * Producers submit ingest batches ([`ResolverService::try_ingest`]
//!   with explicit backpressure, or blocking
//!   [`ResolverService::ingest`]) and queries
//!   ([`ResolverService::resolve`]).
//! * The worker pops commands in groups of at most
//!   [`ServeConfig::group_commit_max`], applies them **serially** (the
//!   resolver's mutation order is the service's single source of
//!   truth), answers queries immediately, and acknowledges ingest
//!   tickets only after the group's WAL sync — so on an engine with a
//!   log an acknowledged batch is durable, and an unacknowledged one
//!   may vanish in a crash but never partially-and-silently.
//! * [`ResolverService::shutdown`] closes the queue, drains what was
//!   accepted, flushes HITs, closes the engine (a checkpoint, if it has
//!   a log), and hands the final resolver back.

use crowder_durable::{Dir, DurableResolver, MemDir};
use crowder_stream::{HitDelta, IncrementalResolver, QueryMatch};
use crowder_types::{Error, RecordId, Result, SourceId};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex};

use crate::queue::{BoundedQueue, PushError};

/// One ingest record: its source and its schema-shaped fields.
pub type IngestRecord = (SourceId, Vec<String>);

/// Tuning of the serving layer.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Commands the submission queue holds before
    /// [`ResolverService::try_ingest`] starts refusing
    /// ([`TrySubmit::Full`]).
    pub queue_capacity: usize,
    /// Most commands the worker applies between group commits — the
    /// acknowledgement latency / fsync amortization trade-off.
    pub group_commit_max: usize,
    /// Applied records between automatic HIT flushes
    /// (`regenerate_hits`). `usize::MAX` disables mid-run flushes:
    /// exactly one flush happens, at shutdown — the deterministic
    /// cadence the replay-equality tests rely on.
    pub flush_every_ops: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            group_commit_max: 64,
            flush_every_ops: 1024,
        }
    }
}

/// Outcome of a non-blocking ingest submission.
pub enum TrySubmit {
    /// Queued; await the ticket for the group-commit acknowledgement.
    Accepted(IngestTicket),
    /// Backpressure: the queue is at capacity. The batch rides back —
    /// retry, shed, or fall back to the blocking path.
    Full(Vec<IngestRecord>),
    /// The service is shutting down; the batch can never be accepted.
    Closed(Vec<IngestRecord>),
}

/// Group-commit acknowledgement for one accepted ingest batch.
#[derive(Debug, Clone)]
pub struct IngestReceipt {
    /// Record ids assigned, in batch order.
    pub records: Vec<RecordId>,
    /// Service-wide index of this batch's first applied op (1-based;
    /// with mid-run flushes disabled this is exactly the WAL sequence
    /// number of the op on an engine with a log).
    pub first_op: u64,
    /// Index of this batch's last applied op (`first_op − 1 + records.len()`).
    pub last_op: u64,
    /// Machine pairs the batch's delta joins surfaced.
    pub new_pairs: usize,
    /// Cluster merges the batch caused.
    pub merges: usize,
}

/// A claim ticket for an in-flight ingest batch.
/// [`IngestTicket::wait`] blocks until the worker has applied the
/// batch *and* made it durable (group commit) — or failed it.
pub struct IngestTicket {
    waiter: Arc<Waiter<Result<IngestReceipt>>>,
}

impl IngestTicket {
    /// Block until the batch is durably acknowledged (or failed).
    pub fn wait(self) -> Result<IngestReceipt> {
        self.waiter.take()
    }
}

/// One cluster in a [`ClusterView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterInfo {
    /// The cluster's current component label.
    pub label: usize,
    /// Its member records, ascending.
    pub members: Vec<RecordId>,
}

/// Answer of one [`ResolverService::resolve`] call: the matching
/// records, the clusters they live in, and the exact prefix of the
/// ingest history the answer reflects.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Live records matching the queried fields, ascending by record,
    /// with exact Jaccard similarities — bit-for-bit what an arrival
    /// with these fields would have surfaced.
    pub matches: Vec<QueryMatch>,
    /// The distinct clusters of those matches (label-ascending,
    /// members-ascending).
    pub clusters: Vec<ClusterInfo>,
    /// Applied-op count at answer time: the view is the resolver state
    /// after exactly this prefix of the accepted ingest history —
    /// prefix-consistent, never torn mid-batch group.
    pub applied_ops: u64,
    /// Live records at answer time.
    pub live_records: usize,
}

/// What a clean [`ResolverService::shutdown`] hands back.
pub struct ShutdownReport {
    /// The resolver in its final state (checkpointed first, if the
    /// engine has a log).
    pub resolver: IncrementalResolver,
    /// Total ingest ops applied over the service's lifetime.
    pub applied_ops: u64,
    /// The final HIT flush (every service run ends with exactly one).
    pub final_flush: HitDelta,
}

/// A one-shot rendezvous: the worker fills it, the producer takes it.
struct Waiter<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Waiter<T> {
    fn new() -> Arc<Self> {
        Arc::new(Waiter {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, value: T) {
        *self.slot.lock().unwrap() = Some(value);
        self.cv.notify_all();
    }

    fn take(&self) -> T {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }
}

enum Command {
    Ingest {
        records: Vec<IngestRecord>,
        ticket: Arc<Waiter<Result<IngestReceipt>>>,
    },
    Resolve {
        source: SourceId,
        fields: Vec<String>,
        reply: Arc<Waiter<Result<ClusterView>>>,
    },
}

/// What the worker thread hands back on drain: the engine, the
/// applied-op count, and the final HIT flush.
type WorkerOutcome<D> = (DurableResolver<D>, u64, HitDelta);

/// A ticket's rendezvous cell paired with the outcome to deliver —
/// group-commit acks buffer here until `sync()` decides their fate.
type PendingAck = (Arc<Waiter<Result<IngestReceipt>>>, Result<IngestReceipt>);

/// The concurrent serving surface over one resolver. Cheap to share:
/// every public method takes `&self`, so wrap the service in an `Arc`
/// (or scoped-borrow it) and call it from any number of ingest and
/// query threads at once.
pub struct ResolverService<D: Dir + Clone + Send + 'static> {
    queue: Arc<BoundedQueue<Command>>,
    worker: Mutex<Option<std::thread::JoinHandle<Result<WorkerOutcome<D>>>>>,
}

impl ResolverService<MemDir> {
    /// Serve a resolver without a log
    /// ([`DurableResolver::in_memory`]): the group commit syncs nothing,
    /// so acknowledgement means "applied".
    pub fn in_memory(resolver: IncrementalResolver, config: ServeConfig) -> Self {
        Self::durable(DurableResolver::in_memory(resolver), config)
    }
}

impl<D: Dir + Clone + Send + 'static> ResolverService<D> {
    /// Serve `engine`. If it has a log, every acknowledged ingest batch
    /// has hit the WAL (group commit) before its ticket resolves.
    pub fn durable(engine: DurableResolver<D>, config: ServeConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let worker_queue = Arc::clone(&queue);
        let worker = std::thread::Builder::new()
            .name("crowder-serve-worker".into())
            .spawn(move || worker_loop(engine, &worker_queue, config))
            .expect("spawn service worker");
        ResolverService {
            queue,
            worker: Mutex::new(Some(worker)),
        }
    }

    /// Submit an ingest batch **without blocking**. At capacity the
    /// batch comes back as [`TrySubmit::Full`] — the explicit
    /// backpressure signal; nothing was applied, so the caller can
    /// retry the identical batch later without double-ingesting.
    pub fn try_ingest(&self, records: Vec<IngestRecord>) -> TrySubmit {
        let ticket = Waiter::new();
        let command = Command::Ingest {
            records,
            ticket: Arc::clone(&ticket),
        };
        self.observe_queue();
        match self.queue.try_push(command) {
            Ok(()) => TrySubmit::Accepted(IngestTicket { waiter: ticket }),
            Err(PushError::Full(Command::Ingest { records, .. })) => {
                if crowder_obs::recording() {
                    crowder_obs::counter!("service.ingest.rejected").incr();
                }
                TrySubmit::Full(records)
            }
            Err(PushError::Closed(Command::Ingest { records, .. })) => TrySubmit::Closed(records),
            Err(_) => unreachable!("push errors return the pushed command"),
        }
    }

    /// Submit an ingest batch, blocking while the queue is full
    /// (throttling instead of rejection). Errors only if the service
    /// is shutting down.
    pub fn ingest(&self, records: Vec<IngestRecord>) -> Result<IngestTicket> {
        let ticket = Waiter::new();
        let command = Command::Ingest {
            records,
            ticket: Arc::clone(&ticket),
        };
        self.observe_queue();
        match self.queue.push(command) {
            Ok(()) => Ok(IngestTicket { waiter: ticket }),
            Err(_) => Err(Error::InvalidData(
                "service is shutting down: ingest rejected".into(),
            )),
        }
    }

    /// Resolve a record against the live corpus: enqueue the query,
    /// block for the worker's answer. The answer is computed at a
    /// single point of the serial apply order (see
    /// [`ClusterView::applied_ops`]) — concurrent ingest never tears
    /// it. Queries use the blocking submission path: they are cheap,
    /// answered in-group, and never re-orderable, so shedding them
    /// buys nothing.
    pub fn resolve(&self, source: SourceId, fields: Vec<String>) -> Result<ClusterView> {
        let _timer = crowder_obs::span_light!("service.query.resolve_ns");
        let reply = Waiter::new();
        let command = Command::Resolve {
            source,
            fields,
            reply: Arc::clone(&reply),
        };
        self.observe_queue();
        if self.queue.push(command).is_err() {
            return Err(Error::InvalidData(
                "service is shutting down: query rejected".into(),
            ));
        }
        reply.take()
    }

    /// Commands currently queued (the saturation signal producers can
    /// poll; also published as the `service.queue.depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn observe_queue(&self) {
        if crowder_obs::recording() {
            crowder_obs::gauge!("service.queue.depth").set(self.queue.len() as i64);
        }
    }

    /// Graceful shutdown: stop accepting work, drain everything already
    /// accepted (every pending ticket resolves), flush HITs once,
    /// close the engine (a checkpoint, if it has a log), and hand back
    /// the final resolver.
    pub fn shutdown(self) -> Result<ShutdownReport> {
        self.queue.close();
        let worker = self
            .worker
            .lock()
            .unwrap()
            .take()
            .expect("shutdown consumes the only handle");
        let (engine, applied_ops, final_flush) = worker
            .join()
            .map_err(|_| Error::InvalidData("service worker panicked".into()))??;
        Ok(ShutdownReport {
            resolver: engine.close()?,
            applied_ops,
            final_flush,
        })
    }
}

impl<D: Dir + Clone + Send + 'static> Drop for ResolverService<D> {
    /// A dropped (not shut down) service still drains and joins, so no
    /// producer blocks forever on a ticket; the final resolver is
    /// simply discarded.
    fn drop(&mut self) {
        self.queue.close();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

/// Build the answer to one resolve query from the post-query resolver
/// state.
fn build_view(
    resolver: &IncrementalResolver,
    matches: Vec<QueryMatch>,
    applied_ops: u64,
) -> ClusterView {
    let labels: BTreeSet<usize> = matches
        .iter()
        .map(|m| resolver.cluster_of(m.record))
        .collect();
    let clusters = labels
        .into_iter()
        .map(|label| {
            let mut members = resolver.cluster_members(label);
            members.sort_unstable();
            ClusterInfo { label, members }
        })
        .collect();
    ClusterView {
        matches,
        clusters,
        applied_ops,
        live_records: resolver.live_len(),
    }
}

/// The single consumer: apply commands serially, group-commit, ack.
fn worker_loop<D: Dir + Clone>(
    mut engine: DurableResolver<D>,
    queue: &BoundedQueue<Command>,
    config: ServeConfig,
) -> Result<WorkerOutcome<D>> {
    let mut applied_ops: u64 = 0;
    let mut since_flush: usize = 0;
    loop {
        let group = queue.pop_group(config.group_commit_max);
        if group.is_empty() {
            break; // closed and fully drained
        }
        if crowder_obs::recording() {
            crowder_obs::counter!("service.ingest.groups").incr();
            crowder_obs::gauge!("service.queue.depth").set(queue.len() as i64);
        }
        // Tickets of this group, acknowledged only after the sync.
        let mut pending: Vec<PendingAck> = Vec::new();
        for command in group {
            match command {
                Command::Ingest { records, ticket } => {
                    let first_op = applied_ops + 1;
                    let mut ids = Vec::with_capacity(records.len());
                    let (mut new_pairs, mut merges) = (0usize, 0usize);
                    let mut failed = None;
                    for (source, fields) in records {
                        match engine.insert(source, fields) {
                            Ok(report) => {
                                applied_ops += 1;
                                ids.push(report.record);
                                new_pairs += report.new_pairs.len();
                                merges += report.merges;
                            }
                            Err(e) => {
                                // Earlier records of the batch stay
                                // applied (they are already logged);
                                // the ticket reports the failure.
                                failed = Some(e);
                                break;
                            }
                        }
                    }
                    since_flush += ids.len();
                    if crowder_obs::recording() {
                        crowder_obs::counter!("core.stream.records_ingested").add(ids.len() as u64);
                        crowder_obs::counter!("service.ingest.batches").incr();
                    }
                    let outcome = match failed {
                        None => Ok(IngestReceipt {
                            records: ids,
                            first_op,
                            last_op: applied_ops,
                            new_pairs,
                            merges,
                        }),
                        Some(e) => Err(e),
                    };
                    pending.push((ticket, outcome));
                }
                Command::Resolve {
                    source,
                    fields,
                    reply,
                } => {
                    // Answered mid-group, against the exact prefix of
                    // ops applied so far — queries never wait for the
                    // group's sync (they carry nothing to make durable).
                    let answer = engine
                        .query(source, &fields)
                        .map(|matches| build_view(engine.resolver(), matches, applied_ops));
                    reply.fill(answer);
                }
            }
        }
        // Group commit: nothing is acknowledged until the WAL holds it.
        if let Err(e) = engine.sync() {
            return poison(engine, queue, pending, e);
        }
        let mut acked = 0usize;
        for (ticket, outcome) in pending {
            if let Ok(receipt) = &outcome {
                acked += receipt.records.len();
            }
            ticket.fill(outcome);
        }
        if crowder_obs::recording() && acked > 0 {
            crowder_obs::counter!("service.ingest.acked_records").add(acked as u64);
        }
        if since_flush >= config.flush_every_ops {
            engine.regenerate_hits()?;
            if let Err(e) = engine.sync() {
                return poison(engine, queue, Vec::new(), e);
            }
            since_flush = 0;
        }
    }
    // Clean drain: one final flush so shutdown can checkpoint.
    let final_flush = engine.regenerate_hits()?;
    engine.sync()?;
    Ok((engine, applied_ops, final_flush))
}

/// A group commit failed: nothing in the group is durable, so every
/// ticket of the group fails, the queue closes, and everything still
/// queued fails too — no producer is left waiting on a dead worker.
fn poison<D: Dir + Clone>(
    engine: DurableResolver<D>,
    queue: &BoundedQueue<Command>,
    pending: Vec<PendingAck>,
    error: Error,
) -> Result<WorkerOutcome<D>> {
    let dead = |what: &str| Error::InvalidData(format!("service group commit failed: {what}"));
    for (ticket, _) in pending {
        ticket.fill(Err(dead("batch not acknowledged")));
    }
    queue.close();
    loop {
        let rest = queue.pop_group(usize::MAX);
        if rest.is_empty() {
            break;
        }
        for command in rest {
            match command {
                Command::Ingest { ticket, .. } => ticket.fill(Err(dead("service stopped"))),
                Command::Resolve { reply, .. } => reply.fill(Err(dead("service stopped"))),
            }
        }
    }
    drop(engine);
    Err(error)
}
