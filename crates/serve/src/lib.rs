//! # crowder-serve — the concurrent serving surface over streaming ER
//!
//! The streaming resolver ([`crowder_stream::IncrementalResolver`]) is a
//! single-threaded state machine: one mutation order, bit-exact equality
//! with the batch join. This crate puts a *service* in front of it so
//! many threads can use that state machine at once without giving up
//! either property:
//!
//! ```text
//!  ingest threads ──┐                         ┌─> IngestTicket::wait()
//!  (try_ingest /    ├─> BoundedQueue ─> worker┤     (acked after group
//!   ingest)         │    (capacity =    thread│      commit / WAL sync)
//!  query threads ───┘     backpressure)  owns └─> ClusterView
//!  (resolve)                             resolver    (prefix-consistent)
//! ```
//!
//! ## The model, in four rules
//!
//! 1. **One writer.** A single worker thread owns the engine, a
//!    [`crowder_durable::DurableResolver`]: with a log for
//!    [`ResolverService::durable`] over a created or recovered engine,
//!    without one for [`ResolverService::in_memory`]. Without a log the
//!    worker runs the same mutation and sync calls; they encode no WAL
//!    frame, sync nothing and checkpoint nothing. All commands — ingest batches and queries — pass through one
//!    bounded FIFO, so the service's history is a *serial* order of
//!    operations. Concurrency never changes what the resolver computes,
//!    only who gets to wait on it.
//! 2. **Explicit backpressure.** The queue is bounded
//!    ([`ServeConfig::queue_capacity`]). [`ResolverService::try_ingest`]
//!    never blocks: at capacity it hands the batch straight back as
//!    [`TrySubmit::Full`], and since nothing was applied the caller can
//!    retry the identical batch without double-ingesting.
//!    [`ResolverService::ingest`] is the blocking alternative for
//!    producers that prefer throttling to rejection.
//! 3. **Group-commit acknowledgement.** The worker pops up to
//!    [`ServeConfig::group_commit_max`] commands at a time, applies them
//!    serially, then syncs the WAL *once* and only then resolves the
//!    group's [`IngestTicket`]s. On an engine with a log an
//!    acknowledged batch is durable; a crash can only lose the
//!    unacknowledged tail (the property
//!    `tests/crash_service.rs` proves with fault injection).
//! 4. **Prefix-consistent reads.** [`ResolverService::resolve`] runs
//!    inside the same serial order: its [`ClusterView`] is the resolver
//!    state after *exactly* [`ClusterView::applied_ops`] accepted ops —
//!    never a torn view, never a partially applied batch group visible
//!    mid-merge. The matches themselves are bit-for-bit what an arrival
//!    with the queried fields would have surfaced (same
//!    [`crowder_stream::DeltaIndex`] probe, read-only).
//!
//! Below the service, `crowder_stream`'s [`crowder_stream::DeltaIndex`]
//! probes serially on the worker thread, through the same filter kernel
//! as the batch join (`crowder_simjoin::filters`); the service's
//! concurrency is between producers, queries, and the worker, never
//! inside one probe.
//!
//! ## Observability
//!
//! With a [`crowder_obs`] runtime installed the service publishes:
//! `service.query.resolve_ns` (end-to-end query latency histogram),
//! `service.queue.depth` (saturation gauge),
//! `service.ingest.batches` / `service.ingest.rejected` /
//! `service.ingest.acked_records` / `service.ingest.groups` (counters),
//! and the ingest path's existing `core.stream.records_ingested`;
//! engines with a log additionally emit `durable.wal.fsync_ns` and
//! `durable.wal.batch_ops` from the WAL layer.

pub mod queue;
pub mod service;

pub use queue::{BoundedQueue, PushError};
pub use service::{
    ClusterInfo, ClusterView, IngestReceipt, IngestRecord, IngestTicket, ResolverService,
    ServeConfig, ShutdownReport, TrySubmit,
};
