//! # crowder-durable
//!
//! Durability for the streaming ER engine: every resolver mutation is
//! written to a checksummed **write-ahead log** before the system
//! acknowledges it, periodic **snapshots** bound replay time, and a
//! crash at *any* byte of any write recovers to a state whose future
//! is bit-for-bit identical to never having crashed. The exactness
//! contract of `crowder-stream` (streamed ≡ batch) extends across
//! process death.
//!
//! ## One mutation path, with or without a log
//!
//! [`DurableResolver`] is the mutation path of every engine above the
//! bare resolver: the streaming workflow (`crowder-core`), the serving
//! worker (`crowder-serve`) and recovery all drive it, and
//! [`DurableResolver::apply`] is the one dispatch over [`WalOp`]. An engine from [`DurableResolver::create`]
//! or [`DurableResolver::recover`] logs; one from
//! [`DurableResolver::in_memory`] has no log and skips everything below
//! — no frame is encoded, no field is copied for the log, `sync` and
//! checkpoints do nothing, and `close` hands the resolver back. The
//! resolver calls are the same, so an in-memory run and a logged run of
//! one op script end at the same [`StateDigest`].
//!
//! ## On-disk layout
//!
//! A durable resolver owns a directory ([`Dir`]) holding:
//!
//! * `wal.log` — the write-ahead log (append-only);
//! * `snap-<seq>` — snapshots; at rest exactly one, transiently two
//!   (rotation writes the new one before deleting the old).
//!
//! ## Frame format
//!
//! `wal.log` starts with a 16-byte header:
//!
//! ```text
//! magic "CWAL" (4) | version u32 LE | base_seq u64 LE
//! ```
//!
//! followed by frames, one per logged operation:
//!
//! ```text
//! len u32 LE | crc u32 LE | payload (len bytes)
//! payload = seq u64 LE | op (see WalOp codec)
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. Sequence numbers start at
//! `base_seq + 1` and increase by exactly 1 per frame; `len` is
//! bounded by [`MAX_FRAME`]. A snapshot file is
//!
//! ```text
//! magic "CSNP" (4) | version u32 LE | seq u64 LE
//! | len u32 LE | crc u32 LE | payload (len bytes)
//! ```
//!
//! where the payload encodes the full
//! [`ResolverState`](crowder_stream::ResolverState) and `seq` is the
//! last operation the snapshot reflects. Nothing else is durable: each
//! `Evidence` frame carries the weight its vote was applied with, so
//! worker-quality estimates stay with the crowd workflow that makes
//! them.
//!
//! ## Fsync semantics (group commit)
//!
//! Appends are buffered in memory and flushed + fsynced every
//! [`DurabilityConfig::sync_every_ops`] operations (and always before
//! a snapshot, and on [`DurableResolver::sync`]). A crash may lose the
//! un-synced *suffix* of operations — never a middle one — so the
//! recovered state is always a **prefix** of the acknowledged history.
//! `sync_every_ops = 1` gives classic per-op durability at per-op
//! fsync cost.
//!
//! ## Recovery protocol
//!
//! 1. Read `wal.log`; reject a missing/garbage header loudly. Scan
//!    frames, stopping at the first invalid one (short, oversized,
//!    CRC mismatch, or out-of-order seq) — everything from there on is
//!    a torn tail. A checksummed, in-sequence frame whose op does not
//!    decode cannot come from a torn write: recovery fails there.
//! 2. Load the highest-`seq` snapshot that passes its checksum
//!    (corrupted ones are skipped — the previous snapshot plus a
//!    longer replay still recovers).
//! 3. Import the snapshot into a fresh
//!    [`IncrementalResolver`](crowder_stream::IncrementalResolver),
//!    wrap it in an engine without a log, and replay every WAL frame
//!    with `seq` greater than the snapshot's through
//!    [`DurableResolver::apply`] — the code path the live engine ran.
//! 4. Physically truncate the torn tail, attach the log and resume it
//!    at the next sequence number. A recovery that fails before this
//!    step (an older format version, no intact snapshot, a frame that
//!    does not decode or replay) leaves the directory untouched.
//!
//! [`DurableResolver::create`] writes snapshot 0 of the empty
//! resolver, so step 2 always finds one in an uncorrupted directory.
//!
//! Snapshot **rotation** (step order matters): flush + fsync the WAL,
//! write + fsync `snap-<seq>`, atomically reset `wal.log` to an empty
//! log with `base_seq = seq`, then delete older snapshots. A crash
//! between any two steps leaves either the old snapshot + full log or
//! the new snapshot (+ a log whose frames it subsumes) — both recover
//! exactly.
//!
//! ## Fault injection
//!
//! [`FaultyDir`] wraps the in-memory [`MemDir`] with a byte budget:
//! the write that exhausts it is applied *partially* (a torn write)
//! and every subsequent operation fails, simulating power loss at an
//! arbitrary byte. The crash-matrix proptests drive a resolver into a
//! wall of injected crashes, recover from the surviving bytes, replay
//! the lost suffix of operations, and assert the [`StateDigest`] is
//! identical to the uninterrupted run's.

pub mod codec;
pub mod crc;
pub mod engine;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use engine::{digest, DurabilityConfig, DurableResolver, RecoveryReport, StateDigest};
pub use snapshot::{load_latest_snapshot, write_snapshot};
pub use storage::{Dir, FaultyDir, FsDir, MemDir};
pub use wal::{read_wal, WalContents, WalOp, WalWriter, MAX_FRAME};
