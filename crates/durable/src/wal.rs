//! The write-ahead log: every resolver mutation as a checksummed,
//! sequence-numbered frame.
//!
//! See the crate docs for the byte layout. Two design points worth
//! restating here:
//!
//! * **Apply-then-log.** The engine applies a mutation to the
//!   in-memory resolver first and logs it only on success, so the log
//!   never contains an operation that errored (replaying it would
//!   error again — or worse, succeed).
//! * **Group commit.** [`WalWriter::log`] buffers frames in memory;
//!   [`WalWriter::flush`] appends and fsyncs them in one call. A crash
//!   loses at most the buffered suffix, never a middle frame — torn
//!   tails are handled by [`read_wal`]'s truncation scan.

use crowder_stream::valid_weight;
use crowder_types::{Error, Pair, RecordId, Result};

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::storage::Dir;

/// The WAL blob name inside a durable directory.
pub const WAL_NAME: &str = "wal.log";
/// Magic bytes opening `wal.log`.
pub const WAL_MAGIC: &[u8; 4] = b"CWAL";
/// On-disk format version. v2 dropped the worker-weight-table op (tag
/// 8), which nothing read.
pub const WAL_VERSION: u32 = 2;
/// Header length: magic + version + base_seq.
pub const WAL_HEADER: usize = 4 + 4 + 8;
/// Upper bound on one frame's payload — a parsed length beyond this
/// is treated as corruption, bounding what a flipped length byte can
/// make the reader allocate.
pub const MAX_FRAME: usize = 1 << 26;

/// One logged resolver mutation.
///
/// `Evidence` carries the resolved vote *weight* (not the worker id):
/// worker-quality estimates live with the crowd workflow, not the
/// resolver, and drift after the vote is cast, so each vote keeps the
/// weight it was applied with and replay needs nothing else. `Flush`
/// is logged because HIT regeneration assigns fresh [`HitId`]s from a
/// monotone counter — replay has to flush at the same points to hand
/// out the same ids.
///
/// [`HitId`]: crowder_stream::HitId
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A record arrival.
    Insert {
        /// Source table id.
        source: u8,
        /// Attribute values.
        fields: Vec<String>,
    },
    /// A record deletion (tombstone).
    Remove(RecordId),
    /// An in-place correction of a live record.
    Update {
        /// The corrected record.
        record: RecordId,
        /// Its new attribute values.
        fields: Vec<String>,
    },
    /// Forget all crowd evidence for one pair.
    Retract(Pair),
    /// One signed, weighted crowd vote.
    Evidence {
        /// The judged pair.
        pair: Pair,
        /// YES (match) or NO.
        verdict: bool,
        /// Resolved vote weight at the time of the vote.
        weight: f64,
    },
    /// An explicit dictionary re-rank + index rebuild epoch.
    EpochRerank,
    /// A HIT-regeneration flush boundary.
    Flush,
}

impl WalOp {
    /// Append this op's encoding to `e`.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            WalOp::Insert { source, fields } => {
                e.u8(1);
                e.u8(*source);
                e.u32(fields.len() as u32);
                for f in fields {
                    e.str(f);
                }
            }
            WalOp::Remove(record) => {
                e.u8(2);
                e.u32(record.0);
            }
            WalOp::Update { record, fields } => {
                e.u8(3);
                e.u32(record.0);
                e.u32(fields.len() as u32);
                for f in fields {
                    e.str(f);
                }
            }
            WalOp::Retract(pair) => {
                e.u8(4);
                e.u32(pair.lo().0);
                e.u32(pair.hi().0);
            }
            WalOp::Evidence {
                pair,
                verdict,
                weight,
            } => {
                e.u8(5);
                e.u32(pair.lo().0);
                e.u32(pair.hi().0);
                e.bool(*verdict);
                e.f64(*weight);
            }
            WalOp::EpochRerank => e.u8(6),
            WalOp::Flush => e.u8(7),
        }
    }

    /// Decode one op from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self> {
        fn fields(d: &mut Dec) -> Result<Vec<String>> {
            let n = d.seq_len(4)?;
            (0..n).map(|_| d.str()).collect()
        }
        fn pair(d: &mut Dec) -> Result<Pair> {
            Pair::new(RecordId(d.u32()?), RecordId(d.u32()?))
        }
        // The engine never logs an unusable weight, so one in a frame
        // is corruption.
        fn weight(d: &mut Dec) -> Result<f64> {
            let w = d.f64()?;
            if valid_weight(w) {
                Ok(w)
            } else {
                Err(Error::InvalidData(format!("WAL: vote weight {w}")))
            }
        }
        match d.u8()? {
            1 => Ok(WalOp::Insert {
                source: d.u8()?,
                fields: fields(d)?,
            }),
            2 => Ok(WalOp::Remove(RecordId(d.u32()?))),
            3 => Ok(WalOp::Update {
                record: RecordId(d.u32()?),
                fields: fields(d)?,
            }),
            4 => Ok(WalOp::Retract(pair(d)?)),
            5 => Ok(WalOp::Evidence {
                pair: pair(d)?,
                verdict: d.bool()?,
                weight: weight(d)?,
            }),
            6 => Ok(WalOp::EpochRerank),
            7 => Ok(WalOp::Flush),
            tag => Err(Error::InvalidData(format!("WAL: unknown op tag {tag}"))),
        }
    }
}

/// Group-committing WAL writer.
#[derive(Debug)]
pub struct WalWriter<D: Dir> {
    dir: D,
    buf: Vec<u8>,
    next_seq: u64,
    buffered: usize,
}

impl<D: Dir> WalWriter<D> {
    /// Start a fresh log: (re)writes `wal.log` to just a header with
    /// the given `base_seq`, durably. The first logged op gets
    /// sequence number `base_seq + 1`.
    pub fn create(dir: D, base_seq: u64) -> Result<Self> {
        let mut e = Enc::new();
        e.bytes(WAL_MAGIC);
        e.u32(WAL_VERSION);
        e.u64(base_seq);
        dir.replace(WAL_NAME, &e.into_bytes())?;
        Ok(WalWriter {
            dir,
            buf: Vec::new(),
            next_seq: base_seq + 1,
            buffered: 0,
        })
    }

    /// Resume appending to an existing (already validated) log whose
    /// last durable frame is `last_seq`.
    pub fn resume(dir: D, last_seq: u64) -> Result<Self> {
        if dir.read(WAL_NAME)?.is_none() {
            return Err(Error::InvalidData(format!(
                "WAL: cannot resume, no `{WAL_NAME}`"
            )));
        }
        Ok(WalWriter {
            dir,
            buf: Vec::new(),
            next_seq: last_seq + 1,
            buffered: 0,
        })
    }

    /// Buffer one op as a frame; returns its sequence number. Not
    /// durable until [`flush`](Self::flush).
    ///
    /// An op that [`WalOp::decode`] would refuse — an `Evidence` weight
    /// that is NaN, infinite or negative — is an
    /// [`Error::InvalidData`], and nothing is buffered: such a frame
    /// would make the whole log unrecoverable.
    pub fn log(&mut self, op: &WalOp) -> Result<u64> {
        if let WalOp::Evidence { weight, .. } = op {
            if !valid_weight(*weight) {
                return Err(Error::InvalidData(format!(
                    "WAL: refusing to log vote weight {weight}"
                )));
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut payload = Enc::new();
        payload.u64(seq);
        op.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut frame = Enc::new();
        frame.u32(payload.len() as u32);
        frame.u32(crc32(&payload));
        frame.bytes(&payload);
        self.buf.extend_from_slice(&frame.into_bytes());
        self.buffered += 1;
        if crowder_obs::recording() {
            crowder_obs::counter!("durable.wal.frames_logged").incr();
        }
        Ok(seq)
    }

    /// Ops buffered but not yet durable.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Sequence number the next logged op will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append and fsync everything buffered (no-op when empty).
    pub fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let _timer = crowder_obs::span!("durable.wal.fsync_ns");
        crowder_obs::counter!("durable.wal.appended_bytes").add(self.buf.len() as u64);
        crowder_obs::counter!("durable.wal.flushes").incr();
        crowder_obs::histogram!("durable.wal.batch_ops").record(self.buffered as u64);
        self.dir.append(WAL_NAME, &self.buf)?;
        self.dir.sync(WAL_NAME)?;
        self.buf.clear();
        self.buffered = 0;
        Ok(())
    }
}

/// A validated read of `wal.log`.
#[derive(Debug)]
pub struct WalContents {
    /// The header's base sequence number.
    pub base_seq: u64,
    /// Every valid frame, in order: `(seq, op)`.
    pub frames: Vec<(u64, WalOp)>,
    /// Byte length of the valid prefix (header + valid frames).
    pub valid_len: u64,
    /// Bytes in the blob past the valid prefix — a torn tail the
    /// caller should [`truncate`](crate::storage::Dir::truncate) away
    /// before appending more frames.
    pub torn_bytes: u64,
}

impl WalContents {
    /// Sequence number of the last valid frame (or `base_seq`).
    pub fn last_seq(&self) -> u64 {
        self.frames.last().map_or(self.base_seq, |(seq, _)| *seq)
    }
}

/// Read and validate `wal.log` from `dir`.
///
/// A missing blob or a bad header (wrong magic/version, short) is a
/// hard error — this directory is not a durable resolver home. Frame
/// validation stops at the first invalid frame (short, oversized
/// length, CRC mismatch or out-of-order sequence number): under the
/// group-commit protocol only the final write can tear, so everything
/// from the first bad byte on is the torn tail, reported in
/// [`WalContents::torn_bytes`]. A whole, checksummed, in-sequence frame
/// whose op does not decode is no torn write: it is an
/// [`Error::InvalidData`], so the acknowledged frames after it are
/// never truncated away.
pub fn read_wal(dir: &impl Dir) -> Result<WalContents> {
    let bytes = dir.read(WAL_NAME)?.ok_or_else(|| {
        Error::InvalidData(format!("WAL: no `{WAL_NAME}` — not a durable resolver dir"))
    })?;
    if bytes.len() < WAL_HEADER || &bytes[..4] != WAL_MAGIC {
        return Err(Error::InvalidData(format!(
            "WAL: `{WAL_NAME}` has no valid header ({} bytes)",
            bytes.len()
        )));
    }
    let mut d = Dec::new(&bytes[4..WAL_HEADER]);
    let version = d.u32()?;
    if version != WAL_VERSION {
        return Err(Error::InvalidData(format!(
            "WAL: format version {version}, this build reads {WAL_VERSION}"
        )));
    }
    let base_seq = d.u64()?;
    let mut frames = Vec::new();
    let mut at = WAL_HEADER;
    let mut expect = base_seq + 1;
    while let Some((consumed, op)) = parse_frame(&bytes[at..], expect)? {
        frames.push((expect, op));
        at += consumed;
        expect += 1;
    }
    Ok(WalContents {
        base_seq,
        frames,
        valid_len: at as u64,
        torn_bytes: (bytes.len() - at) as u64,
    })
}

/// Parse one frame at the head of `bytes`; `Ok(None)` marks the torn
/// tail, an error a checksummed frame whose op does not decode.
fn parse_frame(bytes: &[u8], expect_seq: u64) -> Result<Option<(usize, WalOp)>> {
    if bytes.len() < 8 {
        return Ok(None);
    }
    let mut d = Dec::new(bytes);
    let (len, crc) = (d.u32()? as usize, d.u32()?);
    if len > MAX_FRAME || bytes.len() < 8 + len {
        return Ok(None);
    }
    let payload = &bytes[8..8 + len];
    if crc32(payload) != crc {
        return Ok(None);
    }
    let mut d = Dec::new(payload);
    if d.u64().ok() != Some(expect_seq) {
        return Ok(None);
    }
    let decoded = WalOp::decode(&mut d).and_then(|op| d.finish().map(|()| op));
    match decoded {
        Ok(op) => Ok(Some((8 + len, op))),
        Err(e) => Err(Error::InvalidData(format!(
            "WAL: frame {expect_seq} passes its checksum but does not decode: {e}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemDir;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                source: 0,
                fields: vec!["alice's diner".into(), "berkeley".into()],
            },
            WalOp::Evidence {
                pair: Pair::of(0, 1),
                verdict: true,
                weight: 0.75,
            },
            WalOp::Remove(RecordId(3)),
            WalOp::Update {
                record: RecordId(0),
                fields: vec!["alice’s diner".into(), "oakland".into()],
            },
            WalOp::Retract(Pair::of(0, 1)),
            WalOp::EpochRerank,
            WalOp::Flush,
        ]
    }

    #[test]
    fn ops_round_trip() {
        for op in sample_ops() {
            let mut e = Enc::new();
            op.encode(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(WalOp::decode(&mut d).unwrap(), op);
            d.finish().unwrap();
        }
    }

    #[test]
    fn unusable_weights_do_not_decode() {
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25] {
            let op = WalOp::Evidence {
                pair: Pair::of(0, 1),
                verdict: true,
                weight: w,
            };
            let mut e = Enc::new();
            op.encode(&mut e);
            let bytes = e.into_bytes();
            assert!(WalOp::decode(&mut Dec::new(&bytes)).is_err(), "{op:?}");
        }
        // In a log, such a frame is corruption, like any other
        // checksummed frame that does not decode. The writer refuses to
        // log one, so it is written by hand.
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 0).unwrap();
        w.log(&WalOp::Flush).unwrap();
        w.flush().unwrap();
        let mut nan = Enc::new();
        WalOp::Evidence {
            pair: Pair::of(0, 1),
            verdict: false,
            weight: f64::NAN,
        }
        .encode(&mut nan);
        dir.append(WAL_NAME, &raw_frame(2, &nan.into_bytes()))
            .unwrap();
        let mut w = WalWriter::resume(dir.clone(), 2).unwrap();
        w.log(&WalOp::Flush).unwrap();
        w.flush().unwrap();
        assert!(matches!(read_wal(&dir), Err(Error::InvalidData(_))));
    }

    #[test]
    fn unusable_weights_are_refused_before_buffering() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 4).unwrap();
        w.log(&WalOp::Flush).unwrap();
        for weight in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.25] {
            let op = WalOp::Evidence {
                pair: Pair::of(0, 1),
                verdict: true,
                weight,
            };
            assert!(matches!(w.log(&op), Err(Error::InvalidData(_))), "{op:?}");
            assert_eq!((w.buffered(), w.next_seq()), (1, 6), "{op:?}");
        }
        w.flush().unwrap();
        let frames = read_wal(&dir).unwrap().frames;
        assert_eq!(frames, vec![(5, WalOp::Flush)]);
    }

    #[test]
    fn a_checksummed_frame_with_an_unknown_tag_fails_recovery_untruncated() {
        use crate::engine::{DurabilityConfig, DurableResolver};
        use crowder_stream::StreamConfig;
        use crowder_types::PairSpace;
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
        engine.apply(WalOp::Flush).unwrap();
        engine.sync().unwrap();
        dir.append(WAL_NAME, &raw_frame(2, &[9])).unwrap();
        let mut w = WalWriter::resume(dir.clone(), 2).unwrap();
        w.log(&WalOp::Flush).unwrap();
        w.flush().unwrap();
        let len = dir.read(WAL_NAME).unwrap().unwrap().len();
        match read_wal(&dir) {
            Err(Error::InvalidData(msg)) => assert!(msg.contains("unknown op tag 9"), "{msg}"),
            other => panic!("expected corruption, got {other:?}"),
        }
        let recovered =
            DurableResolver::recover(dir.clone(), StreamConfig::default(), Default::default());
        assert!(recovered.is_err(), "{recovered:?}");
        assert_eq!(
            dir.read(WAL_NAME).unwrap().unwrap().len(),
            len,
            "log kept whole"
        );
        // The same frame cut short is an ordinary torn tail.
        let torn = MemDir::new();
        let cut = len - raw_frame(3, &[7]).len() - 1;
        torn.append(WAL_NAME, &dir.read(WAL_NAME).unwrap().unwrap()[..cut])
            .unwrap();
        let read = read_wal(&torn).unwrap();
        assert_eq!((read.last_seq(), read.torn_bytes), (1, 16));
    }

    /// A whole, checksummed frame at `seq` around an op encoding.
    fn raw_frame(seq: u64, op: &[u8]) -> Vec<u8> {
        let mut payload = Enc::new();
        payload.u64(seq);
        payload.bytes(op);
        let payload = payload.into_bytes();
        let mut frame = Enc::new();
        frame.u32(payload.len() as u32);
        frame.u32(crc32(&payload));
        frame.bytes(&payload);
        frame.into_bytes()
    }

    #[test]
    fn log_flush_read_round_trips() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 10).unwrap();
        let ops = sample_ops();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(w.log(op).unwrap(), 11 + i as u64);
        }
        assert_eq!(w.buffered(), ops.len());
        w.flush().unwrap();
        assert_eq!(w.buffered(), 0);
        let contents = read_wal(&dir).unwrap();
        assert_eq!(contents.base_seq, 10);
        assert_eq!(contents.torn_bytes, 0);
        assert_eq!(contents.last_seq(), 10 + ops.len() as u64);
        let read_ops: Vec<WalOp> = contents.frames.into_iter().map(|(_, op)| op).collect();
        assert_eq!(read_ops, ops);
    }

    #[test]
    fn unflushed_frames_are_not_durable() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 0).unwrap();
        w.log(&WalOp::Flush).unwrap();
        assert!(read_wal(&dir).unwrap().frames.is_empty());
        w.flush().unwrap();
        assert_eq!(read_wal(&dir).unwrap().frames.len(), 1);
    }

    #[test]
    fn torn_tails_truncate_at_every_byte() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 0).unwrap();
        for op in sample_ops() {
            w.log(&op).unwrap();
        }
        w.flush().unwrap();
        let full = dir.read(WAL_NAME).unwrap().unwrap();
        let whole = read_wal(&dir).unwrap();
        assert_eq!(whole.torn_bytes, 0);
        // Cutting the log at any byte keeps exactly the whole frames.
        for cut in WAL_HEADER..full.len() {
            let torn = MemDir::new();
            torn.append(WAL_NAME, &full[..cut]).unwrap();
            let read = read_wal(&torn).unwrap();
            assert!(read.valid_len as usize <= cut);
            assert_eq!(
                read.frames,
                whole.frames[..read.frames.len()],
                "cut at {cut}: surviving frames are a prefix"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_crc() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 0).unwrap();
        for op in sample_ops() {
            w.log(&op).unwrap();
        }
        w.flush().unwrap();
        let full = dir.read(WAL_NAME).unwrap().unwrap();
        let n = read_wal(&dir).unwrap().frames.len();
        // Flip one bit somewhere in every frame region: the reader
        // must never return a full, silently-wrong log.
        for byte in (WAL_HEADER..full.len()).step_by(3) {
            let mut bad = full.clone();
            bad[byte] ^= 0x10;
            let flipped = MemDir::new();
            flipped.append(WAL_NAME, &bad).unwrap();
            let read = read_wal(&flipped).unwrap();
            assert!(
                read.frames.len() < n || read.torn_bytes > 0,
                "flip at byte {byte} went unnoticed"
            );
            // And whatever survives decodes to original ops.
            for (got, want) in read
                .frames
                .iter()
                .zip(read_wal(&dir).unwrap().frames.iter())
            {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn garbage_and_missing_logs_are_rejected_loudly() {
        let dir = MemDir::new();
        assert!(read_wal(&dir).is_err(), "missing wal.log");
        dir.append(WAL_NAME, b"not a log at all").unwrap();
        assert!(read_wal(&dir).is_err(), "bad magic");
        dir.replace(WAL_NAME, b"CW").unwrap();
        assert!(read_wal(&dir).is_err(), "short header");
        for version in [WAL_VERSION - 1, 99] {
            let mut e = Enc::new();
            e.bytes(WAL_MAGIC);
            e.u32(version);
            e.u64(0);
            dir.replace(WAL_NAME, &e.into_bytes()).unwrap();
            assert!(read_wal(&dir).is_err(), "version {version}");
        }
    }

    #[test]
    fn resume_continues_the_sequence() {
        let dir = MemDir::new();
        let mut w = WalWriter::create(dir.clone(), 0).unwrap();
        w.log(&WalOp::Flush).unwrap();
        w.log(&WalOp::EpochRerank).unwrap();
        w.flush().unwrap();
        let contents = read_wal(&dir).unwrap();
        let mut w2 = WalWriter::resume(dir.clone(), contents.last_seq()).unwrap();
        assert_eq!(w2.log(&WalOp::Remove(RecordId(1))).unwrap(), 3);
        w2.flush().unwrap();
        let all = read_wal(&dir).unwrap();
        assert_eq!(all.frames.len(), 3);
        assert_eq!(all.last_seq(), 3);
        assert!(WalWriter::resume(MemDir::new(), 0).is_err());
    }
}
