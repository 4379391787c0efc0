//! Hostile input to the two decoders that read untrusted bytes: the
//! WAL op codec (`WalOp::decode` + `Dec::finish`) and the snapshot
//! payload codec (`decode_payload` → `IncrementalResolver::import_state`).
//! Arbitrary bytes, and valid encodings with bytes flipped anywhere,
//! must come back as an error or as a value that round-trips — never
//! as a panic. A whole log of well-framed, CRC-valid frames carrying
//! ops no engine would have logged must likewise make
//! `DurableResolver::recover` return `Ok` or `Err`, never panic.

use crowder_durable::codec::{Dec, Enc};
use crowder_durable::crc::crc32;
use crowder_durable::snapshot::{decode_payload, encode_payload};
use crowder_durable::wal::WAL_NAME;
use crowder_durable::{Dir, DurabilityConfig, DurableResolver, MemDir, WalOp};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Pair, PairSpace, RecordId, SourceId};
use proptest::prelude::*;
use proptest::TestCaseError;

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: 0.4,
        cluster_size: 3,
        ..StreamConfig::default()
    }
}

fn encode_op(op: &WalOp) -> Vec<u8> {
    let mut e = Enc::new();
    op.encode(&mut e);
    e.into_bytes()
}

/// One op of every kind, each encoded on its own.
fn valid_ops() -> Vec<WalOp> {
    vec![
        WalOp::Insert {
            source: 1,
            fields: vec!["apple ipad 2".into(), "16gb".into()],
        },
        WalOp::Remove(RecordId(7)),
        WalOp::Update {
            record: RecordId(3),
            fields: vec!["sony z310a".into()],
        },
        WalOp::Retract(Pair::of(2, 9)),
        WalOp::Evidence {
            pair: Pair::of(0, 4),
            verdict: true,
            weight: 1.25,
        },
        WalOp::EpochRerank,
        WalOp::Flush,
    ]
}

/// Decode one WAL op from `bytes`. On success the op must re-encode to
/// bytes that decode back to the same op, with nothing left over.
fn check_wal_bytes(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut d = Dec::new(bytes);
    let Ok(op) = WalOp::decode(&mut d) else {
        return Ok(());
    };
    if d.finish().is_err() {
        return Ok(());
    }
    let again = encode_op(&op);
    let mut d = Dec::new(&again);
    let back = WalOp::decode(&mut d).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    prop_assert!(d.finish().is_ok());
    prop_assert_eq!(encode_op(&back), again);
    Ok(())
}

/// A small resolver state touching every snapshot field: two sources'
/// worth of records, a deletion, committed and vetoed evidence, gold
/// pairs and live HITs.
fn sample_payload() -> Vec<u8> {
    let mut r = IncrementalResolver::new(
        "hostile",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
    );
    for name in ["a b c d", "a b c e", "x y z", "x y z w", "q r", "a b c"] {
        r.insert(SourceId(0), vec![name.into()]).unwrap();
    }
    r.record_evidence(Pair::of(0, 1), true, 0.8);
    r.record_evidence(Pair::of(0, 4), true, 1.5);
    r.record_evidence(Pair::of(2, 3), false, 2.0);
    r.remove(RecordId(5)).unwrap();
    r.gold_mut().insert(Pair::of(0, 1));
    r.regenerate_hits().unwrap();
    encode_payload(&r.export_state().unwrap())
}

/// Decode and import a snapshot payload. On success the imported
/// resolver's export must be a fixed point: encoding it, decoding,
/// importing and exporting again gives the same bytes.
fn check_snapshot_bytes(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(state) = decode_payload(bytes) else {
        return Ok(());
    };
    let Ok(resolver) = IncrementalResolver::import_state(stream_config(), state) else {
        return Ok(());
    };
    let fail = |e: crowder_types::Error| TestCaseError::fail(format!("{e}"));
    let first = encode_payload(&resolver.export_state().map_err(fail)?);
    let state = decode_payload(&first).map_err(fail)?;
    let resolver = IncrementalResolver::import_state(stream_config(), state).map_err(fail)?;
    let second = encode_payload(&resolver.export_state().map_err(fail)?);
    prop_assert!(first == second, "export is not a fixed point");
    Ok(())
}

/// A hostile op from three draws: `kind` picks the op, `a` and `b`
/// pick record ids (ids 0..4 were inserted and id 3 removed; ids past
/// 7 are mapped past the corpus) and `c` a field count or weight.
fn hostile_op(kind: u8, (a, b): (u32, u32), c: u8) -> WalOp {
    let far = |id: u32| if id < 8 { id } else { 990 + id };
    let pair = {
        let (lo, hi) = (a % 8, far(b));
        Pair::of(lo, if hi == lo { lo + 1 } else { hi })
    };
    let fields = vec!["hostile field".to_string(); c as usize % 4];
    match kind {
        0 => WalOp::Insert {
            source: a as u8,
            fields,
        },
        1 => WalOp::Remove(RecordId(far(a))),
        2 => WalOp::Update {
            record: RecordId(far(a)),
            fields,
        },
        3 => WalOp::Retract(pair),
        4 => WalOp::Evidence {
            pair,
            verdict: c.is_multiple_of(2),
            weight: [1.0, 0.0, 2.5, -1.0, f64::NAN, f64::INFINITY][c as usize % 6],
        },
        5 => WalOp::EpochRerank,
        _ => WalOp::Flush,
    }
}

/// An engine over a [`MemDir`] holding four records (one removed) and
/// one vote, synced; then `ops` appended as CRC-valid frames after its
/// last one. The frames are written by hand (length, CRC-32, then the
/// sequence number and op encoding), since `WalWriter::log` refuses an
/// op no engine would log. Returns the directory, ready for recovery.
fn log_with_hostile_tail(ops: &[WalOp]) -> MemDir {
    let dir = MemDir::new();
    let mut engine = DurableResolver::create(
        dir.clone(),
        "hostile",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        DurabilityConfig::default(),
    )
    .unwrap();
    for name in ["a b c d", "a b c e", "x y z", "a b c"] {
        engine.insert(SourceId(0), vec![name.into()]).unwrap();
    }
    engine.record_evidence(Pair::of(0, 1), true, 1.0).unwrap();
    engine.remove(RecordId(3)).unwrap();
    engine.sync().unwrap();
    let mut frames = Enc::new();
    for (seq, op) in (engine.last_seq() + 1..).zip(ops) {
        let mut payload = Enc::new();
        payload.u64(seq);
        op.encode(&mut payload);
        let payload = payload.into_bytes();
        frames.u32(payload.len() as u32);
        frames.u32(crc32(&payload));
        frames.bytes(&payload);
    }
    dir.append(WAL_NAME, &frames.into_bytes()).unwrap();
    dir
}

/// Apply `(position, mask)` flips to `bytes`, positions wrapping.
fn flipped(bytes: &[u8], flips: &[(usize, u8)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(at, mask) in flips {
        let i = at % out.len();
        out[i] ^= mask;
    }
    out
}

#[test]
fn valid_encodings_round_trip() {
    for op in valid_ops() {
        let bytes = encode_op(&op);
        check_wal_bytes(&bytes).unwrap();
        assert_eq!(WalOp::decode(&mut Dec::new(&bytes)).unwrap(), op);
    }
    check_snapshot_bytes(&sample_payload()).unwrap();
    let state = decode_payload(&sample_payload()).unwrap();
    assert!(IncrementalResolver::import_state(stream_config(), state).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_either_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..=512),
    ) {
        check_wal_bytes(&bytes)?;
        check_snapshot_bytes(&bytes)?;
    }

    #[test]
    fn flipped_wal_ops_decode_or_fail_cleanly(
        which in 0usize..7,
        flips in proptest::collection::vec((0usize..4096, 1u8..=255), 1..=4),
    ) {
        let bytes = encode_op(&valid_ops()[which]);
        check_wal_bytes(&flipped(&bytes, &flips))?;
    }

    #[test]
    fn hostile_whole_log_replay_recovers_or_fails_cleanly(
        draws in proptest::collection::vec(
            (0u8..7, (0u32..16, 0u32..16), 0u8..6),
            1..=12,
        ),
    ) {
        let ops: Vec<WalOp> = draws
            .iter()
            .map(|&(kind, ids, c)| hostile_op(kind, ids, c))
            .collect();
        let dir = log_with_hostile_tail(&ops);
        let _ = DurableResolver::recover(dir, stream_config(), DurabilityConfig::default());
    }

    #[test]
    fn flipped_snapshot_payloads_import_or_fail_cleanly(
        flips in proptest::collection::vec((0usize..1_000_000, 1u8..=255), 1..=4),
    ) {
        check_snapshot_bytes(&flipped(&sample_payload(), &flips))?;
    }
}
