//! Snapshot files: one checksummed blob holding a full
//! [`ResolverState`].
//!
//! A snapshot named `snap-<seq>` reflects the resolver *after*
//! applying WAL operation `seq` (snapshot 0 is the empty resolver).
//! Rotation writes the new snapshot before touching the old one, so
//! at every instant at least one intact snapshot exists; the loader
//! walks candidates newest-first and skips any that fail validation,
//! trading a longer replay for recovery from snapshot corruption.

use crowder_hitgen::Hit;
use crowder_simjoin::JoinStats;
use crowder_stream::ResolverState;
use crowder_types::{Error, Pair, PairSpace, RecordId, Result, ScoredPair, SourceId};

use crate::codec::{Dec, Enc};
use crate::crc::crc32;
use crate::storage::Dir;

/// Magic bytes opening a snapshot blob.
pub const SNAP_MAGIC: &[u8; 4] = b"CSNP";
/// Snapshot format version. v2 added the `signature_rejected` funnel
/// bucket to the cumulative join stats; v3 dropped the derived fields
/// (cluster edges, per-cluster to-verify lists, removal count), which
/// import now recomputes; v4 added each cluster's HIT baseline (its
/// HIT count right after its last full HIT generation); v5 dropped the
/// trailing worker-weight table, which nothing read; v6 dropped the
/// `space_pruned` funnel bucket, which no join writes any more.
pub const SNAP_VERSION: u32 = 6;

/// Blob name for the snapshot at `seq`.
pub fn snap_name(seq: u64) -> String {
    format!("snap-{seq:020}")
}

/// Parse a `snap-<seq>` blob name.
pub fn parse_snap_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?.parse().ok()
}

fn enc_pair(e: &mut Enc, pair: &Pair) {
    e.u32(pair.lo().0);
    e.u32(pair.hi().0);
}

fn dec_pair(d: &mut Dec) -> Result<Pair> {
    Pair::new(RecordId(d.u32()?), RecordId(d.u32()?))
}

/// Encode `state` into a snapshot payload.
pub fn encode_payload(state: &ResolverState) -> Vec<u8> {
    let mut enc = Enc::new();
    let e = &mut enc;
    e.str(&state.name);
    e.u32(state.schema.len() as u32);
    for attr in &state.schema {
        e.str(attr);
    }
    match state.pair_space {
        PairSpace::SelfJoin => e.u8(0),
        PairSpace::CrossSource(a, b) => {
            e.u8(1);
            e.u8(a.0);
            e.u8(b.0);
        }
    }
    e.u32(state.gold.len() as u32);
    for pair in &state.gold {
        enc_pair(e, pair);
    }
    e.u32(state.records.len() as u32);
    for (source, fields) in &state.records {
        e.u8(*source);
        e.u32(fields.len() as u32);
        for f in fields {
            e.str(f);
        }
    }
    e.u32(state.alive.len() as u32);
    for &flag in &state.alive {
        e.bool(flag);
    }
    e.u32(state.dict_tokens.len() as u32);
    for token in &state.dict_tokens {
        e.str(token);
    }
    for &df in &state.dict_dfs {
        e.u32(df);
    }
    for &rank in &state.dict_ranks {
        e.u32(rank);
    }
    e.u32(state.dict_fresh);
    e.u64(state.dict_epochs);
    e.u32(state.pairs.len() as u32);
    for sp in &state.pairs {
        enc_pair(e, &sp.pair);
        e.f64(sp.likelihood);
    }
    e.u32(state.tallies.len() as u32);
    for (pair, yes, no, votes) in &state.tallies {
        enc_pair(e, pair);
        e.u64(*yes);
        e.u64(*no);
        e.u32(*votes);
    }
    for n in [
        state.cumulative.candidates,
        state.cumulative.positional_pruned,
        state.cumulative.signature_rejected,
        state.cumulative.suffix_pruned,
        state.cumulative.verified,
        state.cumulative.results,
    ] {
        e.u64(n);
    }
    e.u32(state.labels.len() as u32);
    for &label in &state.labels {
        e.u32(label);
    }
    e.u32(state.hits.len() as u32);
    for (id, hit) in &state.hits {
        e.u64(*id);
        match hit {
            Hit::PairBased { pairs } => {
                e.u8(0);
                e.u32(pairs.len() as u32);
                for pair in pairs {
                    enc_pair(e, pair);
                }
            }
            Hit::ClusterBased { records } => {
                e.u8(1);
                e.u32(records.len() as u32);
                for r in records {
                    e.u32(r.0);
                }
            }
        }
    }
    e.u32(state.hit_roots.len() as u32);
    for (root, baseline, ids) in &state.hit_roots {
        e.usize(*root);
        e.u64(*baseline);
        e.u32(ids.len() as u32);
        for &id in ids {
            e.u64(id);
        }
    }
    e.u64(state.next_hit);
    e.u64(state.inserts_since_rebuild);
    enc.into_bytes()
}

/// Decode a snapshot payload back into a state.
pub fn decode_payload(payload: &[u8]) -> Result<ResolverState> {
    let mut dec = Dec::new(payload);
    let d = &mut dec;
    let name = d.str()?;
    let schema = (0..d.seq_len(4)?).map(|_| d.str()).collect::<Result<_>>()?;
    let pair_space = match d.u8()? {
        0 => PairSpace::SelfJoin,
        1 => PairSpace::CrossSource(SourceId(d.u8()?), SourceId(d.u8()?)),
        tag => {
            return Err(Error::InvalidData(format!(
                "snapshot: pair-space tag {tag}"
            )))
        }
    };
    let gold = (0..d.seq_len(8)?)
        .map(|_| dec_pair(d))
        .collect::<Result<_>>()?;
    let mut records = Vec::new();
    for _ in 0..d.seq_len(5)? {
        let source = d.u8()?;
        let fields = (0..d.seq_len(4)?).map(|_| d.str()).collect::<Result<_>>()?;
        records.push((source, fields));
    }
    let alive = (0..d.seq_len(1)?)
        .map(|_| d.bool())
        .collect::<Result<Vec<bool>>>()?;
    let n_tokens = d.seq_len(4)?;
    let dict_tokens = (0..n_tokens).map(|_| d.str()).collect::<Result<_>>()?;
    let dict_dfs = (0..n_tokens).map(|_| d.u32()).collect::<Result<_>>()?;
    let dict_ranks = (0..n_tokens).map(|_| d.u32()).collect::<Result<_>>()?;
    let dict_fresh = d.u32()?;
    let dict_epochs = d.u64()?;
    let mut pairs = Vec::new();
    for _ in 0..d.seq_len(16)? {
        let pair = dec_pair(d)?;
        pairs.push(ScoredPair::new(pair, d.f64()?));
    }
    let mut tallies = Vec::new();
    for _ in 0..d.seq_len(28)? {
        tallies.push((dec_pair(d)?, d.u64()?, d.u64()?, d.u32()?));
    }
    let cumulative = JoinStats {
        candidates: d.u64()?,
        positional_pruned: d.u64()?,
        signature_rejected: d.u64()?,
        suffix_pruned: d.u64()?,
        verified: d.u64()?,
        results: d.u64()?,
    };
    let labels = (0..d.seq_len(4)?).map(|_| d.u32()).collect::<Result<_>>()?;
    let mut hits = Vec::new();
    for _ in 0..d.seq_len(13)? {
        let id = d.u64()?;
        let hit = match d.u8()? {
            0 => Hit::PairBased {
                pairs: (0..d.seq_len(8)?)
                    .map(|_| dec_pair(d))
                    .collect::<Result<_>>()?,
            },
            1 => Hit::ClusterBased {
                records: (0..d.seq_len(4)?)
                    .map(|_| Ok(RecordId(d.u32()?)))
                    .collect::<Result<_>>()?,
            },
            tag => return Err(Error::InvalidData(format!("snapshot: hit tag {tag}"))),
        };
        hits.push((id, hit));
    }
    let mut hit_roots = Vec::new();
    for _ in 0..d.seq_len(20)? {
        let root = d.usize()?;
        let baseline = d.u64()?;
        let ids = (0..d.seq_len(8)?).map(|_| d.u64()).collect::<Result<_>>()?;
        hit_roots.push((root, baseline, ids));
    }
    let (next_hit, inserts_since_rebuild) = (d.u64()?, d.u64()?);
    dec.finish()?;
    Ok(ResolverState {
        name,
        schema,
        pair_space,
        gold,
        records,
        alive,
        dict_tokens,
        dict_dfs,
        dict_ranks,
        dict_fresh,
        dict_epochs,
        pairs,
        tallies,
        cumulative,
        labels,
        hits,
        hit_roots,
        next_hit,
        inserts_since_rebuild,
    })
}

/// Durably write `snap-<seq>` reflecting `state`.
pub fn write_snapshot(dir: &impl Dir, seq: u64, state: &ResolverState) -> Result<()> {
    let payload = encode_payload(state);
    let mut e = Enc::new();
    e.bytes(SNAP_MAGIC);
    e.u32(SNAP_VERSION);
    e.u64(seq);
    e.u32(payload.len() as u32);
    e.u32(crc32(&payload));
    e.bytes(&payload);
    dir.replace(&snap_name(seq), &e.into_bytes())
}

/// Validate and decode one snapshot blob; the declared `seq` must
/// match `expect_seq` (the one in its name).
pub fn read_snapshot(bytes: &[u8], expect_seq: u64) -> Result<ResolverState> {
    const HEAD: usize = 4 + 4 + 8 + 4 + 4;
    if bytes.len() < HEAD || &bytes[..4] != SNAP_MAGIC {
        return Err(Error::InvalidData("snapshot: no valid header".into()));
    }
    let mut d = Dec::new(&bytes[4..HEAD]);
    let version = d.u32()?;
    if version != SNAP_VERSION {
        return Err(Error::InvalidData(format!(
            "snapshot: format version {version}, this build reads {SNAP_VERSION}"
        )));
    }
    let seq = d.u64()?;
    if seq != expect_seq {
        return Err(Error::InvalidData(format!(
            "snapshot: header seq {seq} does not match name seq {expect_seq}"
        )));
    }
    let len = d.u32()? as usize;
    let crc = d.u32()?;
    if bytes.len() != HEAD + len {
        return Err(Error::InvalidData(format!(
            "snapshot: payload length {len} but {} bytes follow the header",
            bytes.len() - HEAD
        )));
    }
    let payload = &bytes[HEAD..];
    if crc32(payload) != crc {
        return Err(Error::InvalidData("snapshot: checksum mismatch".into()));
    }
    decode_payload(payload)
}

/// Load the newest snapshot in `dir` that passes validation. Returns
/// `(seq, state)`, or `None` if the directory holds no intact snapshot
/// at all.
pub fn load_latest_snapshot(dir: &impl Dir) -> Result<Option<(u64, ResolverState)>> {
    let mut seqs: Vec<u64> = dir
        .list()?
        .iter()
        .filter_map(|name| parse_snap_name(name))
        .collect();
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs {
        let Some(bytes) = dir.read(&snap_name(seq))? else {
            continue;
        };
        if let Ok(state) = read_snapshot(&bytes, seq) {
            return Ok(Some((seq, state)));
        }
    }
    Ok(None)
}

/// Delete every snapshot strictly older than `keep_seq`.
pub fn prune_snapshots(dir: &impl Dir, keep_seq: u64) -> Result<()> {
    for name in dir.list()? {
        if parse_snap_name(&name).is_some_and(|seq| seq < keep_seq) {
            dir.remove(&name)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemDir;
    use crowder_stream::{IncrementalResolver, StreamConfig};

    fn sample_state() -> ResolverState {
        let mut r = IncrementalResolver::new(
            "snap-test",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.4,
                cluster_size: 3,
                ..StreamConfig::default()
            },
        );
        for name in ["a b c d", "a b c e", "x y z", "x y z w", "q r"] {
            r.insert(SourceId(0), vec![name.into()]).unwrap();
        }
        r.record_evidence(Pair::of(0, 1), true, 0.8);
        r.record_evidence(Pair::of(0, 4), true, 1.5);
        r.remove(RecordId(2)).unwrap();
        r.gold_mut().insert(Pair::of(0, 1));
        r.regenerate_hits().unwrap();
        r.export_state().unwrap()
    }

    #[test]
    fn payload_round_trips_bit_for_bit() {
        let state = sample_state();
        assert_eq!(decode_payload(&encode_payload(&state)).unwrap(), state);
    }

    #[test]
    fn write_load_picks_the_newest_valid_snapshot() {
        let dir = MemDir::new();
        let state = sample_state();
        write_snapshot(&dir, 5, &state).unwrap();
        let mut newer = state.clone();
        newer.inserts_since_rebuild += 1;
        write_snapshot(&dir, 9, &newer).unwrap();
        let (seq, loaded) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!((seq, &loaded), (9, &newer));
        // Corrupt the newest: the loader falls back to snapshot 5.
        let mut bytes = dir.read(&snap_name(9)).unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        dir.replace(&snap_name(9), &bytes).unwrap();
        let (seq, loaded) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!((seq, &loaded), (5, &state));
        // Prune everything below 9: nothing valid remains.
        prune_snapshots(&dir, 9).unwrap();
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn header_corruption_is_rejected() {
        let dir = MemDir::new();
        write_snapshot(&dir, 2, &sample_state()).unwrap();
        let bytes = dir.read(&snap_name(2)).unwrap().unwrap();
        assert!(
            read_snapshot(&bytes, 3).is_err(),
            "name/header seq mismatch"
        );
        assert!(read_snapshot(&bytes[..10], 2).is_err(), "short blob");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(read_snapshot(&bad, 2).is_err(), "bad magic");
        let mut bad = bytes.clone();
        bad.truncate(bytes.len() - 1);
        assert!(read_snapshot(&bad, 2).is_err(), "truncated payload");
    }

    #[test]
    fn older_format_versions_are_refused() {
        for old in [2u32, 4, 5] {
            let dir = MemDir::new();
            write_snapshot(&dir, 4, &sample_state()).unwrap();
            let mut bytes = dir.read(&snap_name(4)).unwrap().unwrap();
            // The version follows the magic; the checksum covers only
            // the payload, so the patched blob fails on its version
            // alone.
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            match read_snapshot(&bytes, 4) {
                Err(Error::InvalidData(msg)) => assert_eq!(
                    msg,
                    format!("snapshot: format version {old}, this build reads {SNAP_VERSION}")
                ),
                other => panic!("expected the version error, got {other:?}"),
            }
            // A directory holding only older snapshots has no intact
            // one, and looking leaves it byte-identical.
            dir.replace(&snap_name(4), &bytes).unwrap();
            let contents = || {
                let names = dir.list().unwrap();
                names
                    .iter()
                    .map(|name| (name.clone(), dir.read(name).unwrap()))
                    .collect::<Vec<_>>()
            };
            let before = contents();
            assert!(load_latest_snapshot(&dir).unwrap().is_none());
            assert_eq!(contents(), before, "a refused directory is left as it was");
        }
    }
}
