//! The crash matrix: power loss at any byte, under any (op sequence ×
//! crash offset × sync cadence × snapshot cadence), recovers to a
//! state whose digest — ranked pairs, cluster labels, live HITs,
//! evidence tallies, funnel counters — is bit-for-bit
//! identical to a run that never crashed, once the lost operation
//! suffix is replayed.

use crowder_durable::{DurabilityConfig, DurableResolver, FaultyDir, MemDir, WalOp};
use crowder_stream::StreamConfig;
use crowder_types::{Pair, PairSpace, RecordId};
use proptest::prelude::*;

const NAME_POOL: &[&str] = &[
    "ipad two 16gb wifi white",
    "ipad 2nd generation 16gb wifi white",
    "iphone 4th generation white 16gb",
    "apple iphone 4 16gb white",
    "apple iphone 3rd generation black 16gb",
    "iphone 4 32gb white",
    "apple ipad2 16gb wifi white",
    "apple ipod shuffle 2gb blue",
    "apple ipod shuffle usb cable",
    "sony ericsson z310a black phone",
];

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: 0.35,
        cluster_size: 4,
        ..StreamConfig::default()
    }
}

/// Deterministically generate a *valid* op script: every op targets a
/// record/pair that exists and is legal at its point in the sequence.
fn make_script(seed: u64, len: usize) -> Vec<WalOp> {
    let mut state = seed | 1;
    let mut roll = |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % m
    };
    let mut script = Vec::with_capacity(len);
    let mut alive: Vec<u32> = Vec::new();
    let mut total: u32 = 0;
    for i in 0..len {
        let op = match roll(12) {
            0 if alive.len() > 2 => {
                let victim = alive.swap_remove(roll(alive.len()));
                WalOp::Remove(RecordId(victim))
            }
            1 if !alive.is_empty() => WalOp::Update {
                record: RecordId(alive[roll(alive.len())]),
                fields: vec![NAME_POOL[roll(NAME_POOL.len())].to_string()],
            },
            2 | 3 if alive.len() >= 2 => {
                let a = alive[roll(alive.len())];
                let b = alive[roll(alive.len())];
                if a == b {
                    WalOp::Flush
                } else {
                    WalOp::Evidence {
                        pair: Pair::of(a, b),
                        verdict: roll(3) > 0,
                        weight: [0.5, 1.0, 1.5][roll(3)],
                    }
                }
            }
            4 if alive.len() >= 2 => {
                let a = alive[roll(alive.len())];
                let b = alive[roll(alive.len())];
                if a == b {
                    WalOp::Flush
                } else {
                    WalOp::Retract(Pair::of(a, b))
                }
            }
            6 if i % 11 == 0 => WalOp::EpochRerank,
            7 => WalOp::Flush,
            _ => {
                alive.push(total);
                total += 1;
                WalOp::Insert {
                    source: 0,
                    fields: vec![NAME_POOL[roll(NAME_POOL.len())].to_string()],
                }
            }
        };
        script.push(op);
    }
    // Always end on a flush so both runs finish at a boundary.
    script.push(WalOp::Flush);
    script
}

/// Run the whole script uninterrupted on plain in-memory storage.
fn uninterrupted(script: &[WalOp], config: DurabilityConfig) -> crowder_durable::StateDigest {
    let mut engine = DurableResolver::create(
        MemDir::new(),
        "crash",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        config,
    )
    .unwrap();
    for op in script {
        engine.apply(op.clone()).unwrap();
    }
    engine.digest()
}

/// Crash the run after `budget` post-create bytes, recover from the
/// surviving disk image, replay the lost suffix, and return the final
/// digest (plus how many ops survived the crash durably).
fn crash_and_recover(
    script: &[WalOp],
    config: DurabilityConfig,
    budget: usize,
) -> (crowder_durable::StateDigest, u64) {
    let faulty = FaultyDir::new();
    let mut engine = DurableResolver::create(
        faulty.clone(),
        "crash",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        config,
    )
    .unwrap();
    faulty.arm(budget);
    for op in script {
        if engine.apply(op.clone()).is_err() {
            break;
        }
    }
    drop(engine); // the process is dead; only the disk survives
    let (mut recovered, report) =
        DurableResolver::recover(faulty.disk(), stream_config(), config).unwrap();
    assert!(
        report.last_seq <= script.len() as u64,
        "recovered more ops than were issued"
    );
    for op in &script[report.last_seq as usize..] {
        recovered.apply(op.clone()).unwrap();
    }
    (recovered.digest(), report.last_seq)
}

/// Exhaustive sweep: one fixed scenario, a crash at *every byte* the
/// engine ever writes. This is the strongest form of the contract —
/// no sampling.
#[test]
fn crash_at_every_byte_recovers_exactly() {
    let script = make_script(42, 60);
    let config = DurabilityConfig {
        sync_every_ops: 3,
        snapshot_every_ops: 25,
    };
    let reference = uninterrupted(&script, config);
    // Measure the scenario's write volume once, unarmed.
    let probe = FaultyDir::new();
    let mut engine = DurableResolver::create(
        probe.clone(),
        "crash",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        config,
    )
    .unwrap();
    let setup_bytes = probe.mutated();
    for op in &script {
        engine.apply(op.clone()).unwrap();
    }
    let op_bytes = probe.mutated() - setup_bytes;
    assert!(op_bytes > 1000, "scenario too small to be interesting");
    let mut lost_any = false;
    for budget in 0..=op_bytes {
        let (digest, last_seq) = crash_and_recover(&script, config, budget);
        assert_eq!(digest, reference, "crash at byte {budget} diverged");
        lost_any |= last_seq < script.len() as u64;
    }
    assert!(lost_any, "the sweep never actually lost an op suffix");
}

#[test]
fn per_op_sync_loses_at_most_the_in_flight_op() {
    let script = make_script(7, 40);
    let config = DurabilityConfig {
        sync_every_ops: 1,
        snapshot_every_ops: 1_000_000,
    };
    let reference = uninterrupted(&script, config);
    for budget in [0, 37, 301, 999, 2048] {
        let (digest, _) = crash_and_recover(&script, config, budget);
        assert_eq!(digest, reference);
    }
}

#[test]
fn clean_shutdown_with_unsynced_tail_recovers_the_synced_prefix() {
    let script = make_script(3, 30);
    let config = DurabilityConfig {
        sync_every_ops: 1000,
        snapshot_every_ops: 1_000_000,
    };
    let dir = MemDir::new();
    let mut engine = DurableResolver::create(
        dir.clone(),
        "crash",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        config,
    )
    .unwrap();
    for op in &script {
        engine.apply(op.clone()).unwrap();
    }
    assert!(engine.unsynced_ops() > 0, "tail should be buffered");
    let full = engine.digest();
    drop(engine); // without sync: the buffered tail evaporates
    let (mut recovered, report) = DurableResolver::recover(dir, stream_config(), config).unwrap();
    assert!(report.last_seq < script.len() as u64);
    for op in &script[report.last_seq as usize..] {
        recovered.apply(op.clone()).unwrap();
    }
    assert_eq!(recovered.digest(), full);
}

#[test]
fn explicit_sync_makes_everything_durable() {
    let script = make_script(11, 30);
    let config = DurabilityConfig {
        sync_every_ops: 1000,
        snapshot_every_ops: 1_000_000,
    };
    let dir = MemDir::new();
    let mut engine = DurableResolver::create(
        dir.clone(),
        "crash",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        config,
    )
    .unwrap();
    for op in &script {
        engine.apply(op.clone()).unwrap();
    }
    engine.sync().unwrap();
    let full = engine.digest();
    drop(engine);
    let (recovered, report) = DurableResolver::recover(dir, stream_config(), config).unwrap();
    assert_eq!(report.last_seq, script.len() as u64);
    assert_eq!(recovered.digest(), full);
}

/// A clean stop after a final sync recovers the pre-stop digest at any
/// snapshot cadence, replays no more ops than were logged, and a
/// tighter cadence never replays a longer WAL suffix.
#[test]
fn tighter_snapshot_cadence_shortens_the_replayed_suffix() {
    const CADENCES: [usize; 3] = [8, 20, 1_000_000];
    let script = make_script(5, 120);
    for ops in [script.len() / 2, script.len()] {
        let mut replayed = Vec::new();
        for snapshot_every_ops in CADENCES {
            let config = DurabilityConfig {
                sync_every_ops: 4,
                snapshot_every_ops,
            };
            let dir = MemDir::new();
            let mut engine = DurableResolver::create(
                dir.clone(),
                "crash",
                vec!["name".into()],
                PairSpace::SelfJoin,
                stream_config(),
                config,
            )
            .unwrap();
            for op in &script[..ops] {
                engine.apply(op.clone()).unwrap();
            }
            engine.sync().unwrap();
            let expected = engine.digest();
            drop(engine);
            let (recovered, report) =
                DurableResolver::recover(dir, stream_config(), config).unwrap();
            assert_eq!(recovered.digest(), expected, "cadence {snapshot_every_ops}");
            assert!(
                report.replayed <= ops,
                "cadence {snapshot_every_ops} replayed {} of {ops} ops",
                report.replayed
            );
            replayed.push(report.replayed);
        }
        assert!(
            replayed.windows(2).all(|w| w[0] <= w[1]),
            "cadences {CADENCES:?} replayed {replayed:?} of {ops} ops"
        );
        assert!(
            replayed[0] < replayed[CADENCES.len() - 1],
            "snapshots never shortened the replay: {replayed:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sampled matrix: random scripts × random crash offsets ×
    /// random sync and snapshot cadences.
    #[test]
    fn crash_matrix_recovers_exactly(
        seed in 0u64..=1_000_000,
        len in 20usize..=80,
        budget in 0usize..=6000,
        sync_every in 1usize..=9,
        snap_choice in 0usize..=3,
    ) {
        let snap_every = [8usize, 20, 64, 1_000_000][snap_choice];
        let script = make_script(seed, len);
        let config = DurabilityConfig {
            sync_every_ops: sync_every,
            snapshot_every_ops: snap_every,
        };
        let reference = uninterrupted(&script, config);
        let (digest, _) = crash_and_recover(&script, config, budget);
        prop_assert_eq!(digest, reference);
    }

    /// Recovery is idempotent: recovering, doing nothing, and
    /// recovering again lands on the same digest.
    #[test]
    fn recovery_is_idempotent(
        seed in 0u64..=1_000_000,
        budget in 0usize..=3000,
    ) {
        let script = make_script(seed, 40);
        let config = DurabilityConfig { sync_every_ops: 2, snapshot_every_ops: 15 };
        let faulty = FaultyDir::new();
        let mut engine = DurableResolver::create(
            faulty.clone(), "crash", vec!["name".into()],
            PairSpace::SelfJoin, stream_config(), config,
        ).unwrap();
        faulty.arm(budget);
        for op in &script {
            if engine.apply(op.clone()).is_err() {
                break;
            }
        }
        drop(engine);
        let (first, r1) =
            DurableResolver::recover(faulty.disk(), stream_config(), config).unwrap();
        let d1 = first.digest();
        drop(first);
        let (second, r2) =
            DurableResolver::recover(faulty.disk(), stream_config(), config).unwrap();
        prop_assert_eq!(r1.last_seq, r2.last_seq);
        prop_assert_eq!(d1, second.digest());
    }
}
