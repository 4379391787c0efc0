//! Durable streaming ER surviving a power loss: every mutation the
//! resolver applies — inserts, deletions, field updates, crowd
//! evidence, retractions, re-ranks, HIT flushes — is written to a
//! checksummed write-ahead log with periodic snapshots. This example
//! pulls the plug mid-run with a byte-exact fault injector, recovers
//! from the surviving disk image, replays the lost operation suffix,
//! and proves the recovered state is **bit-for-bit identical** to a
//! run that never crashed — then re-checks the streaming exactness
//! contract (machine pairs ≡ batch join over the live corpus).
//!
//! ```text
//! cargo run --release --example streaming_recovery
//! ```

use crowder::prelude::*;
use std::collections::HashMap;

const NAMES: &[&str] = &[
    "ipad two 16gb wifi white",
    "ipad 2nd generation 16gb wifi white",
    "apple ipad2 16gb wifi white",
    "iphone 4th generation white 16gb",
    "apple iphone 4 16gb white",
    "iphone 4 32gb white",
    "apple iphone 3rd generation black 16gb",
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

/// A deterministic day of streaming ER: arrivals, a correction, a
/// deletion, crowd evidence (some of it retracted), and periodic HIT
/// regenerations. Expressed as logged operations so the same script
/// can drive both the reference run and the crash run.
fn script() -> Vec<WalOp> {
    let mut ops = Vec::new();
    for name in NAMES {
        ops.push(WalOp::Insert {
            source: 0,
            fields: vec![name.to_string()],
        });
    }
    ops.push(WalOp::Flush);
    ops.push(WalOp::Evidence {
        pair: Pair::of(0, 1),
        verdict: true,
        weight: 1.25,
    });
    ops.push(WalOp::Evidence {
        pair: Pair::of(3, 4),
        verdict: true,
        weight: 0.75,
    });
    ops.push(WalOp::Evidence {
        pair: Pair::of(3, 5),
        verdict: false,
        weight: 1.0,
    });
    ops.push(WalOp::Update {
        record: RecordId(9),
        fields: vec!["sony ericsson z310a phone black 16gb".to_string()],
    });
    ops.push(WalOp::Remove(RecordId(8)));
    ops.push(WalOp::Retract(Pair::of(3, 5)));
    ops.push(WalOp::EpochRerank);
    ops.push(WalOp::Flush);
    ops
}

fn fresh(dir: impl Dir + Clone) -> DurableResolver<impl Dir + Clone> {
    DurableResolver::create(
        dir,
        "recovery-demo",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        DurabilityConfig {
            sync_every_ops: 2,
            snapshot_every_ops: 8,
        },
    )
    .expect("fresh durable resolver")
}

fn main() {
    let ops = script();

    // Reference: the same script, uninterrupted, on in-memory storage.
    let mut reference = fresh(MemDir::new());
    for op in &ops {
        reference.apply(op.clone()).expect("reference op applies");
    }
    let expected = reference.digest();

    // Crash run: after `budget` bytes of post-setup IO the disk dies
    // mid-write (a torn frame), and every later IO fails.
    let faulty = FaultyDir::new();
    let mut engine = fresh(faulty.clone());
    faulty.arm(900);
    let mut survived = 0usize;
    for op in &ops {
        if engine.apply(op.clone()).is_err() {
            break;
        }
        survived += 1;
    }
    assert!(faulty.crashed(), "the fault injector should have fired");
    drop(engine); // the process is gone; only the disk image remains
    println!(
        "power loss after {survived}/{} applied ops ({} bytes ever written)",
        ops.len(),
        faulty.mutated(),
    );

    // Recovery: verify checksums, truncate the torn tail, load the
    // newest intact snapshot, replay the WAL suffix.
    let (mut recovered, report) = DurableResolver::recover(
        faulty.disk(),
        stream_config(),
        DurabilityConfig {
            sync_every_ops: 2,
            snapshot_every_ops: 8,
        },
    )
    .expect("recovery succeeds");
    println!(
        "recovered: snapshot seq {}, {} WAL ops replayed, {} torn bytes truncated, resuming at seq {}",
        report.snapshot_seq, report.replayed, report.torn_bytes, report.last_seq + 1,
    );
    assert!(
        report.last_seq as usize <= ops.len(),
        "recovered more ops than were ever issued"
    );

    // The durably-acknowledged prefix came back; replay what was lost.
    for op in &ops[report.last_seq as usize..] {
        recovered.apply(op.clone()).expect("replayed op applies");
    }
    assert_eq!(
        recovered.digest(),
        expected,
        "recovered + replayed state must be bit-for-bit identical"
    );
    println!(
        "digest after replaying {} lost ops: identical to the uninterrupted run",
        ops.len() - report.last_seq as usize,
    );

    // And the streaming exactness contract still holds on the
    // recovered resolver: machine pairs, densely renumbered over the
    // live corpus, equal a from-scratch batch join.
    let resolver = recovered.resolver();
    let (dense, original) = resolver.live_dataset();
    let to_dense: HashMap<RecordId, u32> = original
        .iter()
        .enumerate()
        .map(|(d, &o)| (o, d as u32))
        .collect();
    let remapped: Vec<ScoredPair> = resolver
        .ranked_pairs()
        .iter()
        .map(|sp| {
            ScoredPair::new(
                Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                sp.likelihood,
            )
        })
        .collect();
    let tokens = TokenTable::build(&dense);
    let batch = prefix_join(&dense, &tokens, stream_config().threshold, 0);
    assert_eq!(
        remapped, batch,
        "recovered state ≡ batch join over live corpus"
    );
    println!(
        "exactness: {} machine pairs ≡ batch join over the {} live records",
        batch.len(),
        dense.len(),
    );

    // The recovered engine keeps logging: one more correction, synced.
    recovered
        .update(RecordId(7), vec!["apple ipod shuffle 2gb green".into()])
        .expect("post-recovery update");
    recovered.sync().expect("post-recovery sync");
    println!(
        "post-recovery update logged at seq {}",
        recovered.last_seq()
    );
}
