//! The committed contract fixture: one seeded op script over Product ×1
//! with the round mix of the `stream-giant` benchmark workload (64
//! arrivals, 6 removes, 3 updates, 16 gold-verdict votes on surfaced
//! pairs, 2 retractions, then a HIT flush). Each op is a [`WalOp`]
//! applied with [`DurableResolver::apply`], and the script runs twice:
//! on an engine without a log, and on one logging to a [`MemDir`] that
//! every tenth round is synced, dropped and recovered.
//!
//! * **Contract digests** — the final `ranked_pairs` and every record's
//!   cluster label — are pinned, and both runs must reach them and the
//!   same [`StateDigest`](crowder_durable::StateDigest). They must not
//!   move with changes to HIT bookkeeping or to recovery; a change that
//!   moves them on purpose updates the constant and says why in
//!   CHANGES.md.
//! * **HIT invariants** are asserted after every flush (see
//!   `common::check_hit_invariants`).
//! * **HIT economy**: at the end, the live set is at most
//!   [`MAX_INFLATION`] times a fresh two-tiered generation over each
//!   cluster's listed pairs, and the HITs created over the whole script
//!   are at least [`MIN_SAVING`] times fewer than
//!   [`REGENERATE_ALL_HITS_CREATED`], the count of the earlier flush
//!   that regenerated every dirty cluster's HITs from scratch.

#[path = "../../stream/tests/common/mod.rs"]
mod common;

use crowder_datagen::{product, ProductConfig};
use crowder_durable::{Dir, DurabilityConfig, DurableResolver, MemDir, WalOp};
use crowder_hitgen::{ClusterGenerator, TwoTieredGenerator};
use crowder_stream::{HitDelta, HitId, IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, Pair, RecordId, ScoredPair};
use std::collections::{BTreeMap, HashSet};

const SEED: u64 = 7;
const ROUND: usize = 64;
const REMOVES: usize = 6;
const UPDATES: usize = 3;
const VOTES: usize = 16;
const RETRACTS: usize = 2;
/// Rounds between the recovering run's sync → drop → recover cycles.
const RECOVER_EVERY: usize = 10;
/// The recovering run's cadences: a snapshot every few rounds, so each
/// recovery imports a snapshot and replays a log suffix.
const DURABILITY: DurabilityConfig = DurabilityConfig {
    sync_every_ops: 64,
    snapshot_every_ops: 500,
};

/// FNV-1a digest of the final `ranked_pairs` (endpoints and likelihood
/// bits, in ranked order).
const RANKED_DIGEST: u64 = 0x4579_9061_7d0f_3e26;
/// FNV-1a digest of `cluster_of` over every record id, dead ones too.
const LABEL_DIGEST: u64 = 0xea3a_b22f_bed1_97c8;
/// HITs created over the script when every flush regenerated each dirty
/// cluster's HITs from scratch.
const REGENERATE_ALL_HITS_CREATED: usize = 2_569;
/// Bound on live HITs over a fresh generation at the end of the script.
const MAX_INFLATION: f64 = 1.5;
/// Bound on the saving in HITs created. The repairing flush creates
/// 1,104 (2.3× fewer). Three things keep it from 4× at this scale: the
/// giant component forms only in the second half of the script, and
/// before that most dirty clusters are small ones that gained a pair
/// and need one new HIT under either flush; an answer that leaves a
/// pair unsettled publishes it again; and the drift fallback regenerates
/// the giant component in full each time its live HITs grow by half.
const MIN_SAVING: usize = 2;

/// SplitMix64: the script's own seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn ranked_digest(pairs: &[ScoredPair]) -> u64 {
    fnv(pairs.iter().flat_map(|sp| {
        [
            sp.pair.lo().0 as u64,
            sp.pair.hi().0 as u64,
            sp.likelihood.to_bits(),
        ]
    }))
}

fn label_digest(resolver: &IncrementalResolver) -> u64 {
    fnv((0..resolver.len() as u32).map(|r| resolver.cluster_of(RecordId(r)) as u64))
}

/// Drop one word of the name (or add one to a one-word name).
fn corrected(fields: &[String], rng: &mut Rng) -> Vec<String> {
    let mut out = fields.to_vec();
    let mut words: Vec<&str> = fields[0].split_whitespace().collect();
    if words.len() > 1 {
        words.remove(rng.below(words.len()));
    } else {
        words.push("refurbished");
    }
    out[0] = words.join(" ");
    out
}

/// Apply a HIT flush and rebuild its delta from the live HIT ids before
/// and after (both ascending): ids are never reused, so the new ones are
/// the created.
fn flush<D: Dir + Clone>(engine: &mut DurableResolver<D>) -> HitDelta {
    let ids = |engine: &DurableResolver<D>| -> Vec<HitId> {
        let live = engine.resolver().live_hits();
        live.iter().map(|(id, _)| id).collect()
    };
    let before = ids(engine);
    engine.apply(WalOp::Flush).unwrap();
    let after = ids(engine);
    let (stable, created): (Vec<HitId>, Vec<HitId>) = after
        .iter()
        .partition(|id| before.binary_search(id).is_ok());
    HitDelta {
        retired: before
            .into_iter()
            .filter(|id| after.binary_search(id).is_err())
            .collect(),
        created,
        stable: stable.len(),
    }
}

/// Run the script on `engine`, asserting the HIT invariants after every
/// flush. With `dir`, every [`RECOVER_EVERY`] rounds the engine is
/// synced, dropped and recovered from `dir`. Returns the final engine,
/// the HITs created over the script and the WAL frames recovery
/// replayed.
fn run<D: Dir + Clone>(
    corpus: &Dataset,
    mut engine: DurableResolver<D>,
    dir: Option<&D>,
) -> (DurableResolver<D>, usize, usize) {
    let mut rng = Rng(SEED);
    let mut live: Vec<RecordId> = Vec::new();
    let mut voted: Vec<Pair> = Vec::new();
    let mut listed: HashSet<Pair> = HashSet::new();
    let mut hits_created = 0usize;
    let mut replayed = 0usize;
    for (round, chunk) in corpus.records().chunks(ROUND).enumerate() {
        for record in chunk {
            engine
                .apply(WalOp::Insert {
                    source: record.source.0,
                    fields: record.fields.clone(),
                })
                .unwrap();
            live.push(RecordId(engine.resolver().len() as u32 - 1));
        }
        for _ in 0..REMOVES.min(live.len()) {
            let record = live.swap_remove(rng.below(live.len()));
            engine.apply(WalOp::Remove(record)).unwrap();
        }
        for _ in 0..UPDATES.min(live.len()) {
            let record = live[rng.below(live.len())];
            let fields = corrected(
                &engine.resolver().dataset().records()[record.index()].fields,
                &mut rng,
            );
            engine.apply(WalOp::Update { record, fields }).unwrap();
        }
        for _ in 0..VOTES {
            let surfaced = engine.resolver().pairs();
            if surfaced.is_empty() {
                break;
            }
            let pair = surfaced[rng.below(surfaced.len())].pair;
            engine
                .apply(WalOp::Evidence {
                    pair,
                    verdict: corpus.gold.is_match(&pair),
                    weight: 1.0,
                })
                .unwrap();
            voted.push(pair);
        }
        for _ in 0..RETRACTS.min(voted.len()) {
            let pair = voted.swap_remove(rng.below(voted.len()));
            engine.apply(WalOp::Retract(pair)).unwrap();
        }
        let delta = flush(&mut engine);
        hits_created += delta.created.len();
        listed = common::check_hit_invariants(engine.resolver(), &listed, &delta)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        if let Some(dir) = dir.filter(|_| (round + 1) % RECOVER_EVERY == 0) {
            let before = engine.digest();
            engine.sync().unwrap();
            drop(engine);
            let (recovered, report) =
                DurableResolver::recover(dir.clone(), StreamConfig::default(), DURABILITY).unwrap();
            assert!(
                recovered.digest() == before,
                "round {round}: recovery diverged ({report:?})"
            );
            replayed += report.replayed;
            engine = recovered;
        }
    }
    (engine, hits_created, replayed)
}

#[test]
fn op_script_pins_the_contract_and_the_hit_economy() {
    let corpus = product(&ProductConfig {
        seed: SEED,
        ..ProductConfig::default()
    });
    let resolver = || IncrementalResolver::like(&corpus, StreamConfig::default());
    let (engine, hits_created, _) = run(
        &corpus,
        DurableResolver::<MemDir>::in_memory(resolver()),
        None,
    );
    let dir = MemDir::new();
    let logged = DurableResolver::create_with(dir.clone(), resolver(), DURABILITY).unwrap();
    let (recovered, recovered_hits_created, replayed) = run(&corpus, logged, Some(&dir));
    assert!(replayed > 0, "recovery must replay a log suffix");
    assert!(
        recovered.digest() == engine.digest(),
        "the recovering run must end where the in-memory run does"
    );
    assert_eq!(recovered_hits_created, hits_created);

    let res = engine.resolver();
    // A fresh generation over each cluster's listed pairs.
    let mut by_cluster: BTreeMap<usize, Vec<Pair>> = BTreeMap::new();
    for p in common::listed_pairs(res) {
        by_cluster
            .entry(res.cluster_of(p.lo()))
            .or_default()
            .push(p);
    }
    let listed: usize = by_cluster.values().map(Vec::len).sum();
    let generator = TwoTieredGenerator::new();
    let fresh: usize = by_cluster
        .values_mut()
        .map(|pairs| {
            pairs.sort_unstable();
            generator
                .generate(pairs, res.config().cluster_size)
                .unwrap()
                .len()
        })
        .sum();
    let live_hits = res.live_hits().len();
    println!(
        "listed pairs {listed}, live HITs {live_hits}, fresh generation {fresh}, \
         hits_per_listed_pair {:.4} (fresh {:.4}), HITs created {hits_created}",
        live_hits as f64 / listed.max(1) as f64,
        fresh as f64 / listed.max(1) as f64,
    );
    println!(
        "ranked digest {:#018x}, label digest {:#018x}",
        ranked_digest(&res.ranked_pairs()),
        label_digest(res)
    );

    assert_eq!(ranked_digest(&res.ranked_pairs()), RANKED_DIGEST);
    assert_eq!(label_digest(res), LABEL_DIGEST);
    assert!(
        live_hits as f64 <= MAX_INFLATION * fresh as f64,
        "{live_hits} live HITs against {fresh} from a fresh generation"
    );
    assert!(
        hits_created * MIN_SAVING <= REGENERATE_ALL_HITS_CREATED,
        "{hits_created} HITs created, against {REGENERATE_ALL_HITS_CREATED} when every flush regenerated"
    );
}
