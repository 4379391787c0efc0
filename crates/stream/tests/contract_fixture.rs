//! The committed contract fixture: one seeded op script over Product ×1
//! with the round mix of the `stream-giant` benchmark workload (64
//! arrivals, 6 removes, 3 updates, 16 gold-verdict votes on surfaced
//! pairs, 2 retractions, then a HIT flush), run through the plain
//! resolver.
//!
//! * **Contract digests** — the final `ranked_pairs` and every record's
//!   cluster label — are pinned. They must not move with changes to HIT
//!   bookkeeping; a change that moves them on purpose updates the
//!   constant and says why in CHANGES.md.
//! * **HIT invariants** are asserted after every flush (see
//!   `common::check_hit_invariants`).
//! * **HIT economy**: at the end, the live set is at most
//!   [`MAX_INFLATION`] times a fresh two-tiered generation over each
//!   cluster's listed pairs, and the HITs created over the whole script
//!   are at least [`MIN_SAVING`] times fewer than
//!   [`REGENERATE_ALL_HITS_CREATED`], the count of the earlier flush
//!   that regenerated every dirty cluster's HITs from scratch.

mod common;

use crowder_datagen::{product, ProductConfig};
use crowder_hitgen::{ClusterGenerator, TwoTieredGenerator};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Pair, RecordId, ScoredPair};
use std::collections::{BTreeMap, HashSet};

const SEED: u64 = 7;
const ROUND: usize = 64;
const REMOVES: usize = 6;
const UPDATES: usize = 3;
const VOTES: usize = 16;
const RETRACTS: usize = 2;

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

#[test]
fn op_script_pins_the_contract_and_the_hit_economy() {
    let corpus = product(&ProductConfig {
        seed: SEED,
        ..ProductConfig::default()
    });
    let mut res = IncrementalResolver::like(&corpus, StreamConfig::default());
    let mut rng = Rng(SEED);
    let mut live: Vec<RecordId> = Vec::new();
    let mut voted: Vec<Pair> = Vec::new();
    let mut listed: HashSet<Pair> = HashSet::new();
    let mut hits_created = 0usize;
    let mut rounds = 0usize;
    for chunk in corpus.records().chunks(ROUND) {
        for record in chunk {
            let rep = res.insert(record.source, record.fields.clone()).unwrap();
            live.push(rep.record);
        }
        for _ in 0..REMOVES.min(live.len()) {
            let record = live.swap_remove(rng.below(live.len()));
            res.remove(record).unwrap();
        }
        for _ in 0..UPDATES.min(live.len()) {
            let record = live[rng.below(live.len())];
            let fields = corrected(&res.dataset().records()[record.index()].fields, &mut rng);
            res.update(record, fields).unwrap();
        }
        for _ in 0..VOTES {
            let surfaced = res.pairs();
            if surfaced.is_empty() {
                break;
            }
            let pair = surfaced[rng.below(surfaced.len())].pair;
            res.record_evidence(pair, corpus.gold.is_match(&pair), 1.0);
            voted.push(pair);
        }
        for _ in 0..RETRACTS.min(voted.len()) {
            let pair = voted.swap_remove(rng.below(voted.len()));
            res.retract(pair);
        }
        let delta = res.regenerate_hits().unwrap();
        hits_created += delta.created.len();
        rounds += 1;
        listed = common::check_hit_invariants(&res, &listed, &delta)
            .unwrap_or_else(|e| panic!("round {rounds}: {e}"));
    }

    // A fresh generation over each cluster's listed pairs.
    let mut by_cluster: BTreeMap<usize, Vec<Pair>> = BTreeMap::new();
    for &p in &listed {
        by_cluster
            .entry(res.cluster_of(p.lo()))
            .or_default()
            .push(p);
    }
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
        "rounds {rounds}, listed pairs {}, live HITs {live_hits}, fresh generation {fresh}, \
         hits_per_listed_pair {:.4} (fresh {:.4}), HITs created {hits_created}",
        listed.len(),
        live_hits as f64 / listed.len().max(1) as f64,
        fresh as f64 / listed.len().max(1) as f64,
    );
    println!(
        "ranked digest {:#018x}, label digest {:#018x}",
        ranked_digest(&res.ranked_pairs()),
        label_digest(&res)
    );

    assert_eq!(ranked_digest(&res.ranked_pairs()), RANKED_DIGEST);
    assert_eq!(label_digest(&res), LABEL_DIGEST);
    assert!(
        live_hits as f64 <= MAX_INFLATION * fresh as f64,
        "{live_hits} live HITs against {fresh} from a fresh generation"
    );
    assert!(
        hits_created * MIN_SAVING <= REGENERATE_ALL_HITS_CREATED,
        "{hits_created} HITs created, against {REGENERATE_ALL_HITS_CREATED} when every flush regenerated"
    );
}
