//! The exactness contract, property-tested: streaming insertion ≡ batch
//! `prefix_join`, bit-identically, for every tested threshold, batch
//! split, insertion order, and batch-engine thread count — and, under
//! any interleaving of inserts, deletions, and re-inserts, ≡ batch over
//! whatever corpus is live at the end. Crowd evidence is likewise
//! exactly revocable: retracting every vote restores the machine-only
//! clustering.

use crowder_datagen::{restaurant, RestaurantConfig};
use crowder_simjoin::{prefix_join, TokenTable};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, Pair, PairSpace, RecordId, ScoredPair, SourceId};
use proptest::prelude::*;
use std::collections::HashMap;

/// Batch reference over a finished corpus.
fn batch_pairs(dataset: &Dataset, threshold: f64, threads: usize) -> Vec<ScoredPair> {
    let tokens = TokenTable::build(dataset);
    prefix_join(dataset, &tokens, threshold, threads)
}

/// Build the batch dataset and stream the same records (in the same
/// order) through a resolver, split into batches at `splits`.
fn stream_and_batch(
    names: &[String],
    cross: bool,
    threshold: f64,
    rebuild_interval: usize,
) -> (IncrementalResolver, Dataset) {
    let space = if cross {
        PairSpace::CrossSource(SourceId(0), SourceId(1))
    } else {
        PairSpace::SelfJoin
    };
    let mut dataset = Dataset::new("t", vec!["name".into()], space);
    let mut resolver = IncrementalResolver::new(
        "t",
        vec!["name".into()],
        space,
        StreamConfig {
            threshold,
            rebuild_min_interval: rebuild_interval,
            ..StreamConfig::default()
        },
    );
    for (i, name) in names.iter().enumerate() {
        let src = if cross {
            SourceId((i % 2) as u8)
        } else {
            SourceId(0)
        };
        dataset.push_record(src, vec![name.clone()]).unwrap();
        resolver.insert(src, vec![name.clone()]).unwrap();
    }
    (resolver, dataset)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-at-a-time insertion, across thresholds, pair spaces, epoch
    /// cadences, and batch-engine thread counts.
    #[test]
    fn streaming_equals_batch_one_at_a_time(
        names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 2..24),
        thr in 0.05f64..=1.0,
        cross in proptest::bool::ANY,
        threads in 0usize..=4,
        rebuild in 2usize..=64,
    ) {
        let (resolver, dataset) = stream_and_batch(&names, cross, thr, rebuild);
        prop_assert_eq!(resolver.ranked_pairs(), batch_pairs(&dataset, thr, threads));
    }

    /// Permuted insertion orders: the batch reference is built over the
    /// *same* permuted sequence, so ids agree; every permutation must
    /// produce a result identical to its own batch join.
    #[test]
    fn permuted_orders_each_match_their_batch(
        names in proptest::collection::vec("[a-d]{1,2}( [a-d]{1,2}){0,5}", 2..16),
        seed in 0u64..=1_000_000,
        thr in 0.05f64..=1.0,
    ) {
        // Fisher–Yates from the proptest-supplied seed (the vendored
        // proptest has no Just/shuffle strategy).
        let mut order: Vec<usize> = (0..names.len()).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let permuted: Vec<String> = order.iter().map(|&i| names[i].clone()).collect();
        let (resolver, dataset) = stream_and_batch(&permuted, false, thr, 8);
        prop_assert_eq!(resolver.ranked_pairs(), batch_pairs(&dataset, thr, 2));
    }

    /// Degenerate thresholds degrade exactly like the batch engine —
    /// including t = 1.0, where every prefix saturates (the adaptive
    /// window cap ⌈t·lx⌉ and the truncation cutoffs sit exactly on
    /// their boundaries).
    #[test]
    fn degenerate_thresholds_match_batch(
        names in proptest::collection::vec("[a-c]{1,2}( [a-c]{1,2}){0,3}", 2..12),
        which in 0usize..=3,
    ) {
        let thr = [0.0, -0.5, 1.5, 1.0][which];
        let (resolver, dataset) = stream_and_batch(&names, false, thr, 16);
        prop_assert_eq!(resolver.ranked_pairs(), batch_pairs(&dataset, thr, 1));
    }

    /// Empty and one-token records through the adaptive-prefix and
    /// bitset-verify paths: a 1-token record clamps its extended window
    /// to the record length and its count-filter cap to level 1, and an
    /// empty record must be inert at every positive threshold — all
    /// bit-identical to batch.
    #[test]
    fn tiny_records_match_batch(
        names in proptest::collection::vec("( ?[a-c]{1,2}){0,3}", 2..14),
        thr in 0.05f64..=1.0,
        cross in proptest::bool::ANY,
    ) {
        let (resolver, dataset) = stream_and_batch(&names, cross, thr, 8);
        prop_assert_eq!(resolver.ranked_pairs(), batch_pairs(&dataset, thr, 0));
    }

    /// The exactness contract *under mutation*: any interleaving of
    /// inserts, deletions of live records, and re-inserts of previously
    /// deleted records ends bit-identical to a batch `prefix_join` over
    /// the final live corpus (through the monotone dense re-numbering
    /// of `live_dataset`).
    #[test]
    fn mutation_interleavings_match_batch_over_live_corpus(
        names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 3..20),
        seed in 0u64..=1_000_000,
        thr in 0.05f64..=1.0,
        rebuild in 2usize..=32,
    ) {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig { threshold: thr, rebuild_min_interval: rebuild, ..StreamConfig::default() },
        );
        let mut state = seed | 1;
        let mut roll = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut alive: Vec<RecordId> = Vec::new();
        let mut graveyard: Vec<Vec<String>> = Vec::new();
        let mut pending: Vec<&String> = names.iter().rev().collect();
        // 2x the corpus length of ops: every record arrives, and there is
        // room for deletions and re-inserts in between.
        for _ in 0..names.len() * 2 {
            match roll(4) {
                // Delete a random live record.
                0 if !alive.is_empty() => {
                    let victim = alive.swap_remove(roll(alive.len()));
                    graveyard.push(resolver.dataset().record(victim).unwrap().fields.clone());
                    resolver.remove(victim).unwrap();
                }
                // Re-insert a previously deleted record's fields (a new
                // id: slots are never reused).
                1 if !graveyard.is_empty() => {
                    let fields = graveyard.swap_remove(roll(graveyard.len()));
                    alive.push(resolver.insert(SourceId(0), fields).unwrap().record);
                }
                // Fresh arrival.
                _ => {
                    if let Some(name) = pending.pop() {
                        alive.push(resolver.insert(SourceId(0), vec![name.clone()]).unwrap().record);
                    }
                }
            }
        }
        let (dense, original) = resolver.live_dataset();
        prop_assert_eq!(dense.len(), alive.len());
        let to_dense: HashMap<RecordId, u32> =
            original.iter().enumerate().map(|(d, &o)| (o, d as u32)).collect();
        let remapped: Vec<ScoredPair> = resolver
            .ranked_pairs()
            .iter()
            .map(|sp| ScoredPair::new(
                Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                sp.likelihood,
            ))
            .collect();
        prop_assert_eq!(remapped, batch_pairs(&dense, thr, 0));
    }

    /// In-place corrections keep the contract too: any interleaving of
    /// arrivals, deletions, and `update`s (each rewriting a live
    /// record's fields under its existing id) still matches a batch
    /// join over the final live corpus bit-for-bit.
    #[test]
    fn update_interleavings_match_batch_over_live_corpus(
        names in proptest::collection::vec("[a-e]{1,3}( [a-e]{1,3}){0,4}", 4..20),
        seed in 0u64..=1_000_000,
        thr in 0.05f64..=1.0,
    ) {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig { threshold: thr, ..StreamConfig::default() },
        );
        let mut state = seed | 1;
        let mut roll = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut alive: Vec<RecordId> = Vec::new();
        let mut pending: Vec<&String> = names.iter().rev().collect();
        for _ in 0..names.len() * 2 {
            match roll(4) {
                // Correct a random live record to a random name from
                // the pool (possibly its current one — a no-op update
                // must also preserve exactness).
                0 if !alive.is_empty() => {
                    let target = alive[roll(alive.len())];
                    let fields = vec![names[roll(names.len())].clone()];
                    resolver.update(target, fields).unwrap();
                }
                // Delete a random live record.
                1 if !alive.is_empty() => {
                    let victim = alive.swap_remove(roll(alive.len()));
                    resolver.remove(victim).unwrap();
                }
                // Fresh arrival.
                _ => {
                    if let Some(name) = pending.pop() {
                        alive.push(resolver.insert(SourceId(0), vec![name.clone()]).unwrap().record);
                    }
                }
            }
        }
        let (dense, original) = resolver.live_dataset();
        prop_assert_eq!(dense.len(), alive.len());
        let to_dense: HashMap<RecordId, u32> =
            original.iter().enumerate().map(|(d, &o)| (o, d as u32)).collect();
        let remapped: Vec<ScoredPair> = resolver
            .ranked_pairs()
            .iter()
            .map(|sp| ScoredPair::new(
                Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                sp.likelihood,
            ))
            .collect();
        prop_assert_eq!(remapped, batch_pairs(&dense, thr, 0));
    }

    /// The snapshot contract behind the durability layer: exporting at
    /// any flush boundary and importing into a fresh resolver yields a
    /// replica whose *future* — further arrivals, deletions, updates,
    /// votes, and HIT flushes — is bit-for-bit identical to the
    /// original's.
    #[test]
    fn state_round_trip_preserves_the_future(
        names in proptest::collection::vec("[a-d]{1,2}( [a-d]{1,2}){0,4}", 4..14),
        seed in 0u64..=1_000_000,
        thr in 0.1f64..=0.9,
    ) {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig { threshold: thr, ..StreamConfig::default() },
        );
        let mut state = seed | 1;
        let mut roll = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let split = 1 + roll(names.len() - 1);
        let (prefix, suffix) = names.split_at(split);
        let mut alive: Vec<RecordId> = Vec::new();
        for name in prefix {
            alive.push(resolver.insert(SourceId(0), vec![name.clone()]).unwrap().record);
        }
        for _ in 0..roll(6) {
            let a = roll(resolver.len());
            let b = roll(resolver.len());
            if a != b {
                resolver.record_evidence(Pair::of(a as u32, b as u32), roll(2) == 0, 1.0);
            }
        }
        if !alive.is_empty() && roll(3) == 0 {
            resolver.remove(alive.swap_remove(roll(alive.len()))).unwrap();
        }
        resolver.regenerate_hits().unwrap();
        let exported = resolver.export_state().unwrap();
        let mut replica =
            IncrementalResolver::import_state(resolver.config().clone(), exported).unwrap();
        replica.compact_index();
        // Drive both sides through an identical future.
        let mut futures = [&mut resolver, &mut replica];
        for name in suffix {
            for r in futures.iter_mut() {
                r.insert(SourceId(0), vec![name.clone()]).unwrap();
            }
        }
        let live = alive.clone();
        if !live.is_empty() {
            let target = live[roll(live.len())];
            let fields = vec![names[roll(names.len())].clone()];
            let verdict = roll(2) == 0;
            for r in futures.iter_mut() {
                r.update(target, fields.clone()).unwrap();
                let last = r.len() as u32 - 1;
                if last != target.0 {
                    r.record_evidence(Pair::of(target.0, last), verdict, 0.5);
                }
            }
        }
        for r in futures.iter_mut() {
            r.regenerate_hits().unwrap();
        }
        let [a, b] = futures;
        prop_assert_eq!(a.export_state().unwrap(), b.export_state().unwrap());
    }

    /// Exact revocability: after any burst of signed crowd votes —
    /// commits, vetoes, contradictions, on machine pairs and arbitrary
    /// live pairs alike — retracting every vote restores the clustering
    /// to the machine-only partition, exactly.
    #[test]
    fn retracting_all_evidence_restores_machine_clustering(
        names in proptest::collection::vec("[a-d]{1,2}( [a-d]{1,2}){0,4}", 3..16),
        seed in 0u64..=1_000_000,
        votes in 1usize..=40,
    ) {
        let (mut resolver, _) = stream_and_batch(&names, false, 0.4, 16);
        let baseline = partition_signature(&resolver);
        let mut state = seed | 1;
        let mut roll = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let n = resolver.len() as u32;
        for _ in 0..votes {
            let a = roll(n as usize) as u32;
            let b = roll(n as usize) as u32;
            if a == b {
                continue;
            }
            let verdict = roll(2) == 0;
            let weight = 0.5 + roll(5) as f64 * 0.5;
            resolver.record_evidence(Pair::of(a, b), verdict, weight);
        }
        let touched: Vec<Pair> = resolver.ledger().iter().map(|(p, _)| *p).collect();
        for pair in touched {
            resolver.retract(pair);
        }
        prop_assert!(resolver.ledger().is_empty());
        prop_assert_eq!(partition_signature(&resolver), baseline);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The HIT coverage oracle: after every flush of any script of
    /// arrivals, deletions, updates, votes, retractions and flushes,
    /// every pair awaiting verification (machine-surfaced, neither
    /// committed nor vetoed, both records alive) is covered by a live
    /// HIT; every live HIT's records are alive and share one cluster;
    /// and export → import → export is the identity.
    #[test]
    fn flushes_cover_every_pair_awaiting_verification(
        names in proptest::collection::vec("[a-d]{1,2}( [a-d]{1,2}){0,4}", 6..32),
        seed in 0u64..=1_000_000,
        thr in 0.2f64..=0.7,
        k in 2usize..=6,
    ) {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig { threshold: thr, cluster_size: k, ..StreamConfig::default() },
        );
        let mut state = seed | 1;
        let mut roll = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        let mut alive: Vec<RecordId> = Vec::new();
        let mut pending: Vec<&String> = names.iter().rev().collect();
        for _ in 0..names.len() * 4 {
            match roll(10) {
                0 if !alive.is_empty() => {
                    let victim = alive.swap_remove(roll(alive.len()));
                    resolver.remove(victim).unwrap();
                }
                1 if !alive.is_empty() => {
                    let target = alive[roll(alive.len())];
                    resolver.update(target, vec![names[roll(names.len())].clone()]).unwrap();
                }
                // A vote on a surfaced pair or on any two live records,
                // which can commit a crowd-only edge.
                2..=4 if alive.len() >= 2 => {
                    let pair = if !resolver.pairs().is_empty() && roll(2) == 0 {
                        resolver.pairs()[roll(resolver.pairs().len())].pair
                    } else {
                        let a = alive[roll(alive.len())];
                        let b = alive[roll(alive.len())];
                        if a == b {
                            continue;
                        }
                        Pair::new(a, b).unwrap()
                    };
                    resolver.record_evidence(pair, roll(3) > 0, 0.5 + roll(4) as f64 * 0.5);
                }
                5 | 6 if !resolver.ledger().is_empty() => {
                    let mut voted: Vec<Pair> = resolver.ledger().iter().map(|(p, _)| *p).collect();
                    voted.sort_unstable();
                    resolver.retract(voted[roll(voted.len())]);
                }
                7 => {
                    resolver.regenerate_hits().unwrap();
                    check_flush(&resolver)?;
                }
                _ => {
                    if let Some(name) = pending.pop() {
                        alive.push(resolver.insert(SourceId(0), vec![name.clone()]).unwrap().record);
                    }
                }
            }
        }
        resolver.regenerate_hits().unwrap();
        check_flush(&resolver)?;
    }
}

/// The per-flush invariants of
/// `flushes_cover_every_pair_awaiting_verification`.
fn check_flush(resolver: &IncrementalResolver) -> Result<(), proptest::TestCaseError> {
    let ledger = resolver.ledger();
    for sp in resolver.pairs() {
        let p = sp.pair;
        if ledger.committed(&p)
            || ledger.vetoed(&p)
            || !resolver.is_alive(p.lo())
            || !resolver.is_alive(p.hi())
        {
            continue;
        }
        prop_assert!(
            resolver.live_hits().iter().any(|(_, hit)| hit.covers(&p)),
            "pair {} awaits verification but no live HIT covers it",
            p
        );
    }
    for (id, hit) in resolver.live_hits().iter() {
        let records = hit.records();
        prop_assert!(
            records.iter().all(|&r| resolver.is_alive(r)),
            "{} holds a dead record",
            id
        );
        let cluster = resolver.cluster_of(records[0]);
        prop_assert!(
            records.iter().all(|&r| resolver.cluster_of(r) == cluster),
            "{} spans clusters",
            id
        );
    }
    let exported = resolver.export_state().unwrap();
    let imported =
        IncrementalResolver::import_state(resolver.config().clone(), exported.clone()).unwrap();
    prop_assert_eq!(imported.export_state().unwrap(), exported);
    Ok(())
}

/// Label-independent clustering signature: each live record mapped to
/// the smallest record id in its component.
fn partition_signature(resolver: &IncrementalResolver) -> Vec<(RecordId, RecordId)> {
    let mut members: HashMap<usize, RecordId> = HashMap::new();
    let live: Vec<RecordId> = (0..resolver.len() as u32)
        .map(RecordId)
        .filter(|&r| resolver.is_alive(r))
        .collect();
    for &r in &live {
        let root = resolver.cluster_of(r);
        let entry = members.entry(root).or_insert(r);
        if r < *entry {
            *entry = r;
        }
    }
    live.iter()
        .map(|&r| (r, members[&resolver.cluster_of(r)]))
        .collect()
}

/// Random batch splits are a presentation detail — `insert_batch` is a
/// loop over `insert` — but the claim is worth pinning: the pair set
/// depends only on the final corpus, never on arrival grouping.
#[test]
fn batch_splits_never_change_the_result() {
    let names: Vec<String> = (0..30)
        .map(|i| format!("tok{} tok{} shared common t{}", i % 5, i % 3, i % 7))
        .collect();
    let reference = {
        let (resolver, _) = stream_and_batch(&names, false, 0.3, 8);
        resolver.ranked_pairs()
    };
    for split in [1usize, 3, 7, 11, 30] {
        let mut resolver = IncrementalResolver::new(
            "t",
            vec!["name".into()],
            PairSpace::SelfJoin,
            StreamConfig {
                threshold: 0.3,
                rebuild_min_interval: 8,
                ..StreamConfig::default()
            },
        );
        for chunk in names.chunks(split) {
            resolver
                .insert_batch(chunk.iter().map(|n| (SourceId(0), vec![n.clone()])))
                .unwrap();
        }
        assert_eq!(resolver.ranked_pairs(), reference, "split {split}");
    }
}

/// A realistic corpus slice end-to-end: the first 160 Restaurant
/// records streamed one at a time across several thresholds, with
/// epochs forced often enough to exercise rebuilds.
#[test]
fn restaurant_slice_matches_batch() {
    let full = restaurant(&RestaurantConfig::default());
    let slice: Vec<&crowder_types::Record> = full.records().iter().take(160).collect();
    for thr in [0.3, 0.5, 0.7] {
        let mut dataset = Dataset::new("restaurant", full.schema.clone(), full.pair_space);
        let mut resolver = IncrementalResolver::new(
            "restaurant",
            full.schema.clone(),
            full.pair_space,
            StreamConfig {
                threshold: thr,
                rebuild_min_interval: 40,
                ..StreamConfig::default()
            },
        );
        for r in &slice {
            dataset.push_record(r.source, r.fields.clone()).unwrap();
            resolver.insert(r.source, r.fields.clone()).unwrap();
        }
        assert!(resolver.epochs() >= 1, "threshold {thr}: epochs must fire");
        assert_eq!(
            resolver.ranked_pairs(),
            batch_pairs(&dataset, thr, 0),
            "threshold {thr}"
        );
    }
}
