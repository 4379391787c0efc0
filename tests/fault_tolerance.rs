//! Fault tolerance across the whole stack: wrong crowd answers are
//! revoked by contradicting evidence (merge → decommit → split, with
//! HITs regenerated), adversarial worker profiles cannot push the
//! committed edge set far from gold, and mid-run record deletions and
//! evidence retractions leave every invariant intact.

use crowder::prelude::*;

/// The *last* `n` Restaurant records (ids remapped to 0..n): the
/// generator appends duplicated entities after the unique ones, so the
/// tail is where the matching pairs live.
fn restaurant_slice(n: usize) -> Dataset {
    let full = restaurant(&RestaurantConfig::default());
    let start = full.len() - n;
    let mut slice = Dataset::new(full.name.clone(), full.schema.clone(), full.pair_space);
    for r in full.records().iter().skip(start) {
        slice.push_record(r.source, r.fields.clone()).unwrap();
    }
    for pair in full.gold.iter() {
        if pair.lo().index() >= start {
            slice.gold.insert(Pair::of(
                (pair.lo().index() - start) as u32,
                (pair.hi().index() - start) as u32,
            ));
        }
    }
    assert!(!slice.gold.is_empty(), "tail slice must contain gold pairs");
    slice
}

/// The PR's demo scenario, end to end on the resolver: a wrong "yes"
/// commits an edge between two unrelated clusters and they merge; the
/// merged cluster's HITs replace both sides'; contradicting evidence
/// then decommits the edge, the cluster splits back, and *both* sides
/// get fresh HITs.
#[test]
fn wrong_merge_is_undone_by_contradicting_evidence() {
    let mut r = IncrementalResolver::new(
        "demo",
        vec!["name".into()],
        PairSpace::SelfJoin,
        StreamConfig {
            threshold: 0.5,
            cluster_size: 6,
            ..StreamConfig::default()
        },
    );
    // Cluster A = {0, 1}, cluster B = {2, 3}; no machine pair crosses.
    for name in ["a b c d", "a b c d e", "x y z w", "x y z w v"] {
        r.insert(SourceId(0), vec![name.into()]).unwrap();
    }
    assert_eq!(r.cluster_count(), 2);
    let initial = r.regenerate_hits().unwrap();
    assert!(initial.created.len() >= 2, "each cluster publishes HITs");
    assert_ne!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));

    // A wrong "yes" vote clears the commit margin: the edge commits and
    // the clusters merge.
    let bridge = Pair::of(1, 2);
    let rep = r.record_evidence(bridge, true, 1.0);
    assert!(rep.committed && rep.merged, "{rep:?}");
    assert_eq!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));
    assert!(r.committed_pairs().contains(&bridge));
    let merged = r.regenerate_hits().unwrap();
    assert!(
        merged.retired.is_empty() && merged.created.is_empty(),
        "the merge must keep both clusters' HITs, which still cover their pairs: {merged:?}"
    );
    for id in &initial.created {
        assert!(r.live_hits().get(*id).is_some(), "{id} survives the merge");
    }

    // Contradicting answers accumulate: net evidence falls below the
    // commit margin, the edge decommits, and the cluster splits.
    let rep = r.record_evidence(bridge, false, 1.5);
    assert!(rep.decommitted && rep.split, "{rep:?}");
    assert_ne!(r.cluster_of(RecordId(0)), r.cluster_of(RecordId(3)));
    assert!(!r.committed_pairs().contains(&bridge));
    let split = r.regenerate_hits().unwrap();
    assert!(
        split.retired.is_empty() && split.created.is_empty(),
        "no HIT spans the cut, so the split must keep every HIT: {split:?}"
    );
    for id in &initial.created {
        let hit = r.live_hits().get(*id).expect("HIT survives the split");
        let records = hit.records();
        assert!(
            records
                .iter()
                .all(|&x| r.cluster_of(x) == r.cluster_of(records[0])),
            "{id} sits inside one side"
        );
    }
}

/// Adversarial worker profiles — the systematic liar, the random
/// flipper, and the sleeper who turns after building reputation — run
/// through the full streaming workflow. Dawid–Skene weighting plus the
/// commit margin must keep the wrong-merge count bounded: adversaries
/// are outvoted pair by pair, and estimated-low-quality workers carry
/// (almost) no evidence weight.
#[test]
fn adversarial_crowds_cause_few_wrong_merges() {
    let dataset = restaurant_slice(150);
    let config = StreamingConfig {
        likelihood_threshold: 0.5,
        cluster_size: 6,
        batch_size: 30,
        ..StreamingConfig::default()
    };
    for (name, pop) in [
        (
            "liars",
            PopulationConfig {
                liar_fraction: 0.15,
                ..PopulationConfig::default()
            },
        ),
        (
            "flippers",
            PopulationConfig {
                flipper_fraction: 0.15,
                ..PopulationConfig::default()
            },
        ),
        (
            "sleepers",
            PopulationConfig {
                sleeper_fraction: 0.15,
                sleeper_onset: 5,
                ..PopulationConfig::default()
            },
        ),
        (
            "mixed",
            PopulationConfig {
                liar_fraction: 0.05,
                flipper_fraction: 0.05,
                sleeper_fraction: 0.05,
                ..PopulationConfig::default()
            },
        ),
    ] {
        let population = WorkerPopulation::generate(&pop, 13);
        let out = run_streaming(&dataset, &population, &config).unwrap();
        let committed = out.resolver.committed_pairs();
        let wrong = out.wrong_merges(&dataset.gold);
        assert!(
            !committed.is_empty(),
            "{name}: the crowd must still commit true edges"
        );
        assert!(
            wrong.len() * 10 <= committed.len() + 10,
            "{name}: {} wrong merges survive among {} committed edges",
            wrong.len(),
            committed.len()
        );
    }
}

/// Fault plan + time-boxed sessions together: deletions and
/// retractions mid-run, carried-over assignments across HIT
/// regenerations — and the live corpus still matches a batch join.
#[test]
fn churn_with_deadlines_preserves_exactness_and_delivers_carried_work() {
    let dataset = restaurant_slice(150);
    let population = WorkerPopulation::generate(&PopulationConfig::default(), 13);
    let config = StreamingConfig {
        likelihood_threshold: 0.5,
        cluster_size: 6,
        batch_size: 30,
        crowd: CrowdConfig {
            session_deadline_min: Some(3.0),
            ..CrowdConfig::default()
        },
        faults: FaultPlan {
            deletions: vec![(1, RecordId(5)), (2, RecordId(40)), (3, RecordId(70))],
            retractions: vec![(2, Pair::of(0, 1)), (3, Pair::of(20, 21))],
        },
        ..StreamingConfig::default()
    };
    let out = run_streaming(&dataset, &population, &config).unwrap();
    assert_eq!(out.resolver.removed(), 3);
    assert_eq!(out.rounds.iter().map(|r| r.deleted).sum::<usize>(), 3);
    // Tight deadlines must actually exercise the carry-over path, and
    // carried answers are delivered, not dropped.
    assert!(
        out.rounds.iter().any(|r| r.carried_assignments > 0),
        "no assignments carried: {:?}",
        out.rounds
            .iter()
            .map(|r| (r.assignments, r.carried_assignments))
            .collect::<Vec<_>>()
    );
    // Exactness under deletions: remap through the dense live corpus.
    let (dense, original) = out.resolver.live_dataset();
    assert_eq!(dense.len(), dataset.len() - 3);
    let to_dense: std::collections::HashMap<RecordId, u32> = original
        .iter()
        .enumerate()
        .map(|(d, &o)| (o, d as u32))
        .collect();
    let remapped: Vec<ScoredPair> = out
        .resolver
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
    assert_eq!(remapped, prefix_join(&dense, &tokens, 0.5, 0));
}
