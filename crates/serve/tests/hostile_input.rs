//! Degenerate inputs through the whole serving stack: a service that
//! never ingests anything, and a single record longer than `u16::MAX`
//! tokens, through ingest, resolve, a clean close and recovery.

use crowder_durable::{digest, DurabilityConfig, DurableResolver, MemDir};
use crowder_serve::{ResolverService, ServeConfig};
use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Pair, PairSpace, RecordId, SourceId};

fn stream_config() -> StreamConfig {
    StreamConfig {
        threshold: 0.35,
        ..StreamConfig::default()
    }
}

fn create(dir: &MemDir) -> DurableResolver<MemDir> {
    DurableResolver::create(
        dir.clone(),
        "serve",
        vec!["name".into()],
        PairSpace::SelfJoin,
        stream_config(),
        DurabilityConfig::default(),
    )
    .unwrap()
}

#[test]
fn a_service_over_an_empty_corpus_answers_and_shuts_down() {
    let service = ResolverService::in_memory(
        IncrementalResolver::new(
            "serve",
            vec!["name".into()],
            PairSpace::SelfJoin,
            stream_config(),
        ),
        ServeConfig::default(),
    );
    let view = service
        .resolve(SourceId(0), vec!["apple ipad 16gb".into()])
        .unwrap();
    assert!(view.matches.is_empty(), "{:?}", view.matches);
    assert!(view.clusters.is_empty());
    assert_eq!((view.applied_ops, view.live_records), (0, 0));
    // An empty query over an empty corpus is no error either.
    let view = service.resolve(SourceId(0), vec![String::new()]).unwrap();
    assert!(view.matches.is_empty());
    assert_eq!(service.queue_depth(), 0);
    let report = service.shutdown().unwrap();
    assert_eq!(report.applied_ops, 0);
    assert!(report.final_flush.created.is_empty());
    assert_eq!(report.resolver.len(), 0);
}

#[test]
fn a_record_past_sixteen_bits_of_tokens_is_matched_and_recovered() {
    // 70,001 distinct tokens: the record's length does not fit in 16
    // bits, so a posting that narrowed it would sit in the wrong length
    // run, outside every copy's length window.
    let giant = (0..=70_000)
        .map(|i| format!("t{i}"))
        .collect::<Vec<_>>()
        .join(" ");
    let dir = MemDir::new();
    let service = ResolverService::durable(create(&dir), ServeConfig::default());
    let receipt = service
        .ingest(vec![
            (SourceId(0), vec!["apple ipad 16gb".into()]),
            (SourceId(0), vec![giant.clone()]),
        ])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(receipt.records, vec![RecordId(0), RecordId(1)]);
    let view = service.resolve(SourceId(0), vec![giant.clone()]).unwrap();
    assert_eq!(view.matches.len(), 1, "{:?}", view.matches);
    assert_eq!(view.matches[0].record, RecordId(1));
    assert_eq!(view.matches[0].similarity, 1.0);
    // A copy arrives and joins the giant record.
    service
        .ingest(vec![(SourceId(0), vec![giant.clone()])])
        .unwrap()
        .wait()
        .unwrap();
    let closed = service.shutdown().unwrap().resolver;
    let pairs: Vec<(Pair, f64)> = closed
        .ranked_pairs()
        .iter()
        .map(|sp| (sp.pair, sp.likelihood))
        .collect();
    assert_eq!(pairs, vec![(Pair::of(1, 2), 1.0)]);
    // The closed directory recovers to the same state, and the
    // recovered resolver still matches the giant record.
    let (mut recovered, _) =
        DurableResolver::recover(dir, stream_config(), DurabilityConfig::default()).unwrap();
    assert_eq!(recovered.digest(), digest(&closed));
    let report = recovered.insert(SourceId(0), vec![giant]).unwrap();
    let found: Vec<Pair> = report.new_pairs.iter().map(|sp| sp.pair).collect();
    assert_eq!(found, vec![Pair::of(1, 3), Pair::of(2, 3)]);
}
