//! `stream-giant`: an in-memory `IncrementalResolver` at τ = 0.2 (the
//! `StreamConfig` default) on Product ×4, driven single-threaded in
//! rounds of 64 arrivals. After each round's arrivals a seeded mutation
//! mix runs — removes, updates, gold-verdict evidence votes on surfaced
//! pairs and retractions — and then `regenerate_hits`. At τ = 0.2 the
//! candidate graph has a giant component, so every round dirties it.
//!
//! A pass streams a whole corpus through a fresh resolver; the run
//! makes one pass per corpus in a closed loop, cycling over its corpora.
//! Passes over one corpus run the same script, so their final states
//! must agree, and each corpus's final pairs must equal a batch
//! `prefix_join` over its live records.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crowder_stream::{IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, Pair, RecordId, ScoredPair, SourceId};

use crate::corpus::{
    largest_component_share, machine_pairs, pair_digest, product_x, sub_seeds, Rng,
};
use crate::stats::{highest_supported, median, percentile};
use crate::trace::{Tracer, BENCH};
use crate::{Args, Outcome, SETUPS};

const SCALE: usize = 4;
/// Corpora per run, each from its own sub-seed: a pass's cost depends
/// on its corpus's giant component, so a run averages over several.
const CORPORA: usize = 4;
/// Arrivals per round (the `StreamingConfig` default).
const ROUND: usize = 64;
/// The mutation mix after each round's arrivals.
const REMOVES: usize = 6;
const UPDATES: usize = 3;
const VOTES: usize = 16;
const RETRACTS: usize = 2;
/// Round-time tail quantile.
const TAIL: [f64; 1] = [0.9];

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    wall: Duration,
    ops: u64,
    failed: u64,
    insert_us: Vec<f64>,
    round_ms: Vec<f64>,
    inserts: u64,
    reranks: u64,
    removes: u64,
    updates: u64,
    votes: u64,
    retracts: u64,
    regens: u64,
    candidates: u64,
    dirty: u64,
    hits_created: u64,
    splits: u64,
}

/// Replace one word of the name (or add one to a one-word name): the
/// in-place correction an update applies.
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

/// Stream the corpus once through a fresh resolver.
fn pass(
    corpus: &Dataset,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Pass, IncrementalResolver), String> {
    let mut res = IncrementalResolver::like(corpus, StreamConfig::default());
    let arrivals: Vec<(SourceId, Vec<String>)> = corpus
        .records()
        .iter()
        .map(|r| (r.source, r.fields.clone()))
        .collect();
    let mut rng = Rng::new(seed);
    let mut p = Pass::default();
    let mut live: Vec<RecordId> = Vec::new();
    let mut voted: Vec<Pair> = Vec::new();
    let mut arrivals = arrivals.into_iter().peekable();
    let mut round = 0u64;
    while arrivals.peek().is_some() {
        let start = Instant::now();
        tr.span(BENCH, "round", round, |tr| -> Result<(), String> {
            for (source, fields) in arrivals.by_ref().take(ROUND) {
                let t = Instant::now();
                let rep = tr
                    .span("stream", "insert", round, |_| res.insert(source, fields))
                    .map_err(|e| e.to_string())?;
                p.insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                if rep.rebuilt_index {
                    tr.rename_last("insert_rerank");
                    p.reranks += 1;
                }
                p.inserts += 1;
                p.candidates += rep.stats.candidates;
                live.push(rep.record);
            }
            for _ in 0..REMOVES.min(live.len()) {
                let record = live.swap_remove(rng.below(live.len()));
                match tr.span("stream", "remove", round, |_| res.remove(record)) {
                    Ok(rep) => p.splits += rep.splits as u64,
                    Err(_) => p.failed += 1,
                }
                p.removes += 1;
            }
            for _ in 0..UPDATES.min(live.len()) {
                let record = live[rng.below(live.len())];
                let fields = corrected(&res.dataset().records()[record.index()].fields, &mut rng);
                match tr.span("stream", "update", round, |_| res.update(record, fields)) {
                    Ok(rep) => p.splits += rep.splits as u64,
                    Err(_) => p.failed += 1,
                }
                p.updates += 1;
            }
            for _ in 0..VOTES {
                let surfaced = res.pairs();
                if surfaced.is_empty() {
                    break;
                }
                let pair = surfaced[rng.below(surfaced.len())].pair;
                let verdict = corpus.gold.is_match(&pair);
                let rep = tr.span("stream", "record_evidence", round, |_| {
                    res.record_evidence(pair, verdict, 1.0)
                });
                p.splits += rep.split as u64;
                voted.push(pair);
                p.votes += 1;
            }
            for _ in 0..RETRACTS.min(voted.len()) {
                let pair = voted.swap_remove(rng.below(voted.len()));
                let rep = tr.span("stream", "retract", round, |_| res.retract(pair));
                p.splits += rep.split as u64;
                p.retracts += 1;
            }
            p.dirty += res.dirty_clusters() as u64;
            let delta = tr
                .span("stream", "regenerate_hits", round, |_| {
                    res.regenerate_hits()
                })
                .map_err(|e| e.to_string())?;
            p.hits_created += delta.created.len() as u64;
            p.regens += 1;
            Ok(())
        })?;
        let wall = start.elapsed();
        p.round_ms.push(wall.as_secs_f64() * 1e3);
        p.wall += wall;
        round += 1;
    }
    p.ops = p.inserts + p.removes + p.updates + p.votes + p.retracts + p.regens;
    Ok((p, res))
}

/// The resolver's final pairs must equal a batch join over its live
/// corpus (ids re-numbered densely). Returns the batch pairs.
fn check_exact(res: &IncrementalResolver) -> (Result<(), String>, Dataset, Vec<ScoredPair>) {
    let (dense, original) = res.live_dataset();
    let to_dense: HashMap<RecordId, u32> = original
        .iter()
        .enumerate()
        .map(|(d, &o)| (o, d as u32))
        .collect();
    let streamed: Vec<ScoredPair> = res
        .ranked_pairs()
        .iter()
        .map(|sp| {
            ScoredPair::new(
                Pair::of(to_dense[&sp.pair.lo()], to_dense[&sp.pair.hi()]),
                sp.likelihood,
            )
        })
        .collect();
    let batch = machine_pairs(&dense, res.threshold());
    let result = if streamed == batch {
        Ok(())
    } else {
        Err(format!(
            "streamed {} pairs, batch join {} (digests {:x} vs {:x})",
            streamed.len(),
            batch.len(),
            pair_digest(&streamed),
            pair_digest(&batch)
        ))
    };
    (result, dense, batch)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut corpora = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        // Free the previous set-up's corpora first, so later set-ups
        // reuse their memory instead of faulting in fresh pages.
        corpora.clear();
        let t = Instant::now();
        corpora = sub_seeds(args.seed, CORPORA)
            .map(|s| (s, product_x(SCALE, s)))
            .collect();
        out.setups_s.push(t.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new(args.trace, Instant::now(), 0);
    let (mut untraced, mut traced) = (Vec::<Pass>::new(), Vec::<Pass>::new());
    let mut spent = Duration::ZERO;
    let mut digests: Vec<Option<u64>> = vec![None; corpora.len()];
    let (mut stable, mut exact) = (Ok(()), Ok(()));
    // (live records, machine pairs, largest-component share) per corpus.
    let mut shape: Vec<(usize, usize, f64)> = Vec::new();
    let mut cycle = Duration::ZERO;
    // Whole cycles, one pass per corpus, while the next cycle fits in
    // `--seconds`; a traced run stops after the corpus that reaches it.
    'cycles: while shape.is_empty() || spent + cycle <= Duration::from_secs_f64(args.seconds) {
        let before = spent;
        for (k, (seed, corpus)) in corpora.iter().enumerate() {
            if args.trace && spent.as_secs_f64() >= args.seconds {
                break 'cycles;
            }
            // The traced run follows each untraced pass with a traced one
            // on the same corpus, so the overhead compares like with like.
            let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &traced_now in passes {
                let mut off = Tracer::new(false, Instant::now(), 0);
                if traced_now {
                    crowder_obs::install_recorder();
                }
                let r = pass(corpus, *seed, if traced_now { &mut tr } else { &mut off });
                crowder_obs::pause_recorder();
                let (p, res) = r?;
                spent += p.wall;
                // Output checks, outside the timed region.
                let digest = pair_digest(&res.ranked_pairs());
                match digests[k] {
                    None => {
                        digests[k] = Some(digest);
                        let (result, dense, batch) = check_exact(&res);
                        if let Err(e) = result {
                            exact = Err(format!("corpus {k}: {e}"));
                        }
                        let pairs: Vec<Pair> = batch.iter().map(|sp| sp.pair).collect();
                        shape.push((
                            dense.len(),
                            batch.len(),
                            largest_component_share(dense.len(), &pairs),
                        ));
                    }
                    Some(d) if d != digest => {
                        stable = Err(format!("corpus {k}: digest {digest:x} != {d:x}"))
                    }
                    Some(_) => {}
                }
                if traced_now {
                    traced.push(p);
                } else {
                    untraced.push(p);
                }
            }
        }
        cycle = spent - before;
    }
    out.check("final_pairs_equal_batch_join", exact);
    out.check("passes_agree", stable);

    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    out.attempted = all.iter().map(|p| p.ops).sum();
    out.failed = all.iter().map(|p| p.failed).sum();
    let first = all[0];
    let k = shape.len() as f64;
    out.prop("corpora", shape.len());
    out.prop("records_per_corpus", corpora[0].1.len());
    out.prop(
        "gold_pairs_mean",
        corpora.iter().map(|(_, c)| c.gold.len()).sum::<usize>() as f64 / corpora.len() as f64,
    );
    out.prop("threshold", StreamConfig::default().threshold);
    out.prop(
        "live_records_mean",
        shape.iter().map(|s| s.0 as f64).sum::<f64>() / k,
    );
    out.prop(
        "machine_pairs_mean",
        shape.iter().map(|s| s.1 as f64).sum::<f64>() / k,
    );
    out.prop(
        "largest_component_share_mean",
        format!("{:.4}", shape.iter().map(|s| s.2).sum::<f64>() / k),
    );
    for (name, value) in [
        ("inserts_per_pass", first.inserts),
        ("reranks_per_pass", first.reranks),
        ("removes_per_pass", first.removes),
        ("updates_per_pass", first.updates),
        ("votes_per_pass", first.votes),
        ("retracts_per_pass", first.retracts),
        ("rounds_per_pass", first.regens),
    ] {
        out.prop(name, value);
    }
    out.prop("passes", all.len());

    let wall: Duration = untraced.iter().map(|p| p.wall).sum();
    let stream_ops_per_s = untraced.iter().map(|p| p.ops).sum::<u64>() as f64 / wall.as_secs_f64();
    let insert_us: Vec<f64> = untraced.iter().flat_map(|p| p.insert_us.clone()).collect();
    let round_ms: Vec<f64> = untraced.iter().flat_map(|p| p.round_ms.clone()).collect();
    let round_p50 = median(&round_ms);
    let round_tail = highest_supported(&round_ms, &TAIL).map_or(f64::NAN, |(_, v)| v);
    out.detail("stream_ops_per_s", stream_ops_per_s, "ops/s");
    out.detail("insert_p50_us", median(&insert_us), "us");
    out.detail(
        "insert_p99_us",
        percentile(&insert_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    out.detail("round_p50_ms", round_p50, "ms");
    out.detail("round_p90_ms", round_tail, "ms");
    out.detail(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );

    if args.trace {
        let spans = tr.into_spans();
        let wall: Duration = traced.iter().map(|p| p.wall).sum();
        let wall_ns = wall.as_nanos() as u64;
        let rows = crate::trace::table(&spans);
        let share = |names: &[&str]| {
            names
                .iter()
                .filter_map(|n| rows.get(&("stream", *n)))
                .map(|r| r.self_ns as f64)
                .sum::<f64>()
                / wall_ns.max(1) as f64
        };
        let sum = |f: fn(&Pass) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let rounds = sum(|p| p.regens).max(1.0);
        let l = &mut out.layers;
        l.insert("stream.insert.share", share(&["insert"]));
        l.insert("stream.rerank_insert.share", share(&["insert_rerank"]));
        l.insert(
            "stream.candidates_per_insert",
            sum(|p| p.candidates) / sum(|p| p.inserts).max(1.0),
        );
        l.insert("stream.remove.share", share(&["remove"]));
        l.insert("stream.update.share", share(&["update"]));
        l.insert(
            "stream.evidence.share",
            share(&["record_evidence", "retract"]),
        );
        l.insert("stream.regen.share", share(&["regenerate_hits"]));
        l.insert("stream.dirty_clusters", sum(|p| p.dirty) / rounds);
        l.insert("stream.hits_created", sum(|p| p.hits_created) / rounds);
        l.insert("stream.splits", sum(|p| p.splits) / rounds);
        let wall_of =
            |ps: &[Pass]| median(&ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
        l.insert("obs.trace_overhead", wall_of(&traced) / wall_of(&untraced));
        out.trace = Some((wall_ns, spans));
    } else {
        out.end_to_end = vec![
            ("throughput_per_s", stream_ops_per_s),
            ("latency_p50_ms", round_p50),
            ("latency_tail_ms", round_tail),
        ];
    }
    Ok(out)
}
