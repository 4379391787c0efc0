//! The streaming hybrid workflow: record arrivals interleaved with
//! crowd sessions, record deletions, and revocable crowd evidence.
//!
//! The batch workflow ([`run_hybrid`](crate::run_hybrid)) is one pass of
//! Figure 1: machine-prune everything, publish every HIT, wait for the
//! crowd. A live deployment receives records continuously, so here the
//! pipeline runs in *rounds*: each round ingests an arrival batch
//! through the [`IncrementalResolver`] (delta join + dynamic
//! clustering), applies any injected faults (mid-session deletions,
//! evidence retractions — see [`FaultPlan`]), regenerates HITs only for
//! the clusters that moved, and sends just the newly published HITs to
//! a simulated crowd session — the interleaving regime of
//! fault-tolerant crowd ER (Gruenheid et al. 2015).
//!
//! Crowd answers do double duty. They accumulate as votes for the final
//! Dawid–Skene/majority aggregation (the batch workflow's stage 4), and
//! they feed the resolver's **signed evidence ledger** round by round:
//! each verdict is weighted by the worker's current Dawid–Skene quality
//! estimate (Youden's J — see [`crowder_stream::vote_weight`]) and can
//! commit, decommit, or veto a cluster edge. A wrong "yes" that merged
//! two clusters is undone as soon as contradicting answers outweigh it:
//! the cluster splits and both sides get fresh HITs at the next flush.
//!
//! With [`CrowdConfig::session_deadline_min`] set, a round's session
//! stops at the deadline and its unfinished-but-accepted assignments
//! *carry over*: their answers address pairs, not HIT ids, so they are
//! delivered in the next round even when their HITs were retired by a
//! regeneration in between — no crowd work is ever dropped.

use crowder_aggregate::{DawidSkene, Vote};
use crowder_crowd::{
    labeled_triples_of, simulate_session, AssignmentRecord, CrowdConfig, SessionState, WorkerId,
    WorkerPopulation,
};
use crowder_durable::{DurabilityConfig, DurableResolver, FsDir};
use crowder_hitgen::Hit;
use crowder_simjoin::JoinStats;
use crowder_stream::{vote_weight, EvidenceConfig, IncrementalResolver, StreamConfig};
use crowder_types::{Dataset, Error, Pair, RecordId, Result, ScoredPair};
use std::collections::HashMap;
use std::path::PathBuf;

use crate::workflow::Aggregation;

/// Faults injected into a streaming run, keyed by round index.
///
/// Deletions and retractions are applied *after* the round's arrivals
/// are ingested and *before* its HITs regenerate, so the flush that
/// follows sees the damage (splits, shrunk clusters) immediately.
/// Adversarial worker behaviour is injected through the population
/// instead (see `crowder_crowd::PopulationConfig`'s liar/flipper/
/// sleeper fractions).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(round, record)`: tombstone `record` during `round`. The record
    /// must have arrived by then and not be already deleted — a plan
    /// that violates this errors the run (it is a harness bug, not a
    /// simulated fault).
    pub deletions: Vec<(usize, RecordId)>,
    /// `(round, pair)`: purge all crowd evidence for `pair` during
    /// `round`. Unknown pairs are a no-op, as in the live system.
    pub retractions: Vec<(usize, Pair)>,
}

impl FaultPlan {
    /// True iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.deletions.is_empty() && self.retractions.is_empty()
    }
}

/// Opt-in durability for a streaming run: where the write-ahead log
/// and snapshots live, and how often they are synced.
///
/// Every resolver mutation the workflow performs — arrivals, fault-plan
/// deletions and retractions, evidence votes (each with the weight it
/// was applied with), HIT flushes — goes through one
/// [`DurableResolver`]. With this set, the engine logs each of them
/// before the round proceeds and the run ends with a checkpoint, so a
/// crashed process recovers via [`DurableResolver::recover`] to a state
/// bit-for-bit consistent with the acknowledged prefix of the run. Without it the engine is
/// [`DurableResolver::in_memory`]: the same calls, with no WAL frame
/// encoded, nothing synced and no checkpoint written.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory for `wal.log` and snapshots. Created if absent; must
    /// not already contain a log (recover instead of re-running).
    pub dir: PathBuf,
    /// Group-commit and checkpoint cadences.
    pub config: DurabilityConfig,
}

impl DurabilityOptions {
    /// Default cadences in the given directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            config: DurabilityConfig::default(),
        }
    }
}

/// Configuration of the streaming workflow.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Machine-pass likelihood threshold (pairs below are pruned).
    pub likelihood_threshold: f64,
    /// Cluster-size threshold `k`.
    pub cluster_size: usize,
    /// Records ingested per round.
    pub batch_size: usize,
    /// Crowd-platform parameters; each round derives its seed from
    /// `crowd.seed` plus the round index so sessions are independent
    /// but deterministic. Set `crowd.session_deadline_min` to make
    /// rounds time-boxed, with unfinished assignments carried over.
    pub crowd: CrowdConfig,
    /// Answer aggregation across all rounds. Also the source of the
    /// per-round evidence weights: under Dawid–Skene, each worker's
    /// votes weigh Youden's J of their estimated quality; under
    /// majority vote, every vote weighs 1.
    pub aggregation: Aggregation,
    /// Arrivals between dictionary re-rank epochs (see
    /// [`StreamConfig::rebuild_min_interval`]).
    pub rebuild_min_interval: usize,
    /// Commit/veto margins of the resolver's evidence ledger.
    pub evidence: EvidenceConfig,
    /// Injected faults (none by default).
    pub faults: FaultPlan,
    /// Write-ahead logging + snapshots (off by default; see
    /// [`DurabilityOptions`]).
    pub durability: Option<DurabilityOptions>,
}

impl Default for StreamingConfig {
    /// The batch workflow's §7.3 configuration, streamed 64 records at
    /// a time, fault-free.
    fn default() -> Self {
        StreamingConfig {
            likelihood_threshold: 0.2,
            cluster_size: 10,
            batch_size: 64,
            crowd: CrowdConfig::default(),
            aggregation: Aggregation::DawidSkene,
            rebuild_min_interval: 256,
            evidence: EvidenceConfig::default(),
            faults: FaultPlan::default(),
            durability: None,
        }
    }
}

/// The per-round funnel: what one arrival batch did to every stage of
/// the pipeline.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Records ingested this round.
    pub arrived: usize,
    /// Records tombstoned this round (fault plan).
    pub deleted: usize,
    /// Evidence retractions applied this round (fault plan).
    pub retracted: usize,
    /// Pairs the delta joins surfaced this round.
    pub new_pairs: usize,
    /// Summed filter funnel of this round's delta joins.
    pub join_stats: JoinStats,
    /// Dictionary re-rank epochs triggered this round.
    pub index_rebuilds: u64,
    /// Clusters dirtied by this round's mutations (before the flush).
    pub dirty_clusters: usize,
    /// HITs retired by the flush.
    pub hits_retired: usize,
    /// HITs newly published by the flush.
    pub hits_created: usize,
    /// Live HITs the flush left untouched (stable ids).
    pub hits_stable: usize,
    /// Crowd assignments completed within this round's session.
    pub assignments: usize,
    /// Assignments accepted in an *earlier* round's session and
    /// delivered this round (their HITs may no longer exist).
    pub carried_assignments: usize,
    /// Edges the round's evidence committed into the cluster graph.
    pub edges_committed: usize,
    /// Edges the round's evidence (or retractions) decommitted.
    pub edges_decommitted: usize,
    /// Cluster merges this round (arrivals + committed evidence).
    pub cluster_merges: usize,
    /// Cluster splits this round (deletions + decommits + vetoes).
    pub cluster_splits: usize,
    /// Cost of this round's crowd work (completed + delivered).
    pub cost_dollars: f64,
    /// Latency of this round's crowd session.
    pub elapsed_minutes: f64,
    /// Corpus size after the round (deleted records included).
    pub corpus: usize,
    /// Live surfaced pairs after the round.
    pub cumulative_pairs: usize,
}

/// Everything the streaming workflow produced.
#[derive(Debug, Clone)]
pub struct StreamingOutcome {
    /// One report per round, in order.
    pub rounds: Vec<RoundReport>,
    /// Final ranked list: crowd-verified pairs by aggregated posterior
    /// (the same shape as the batch workflow's `ranked`).
    pub ranked: Vec<ScoredPair>,
    /// Total crowd spend across rounds.
    pub total_cost_dollars: f64,
    /// Total assignments across rounds (carried work counted once, at
    /// delivery).
    pub total_assignments: usize,
    /// HITs retired by the final post-loop flush (clusters the last
    /// round's evidence touched).
    pub final_hits_retired: usize,
    /// HITs created by the final post-loop flush.
    pub final_hits_created: usize,
    /// The resolver in its final state (corpus, pairs, clusters,
    /// evidence ledger, live HITs).
    pub resolver: IncrementalResolver,
}

impl StreamingOutcome {
    /// Pairs whose aggregated posterior clears 0.5.
    pub fn matching_pairs(&self) -> Vec<crowder_types::Pair> {
        self.ranked
            .iter()
            .filter(|sp| sp.likelihood > 0.5)
            .map(|sp| sp.pair)
            .collect()
    }

    /// Crowd-committed pairs that are *not* gold matches — the wrong
    /// merges surviving in the final cluster graph. The fault-injection
    /// suite bounds this under adversarial populations.
    pub fn wrong_merges(&self, gold: &crowder_types::GoldStandard) -> Vec<Pair> {
        self.resolver
            .committed_pairs()
            .into_iter()
            .filter(|p| !gold.is_match(p))
            .collect()
    }
}

/// Add `triples` to the vote pool, weigh each worker by the pool's
/// current quality estimate, and record every verdict as signed
/// evidence.
fn record_verdicts(
    engine: &mut DurableResolver<FsDir>,
    votes: &mut Vec<Vote>,
    triples: &[(Pair, WorkerId, bool)],
    aggregation: Aggregation,
) -> Result<Vec<crowder_stream::EvidenceReport>> {
    votes.extend(triples.iter().map(|&(p, w, v)| (p, w.0 as usize, v)));
    let weights = worker_weights(votes, aggregation)?;
    let _stage = crowder_obs::span!("core.stream.evidence_ns");
    triples
        .iter()
        .map(|&(pair, worker, verdict)| {
            let weight = weights.get(&(worker.0 as usize)).copied().unwrap_or(1.0);
            engine.record_evidence(pair, verdict, weight)
        })
        .collect()
}

/// Per-worker evidence weights from the current vote pool.
fn worker_weights(votes: &[Vote], aggregation: Aggregation) -> Result<HashMap<usize, f64>> {
    match aggregation {
        // Majority vote: every worker weighs 1 (the ledger's margins do
        // all the filtering).
        Aggregation::MajorityVote => Ok(HashMap::new()),
        Aggregation::DawidSkene => {
            if votes.is_empty() {
                return Ok(HashMap::new());
            }
            let outcome = DawidSkene::default().run(votes)?;
            Ok(outcome
                .worker_quality
                .iter()
                .map(|(&w, q)| (w, vote_weight(q.sensitivity, q.specificity)))
                .collect())
        }
    }
}

/// Stream `dataset`'s records (in id order, `batch_size` per round)
/// through an [`IncrementalResolver`], interleaving each round with a
/// crowd session over the newly regenerated HITs, evidence recording,
/// and any injected faults.
///
/// Fault-free, the final corpus equals `dataset`, so the resolver's
/// pair set is bit-identical to what the batch workflow's machine pass
/// would produce — the exactness contract of `crowder-stream`. With
/// deletions, the contract holds over the live corpus.
pub fn run_streaming(
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &StreamingConfig,
) -> Result<StreamingOutcome> {
    if !(0.0..=1.0).contains(&config.likelihood_threshold) {
        return Err(Error::InvalidConfig {
            param: "likelihood_threshold",
            message: format!("must be in [0, 1], got {}", config.likelihood_threshold),
        });
    }
    if config.batch_size == 0 {
        return Err(Error::InvalidConfig {
            param: "batch_size",
            message: "must be at least 1".into(),
        });
    }
    let mut resolver = IncrementalResolver::like(
        dataset,
        StreamConfig {
            threshold: config.likelihood_threshold,
            cluster_size: config.cluster_size,
            rebuild_min_interval: config.rebuild_min_interval,
            evidence: config.evidence,
        },
    );
    // The resolver sees gold labels as they would arrive in a live
    // system; the crowd simulator needs them up front.
    *resolver.gold_mut() = dataset.gold.clone();
    let mut engine = match &config.durability {
        None => DurableResolver::in_memory(resolver),
        Some(opts) => DurableResolver::create_with(FsDir::new(&opts.dir)?, resolver, opts.config)?,
    };

    let mut rounds = Vec::new();
    let mut votes: Vec<Vote> = Vec::new();
    let mut total_cost = 0.0;
    let mut total_assignments = 0usize;
    let mut crowd_history = SessionState::new();
    let mut pending: Vec<AssignmentRecord> = Vec::new();
    let per_assignment_cost = config.crowd.reward_per_assignment + config.crowd.fee_per_assignment;

    for (round, chunk) in dataset.records().chunks(config.batch_size).enumerate() {
        let _round_timer = crowder_obs::span!("core.stream.round_ns");
        crowder_obs::counter!("core.stream.rounds").incr();
        crowder_obs::mark("core.stream.round", round as u64);
        crowder_obs::counter!("core.stream.records_ingested").add(chunk.len() as u64);

        // Stage 0: deliver last round's in-flight assignments. Their
        // HITs may have been retired since — answers address pairs, so
        // nothing is lost.
        let carried: Vec<AssignmentRecord> = std::mem::take(&mut pending);
        let carried_cost = carried.len() as f64 * per_assignment_cost;

        // Stage 1: ingest the arrivals (delta join + clustering).
        let epochs_before = engine.resolver().epochs();
        let mut join_stats = JoinStats::default();
        let mut new_pairs = 0usize;
        let mut cluster_merges = 0usize;
        let mut cluster_splits = 0usize;
        {
            let _stage = crowder_obs::span!("core.stream.ingest_ns");
            for record in chunk {
                let report = engine.insert(record.source, record.fields.clone())?;
                join_stats.absorb(&report.stats);
                new_pairs += report.new_pairs.len();
                cluster_merges += report.merges;
            }
        }

        // Stage 2: injected faults — deletions and retractions.
        let mut deleted = 0usize;
        let mut retracted = 0usize;
        let mut edges_decommitted = 0usize;
        {
            let _stage = crowder_obs::span!("core.stream.faults_ns");
            for &(r, record) in &config.faults.deletions {
                if r == round {
                    let report = engine.remove(record)?;
                    cluster_splits += report.splits;
                    deleted += 1;
                }
            }
            for &(r, pair) in &config.faults.retractions {
                if r == round {
                    let report = engine.retract(pair)?;
                    edges_decommitted += report.decommitted as usize;
                    cluster_merges += report.merged as usize;
                    cluster_splits += report.split as usize;
                    retracted += 1;
                }
            }
        }
        let dirty_clusters = engine.resolver().dirty_clusters();

        // Stage 3: regenerate HITs only where the clustering moved.
        let delta = {
            let _stage = crowder_obs::span!("core.stream.regen_ns");
            engine.regenerate_hits()?
        };
        let fresh: Vec<Hit> = delta
            .created
            .iter()
            .map(|&id| {
                engine
                    .resolver()
                    .live_hits()
                    .get(id)
                    .expect("created ids are live")
                    .clone()
            })
            .collect();

        // Stage 4: one crowd session over the new work only.
        let crowd = CrowdConfig {
            seed: config.crowd.seed.wrapping_add(round as u64),
            ..config.crowd.clone()
        };
        let sim = {
            let _stage = crowder_obs::span!("core.stream.session_ns");
            simulate_session(
                &fresh,
                &dataset.gold,
                population,
                &crowd,
                &mut crowd_history,
            )?
        };
        pending = sim.in_flight.clone();

        // Stage 5: verdicts become votes *and* signed evidence. Weights
        // come from Dawid–Skene estimates over every vote so far, so a
        // worker's past behaviour discounts their present influence.
        let mut round_triples = labeled_triples_of(&carried);
        round_triples.extend(sim.labeled_triples());
        let mut edges_committed = 0usize;
        for report in record_verdicts(&mut engine, &mut votes, &round_triples, config.aggregation)?
        {
            edges_committed += report.committed as usize;
            edges_decommitted += report.decommitted as usize;
            cluster_merges += report.merged as usize;
            cluster_splits += report.split as usize;
        }

        total_cost += sim.cost_dollars + carried_cost;
        total_assignments += sim.assignments.len() + carried.len();
        rounds.push(RoundReport {
            round,
            arrived: chunk.len(),
            deleted,
            retracted,
            new_pairs,
            join_stats,
            index_rebuilds: engine.resolver().epochs() - epochs_before,
            dirty_clusters,
            hits_retired: delta.retired.len(),
            hits_created: delta.created.len(),
            hits_stable: delta.stable,
            assignments: sim.assignments.len(),
            carried_assignments: carried.len(),
            edges_committed,
            edges_decommitted,
            cluster_merges,
            cluster_splits,
            cost_dollars: sim.cost_dollars + carried_cost,
            elapsed_minutes: sim.elapsed_minutes,
            corpus: engine.resolver().len(),
            cumulative_pairs: engine.resolver().pairs().len(),
        });
        // Evidence may have dirtied clusters (merges from commits,
        // splits from decommits/vetoes); the next round's flush — or
        // the final one below — regenerates them.
    }

    // Final flush: deliver any still-pending assignments and regenerate
    // the clusters the last round's evidence touched, so the returned
    // resolver's HIT set reflects the final clustering.
    if !pending.is_empty() {
        let carried: Vec<AssignmentRecord> = std::mem::take(&mut pending);
        total_cost += carried.len() as f64 * per_assignment_cost;
        total_assignments += carried.len();
        let triples = labeled_triples_of(&carried);
        record_verdicts(&mut engine, &mut votes, &triples, config.aggregation)?;
    }
    let final_delta = engine.regenerate_hits()?;
    let resolver = engine.close()?;

    // Stage 6: aggregate every round's verdicts into one ranked list.
    let ranked = config.aggregation.rank(&votes)?;

    Ok(StreamingOutcome {
        rounds,
        ranked,
        total_cost_dollars: total_cost,
        total_assignments,
        final_hits_retired: final_delta.retired.len(),
        final_hits_created: final_delta.created.len(),
        resolver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowder_crowd::PopulationConfig;
    use crowder_datagen::table1;
    use crowder_simjoin::{prefix_join, TokenTable};

    fn crowd() -> WorkerPopulation {
        WorkerPopulation::generate(&PopulationConfig::default(), 42)
    }

    fn config() -> StreamingConfig {
        StreamingConfig {
            likelihood_threshold: 0.3,
            cluster_size: 4,
            batch_size: 3,
            ..StreamingConfig::default()
        }
    }

    #[test]
    fn streamed_table1_matches_batch_machine_pass() {
        let dataset = table1();
        let out = run_streaming(&dataset, &crowd(), &config()).unwrap();
        let tokens = TokenTable::build(&dataset);
        assert_eq!(
            out.resolver.ranked_pairs(),
            prefix_join(&dataset, &tokens, 0.3, 1),
            "exactness: streamed pair set ≡ batch prefix_join"
        );
        assert_eq!(out.rounds.len(), dataset.len().div_ceil(3));
        assert_eq!(
            out.rounds.iter().map(|r| r.arrived).sum::<usize>(),
            dataset.len()
        );
    }

    #[test]
    fn verified_matches_rank_top() {
        let dataset = table1();
        let out = run_streaming(&dataset, &crowd(), &config()).unwrap();
        assert!(!out.ranked.is_empty());
        let top: Vec<_> = out.ranked.iter().take(4).map(|s| s.pair).collect();
        let correct = top.iter().filter(|p| dataset.gold.is_match(p)).count();
        assert!(correct >= 3, "only {correct}/4 gold pairs in the top ranks");
        assert!(out.total_cost_dollars > 0.0);
        assert_eq!(
            out.total_assignments,
            out.rounds
                .iter()
                .map(|r| r.assignments + r.carried_assignments)
                .sum::<usize>()
        );
    }

    #[test]
    fn hit_lifecycle_is_conserved_and_clusters_drain() {
        let dataset = table1();
        let out = run_streaming(&dataset, &crowd(), &config()).unwrap();
        // Conservation: every HIT ever created is either retired by a
        // later flush (cluster moved, pair resolved, or split) or still
        // live at the end.
        let created: usize =
            out.rounds.iter().map(|r| r.hits_created).sum::<usize>() + out.final_hits_created;
        let retired: usize =
            out.rounds.iter().map(|r| r.hits_retired).sum::<usize>() + out.final_hits_retired;
        assert_eq!(created, retired + out.resolver.live_hits().len());
        // An honest crowd resolves pairs (commit or veto), so the
        // to-verify queue drains: far fewer clusters stay open than
        // pairs were surfaced.
        assert!(!out.resolver.ledger().is_empty());
        assert!(
            out.resolver.cluster_count() <= 1,
            "answered clusters must drain, {} still open",
            out.resolver.cluster_count()
        );
        let funnels_leak_free = out.rounds.iter().all(|r| {
            let s = r.join_stats;
            s.candidates
                == s.positional_pruned + s.signature_rejected + s.suffix_pruned + s.verified
        });
        assert!(funnels_leak_free);
    }

    #[test]
    fn good_crowd_commits_true_edges() {
        let dataset = table1();
        let out = run_streaming(&dataset, &crowd(), &config()).unwrap();
        // A mostly-honest crowd should have committed at least one gold
        // pair's edge and created no lasting wrong merges.
        let committed: usize = out.rounds.iter().map(|r| r.edges_committed).sum();
        assert!(committed > 0, "honest evidence must commit edges");
        assert!(
            out.wrong_merges(&dataset.gold).is_empty(),
            "honest crowd leaves no wrong merges: {:?}",
            out.wrong_merges(&dataset.gold)
        );
    }

    #[test]
    fn fault_plan_deletions_and_retractions_apply() {
        let dataset = table1();
        let cfg = StreamingConfig {
            faults: FaultPlan {
                deletions: vec![(1, crowder_types::RecordId(0))],
                retractions: vec![(2, Pair::of(2, 3))],
            },
            ..config()
        };
        let out = run_streaming(&dataset, &crowd(), &cfg).unwrap();
        assert_eq!(out.rounds[1].deleted, 1);
        assert_eq!(out.rounds[2].retracted, 1);
        assert!(!out.resolver.is_alive(crowder_types::RecordId(0)));
        assert_eq!(out.resolver.live_len(), dataset.len() - 1);
        // Exactness over the live corpus.
        let (dense, original) = out.resolver.live_dataset();
        let tokens = TokenTable::build(&dense);
        let to_dense: std::collections::HashMap<_, _> = original
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
        assert_eq!(remapped, prefix_join(&dense, &tokens, 0.3, 1));
    }

    #[test]
    fn retracting_a_pair_past_the_corpus_is_a_no_op() {
        let dataset = table1();
        let cfg = StreamingConfig {
            faults: FaultPlan {
                deletions: vec![],
                retractions: vec![(1, Pair::of(0, 999))],
            },
            ..config()
        };
        let out = run_streaming(&dataset, &crowd(), &cfg).unwrap();
        assert_eq!(out.rounds[1].retracted, 1);
        assert_eq!(out.rounds[1].edges_decommitted, 0);
        let tokens = TokenTable::build(&dataset);
        assert_eq!(
            out.resolver.ranked_pairs(),
            prefix_join(&dataset, &tokens, 0.3, 1)
        );
    }

    #[test]
    fn deleting_a_never_arrived_record_errors() {
        let dataset = table1();
        let cfg = StreamingConfig {
            faults: FaultPlan {
                deletions: vec![(0, crowder_types::RecordId(999))],
                retractions: vec![],
            },
            ..config()
        };
        assert!(run_streaming(&dataset, &crowd(), &cfg).is_err());
    }

    #[test]
    fn session_deadline_carries_assignments_across_rounds() {
        use crowder_crowd::{WorkerId, WorkerKind, WorkerProfile};
        let dataset = table1();
        // Workers so slow that any assignment accepted near the
        // deadline finishes long after it — in-flight work every round.
        let slow: Vec<WorkerProfile> = (0..10)
            .map(|i| WorkerProfile {
                id: WorkerId(i),
                kind: WorkerKind::Diligent,
                sensitivity: 0.95,
                specificity: 0.95,
                seconds_per_comparison: 600.0,
                cluster_affinity: 0.9,
            })
            .collect();
        let population = WorkerPopulation::from_workers(slow);
        let cfg = StreamingConfig {
            crowd: CrowdConfig {
                session_deadline_min: Some(5.0),
                arrival_rate_per_min: 10.0,
                ..CrowdConfig::default()
            },
            ..config()
        };
        let out = run_streaming(&dataset, &population, &cfg).unwrap();
        let carried: usize = out.rounds.iter().map(|r| r.carried_assignments).sum();
        assert!(carried > 0, "deadlined sessions must carry work over");
        // Carried answers are delivered and paid exactly once.
        let per_round: f64 = out.rounds.iter().map(|r| r.cost_dollars).sum();
        assert!(out.total_cost_dollars >= per_round);
        assert!(out.total_assignments > 0);
    }

    #[test]
    fn durable_run_matches_plain_and_recovers() {
        use crowder_durable::digest;
        let dataset = table1();
        let plain = run_streaming(&dataset, &crowd(), &config()).unwrap();
        let dir =
            std::env::temp_dir().join(format!("crowder-durable-core-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StreamingConfig {
            durability: Some(DurabilityOptions::at(&dir)),
            ..config()
        };
        let durable = run_streaming(&dataset, &crowd(), &cfg).unwrap();
        // Logging around every mutation must not change the run.
        assert_eq!(
            durable.resolver.ranked_pairs(),
            plain.resolver.ranked_pairs()
        );
        assert_eq!(durable.ranked, plain.ranked);
        assert_eq!(durable.total_assignments, plain.total_assignments);
        // A directory that already holds a log refuses a fresh run.
        assert!(run_streaming(&dataset, &crowd(), &cfg).is_err());
        // Recovery from the checkpointed directory lands on the exact
        // final state (clean close ⇒ snapshot only, nothing to replay).
        let stream = StreamConfig {
            threshold: cfg.likelihood_threshold,
            cluster_size: cfg.cluster_size,
            rebuild_min_interval: cfg.rebuild_min_interval,
            evidence: cfg.evidence,
        };
        let (recovered, report) = DurableResolver::recover(
            FsDir::new(&dir).unwrap(),
            stream,
            DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(report.replayed, 0, "clean close leaves an empty log");
        assert_eq!(
            recovered.digest(),
            digest(&durable.resolver),
            "recovered state ≡ the outcome's resolver, bit-for-bit"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_config() {
        let dataset = table1();
        let bad_thr = StreamingConfig {
            likelihood_threshold: 1.5,
            ..config()
        };
        assert!(run_streaming(&dataset, &crowd(), &bad_thr).is_err());
        let bad_batch = StreamingConfig {
            batch_size: 0,
            ..config()
        };
        assert!(run_streaming(&dataset, &crowd(), &bad_batch).is_err());
    }

    #[test]
    fn empty_dataset_is_trivial() {
        let dataset = Dataset::new("e", vec![], crowder_types::PairSpace::SelfJoin);
        let out = run_streaming(&dataset, &crowd(), &config()).unwrap();
        assert!(out.rounds.is_empty());
        assert!(out.ranked.is_empty());
        assert_eq!(out.total_cost_dollars, 0.0);
    }
}
