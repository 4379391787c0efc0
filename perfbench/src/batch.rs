//! `batch-hybrid`: the paper's Figure 1 workflow, `run_hybrid` with
//! `HybridConfig::default()` on Product ×4, repeated in a closed loop
//! over cycles that run one job on each of the run's corpora.
//!
//! The traced run alternates untraced `run_hybrid` jobs with traced
//! jobs that make the same stage calls `run_hybrid` makes, each in its
//! own span under a `core` job span, and checks that both produce the
//! same ranked list.

use std::time::{Duration, Instant};

use crowder_aggregate::{DawidSkene, Vote};
use crowder_core::{run_hybrid, HitStrategy, HybridConfig, HybridOutcome};
use crowder_crowd::{simulate, PopulationConfig, WorkerPopulation};
use crowder_hitgen::{validate_cluster_hits, ClusterGenerator, TwoTieredGenerator};
use crowder_simjoin::{prefix_join_with_stats, JoinStats, TokenTable};
use crowder_types::{Dataset, Pair, ScoredPair};

use crate::corpus::{largest_component_share, pair_digest, product_x, sub_seeds};
use crate::stats::{highest_supported, median};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUPS};

const SCALE: usize = 4;
/// Corpora per run, each drawn from its own sub-seed: a job's cost
/// depends on its corpus (Dawid–Skene's iteration count most of all),
/// so a run averages over several.
const CORPORA: usize = 8;

/// Cycles a run makes at least, whatever `--seconds` says: 24 jobs, so
/// the job-time median has ten jobs beyond it.
const MIN_CYCLES: usize = 3;

/// Quantiles tried, highest first, for the tail of the job times.
const TAIL: [f64; 2] = [0.9, 0.5];

/// What one job produced, reduced to what the checks and metrics use.
struct Job {
    wall: Duration,
    candidates: Vec<ScoredPair>,
    hits: Vec<crowder_hitgen::Hit>,
    assignments: usize,
    ranked: Vec<ScoredPair>,
}

impl Job {
    fn of(wall: Duration, out: HybridOutcome) -> Self {
        Job {
            wall,
            assignments: out.sim.assignments.len(),
            candidates: out.candidate_pairs,
            hits: out.hits,
            ranked: out.ranked,
        }
    }

    fn matching(&self) -> impl Iterator<Item = &ScoredPair> {
        self.ranked.iter().filter(|sp| sp.likelihood > 0.5)
    }
}

/// `run_hybrid`'s stages as separate calls, each in a span.
fn traced_job(
    tr: &mut Tracer,
    job: u64,
    dataset: &Dataset,
    population: &WorkerPopulation,
    config: &HybridConfig,
) -> Result<(Job, JoinStats), String> {
    let HitStrategy::ClusterBased { config: tt } = &config.strategy else {
        return Err("batch-hybrid runs cluster-based HITs".into());
    };
    let start = Instant::now();
    let staged = tr.span("core", "run_hybrid", job, |tr| {
        let tokens = tr.span("simjoin", "TokenTable::build", job, |_| {
            TokenTable::build(dataset)
        });
        let (candidates, stats) = tr.span("simjoin", "prefix_join_with_stats", job, |_| {
            prefix_join_with_stats(
                dataset,
                &tokens,
                config.likelihood_threshold,
                config.similarity_threads,
            )
        });
        let pairs: Vec<Pair> = candidates.iter().map(|sp| sp.pair).collect();
        let hits = tr.span("hitgen", "TwoTieredGenerator::generate", job, |_| {
            TwoTieredGenerator::with_config(tt.clone()).generate(&pairs, config.cluster_size)
        })?;
        let sim = tr.span("crowd", "simulate", job, |_| {
            simulate(&hits, &dataset.gold, population, &config.crowd)
        })?;
        let votes: Vec<Vote> = sim
            .labeled_triples()
            .into_iter()
            .map(|(pair, worker, verdict)| (pair, worker.0 as usize, verdict))
            .collect();
        let ranked = tr.span("aggregate", "DawidSkene::run", job, |_| {
            DawidSkene::default().run(&votes)
        })?;
        Ok::<_, crowder_types::Error>((candidates, stats, hits, sim.assignments.len(), ranked))
    });
    let wall = start.elapsed();
    let (candidates, stats, hits, assignments, ranked) = staged.map_err(|e| e.to_string())?;
    Ok((
        Job {
            wall,
            candidates,
            hits,
            assignments,
            ranked: ranked.ranked,
        },
        stats,
    ))
}

/// One corpus and its worker population.
struct Input {
    dataset: Dataset,
    population: WorkerPopulation,
}

fn setup(seed: u64) -> Vec<Input> {
    sub_seeds(seed, CORPORA)
        .map(|s| Input {
            dataset: product_x(SCALE, s),
            population: WorkerPopulation::generate(&PopulationConfig::default(), s),
        })
        .collect()
}

/// What the checks and metrics keep of each corpus.
#[derive(Default)]
struct PerCorpus {
    digest: Option<(u64, usize)>,
    f1: f64,
    cost: f64,
    machine_pairs: usize,
    component_share: f64,
    hits: usize,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        inputs = setup(args.seed);
        out.setups_s.push(t.elapsed().as_secs_f64());
    }
    let config = HybridConfig::default();
    let crowd = &config.crowd;
    let unit_cost = crowd.reward_per_assignment + crowd.fee_per_assignment;

    let mut tr = Tracer::new(args.trace, Instant::now(), 0);
    let mut per: Vec<PerCorpus> = inputs.iter().map(|_| PerCorpus::default()).collect();
    let (mut untraced, mut traced): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut cycles = 0usize;
    let mut stats = JoinStats::default();
    let (mut hits_total, mut pairs_total, mut assignments_total) = (0usize, 0usize, 0usize);
    let (mut traced_wall, mut spent) = (Duration::ZERO, Duration::ZERO);
    let (mut bad_hits, mut bad_digest) = (Ok(()), Ok(()));
    let mut job_no = 0u64;
    while spent.as_secs_f64() < args.seconds || cycles < MIN_CYCLES {
        for (input, seen) in inputs.iter().zip(per.iter_mut()) {
            let (dataset, population) = (&input.dataset, &input.population);
            // The traced run follows each untraced job with a traced one
            // on the same corpus, so the overhead compares like with like.
            let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &traced_now in passes {
                out.attempted += 1;
                let job = if traced_now {
                    crowder_obs::install_recorder();
                    let r = traced_job(&mut tr, job_no, dataset, population, &config);
                    crowder_obs::pause_recorder();
                    let (job, s) = r.inspect_err(|_| out.failed += 1)?;
                    stats.absorb(&s);
                    traced.push(job.wall.as_secs_f64());
                    traced_wall += job.wall;
                    job
                } else {
                    let t = Instant::now();
                    let r = run_hybrid(dataset, population, &config);
                    let wall = t.elapsed();
                    let o = r
                        .map_err(|e| e.to_string())
                        .inspect_err(|_| out.failed += 1)?;
                    untraced.push(wall.as_secs_f64());
                    Job::of(wall, o)
                };
                spent += job.wall;
                job_no += 1;

                // Output checks, outside the timed region.
                let pairs: Vec<Pair> = job.candidates.iter().map(|sp| sp.pair).collect();
                if let Err(e) = validate_cluster_hits(&job.hits, &pairs, config.cluster_size) {
                    bad_hits = Err(format!("job {job_no}: {e}"));
                }
                let digest = (pair_digest(job.matching()), job.matching().count());
                match seen.digest {
                    None => {
                        let matching: Vec<Pair> = job.matching().map(|sp| sp.pair).collect();
                        let tp = dataset.gold.count_matches(&matching) as f64;
                        let precision = tp / (matching.len() as f64).max(1.0);
                        let recall = tp / (dataset.gold.len() as f64).max(1.0);
                        seen.f1 = if tp > 0.0 {
                            2.0 * precision * recall / (precision + recall)
                        } else {
                            0.0
                        };
                        seen.cost = job.assignments as f64 * unit_cost;
                        seen.machine_pairs = pairs.len();
                        seen.component_share = largest_component_share(dataset.len(), &pairs);
                        seen.hits = job.hits.len();
                        seen.digest = Some(digest);
                    }
                    Some(d) if d != digest => {
                        bad_digest = Err(format!("job {job_no}: digest {digest:?} != {d:?}"))
                    }
                    Some(_) => {}
                }
                hits_total += job.hits.len();
                pairs_total += pairs.len();
                assignments_total += job.assignments;
            }
        }
        cycles += 1;
    }
    out.check("hits_valid", bad_hits);
    out.check("matching_digest_stable", bad_digest);

    let k = inputs.len() as f64;
    let mean = |f: fn(&PerCorpus) -> f64| per.iter().map(f).sum::<f64>() / k;
    let records = inputs[0].dataset.len();
    out.prop("corpora", inputs.len());
    out.prop("records_per_corpus", records);
    out.prop(
        "gold_pairs_mean",
        inputs.iter().map(|i| i.dataset.gold.len()).sum::<usize>() as f64 / k,
    );
    out.prop("threshold", config.likelihood_threshold);
    out.prop("machine_pairs_mean", mean(|p| p.machine_pairs as f64));
    out.prop(
        "largest_component_share_mean",
        format!("{:.4}", mean(|p| p.component_share)),
    );
    out.prop("hits_mean", mean(|p| p.hits as f64));
    out.prop("cycles", cycles);
    out.prop("jobs", untraced.len() + traced.len());
    out.prop("available_parallelism", parallelism());

    let batch_s = median(&untraced);
    out.detail("batch_s", batch_s, "s");
    out.detail("f1", mean(|p| p.f1), "ratio");
    out.detail("crowd_cost_usd", mean(|p| p.cost), "$");
    out.detail(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "fraction",
    );

    if args.trace {
        let jobs = (untraced.len() + traced.len()) as f64;
        let n = traced.len().max(1) as f64;
        let (spans, wall_ns) = (tr.into_spans(), traced_wall.as_nanos() as u64);
        let rows = crate::trace::table(&spans);
        let share = |layer: &str, name: &str| {
            rows.get(&(layer, name)).map_or(0.0, |r| r.self_ns as f64) / wall_ns.max(1) as f64
        };
        let l = &mut out.layers;
        l.insert(
            "simjoin.tokenize.share",
            share("simjoin", "TokenTable::build"),
        );
        l.insert(
            "simjoin.join.share",
            share("simjoin", "prefix_join_with_stats"),
        );
        l.insert("simjoin.candidates", stats.candidates as f64 / n);
        l.insert("simjoin.verified", stats.verified as f64 / n);
        l.insert("simjoin.results", stats.results as f64 / n);
        l.insert(
            "simjoin.yield",
            stats.results as f64 / (stats.candidates as f64).max(1.0),
        );
        l.insert(
            "hitgen.generate.share",
            share("hitgen", "TwoTieredGenerator::generate"),
        );
        l.insert("hitgen.hits", hits_total as f64 / jobs);
        l.insert(
            "hitgen.pairs_per_hit",
            pairs_total as f64 / (hits_total as f64).max(1.0),
        );
        l.insert("crowd.simulate.share", share("crowd", "simulate"));
        l.insert("crowd.assignments", assignments_total as f64 / jobs);
        l.insert(
            "aggregate.dawid_skene.share",
            share("aggregate", "DawidSkene::run"),
        );
        l.insert("core.self.share", share("core", "run_hybrid"));
        l.insert(
            "obs.trace_overhead",
            traced.iter().sum::<f64>() / untraced.iter().sum::<f64>(),
        );
        out.trace = Some((wall_ns, spans));
    } else {
        let tail = highest_supported(&untraced, &TAIL).map_or(f64::NAN, |(_, v)| v);
        out.end_to_end = vec![
            ("throughput_per_s", records as f64 / batch_s),
            ("latency_p50_ms", batch_s * 1e3),
            ("latency_tail_ms", tail * 1e3),
        ];
    }
    Ok(out)
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
