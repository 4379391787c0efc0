//! The event-driven HIT marketplace.
//!
//! Models the AMT mechanics the paper's experiments depend on:
//!
//! * every HIT is replicated into `assignments_per_hit` assignments, each
//!   guaranteed to be done by a *different* worker (§7.1),
//! * workers arrive as a Poisson process, browse open HITs (a
//!   Fenwick-indexed uniform sample — see [`crate::sampler`]), and accept
//!   based on perceived effort — the number of record rows the interface
//!   shows — and their familiarity with the HIT shape. This acceptance
//!   model is what reproduces Figure 14: pair-based HITs look familiar
//!   and attract more workers, *unless* the batch is so large (P28) that
//!   the constant price no longer justifies the effort,
//! * an optional qualification test gates first-time workers; failures
//!   leave, and the extra friction deters arrivals (the paper measured
//!   4.5 h → 19.9 h on Product),
//! * payment is per assignment: reward + platform fee
//!   ($0.02 + $0.005 in §7.1).

use crate::answer::{answer_hit, HitAnswer};
use crate::population::WorkerPopulation;
use crate::qualification::QualificationConfig;
use crate::sampler::OpenHitSampler;
use crate::worker::{WorkerId, WorkerProfile};
use crowder_hitgen::Hit;
use crowder_types::{Error, GoldStandard, Pair, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Marketplace configuration.
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Assignments per HIT (the paper uses 3).
    pub assignments_per_hit: usize,
    /// Reward per assignment in dollars (paper: $0.02).
    pub reward_per_assignment: f64,
    /// Platform fee per assignment in dollars (paper: $0.005).
    pub fee_per_assignment: f64,
    /// Optional qualification test.
    pub qualification: Option<QualificationConfig>,
    /// Worker arrivals per simulated minute.
    pub arrival_rate_per_min: f64,
    /// Mean HITs a worker attempts per session (geometric).
    pub mean_session_hits: f64,
    /// How many open HITs a browsing worker considers per session.
    pub browse_limit: usize,
    /// Effort scale (record rows) of the acceptance model; larger means
    /// workers tolerate bigger HITs.
    pub effort_scale_rows: f64,
    /// Probability that an arriving worker engages with a batch that
    /// requires a qualification test at all (the rest browse away) —
    /// friction beyond the pass/fail filtering itself.
    pub qualification_friction: f64,
    /// Simulated minutes after which the session stops handing out new
    /// assignments. Assignments *accepted* before the deadline still
    /// complete, but land in [`SimOutcome::in_flight`] instead of
    /// `assignments` when they finish past it — the caller (the
    /// streaming workflow) delivers their answers next round. `None`
    /// (the default) runs until the batch completes, as the batch
    /// workflow expects.
    pub session_deadline_min: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            assignments_per_hit: 3,
            reward_per_assignment: 0.02,
            fee_per_assignment: 0.005,
            qualification: None,
            arrival_rate_per_min: 2.0,
            mean_session_hits: 8.0,
            browse_limit: 40,
            effort_scale_rows: 40.0,
            qualification_friction: 0.35,
            session_deadline_min: None,
            seed: 0,
        }
    }
}

/// One completed assignment.
#[derive(Debug, Clone)]
pub struct AssignmentRecord {
    /// Index of the HIT in the published batch.
    pub hit_index: usize,
    /// Worker who completed it.
    pub worker: WorkerId,
    /// Verdicts and effort.
    pub answer: HitAnswer,
    /// Simulation minute at which the worker accepted.
    pub accepted_at_min: f64,
    /// Simulation minute at which the assignment was submitted.
    pub completed_at_min: f64,
}

/// Result of simulating a full batch.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Assignments completed within the session (before the deadline,
    /// if one is set).
    pub assignments: Vec<AssignmentRecord>,
    /// Assignments accepted before the session deadline but submitted
    /// after it. Their answers address *pairs*, not HIT ids, so the
    /// caller can deliver them in a later round even if the HITs they
    /// came from have been retired by then. Empty without a deadline.
    pub in_flight: Vec<AssignmentRecord>,
    /// Minutes from publication until the last assignment finished.
    pub elapsed_minutes: f64,
    /// Payment for the *completed* assignments; in-flight work is paid
    /// on delivery.
    pub cost_dollars: f64,
    /// Distinct workers who completed at least one assignment.
    pub workers_participated: usize,
}

impl SimOutcome {
    /// Median per-assignment duration in seconds (Figure 13's metric).
    pub fn median_assignment_secs(&self) -> f64 {
        if self.assignments.is_empty() {
            return 0.0;
        }
        let mut durations: Vec<f64> = self
            .assignments
            .iter()
            .map(|a| a.answer.duration_secs)
            .collect();
        durations.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let mid = durations.len() / 2;
        if durations.len() % 2 == 1 {
            durations[mid]
        } else {
            (durations[mid - 1] + durations[mid]) / 2.0
        }
    }

    /// Flatten the completed assignments to `(pair, worker, verdict)`
    /// triples — the input shape of the Dawid–Skene aggregator.
    pub fn labeled_triples(&self) -> Vec<(Pair, WorkerId, bool)> {
        labeled_triples_of(&self.assignments)
    }
}

/// Flatten any assignment slice to `(pair, worker, verdict)` triples —
/// used for both a session's completed work and carried-over in-flight
/// assignments.
pub fn labeled_triples_of(assignments: &[AssignmentRecord]) -> Vec<(Pair, WorkerId, bool)> {
    let mut out = Vec::with_capacity(assignments.iter().map(|a| a.answer.verdicts.len()).sum());
    for a in assignments {
        for &(pair, verdict) in &a.answer.verdicts {
            out.push((pair, a.worker, verdict));
        }
    }
    out
}

/// Per-worker platform history carried *across* sessions. The
/// streaming workflow threads one of these through its rounds so
/// experience-dependent archetypes (sleepers, flippers — see
/// [`WorkerProfile::at_experience`]) evolve over the whole run, not
/// per session.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    completed: HashMap<WorkerId, u32>,
}

impl SessionState {
    /// A blank history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assignments `worker` has completed across all sessions so far.
    #[inline]
    pub fn completed_by(&self, worker: WorkerId) -> u32 {
        self.completed.get(&worker).copied().unwrap_or(0)
    }

    /// Total assignments recorded across all workers.
    pub fn total_completed(&self) -> u64 {
        self.completed.values().map(|&c| c as u64).sum()
    }
}

/// Perceived-effort acceptance probability.
///
/// The visible effort of a HIT is its record-row count: a pair HIT with
/// `m` pairs shows `2m` rows; a cluster HIT with `n` records shows `n`
/// rows but an unfamiliar interface, discounted by the worker's
/// `cluster_affinity`.
fn acceptance_probability(worker: &WorkerProfile, hit: &Hit, config: &CrowdConfig) -> f64 {
    let p = match hit {
        Hit::PairBased { pairs } => {
            let rows = 2.0 * pairs.len() as f64;
            (-rows / config.effort_scale_rows).exp()
        }
        Hit::ClusterBased { records } => {
            let rows = records.len() as f64;
            worker.cluster_affinity * (-rows / config.effort_scale_rows).exp()
        }
    };
    p.max(0.01)
}

/// Per-worker platform state across sessions.
enum QualificationState {
    NotTaken,
    Failed,
    Passed(WorkerProfile),
}

/// Simulate publishing `hits` to the crowd with a blank worker
/// history.
///
/// Returns an error if the batch cannot be completed within the arrival
/// budget (pathological configurations only: empty worker pool, or more
/// assignments per HIT than workers).
pub fn simulate(
    hits: &[Hit],
    gold: &GoldStandard,
    population: &WorkerPopulation,
    config: &CrowdConfig,
) -> Result<SimOutcome> {
    simulate_session(hits, gold, population, config, &mut SessionState::new())
}

/// Simulate one crowd session, threading per-worker completion counts
/// through `state` so experience-dependent archetypes carry across
/// sessions. With [`CrowdConfig::session_deadline_min`] set, the
/// session stops accepting at the deadline and reports late-finishing
/// accepted work in [`SimOutcome::in_flight`] instead of erroring on an
/// incomplete batch.
pub fn simulate_session(
    hits: &[Hit],
    gold: &GoldStandard,
    population: &WorkerPopulation,
    config: &CrowdConfig,
    state: &mut SessionState,
) -> Result<SimOutcome> {
    let _timer = crowder_obs::span!("crowd.session.simulate_ns");
    if config.assignments_per_hit == 0 {
        return Err(Error::InvalidConfig {
            param: "assignments_per_hit",
            message: "must be at least 1".into(),
        });
    }
    if hits.is_empty() {
        crowder_obs::counter!("crowd.session.sessions").incr();
        return Ok(SimOutcome {
            assignments: Vec::new(),
            in_flight: Vec::new(),
            elapsed_minutes: 0.0,
            cost_dollars: 0.0,
            workers_participated: 0,
        });
    }
    if population.len() < config.assignments_per_hit {
        return Err(Error::InvalidConfig {
            param: "population",
            message: format!(
                "{} workers cannot satisfy {} distinct assignments per HIT",
                population.len(),
                config.assignments_per_hit
            ),
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut remaining: Vec<usize> = vec![config.assignments_per_hit; hits.len()];
    let mut done_by: Vec<HashSet<WorkerId>> = vec![HashSet::new(); hits.len()];
    // Fenwick-indexed open set: a browse session samples
    // `browse_limit` open HITs in O(browse_limit · log n) instead of
    // scanning the whole open list.
    let mut sampler = OpenHitSampler::new(hits.len());
    let mut qual_state: HashMap<WorkerId, QualificationState> = HashMap::new();
    let mut assignments: Vec<AssignmentRecord> = Vec::new();
    let mut participants: HashSet<WorkerId> = HashSet::new();
    // Per-archetype answer tallies, published as counters once at
    // session end so the hot loop never touches the registry lock.
    let mut answers_by_kind: HashMap<&'static str, u64> = HashMap::new();
    // A worker who re-arrives before finishing an earlier session picks
    // up work only after it — personal timelines never overlap.
    let mut busy_until: HashMap<WorkerId, f64> = HashMap::new();

    let mut clock_min = 0.0f64;
    let total_needed = hits.len() * config.assignments_per_hit;
    // Arrival budget: generous multiple of the workload; hitting it means
    // the configuration starves (reported as an error, not a hang).
    let max_arrivals = 200 * total_needed + 10_000;

    for _arrival in 0..max_arrivals {
        if assignments.len() == total_needed {
            break;
        }
        // Poisson arrivals: exponential inter-arrival gap.
        let u: f64 = rng.random::<f64>().max(1e-12);
        clock_min += -u.ln() / config.arrival_rate_per_min;
        if let Some(deadline) = config.session_deadline_min {
            if clock_min > deadline {
                break;
            }
        }

        let widx = rng.random_range(0..population.len());
        let base_worker = &population.workers()[widx];

        // Qualification friction: a required test deters many arriving
        // workers from engaging with the batch at all — the paper's
        // "steep cost in terms of latency" (4.5 h → 19.9 h on Product)
        // comes from this thinning of the effective arrival rate.
        if config.qualification.is_some() && rng.random::<f64>() >= config.qualification_friction {
            continue;
        }

        // Qualification gate (taken once per worker).
        let effective: WorkerProfile = match &config.qualification {
            None => base_worker.clone(),
            Some(qt) => {
                let state = qual_state
                    .entry(base_worker.id)
                    .or_insert(QualificationState::NotTaken);
                if matches!(state, QualificationState::NotTaken) {
                    *state = match qt.administer(base_worker, &mut rng) {
                        Some(boosted) => QualificationState::Passed(boosted),
                        None => QualificationState::Failed,
                    };
                }
                match state {
                    QualificationState::Passed(p) => p.clone(),
                    QualificationState::Failed => continue,
                    QualificationState::NotTaken => unreachable!("state set above"),
                }
            }
        };

        // Session: browse up to `browse_limit` random open HITs, accept
        // each with the effort model, stop after the geometric budget.
        let session_budget = geometric(config.mean_session_hits, &mut rng);
        let mut worker_time = clock_min.max(busy_until.get(&effective.id).copied().unwrap_or(0.0));
        let mut completed_this_session = 0usize;
        let browse = sampler.sample(config.browse_limit, &mut rng);
        for &hit_idx in &browse {
            if completed_this_session >= session_budget {
                break;
            }
            // No assignment starts after the session closes — a worker
            // whose personal backlog runs past the deadline stops
            // picking up new work.
            if config
                .session_deadline_min
                .is_some_and(|deadline| worker_time > deadline)
            {
                break;
            }
            if done_by[hit_idx].contains(&effective.id) {
                continue;
            }
            let p = acceptance_probability(&effective, &hits[hit_idx], config);
            if rng.random::<f64>() >= p {
                continue;
            }
            // Adversarial archetypes answer with an experience-
            // dependent profile (a sleeper turns after its onset, a
            // flipper alternates) — honest kinds are unaffected.
            let answering = effective.at_experience(state.completed_by(effective.id));
            let answer = answer_hit(&answering, &hits[hit_idx], gold, &mut rng);
            let accepted_at = worker_time;
            worker_time += answer.duration_secs / 60.0;
            remaining[hit_idx] -= 1;
            if remaining[hit_idx] == 0 {
                sampler.close(hit_idx);
            }
            done_by[hit_idx].insert(effective.id);
            participants.insert(effective.id);
            *answers_by_kind.entry(effective.kind_name()).or_insert(0) += 1;
            *state.completed.entry(effective.id).or_insert(0) += 1;
            assignments.push(AssignmentRecord {
                hit_index: hit_idx,
                worker: effective.id,
                answer,
                accepted_at_min: accepted_at,
                completed_at_min: worker_time,
            });
            completed_this_session += 1;
        }
        busy_until.insert(effective.id, worker_time);
    }

    let in_flight = match config.session_deadline_min {
        None => {
            // No deadline: the batch must complete (as in the batch
            // workflow); a shortfall means the configuration starves.
            if assignments.len() < total_needed {
                return Err(Error::NoConvergence {
                    routine: "crowd-simulation",
                    iterations: max_arrivals,
                });
            }
            Vec::new()
        }
        Some(deadline) => {
            // Accepted-but-late work carries over to the next session.
            let (done, late): (Vec<_>, Vec<_>) = assignments
                .drain(..)
                .partition(|a| a.completed_at_min <= deadline);
            assignments = done;
            late
        }
    };

    let elapsed_minutes = assignments
        .iter()
        .chain(&in_flight)
        .map(|a| a.completed_at_min)
        .fold(0.0, f64::max);
    let cost_dollars =
        assignments.len() as f64 * (config.reward_per_assignment + config.fee_per_assignment);

    crowder_obs::counter!("crowd.session.sessions").incr();
    crowder_obs::counter!("crowd.session.hits_published").add(hits.len() as u64);
    crowder_obs::counter!("crowd.session.assignments_completed").add(assignments.len() as u64);
    crowder_obs::counter!("crowd.session.assignments_in_flight").add(in_flight.len() as u64);
    if crowder_obs::recording() {
        for a in &assignments {
            let latency_ms = ((a.completed_at_min - a.accepted_at_min) * 60_000.0).max(0.0) as u64;
            crowder_obs::histogram!("crowd.session.assignment_latency_ms").record(latency_ms);
        }
    }
    for (kind, n) in &answers_by_kind {
        crowder_obs::global()
            .counter(&format!("crowd.session.answers.{kind}"))
            .add(*n);
    }

    Ok(SimOutcome {
        workers_participated: participants.len(),
        assignments,
        in_flight,
        elapsed_minutes,
        cost_dollars,
    })
}

/// Geometric session budget with the given mean (≥ 1).
fn geometric(mean: f64, rng: &mut StdRng) -> usize {
    let p = 1.0 / mean.max(1.0);
    let mut n = 1usize;
    while rng.random::<f64>() > p && n < 1000 {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use crowder_types::RecordId;

    fn small_world() -> (Vec<Hit>, GoldStandard, WorkerPopulation) {
        let hits = vec![
            Hit::pairs(vec![Pair::of(0, 1), Pair::of(2, 3)]),
            Hit::cluster([RecordId(0), RecordId(1), RecordId(4)]),
            Hit::pairs(vec![Pair::of(4, 5)]),
        ];
        let gold = GoldStandard::from_pairs(vec![Pair::of(0, 1)]);
        let pop = WorkerPopulation::generate(
            &PopulationConfig {
                size: 60,
                ..Default::default()
            },
            11,
        );
        (hits, gold, pop)
    }

    #[test]
    fn completes_all_assignments_with_distinct_workers() {
        let (hits, gold, pop) = small_world();
        let cfg = CrowdConfig::default();
        let out = simulate(&hits, &gold, &pop, &cfg).unwrap();
        assert_eq!(out.assignments.len(), hits.len() * cfg.assignments_per_hit);
        for hit_idx in 0..hits.len() {
            let workers: HashSet<WorkerId> = out
                .assignments
                .iter()
                .filter(|a| a.hit_index == hit_idx)
                .map(|a| a.worker)
                .collect();
            assert_eq!(workers.len(), cfg.assignments_per_hit, "hit {hit_idx}");
        }
        assert!(out.elapsed_minutes > 0.0);
    }

    #[test]
    fn personal_timelines_never_overlap() {
        // Pins the `busy_until` behavior: a worker who re-arrives while
        // an earlier session is still running picks up work only after
        // it. A tiny population over a large batch maximizes re-arrival
        // pressure.
        let hits: Vec<Hit> = (0..40)
            .map(|i| Hit::pairs(vec![Pair::of(2 * i, 2 * i + 1)]))
            .collect();
        let gold = GoldStandard::new();
        let pop = WorkerPopulation::generate(
            &PopulationConfig {
                size: 5,
                ..Default::default()
            },
            23,
        );
        let out = simulate(&hits, &gold, &pop, &CrowdConfig::default()).unwrap();
        let mut spans: HashMap<WorkerId, Vec<(f64, f64)>> = HashMap::new();
        for a in &out.assignments {
            spans
                .entry(a.worker)
                .or_default()
                .push((a.accepted_at_min, a.completed_at_min));
        }
        for (worker, mut intervals) in spans {
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-9,
                    "worker {worker:?} accepted at {} before finishing at {}",
                    w[1].0,
                    w[0].1
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (hits, gold, pop) = small_world();
        let cfg = CrowdConfig::default();
        let a = simulate(&hits, &gold, &pop, &cfg).unwrap();
        let b = simulate(&hits, &gold, &pop, &cfg).unwrap();
        assert_eq!(a.assignments.len(), b.assignments.len());
        assert_eq!(a.elapsed_minutes, b.elapsed_minutes);
        assert_eq!(a.cost_dollars, b.cost_dollars);
    }

    #[test]
    fn cost_matches_paper_formula() {
        // §7.3: 112 HITs × 3 assignments × $0.025 = $8.40.
        let hits: Vec<Hit> = (0..112)
            .map(|i| Hit::pairs(vec![Pair::of(2 * i, 2 * i + 1)]))
            .collect();
        let gold = GoldStandard::new();
        let pop = WorkerPopulation::generate(
            &PopulationConfig {
                size: 300,
                ..Default::default()
            },
            1,
        );
        let out = simulate(&hits, &gold, &pop, &CrowdConfig::default()).unwrap();
        assert!((out.cost_dollars - 8.40).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let (_, gold, pop) = small_world();
        let out = simulate(&[], &gold, &pop, &CrowdConfig::default()).unwrap();
        assert!(out.assignments.is_empty());
        assert_eq!(out.cost_dollars, 0.0);
    }

    #[test]
    fn rejects_insufficient_population() {
        let (hits, gold, _) = small_world();
        let tiny = WorkerPopulation::generate(
            &PopulationConfig {
                size: 2,
                ..Default::default()
            },
            0,
        );
        let err = simulate(&hits, &gold, &tiny, &CrowdConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn qualification_test_filters_and_slows() {
        let (hits, gold, pop) = small_world();
        let no_qt = simulate(&hits, &gold, &pop, &CrowdConfig::default()).unwrap();
        let with_qt = simulate(
            &hits,
            &gold,
            &pop,
            &CrowdConfig {
                qualification: Some(QualificationConfig::default()),
                ..Default::default()
            },
        )
        .unwrap();
        // QT adds friction: the same batch takes longer end-to-end.
        assert!(with_qt.elapsed_minutes > no_qt.elapsed_minutes);
    }

    #[test]
    fn pair_hits_attract_more_than_unfamiliar_clusters() {
        // The acceptance model behind Figure 14(a): a 16-pair HIT is
        // accepted more readily than a 10-record cluster HIT by an
        // average worker, but a 28-pair HIT is not (Figure 14(b)).
        let worker = WorkerProfile {
            id: WorkerId(0),
            kind: crate::worker::WorkerKind::Diligent,
            sensitivity: 0.9,
            specificity: 0.9,
            seconds_per_comparison: 2.0,
            cluster_affinity: 0.45,
        };
        let cfg = CrowdConfig::default();
        let p16 = Hit::pairs((0..16).map(|i| Pair::of(2 * i, 2 * i + 1)).collect());
        let p28 = Hit::pairs((0..28).map(|i| Pair::of(2 * i, 2 * i + 1)).collect());
        let c10 = Hit::cluster((0..10).map(RecordId));
        let a16 = acceptance_probability(&worker, &p16, &cfg);
        let a28 = acceptance_probability(&worker, &p28, &cfg);
        let ac10 = acceptance_probability(&worker, &c10, &cfg);
        assert!(a16 > ac10, "P16 {a16} should attract more than C10 {ac10}");
        assert!(a28 < ac10, "P28 {a28} should attract less than C10 {ac10}");
    }

    #[test]
    fn browsing_spreads_acceptances_across_large_batches() {
        // Regression for the sampled browse: with far more open HITs
        // than `browse_limit`, early acceptances must be spread uniformly
        // over the whole batch, not biased toward any prefix. The mean
        // accepted hit-index of the first third of assignments should sit
        // near the batch midpoint (59.5 for 120 HITs); a positionally
        // biased browse would push it far off-center.
        let hits: Vec<Hit> = (0..120)
            .map(|i| Hit::pairs(vec![Pair::of(2 * i, 2 * i + 1)]))
            .collect();
        let gold = GoldStandard::new();
        let pop = WorkerPopulation::generate(
            &PopulationConfig {
                size: 400,
                ..Default::default()
            },
            3,
        );
        let cfg = CrowdConfig {
            browse_limit: 10,
            ..CrowdConfig::default()
        };
        let out = simulate(&hits, &gold, &pop, &cfg).unwrap();
        let third = out.assignments.len() / 3;
        let mean_idx: f64 = out.assignments[..third]
            .iter()
            .map(|a| a.hit_index as f64)
            .sum::<f64>()
            / third as f64;
        assert!(
            (40.0..=80.0).contains(&mean_idx),
            "early acceptances biased: mean index {mean_idx:.1}, expected near 59.5"
        );
        // And the batch still completes exactly.
        assert_eq!(out.assignments.len(), hits.len() * cfg.assignments_per_hit);
    }

    #[test]
    fn deadline_carries_in_flight_work_instead_of_erroring() {
        // A deadline short enough to interrupt the batch must split the
        // work into completed + in-flight, never error — and everything
        // accepted must land in exactly one of the two.
        let hits: Vec<Hit> = (0..30)
            .map(|i| Hit::pairs(vec![Pair::of(2 * i, 2 * i + 1)]))
            .collect();
        let gold = GoldStandard::new();
        let pop = WorkerPopulation::generate(
            &PopulationConfig {
                size: 20,
                ..Default::default()
            },
            5,
        );
        let cfg = CrowdConfig {
            session_deadline_min: Some(3.0),
            ..CrowdConfig::default()
        };
        let out = simulate(&hits, &gold, &pop, &cfg).unwrap();
        assert!(
            out.assignments.len() + out.in_flight.len() < 30 * cfg.assignments_per_hit,
            "the deadline must actually interrupt this batch"
        );
        for a in &out.assignments {
            assert!(a.completed_at_min <= 3.0);
        }
        for a in &out.in_flight {
            assert!(a.accepted_at_min <= 3.0 && a.completed_at_min > 3.0);
        }
        // Cost covers only completed work; in-flight is paid on delivery.
        assert!(
            (out.cost_dollars - out.assignments.len() as f64 * 0.025).abs() < 1e-12,
            "{}",
            out.cost_dollars
        );
    }

    #[test]
    fn session_state_accumulates_and_wakes_sleepers() {
        let hits: Vec<Hit> = (0..20)
            .map(|i| Hit::pairs(vec![Pair::of(2 * i, 2 * i + 1)]))
            .collect();
        // Every pair is a true match; an awake sleeper answers NO.
        let gold = GoldStandard::from_pairs((0..20).map(|i| Pair::of(2 * i, 2 * i + 1)));
        let sleeper = WorkerProfile {
            id: WorkerId(0),
            kind: crate::worker::WorkerKind::Sleeper { after: 10 },
            sensitivity: 1.0,
            specificity: 1.0,
            seconds_per_comparison: 1.0,
            cluster_affinity: 0.5,
        };
        let diligent = WorkerProfile {
            id: WorkerId(1),
            kind: crate::worker::WorkerKind::Diligent,
            ..sleeper.clone()
        };
        let pop = WorkerPopulation::from_workers(vec![
            sleeper,
            diligent.clone(),
            WorkerProfile {
                id: WorkerId(2),
                ..diligent
            },
        ]);
        let mut state = SessionState::new();
        let cfg = CrowdConfig::default();
        let first = simulate_session(&hits, &gold, &pop, &cfg, &mut state).unwrap();
        assert_eq!(
            state.total_completed(),
            first.assignments.len() as u64,
            "history records every completed assignment"
        );
        // Run more sessions against the same history: once the sleeper
        // crosses 10 completions, its answers flip to NO on matches.
        let mut woke_answers = Vec::new();
        for round in 1..6 {
            let cfg = CrowdConfig {
                seed: round,
                ..cfg.clone()
            };
            let out = simulate_session(&hits, &gold, &pop, &cfg, &mut state).unwrap();
            for a in &out.assignments {
                if a.worker == WorkerId(0) && state.completed_by(WorkerId(0)) > 10 {
                    woke_answers.extend(a.answer.verdicts.iter().map(|&(_, v)| v));
                }
            }
        }
        assert!(
            state.completed_by(WorkerId(0)) > 10,
            "sleeper must get past its onset in five rounds"
        );
        assert!(
            woke_answers.iter().filter(|&&v| !v).count() > woke_answers.len() / 2,
            "an awake sleeper answers mostly NO on true matches"
        );
    }

    #[test]
    fn median_and_triples_helpers() {
        let (hits, gold, pop) = small_world();
        let out = simulate(&hits, &gold, &pop, &CrowdConfig::default()).unwrap();
        assert!(out.median_assignment_secs() > 0.0);
        let triples = out.labeled_triples();
        // Each pair HIT contributes its pairs; the 3-record cluster HIT
        // contributes 3 derived pairs; ×3 assignments.
        assert_eq!(triples.len(), (2 + 3 + 1) * 3);
    }
}
