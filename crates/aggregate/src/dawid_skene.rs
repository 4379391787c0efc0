//! Dawid–Skene EM aggregation \[9\].
//!
//! The binary-class observer model: pair `i` has a latent truth
//! `zᵢ ∈ {match, non-match}`; worker `w` reports truthfully with
//! per-class rates (sensitivity `αw`, specificity `βw`). EM alternates:
//!
//! * **E-step** — posterior `P(zᵢ = match | votes)` under current worker
//!   rates and class prior,
//! * **M-step** — re-estimate `αw`, `βw` and the prior from the
//!   posteriors (with Laplace smoothing so degenerate workers cannot
//!   produce 0/1 rates and infinite log-odds).
//!
//! Initialization is majority vote, as in Ipeirotis et al. \[16\]. The
//! spammer robustness the paper relies on falls out naturally: a random
//! clicker converges to `α ≈ 1 − β`, carrying zero evidence weight.
//!
//! ## Layout and cost
//!
//! [`DawidSkene::run`] first gives pairs and workers dense ids in order
//! of first appearance and stores the votes in compressed sparse rows:
//! pair `i`'s votes are one contiguous run of `(worker, verdict)` in
//! input order. The id maps are dropped before EM starts.
//!
//! Each iteration then runs three steps:
//!
//! * the **M-step** walks pairs in dense order and each pair's votes in
//!   input order, accumulating per-worker counts;
//! * a **log table** holds `[ln α, ln(1 − β), ln(1 − α), ln β]` per
//!   worker, plus `ln prior` and `ln(1 − prior)`, computed once per
//!   iteration rather than once per vote;
//! * the **E-step runs once per vote pattern**. A pattern is a distinct
//!   ordered vote list; every pair of a cluster HIT is answered by the
//!   same workers, so a job's patterns are far fewer than its pairs.
//!   Pairs with the same pattern start from the same majority vote and
//!   get the same posterior from every E-step, so the result is copied
//!   to each pair. The softmax's larger side is `exp(0) = 1.0`, so it is
//!   written as that literal and `exp` runs once.
//!
//! The output is bit-identical to a plain per-pair, per-vote EM: every
//! floating-point operation that reaches a result happens with the same
//! operands in the same order (the M-step's accumulation order and the
//! E-step's per-vote summation order are unchanged, a table entry is the
//! same `ln` the per-vote code computed, and `exp(0) = 1` exactly). The
//! test module keeps that plain EM as an oracle.

use crate::Vote;
use crowder_types::{Error, Pair, Result, ScoredPair};
use std::collections::{BTreeMap, HashMap};

/// Estimated quality of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerQuality {
    /// Estimated P(vote YES | true match).
    pub sensitivity: f64,
    /// Estimated P(vote NO | true non-match).
    pub specificity: f64,
}

/// Result of a Dawid–Skene run.
#[derive(Debug, Clone)]
pub struct DawidSkeneOutcome {
    /// Per-pair match posteriors, ranked descending — the hybrid
    /// workflow's final ranked list.
    pub ranked: Vec<ScoredPair>,
    /// Per-worker quality estimates, keyed by worker index.
    pub worker_quality: BTreeMap<usize, WorkerQuality>,
    /// Estimated prevalence of true matches.
    pub prior: f64,
    /// EM iterations performed.
    pub iterations: usize,
    /// True iff the parameter change dropped below tolerance.
    pub converged: bool,
}

/// Dawid–Skene EM configuration.
#[derive(Debug, Clone)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the max absolute posterior change.
    pub tolerance: f64,
    /// Laplace smoothing pseudo-count.
    pub smoothing: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        DawidSkene {
            max_iterations: 100,
            tolerance: 1e-6,
            smoothing: 0.5,
        }
    }
}

impl DawidSkene {
    /// Run EM on the votes. Errors on an invalid configuration (a
    /// `smoothing` that is not finite and positive, or a `tolerance` that
    /// is not finite and non-negative) and on an empty vote set.
    pub fn run(&self, votes: &[Vote]) -> Result<DawidSkeneOutcome> {
        self.validate()?;
        if votes.is_empty() {
            return Err(Error::InvalidData("no votes to aggregate".into()));
        }
        let layout = VoteLayout::build(votes)?;
        let n_pairs = layout.pairs.len();
        let n_workers = layout.workers.len();

        // Init posteriors with majority vote, once per pattern.
        let mut pattern_post: Vec<f64> = layout
            .patterns
            .iter()
            .map(|&p| {
                let vs = layout.votes_of(p as usize);
                let yes = vs.iter().filter(|(_, v)| *v).count();
                yes as f64 / vs.len() as f64
            })
            .collect();
        let mut posterior: Vec<f64> = layout
            .pattern_of
            .iter()
            .map(|&k| pattern_post[k as usize])
            .collect();

        let mut sens = vec![0.8f64; n_workers];
        let mut spec = vec![0.8f64; n_workers];
        let mut prior = 0.5f64;
        let mut iterations = 0usize;
        let mut converged = false;
        // Per worker: YES on matches, all on matches, NO on non-matches,
        // all on non-matches.
        let mut counts = vec![[0.0f64; 4]; n_workers];
        // Per worker `[ln α, ln(1 − β), ln(1 − α), ln β]`: a YES vote adds
        // the first two to the (match, non-match) log-likelihoods, a NO
        // vote the last two.
        let mut log_rates = vec![[0.0f64; 4]; n_workers];

        while iterations < self.max_iterations {
            iterations += 1;
            // M-step: worker rates and prior from current posteriors.
            let s = self.smoothing;
            counts.fill([s, 2.0 * s, s, 2.0 * s]);
            for (i, &p) in posterior.iter().enumerate() {
                for &(w, verdict) in layout.votes_of(i) {
                    let c = &mut counts[w as usize];
                    c[1] += p;
                    c[3] += 1.0 - p;
                    if verdict {
                        c[0] += p;
                    } else {
                        c[2] += 1.0 - p;
                    }
                }
            }
            for w in 0..n_workers {
                let [yes_match, tot_match, no_nonmatch, tot_nonmatch] = counts[w];
                sens[w] = (yes_match / tot_match).clamp(1e-6, 1.0 - 1e-6);
                spec[w] = (no_nonmatch / tot_nonmatch).clamp(1e-6, 1.0 - 1e-6);
                log_rates[w] = [
                    sens[w].ln(),
                    (1.0 - spec[w]).ln(),
                    (1.0 - sens[w]).ln(),
                    spec[w].ln(),
                ];
            }
            prior = (posterior.iter().sum::<f64>() / n_pairs as f64).clamp(1e-6, 1.0 - 1e-6);
            let log_prior = [prior.ln(), (1.0 - prior).ln()];

            // E-step: recompute posteriors in log space, once per pattern.
            for (post, &rep) in pattern_post.iter_mut().zip(&layout.patterns) {
                let [mut log_match, mut log_non] = log_prior;
                for &(w, verdict) in layout.votes_of(rep as usize) {
                    let k = if verdict { 0 } else { 2 };
                    let rates = &log_rates[w as usize];
                    log_match += rates[k];
                    log_non += rates[k + 1];
                }
                *post = match_posterior(log_match, log_non);
            }
            let mut max_delta = 0.0f64;
            for (post, &k) in posterior.iter_mut().zip(&layout.pattern_of) {
                let new_post = pattern_post[k as usize];
                max_delta = max_delta.max((new_post - *post).abs());
                *post = new_post;
            }
            if max_delta < self.tolerance {
                converged = true;
                break;
            }
        }

        let mut ranked: Vec<ScoredPair> = layout
            .pairs
            .iter()
            .zip(&posterior)
            .map(|(&pair, &p)| ScoredPair::new(pair, p))
            .collect();
        crowder_types::pair::sort_ranked(&mut ranked);
        let worker_quality: BTreeMap<usize, WorkerQuality> = layout
            .workers
            .iter()
            .enumerate()
            .map(|(dense, &orig)| {
                (
                    orig,
                    WorkerQuality {
                        sensitivity: sens[dense],
                        specificity: spec[dense],
                    },
                )
            })
            .collect();
        Ok(DawidSkeneOutcome {
            ranked,
            worker_quality,
            prior,
            iterations,
            converged,
        })
    }

    /// Reject settings that would make EM produce NaN or never stop
    /// early: with zero smoothing a worker whose votes all fall on
    /// certain non-matches divides 0 by 0, and a NaN tolerance never
    /// compares true.
    fn validate(&self) -> Result<()> {
        if !(self.smoothing.is_finite() && self.smoothing > 0.0) {
            return Err(Error::InvalidConfig {
                param: "smoothing",
                message: format!("must be finite and > 0, got {}", self.smoothing),
            });
        }
        if !(self.tolerance.is_finite() && self.tolerance >= 0.0) {
            return Err(Error::InvalidConfig {
                param: "tolerance",
                message: format!("must be finite and >= 0, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// `P(match)` from the two class log-likelihoods. The larger side's
/// `exp(0)` is the literal `1.0`, so one `exp` runs per softmax.
fn match_posterior(log_match: f64, log_non: f64) -> f64 {
    if log_match >= log_non {
        1.0 / (1.0 + (log_non - log_match).exp())
    } else {
        let pm = (log_match - log_non).exp();
        pm / (pm + 1.0)
    }
}

/// The votes in compressed sparse rows, with dense pair and worker ids
/// in order of first appearance.
struct VoteLayout {
    /// Pair of each dense pair id.
    pairs: Vec<Pair>,
    /// Caller's worker index of each dense worker id.
    workers: Vec<usize>,
    /// Pair `i`'s votes are `votes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// `(dense worker, verdict)`, each pair's votes in input order.
    votes: Vec<(u32, bool)>,
    /// Vote pattern (distinct ordered vote list) of each pair.
    pattern_of: Vec<u32>,
    /// First pair with each pattern, in order of first appearance.
    patterns: Vec<u32>,
}

impl VoteLayout {
    fn build(votes: &[Vote]) -> Result<Self> {
        if u32::try_from(votes.len()).is_err() {
            return Err(Error::InvalidData(format!(
                "{} votes: at most u32::MAX fit the dense vote layout",
                votes.len()
            )));
        }
        // Std `HashMap` with its default (keyed) hasher: pair and worker
        // ids come from outside.
        let mut pair_ids: HashMap<Pair, u32> = HashMap::new();
        let mut worker_ids: HashMap<usize, u32> = HashMap::new();
        let mut pairs = Vec::new();
        let mut workers = Vec::new();
        let mut per_pair: Vec<u32> = Vec::new();
        let mut dense: Vec<(u32, u32)> = Vec::with_capacity(votes.len());
        for &(pair, worker, _) in votes {
            let p = *pair_ids.entry(pair).or_insert_with(|| {
                pairs.push(pair);
                per_pair.push(0);
                (pairs.len() - 1) as u32
            });
            let w = *worker_ids.entry(worker).or_insert_with(|| {
                workers.push(worker);
                (workers.len() - 1) as u32
            });
            per_pair[p as usize] += 1;
            dense.push((p, w));
        }
        drop(pair_ids);
        drop(worker_ids);

        // Prefix sums; `per_pair` becomes each pair's write cursor.
        let mut offsets = Vec::with_capacity(pairs.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for n in &mut per_pair {
            let start = end;
            end += *n;
            offsets.push(end);
            *n = start;
        }
        let mut flat = vec![(0u32, false); votes.len()];
        for (&(p, w), &(_, _, verdict)) in dense.iter().zip(votes) {
            let cursor = &mut per_pair[p as usize];
            flat[*cursor as usize] = (w, verdict);
            *cursor += 1;
        }
        drop(dense);
        drop(per_pair);

        let votes_of = |i: usize| &flat[offsets[i] as usize..offsets[i + 1] as usize];
        let mut pattern_ids: HashMap<&[(u32, bool)], u32> = HashMap::new();
        let mut patterns = Vec::new();
        let pattern_of = (0..pairs.len())
            .map(|i| {
                *pattern_ids.entry(votes_of(i)).or_insert_with(|| {
                    patterns.push(i as u32);
                    (patterns.len() - 1) as u32
                })
            })
            .collect();
        drop(pattern_ids);
        Ok(VoteLayout {
            pairs,
            workers,
            offsets,
            votes: flat,
            pattern_of,
            patterns,
        })
    }

    /// Pair `i`'s `(dense worker, verdict)` votes, in input order.
    fn votes_of(&self, i: usize) -> &[(u32, bool)] {
        &self.votes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Synthesize votes: `n_match` true-match pairs and `n_non` non-match
    /// pairs, voted on by workers with the given (sens, spec) profiles.
    fn synth_votes(
        n_match: u32,
        n_non: u32,
        workers: &[(f64, f64)],
        seed: u64,
    ) -> (Vec<Vote>, Vec<(Pair, bool)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes = Vec::new();
        let mut truth = Vec::new();
        for i in 0..(n_match + n_non) {
            let pair = Pair::of(2 * i, 2 * i + 1);
            let is_match = i < n_match;
            truth.push((pair, is_match));
            for (w, &(sens, spec)) in workers.iter().enumerate() {
                let p_yes = if is_match { sens } else { 1.0 - spec };
                votes.push((pair, w, rng.random::<f64>() < p_yes));
            }
        }
        (votes, truth)
    }

    fn accuracy(ranked: &[ScoredPair], truth: &[(Pair, bool)]) -> f64 {
        let truth_map: std::collections::HashMap<Pair, bool> = truth.iter().copied().collect();
        let correct = ranked
            .iter()
            .filter(|sp| (sp.likelihood >= 0.5) == truth_map[&sp.pair])
            .count();
        correct as f64 / ranked.len() as f64
    }

    #[test]
    fn recovers_truth_with_good_workers() {
        let (votes, truth) = synth_votes(40, 60, &[(0.9, 0.9); 3], 1);
        let out = DawidSkene::default().run(&votes).unwrap();
        assert!(out.converged);
        assert!(accuracy(&out.ranked, &truth) > 0.95);
        assert!((out.prior - 0.4).abs() < 0.1);
    }

    #[test]
    fn downweights_spammers_beating_majority() {
        // 2 spammers + 3 good workers: majority can flip when both
        // spammers collude with one error; EM learns to ignore them.
        let workers = [
            (0.95, 0.95),
            (0.95, 0.95),
            (0.95, 0.95),
            (0.5, 0.5),
            (0.5, 0.5),
        ];
        let (votes, truth) = synth_votes(60, 60, &workers, 7);
        let em = DawidSkene::default().run(&votes).unwrap();
        let mv = crate::majority::majority_vote(&votes);
        let em_acc = accuracy(&em.ranked, &truth);
        let mv_acc = accuracy(&mv, &truth);
        assert!(
            em_acc >= mv_acc,
            "EM {em_acc} should be ≥ majority {mv_acc}"
        );
        // Spammer quality estimates hover near chance.
        let spam_q = em.worker_quality[&3];
        assert!(
            (spam_q.sensitivity + (1.0 - spam_q.specificity) - 1.0).abs() < 0.25,
            "random spammer should look uninformative: {spam_q:?}"
        );
    }

    #[test]
    fn estimates_worker_quality() {
        let workers = [(0.95, 0.9), (0.7, 0.8), (0.9, 0.95)];
        let (votes, _) = synth_votes(150, 150, &workers, 3);
        let out = DawidSkene::default().run(&votes).unwrap();
        for (w, &(true_sens, _)) in workers.iter().enumerate() {
            let est = out.worker_quality[&w];
            assert!(
                (est.sensitivity - true_sens).abs() < 0.12,
                "worker {w}: estimated {est:?}, true sens {true_sens}"
            );
        }
    }

    #[test]
    fn posteriors_are_probabilities() {
        let (votes, _) = synth_votes(10, 10, &[(0.8, 0.8); 3], 5);
        let out = DawidSkene::default().run(&votes).unwrap();
        for sp in &out.ranked {
            assert!((0.0..=1.0).contains(&sp.likelihood));
        }
        // Ranked descending.
        for w in out.ranked.windows(2) {
            assert!(w[0].likelihood >= w[1].likelihood - 1e-12);
        }
    }

    #[test]
    fn empty_votes_is_an_error() {
        assert!(DawidSkene::default().run(&[]).is_err());
    }

    #[test]
    fn single_pair_single_worker() {
        let votes: Vec<Vote> = vec![(Pair::of(0, 1), 0, true)];
        let out = DawidSkene::default().run(&votes).unwrap();
        assert_eq!(out.ranked.len(), 1);
        assert!(out.ranked[0].likelihood > 0.5);
    }

    #[test]
    fn non_positive_or_non_finite_smoothing_is_rejected() {
        // Worker 1's only vote falls on a pair every vote calls NO: with
        // zero smoothing its match total is 0, and 0/0 used to turn every
        // posterior into NaN.
        let votes: Vec<Vote> = vec![
            (Pair::of(0, 1), 0, true),
            (Pair::of(2, 3), 0, false),
            (Pair::of(2, 3), 1, false),
        ];
        for smoothing in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let ds = DawidSkene {
                smoothing,
                ..DawidSkene::default()
            };
            match ds.run(&votes) {
                Err(Error::InvalidConfig { param, .. }) => assert_eq!(param, "smoothing"),
                other => panic!("smoothing {smoothing}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn negative_or_non_finite_tolerance_is_rejected() {
        let votes: Vec<Vote> = vec![(Pair::of(0, 1), 0, true)];
        for tolerance in [-1e-6, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ds = DawidSkene {
                tolerance,
                ..DawidSkene::default()
            };
            match ds.run(&votes) {
                Err(Error::InvalidConfig { param, .. }) => assert_eq!(param, "tolerance"),
                other => panic!("tolerance {tolerance}: expected InvalidConfig, got {other:?}"),
            }
        }
        // Zero tolerance is legal: EM runs to `max_iterations`.
        let ds = DawidSkene {
            tolerance: 0.0,
            max_iterations: 7,
            ..DawidSkene::default()
        };
        assert!(ds.run(&votes).is_ok());
    }

    /// Vote sets of one of five shapes, drawn from `seed`:
    ///
    /// 0. cluster HITs: every pair of a k-record cluster is answered by
    ///    the same three workers, and some clusters are asked twice;
    /// 1. ragged: one to seven votes per pair, interleaved across pairs;
    /// 2. repeated `(pair, worker)` votes, sometimes contradicting;
    /// 3. cluster HITs from workers with sparse, unordered ids;
    /// 4. a single vote.
    fn shaped_votes(shape: u8, seed: u64) -> Vec<Vote> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_workers = rng.random_range(1..=12usize);
        // Per-worker accuracy; about a third are random clickers.
        let accuracy: Vec<f64> = (0..n_workers)
            .map(|_| {
                if rng.random_bool(0.3) {
                    0.5
                } else {
                    rng.random_range(0.6..0.99)
                }
            })
            .collect();
        let answer =
            |rng: &mut StdRng, w: usize, truth: bool| truth == (rng.random::<f64>() < accuracy[w]);
        let mut votes: Vec<Vote> = Vec::new();
        match shape {
            0 | 3 => {
                let mut next = 0u32;
                for _ in 0..rng.random_range(1..=10) {
                    let k = rng.random_range(2..=6u32);
                    let entity: Vec<u32> = (0..k).map(|_| rng.random_range(0..3)).collect();
                    for _ in 0..if rng.random_bool(0.2) { 2 } else { 1 } {
                        let mut trio: Vec<usize> = (0..n_workers).collect();
                        trio.shuffle(&mut rng);
                        trio.truncate(3);
                        for a in 0..k {
                            for b in a + 1..k {
                                let truth = entity[a as usize] == entity[b as usize];
                                for &w in &trio {
                                    let v = answer(&mut rng, w, truth);
                                    votes.push((Pair::of(next + a, next + b), w, v));
                                }
                            }
                        }
                    }
                    next += k;
                }
                if shape == 3 {
                    let mut ids: Vec<usize> = (0..n_workers)
                        .map(|w| rng.random_range(0..1_000_000usize) * 16 + w)
                        .collect();
                    ids.shuffle(&mut rng);
                    for v in &mut votes {
                        v.1 = ids[v.1];
                    }
                }
            }
            1 => {
                for i in 0..rng.random_range(1..=40u32) {
                    let truth = rng.random_bool(0.4);
                    for _ in 0..rng.random_range(1..=7) {
                        let w = rng.random_range(0..n_workers);
                        votes.push((Pair::of(2 * i, 2 * i + 1), w, answer(&mut rng, w, truth)));
                    }
                }
                votes.shuffle(&mut rng);
            }
            2 => {
                for i in 0..rng.random_range(1..=20u32) {
                    let pair = Pair::of(i, i + 1 + rng.random_range(0..5));
                    let truth = rng.random_bool(0.4);
                    for _ in 0..rng.random_range(2..=5) {
                        let w = rng.random_range(0..n_workers.min(2));
                        votes.push((pair, w, answer(&mut rng, w, truth)));
                    }
                }
                votes.shuffle(&mut rng);
            }
            _ => votes.push((Pair::of(3, 9), 41, rng.random_bool(0.5))),
        }
        votes
    }

    /// `a` and `b` agree bit for bit.
    fn assert_bit_identical(
        a: &DawidSkeneOutcome,
        b: &DawidSkeneOutcome,
    ) -> std::result::Result<(), proptest::TestCaseError> {
        let bits = |o: &DawidSkeneOutcome| {
            let ranked: Vec<(Pair, u64)> = o
                .ranked
                .iter()
                .map(|sp| (sp.pair, sp.likelihood.to_bits()))
                .collect();
            let quality: Vec<(usize, u64, u64)> = o
                .worker_quality
                .iter()
                .map(|(&w, q)| (w, q.sensitivity.to_bits(), q.specificity.to_bits()))
                .collect();
            (
                ranked,
                quality,
                o.prior.to_bits(),
                o.iterations,
                o.converged,
            )
        };
        prop_assert_eq!(bits(a), bits(b));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn run_is_bit_identical_to_the_per_pair_oracle(
            shape in 0u8..5,
            seed in 0u64..u64::MAX,
            max_iterations in 0usize..=100,
            tolerance_exp in 0i32..10,
            smoothing in 0.05f64..=2.0,
        ) {
            let votes = shaped_votes(shape, seed);
            let ds = DawidSkene {
                max_iterations,
                // From 1 (one or two iterations) down to 1e-9 (runs long).
                tolerance: 10f64.powi(-tolerance_exp),
                smoothing,
            };
            let fast = ds.run(&votes).unwrap();
            let oracle = reference_run(&ds, &votes).unwrap();
            assert_bit_identical(&fast, &oracle)?;
        }
    }

    /// The plain per-pair, per-vote EM that `run` replaced: `BTreeMap`
    /// ids, one `Vec` per pair, four `ln` per vote and two `exp` per
    /// pair per iteration. `run` must match it bit for bit.
    fn reference_run(ds: &DawidSkene, votes: &[Vote]) -> Result<DawidSkeneOutcome> {
        if votes.is_empty() {
            return Err(Error::InvalidData("no votes to aggregate".into()));
        }
        // Dense indexes for pairs and workers.
        let mut pair_ids: BTreeMap<Pair, usize> = BTreeMap::new();
        let mut worker_ids: BTreeMap<usize, usize> = BTreeMap::new();
        for &(pair, worker, _) in votes {
            let np = pair_ids.len();
            pair_ids.entry(pair).or_insert(np);
            let nw = worker_ids.len();
            worker_ids.entry(worker).or_insert(nw);
        }
        let n_pairs = pair_ids.len();
        let n_workers = worker_ids.len();
        // votes_by_pair[i] = list of (dense worker, verdict).
        let mut votes_by_pair: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n_pairs];
        for &(pair, worker, verdict) in votes {
            votes_by_pair[pair_ids[&pair]].push((worker_ids[&worker], verdict));
        }

        // Init posteriors with majority vote.
        let mut posterior: Vec<f64> = votes_by_pair
            .iter()
            .map(|vs| {
                let yes = vs.iter().filter(|(_, v)| *v).count();
                yes as f64 / vs.len() as f64
            })
            .collect();

        let mut sens = vec![0.8f64; n_workers];
        let mut spec = vec![0.8f64; n_workers];
        let mut prior = 0.5f64;
        let mut iterations = 0usize;
        let mut converged = false;

        while iterations < ds.max_iterations {
            iterations += 1;
            // M-step: worker rates and prior from current posteriors.
            let s = ds.smoothing;
            let mut yes_match = vec![s; n_workers]; // votes YES on matches
            let mut tot_match = vec![2.0 * s; n_workers];
            let mut no_nonmatch = vec![s; n_workers];
            let mut tot_nonmatch = vec![2.0 * s; n_workers];
            for (i, vs) in votes_by_pair.iter().enumerate() {
                let p = posterior[i];
                for &(w, verdict) in vs {
                    tot_match[w] += p;
                    tot_nonmatch[w] += 1.0 - p;
                    if verdict {
                        yes_match[w] += p;
                    } else {
                        no_nonmatch[w] += 1.0 - p;
                    }
                }
            }
            for w in 0..n_workers {
                sens[w] = (yes_match[w] / tot_match[w]).clamp(1e-6, 1.0 - 1e-6);
                spec[w] = (no_nonmatch[w] / tot_nonmatch[w]).clamp(1e-6, 1.0 - 1e-6);
            }
            prior = (posterior.iter().sum::<f64>() / n_pairs as f64).clamp(1e-6, 1.0 - 1e-6);

            // E-step: recompute posteriors in log space.
            let mut max_delta = 0.0f64;
            for (i, vs) in votes_by_pair.iter().enumerate() {
                let mut log_match = prior.ln();
                let mut log_non = (1.0 - prior).ln();
                for &(w, verdict) in vs {
                    if verdict {
                        log_match += sens[w].ln();
                        log_non += (1.0 - spec[w]).ln();
                    } else {
                        log_match += (1.0 - sens[w]).ln();
                        log_non += spec[w].ln();
                    }
                }
                // Softmax of the two log-likelihoods.
                let m = log_match.max(log_non);
                let pm = (log_match - m).exp();
                let pn = (log_non - m).exp();
                let new_post = pm / (pm + pn);
                max_delta = max_delta.max((new_post - posterior[i]).abs());
                posterior[i] = new_post;
            }
            if max_delta < ds.tolerance {
                converged = true;
                break;
            }
        }

        let mut ranked: Vec<ScoredPair> = pair_ids
            .iter()
            .map(|(&pair, &idx)| ScoredPair::new(pair, posterior[idx]))
            .collect();
        crowder_types::pair::sort_ranked(&mut ranked);
        let worker_quality: BTreeMap<usize, WorkerQuality> = worker_ids
            .iter()
            .map(|(&orig, &dense)| {
                (
                    orig,
                    WorkerQuality {
                        sensitivity: sens[dense],
                        specificity: spec[dense],
                    },
                )
            })
            .collect();
        Ok(DawidSkeneOutcome {
            ranked,
            worker_quality,
            prior,
            iterations,
            converged,
        })
    }
}
