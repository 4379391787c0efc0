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
//! of first appearance. It then groups pairs by **vote pattern**: a
//! pattern is a distinct ordered list of `(worker, verdict)` votes.
//! Every pair of a cluster HIT is answered by the same workers, so a
//! job's patterns are far fewer than its pairs (a Product ×4 job has
//! ~265k votes over ~86k pairs in ~8.5k patterns). The layout keeps
//! each pattern's votes once, in compressed sparse rows, with its
//! multiplicity `m` (the number of pairs that share it). Pairs with one
//! pattern start from the same majority vote and get the same posterior
//! from every E-step, so EM runs on patterns alone:
//!
//! * the **M-step** walks patterns in first-appearance order; each adds
//!   `m·p` and `m·(1 − p)` once per vote to its worker's counts;
//! * the **prior** is `Σ m·p / n_pairs`;
//! * a **log table** holds `[ln α, ln(1 − β), ln(1 − α), ln β]` per
//!   worker, plus `ln prior` and `ln(1 − prior)`, computed once per
//!   iteration rather than once per vote;
//! * the **E-step** runs once per pattern. The softmax's larger side is
//!   `exp(0) = 1.0`, so it is written as that literal and `exp` runs
//!   once;
//! * the **convergence test** takes the largest `|Δp|` over patterns,
//!   which is the largest over pairs.
//!
//! Per-pair posteriors are written once, after the loop, for `ranked`.
//!
//! Weighting by `m` is the same EM as walking every vote, but not the
//! same floating-point sums: `m·p` rounds differently from `m` separate
//! additions of `p`. The test module holds two oracles. A plain
//! pattern-weighted EM (ordered maps, one `Vec` per pattern, four `ln`
//! per vote) must match `run` bit for bit. A plain per-pair, per-vote
//! EM, run for the same number of iterations, must agree with `run`
//! within 1e-9 on posteriors, worker rates and the prior over the
//! test's drawn cases. That bound is not a theorem: next to an unstable
//! fixed point EM amplifies any rounding gap until both loops reach
//! the same stable point (in one drawn case of 20,000 the gap grew to
//! 2.8e-5 before both runs met again within 1e-16). On 24
//! `batch-hybrid` jobs the two loops' posteriors differed by at most
//! 7.4e-13, with equal iteration counts and equal sets of pairs at
//! ≥ 0.5.

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
        let n_pairs = layout.pattern_of.len();
        let n_workers = layout.workers.len();

        // Init posteriors with majority vote, once per pattern.
        let mut posterior: Vec<f64> = (0..layout.multiplicity.len())
            .map(|k| {
                let vs = layout.votes_of(k);
                let yes = vs.iter().filter(|(_, v)| *v).count();
                yes as f64 / vs.len() as f64
            })
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
            // M-step: worker rates and prior from current posteriors,
            // each pattern weighted by its multiplicity.
            let s = self.smoothing;
            counts.fill([s, 2.0 * s, s, 2.0 * s]);
            for (k, (&p, &m)) in posterior.iter().zip(&layout.multiplicity).enumerate() {
                let (match_mass, non_mass) = (m * p, m * (1.0 - p));
                for &(w, verdict) in layout.votes_of(k) {
                    let c = &mut counts[w as usize];
                    c[1] += match_mass;
                    c[3] += non_mass;
                    if verdict {
                        c[0] += match_mass;
                    } else {
                        c[2] += non_mass;
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
            let match_mass: f64 = posterior
                .iter()
                .zip(&layout.multiplicity)
                .map(|(&p, &m)| m * p)
                .sum();
            prior = (match_mass / n_pairs as f64).clamp(1e-6, 1.0 - 1e-6);
            let log_prior = [prior.ln(), (1.0 - prior).ln()];

            // E-step: recompute posteriors in log space, once per pattern.
            let mut max_delta = 0.0f64;
            for (k, post) in posterior.iter_mut().enumerate() {
                let [mut log_match, mut log_non] = log_prior;
                for &(w, verdict) in layout.votes_of(k) {
                    let j = if verdict { 0 } else { 2 };
                    let rates = &log_rates[w as usize];
                    log_match += rates[j];
                    log_non += rates[j + 1];
                }
                let new_post = match_posterior(log_match, log_non);
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
            .zip(&layout.pattern_of)
            .map(|(&pair, &k)| ScoredPair::new(pair, posterior[k as usize]))
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

/// The votes grouped by pattern, with dense pair and worker ids in
/// order of first appearance.
struct VoteLayout {
    /// Pair of each dense pair id.
    pairs: Vec<Pair>,
    /// Caller's worker index of each dense worker id.
    workers: Vec<usize>,
    /// Vote pattern of each pair; patterns are numbered in order of
    /// first appearance over dense pair ids.
    pattern_of: Vec<u32>,
    /// Pattern `k`'s votes are `votes[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    /// `(dense worker, verdict)`, each pattern's votes in input order.
    votes: Vec<(u32, bool)>,
    /// Number of pairs with each pattern.
    multiplicity: Vec<f64>,
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
        // ids come from outside. Each HIT goes to three workers (§7.3),
        // so a job has about a third as many pairs as votes; reserving
        // that skips the map's regrowth, and a larger reserve only
        // spreads the table over more cache lines.
        let mut pair_ids: HashMap<Pair, u32> = HashMap::with_capacity(votes.len() / 3);
        let mut worker_ids: HashMap<usize, u32> = HashMap::new();
        let mut pairs = Vec::new();
        let mut workers = Vec::new();
        let mut per_pair: Vec<u32> = Vec::new();
        let mut dense: Vec<(u32, u32)> = Vec::with_capacity(votes.len());
        // An assignment's verdicts arrive together, so a run of votes
        // shares one worker: reuse its id until the worker changes.
        let mut last_worker: Option<(usize, u32)> = None;
        for &(pair, worker, _) in votes {
            let p = *pair_ids.entry(pair).or_insert_with(|| {
                pairs.push(pair);
                per_pair.push(0);
                (pairs.len() - 1) as u32
            });
            let w = match last_worker {
                Some((prev, w)) if prev == worker => w,
                _ => {
                    let w = *worker_ids.entry(worker).or_insert_with(|| {
                        workers.push(worker);
                        (workers.len() - 1) as u32
                    });
                    last_worker = Some((worker, w));
                    w
                }
            };
            per_pair[p as usize] += 1;
            dense.push((p, w));
        }
        drop(pair_ids);
        drop(worker_ids);

        // Per-pair CSR. Prefix sums; `per_pair` becomes each pair's write
        // cursor.
        let mut pair_offsets = Vec::with_capacity(pairs.len() + 1);
        let mut end = 0u32;
        pair_offsets.push(end);
        for n in &mut per_pair {
            let start = end;
            end += *n;
            pair_offsets.push(end);
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

        // Group pairs by pattern, then keep one copy of each pattern's
        // votes.
        let votes_of_pair =
            |i: usize| &flat[pair_offsets[i] as usize..pair_offsets[i + 1] as usize];
        let mut pattern_ids: HashMap<&[(u32, bool)], u32> = HashMap::new();
        let mut representatives = Vec::new();
        let mut multiplicity = Vec::new();
        let pattern_of = (0..pairs.len())
            .map(|i| {
                let k = *pattern_ids.entry(votes_of_pair(i)).or_insert_with(|| {
                    representatives.push(i);
                    multiplicity.push(0.0);
                    (representatives.len() - 1) as u32
                });
                multiplicity[k as usize] += 1.0;
                k
            })
            .collect();
        drop(pattern_ids);
        let mut offsets = Vec::with_capacity(representatives.len() + 1);
        let mut pattern_votes = Vec::new();
        offsets.push(0);
        for &i in &representatives {
            pattern_votes.extend_from_slice(votes_of_pair(i));
            offsets.push(pattern_votes.len() as u32);
        }
        Ok(VoteLayout {
            pairs,
            workers,
            pattern_of,
            offsets,
            votes: pattern_votes,
            multiplicity,
        })
    }

    /// Pattern `k`'s `(dense worker, verdict)` votes, in input order.
    fn votes_of(&self, k: usize) -> &[(u32, bool)] {
        &self.votes[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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
        fn run_is_bit_identical_to_the_pattern_oracle(
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

        /// With zero tolerance both loops run exactly `max_iterations`, so
        /// the only difference left is how the sums round. Near an
        /// unstable fixed point EM amplifies that difference for a while
        /// (see the module docs), so the 1e-9 bound holds on these cases,
        /// not on every input.
        #[test]
        fn run_agrees_with_the_per_vote_oracle_within_1e9(
            shape in 0u8..5,
            seed in 0u64..u64::MAX,
            max_iterations in 0usize..=100,
            smoothing in 0.05f64..=2.0,
        ) {
            let votes = shaped_votes(shape, seed);
            let ds = DawidSkene {
                max_iterations,
                tolerance: 0.0,
                smoothing,
            };
            let fast = ds.run(&votes).unwrap();
            let per_vote = per_vote_run(&ds, &votes).unwrap();
            prop_assert_eq!(fast.iterations, per_vote.iterations);
            prop_assert!((fast.prior - per_vote.prior).abs() <= 1e-9);
            let oracle_post: HashMap<Pair, f64> = per_vote
                .ranked
                .iter()
                .map(|sp| (sp.pair, sp.likelihood))
                .collect();
            prop_assert_eq!(fast.ranked.len(), oracle_post.len());
            for sp in &fast.ranked {
                let diff = (sp.likelihood - oracle_post[&sp.pair]).abs();
                prop_assert!(diff <= 1e-9, "{:?}: posterior off by {}", sp.pair, diff);
            }
            prop_assert_eq!(fast.worker_quality.len(), per_vote.worker_quality.len());
            for (w, q) in &fast.worker_quality {
                let o = per_vote.worker_quality[w];
                prop_assert!((q.sensitivity - o.sensitivity).abs() <= 1e-9);
                prop_assert!((q.specificity - o.specificity).abs() <= 1e-9);
            }
        }
    }

    /// Cluster HITs at the paper's scale: `n_clusters` clusters of `k`
    /// records, each answered by 3 of `n_workers` workers.
    fn cluster_hit_votes(n_clusters: u32, k: u32, n_workers: usize, seed: u64) -> Vec<Vote> {
        let mut rng = StdRng::seed_from_u64(seed);
        let accuracy: Vec<f64> = (0..n_workers)
            .map(|_| {
                if rng.random_bool(0.2) {
                    0.5
                } else {
                    rng.random_range(0.7..0.99)
                }
            })
            .collect();
        let mut votes = Vec::new();
        for c in 0..n_clusters {
            let entity: Vec<u32> = (0..k).map(|_| rng.random_range(0..4)).collect();
            let mut trio: Vec<usize> = (0..n_workers).collect();
            trio.shuffle(&mut rng);
            for &w in &trio[..3] {
                for a in 0..k {
                    for b in a + 1..k {
                        let truth = entity[a as usize] == entity[b as usize];
                        let verdict = truth == (rng.random::<f64>() < accuracy[w]);
                        votes.push((Pair::of(c * k + a, c * k + b), w, verdict));
                    }
                }
            }
        }
        votes
    }

    #[test]
    fn large_cluster_job_matches_the_per_vote_oracle() {
        let votes = cluster_hit_votes(200, 10, 30, 29);
        let ds = DawidSkene::default();
        let fast = ds.run(&votes).unwrap();
        let per_vote = per_vote_run(&ds, &votes).unwrap();
        assert_eq!(fast.iterations, per_vote.iterations);
        let matches = |o: &DawidSkeneOutcome| -> BTreeSet<Pair> {
            o.ranked
                .iter()
                .filter(|sp| sp.likelihood >= 0.5)
                .map(|sp| sp.pair)
                .collect()
        };
        assert_eq!(matches(&fast), matches(&per_vote));
    }

    /// The plain pattern-weighted EM: `BTreeMap` ids, one `Vec` per
    /// pattern keyed by its ordered vote list, multiplicities, four `ln`
    /// per vote and two `exp` per pattern per iteration. Every sum runs
    /// over patterns in order of first appearance. `run` must match it
    /// bit for bit.
    fn reference_run(ds: &DawidSkene, votes: &[Vote]) -> Result<DawidSkeneOutcome> {
        if votes.is_empty() {
            return Err(Error::InvalidData("no votes to aggregate".into()));
        }
        let dense = DenseVotes::of(votes);
        let n_pairs = dense.pair_ids.len();
        let n_workers = dense.worker_ids.len();
        // Patterns in order of first appearance over dense pair ids.
        let mut pattern_ids: BTreeMap<&[(usize, bool)], usize> = BTreeMap::new();
        let mut patterns: Vec<&[(usize, bool)]> = Vec::new();
        let mut multiplicity: Vec<f64> = Vec::new();
        let pattern_of: Vec<usize> = dense
            .by_pair
            .iter()
            .map(|vs| {
                let k = *pattern_ids.entry(vs).or_insert_with(|| {
                    patterns.push(vs);
                    multiplicity.push(0.0);
                    patterns.len() - 1
                });
                multiplicity[k] += 1.0;
                k
            })
            .collect();

        // Init posteriors with majority vote.
        let mut posterior: Vec<f64> = patterns
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
            for (k, vs) in patterns.iter().enumerate() {
                let m = multiplicity[k];
                let p = posterior[k];
                for &(w, verdict) in vs.iter() {
                    tot_match[w] += m * p;
                    tot_nonmatch[w] += m * (1.0 - p);
                    if verdict {
                        yes_match[w] += m * p;
                    } else {
                        no_nonmatch[w] += m * (1.0 - p);
                    }
                }
            }
            for w in 0..n_workers {
                sens[w] = (yes_match[w] / tot_match[w]).clamp(1e-6, 1.0 - 1e-6);
                spec[w] = (no_nonmatch[w] / tot_nonmatch[w]).clamp(1e-6, 1.0 - 1e-6);
            }
            let mut match_mass = 0.0;
            for (k, &p) in posterior.iter().enumerate() {
                match_mass += multiplicity[k] * p;
            }
            prior = (match_mass / n_pairs as f64).clamp(1e-6, 1.0 - 1e-6);

            // E-step: recompute posteriors in log space.
            let mut max_delta = 0.0f64;
            for (k, vs) in patterns.iter().enumerate() {
                let new_post = softmax_posterior(prior, &sens, &spec, vs);
                max_delta = max_delta.max((new_post - posterior[k]).abs());
                posterior[k] = new_post;
            }
            if max_delta < ds.tolerance {
                converged = true;
                break;
            }
        }

        let per_pair: Vec<f64> = pattern_of.iter().map(|&k| posterior[k]).collect();
        Ok(dense.outcome(&per_pair, &sens, &spec, prior, iterations, converged))
    }

    /// Dense pair and worker ids in order of first appearance, and each
    /// pair's `(dense worker, verdict)` votes in input order.
    struct DenseVotes {
        pair_ids: BTreeMap<Pair, usize>,
        worker_ids: BTreeMap<usize, usize>,
        by_pair: Vec<Vec<(usize, bool)>>,
    }

    impl DenseVotes {
        fn of(votes: &[Vote]) -> Self {
            let mut pair_ids: BTreeMap<Pair, usize> = BTreeMap::new();
            let mut worker_ids: BTreeMap<usize, usize> = BTreeMap::new();
            for &(pair, worker, _) in votes {
                let np = pair_ids.len();
                pair_ids.entry(pair).or_insert(np);
                let nw = worker_ids.len();
                worker_ids.entry(worker).or_insert(nw);
            }
            let mut by_pair: Vec<Vec<(usize, bool)>> = vec![Vec::new(); pair_ids.len()];
            for &(pair, worker, verdict) in votes {
                by_pair[pair_ids[&pair]].push((worker_ids[&worker], verdict));
            }
            DenseVotes {
                pair_ids,
                worker_ids,
                by_pair,
            }
        }

        /// An oracle's outcome from per-pair posteriors and per-worker
        /// rates, both indexed by dense id.
        fn outcome(
            &self,
            posterior: &[f64],
            sens: &[f64],
            spec: &[f64],
            prior: f64,
            iterations: usize,
            converged: bool,
        ) -> DawidSkeneOutcome {
            let mut ranked: Vec<ScoredPair> = self
                .pair_ids
                .iter()
                .map(|(&pair, &idx)| ScoredPair::new(pair, posterior[idx]))
                .collect();
            crowder_types::pair::sort_ranked(&mut ranked);
            let worker_quality: BTreeMap<usize, WorkerQuality> = self
                .worker_ids
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
            DawidSkeneOutcome {
                ranked,
                worker_quality,
                prior,
                iterations,
                converged,
            }
        }
    }

    /// `P(match)` of one vote list: four `ln` per vote and a two-`exp`
    /// softmax.
    fn softmax_posterior(prior: f64, sens: &[f64], spec: &[f64], vs: &[(usize, bool)]) -> f64 {
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
        let m = log_match.max(log_non);
        let pm = (log_match - m).exp();
        let pn = (log_non - m).exp();
        pm / (pm + pn)
    }

    /// The plain per-pair, per-vote EM: every M-step and prior sum walks
    /// every vote and every pair. It sums in a different order from
    /// `run`, so it agrees within rounding, not bit for bit.
    fn per_vote_run(ds: &DawidSkene, votes: &[Vote]) -> Result<DawidSkeneOutcome> {
        if votes.is_empty() {
            return Err(Error::InvalidData("no votes to aggregate".into()));
        }
        let dense = DenseVotes::of(votes);
        let n_pairs = dense.pair_ids.len();
        let n_workers = dense.worker_ids.len();

        // Init posteriors with majority vote.
        let mut posterior: Vec<f64> = dense
            .by_pair
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
            for (i, vs) in dense.by_pair.iter().enumerate() {
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
            for (i, vs) in dense.by_pair.iter().enumerate() {
                let new_post = softmax_posterior(prior, &sens, &spec, vs);
                max_delta = max_delta.max((new_post - posterior[i]).abs());
                posterior[i] = new_post;
            }
            if max_delta < ds.tolerance {
                converged = true;
                break;
            }
        }

        Ok(dense.outcome(&posterior, &sens, &spec, prior, iterations, converged))
    }
}
