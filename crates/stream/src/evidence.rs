//! The signed evidence ledger: crowd answers as revocable votes, not
//! irreversible commitments.
//!
//! The first streaming engine (PR 3) treated every crowd "yes" as
//! final — one wrong answer merged two clusters forever. Following the
//! fault-tolerant ER model of Gruenheid et al. 2015, the ledger instead
//! accumulates **signed, weighted votes** per pair and derives the edge
//! state from the running tally:
//!
//! * a pair is **crowd-committed** while its net weight
//!   (`yes − no`) reaches [`EvidenceConfig::commit_margin`] — a
//!   committed edge joins the cluster graph, and *contradicting answers
//!   decommit it again* (the cluster splits if the edge was a bridge);
//! * a machine-surfaced pair is **vetoed** while its net weight falls
//!   to `−veto_margin` or below — the crowd can dissolve an edge the
//!   join believed in, shrinking the cluster.
//!
//! Weights come from the Dawid–Skene worker-quality estimates
//! (`crowder-aggregate`): [`vote_weight`] maps a worker's estimated
//! confusion matrix to Youden's J (`sensitivity + specificity − 1`),
//! so a random clicker's votes weigh ~0 and an estimated liar's weigh
//! nothing at all, while the margins keep any *single* unweighted
//! answer from flipping an edge.
//!
//! The whole ledger is revocable: [`EvidenceLedger::purge`] forgets
//! every vote for a pair (record deletion, GDPR-style retraction), and
//! the derived edge state reverts exactly to what it would have been
//! had the votes never arrived.

use crowder_types::Pair;
use std::collections::HashMap;

/// Commit/veto thresholds of the ledger.
#[derive(Debug, Clone, Copy)]
pub struct EvidenceConfig {
    /// Net positive weight at which a pair's edge commits into the
    /// cluster graph. `1.0` reproduces the old first-"yes" behavior
    /// for unit-weight votes (but still revocably); `2.0` requires two
    /// uncontested unit votes.
    pub commit_margin: f64,
    /// Net negative weight at which a *machine-surfaced* edge is
    /// suppressed (the crowd out-votes the similarity join).
    pub veto_margin: f64,
}

impl Default for EvidenceConfig {
    /// Commit after one net uncontested unit vote, veto a machine edge
    /// after two net negative unit votes — the paper's 3-assignment
    /// replication makes both reachable within a single HIT's answers.
    fn default() -> Self {
        EvidenceConfig {
            commit_margin: 1.0,
            veto_margin: 2.0,
        }
    }
}

/// Running signed tally for one pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Summed weight of YES votes.
    pub yes: f64,
    /// Summed weight of NO votes.
    pub no: f64,
    /// Unweighted vote count (both signs).
    pub votes: u32,
}

impl Tally {
    /// Net signed weight: `yes − no`.
    #[inline]
    pub fn net(&self) -> f64 {
        self.yes - self.no
    }
}

/// Map a worker's (estimated) confusion matrix to a vote weight:
/// Youden's J, clamped to `[0, 1]`. A perfect worker weighs 1, a
/// random clicker (`sensitivity + specificity = 1`) weighs 0, and an
/// estimated adversary (J < 0) is silenced rather than trusted
/// negatively — flipping a liar's votes would itself be evidence
/// laundering if the estimate is wrong. A NaN estimate weighs 0 too
/// (`f64::clamp` alone would pass it through).
#[inline]
pub fn vote_weight(sensitivity: f64, specificity: f64) -> f64 {
    let j = sensitivity + specificity - 1.0;
    if j.is_nan() {
        0.0
    } else {
        j.clamp(0.0, 1.0)
    }
}

/// Is `weight` a usable vote weight — finite and non-negative? Anything
/// else would poison a tally for good (NaN never compares, ±∞ never
/// cancels), so every entry point rejects it.
#[inline]
pub fn valid_weight(weight: f64) -> bool {
    weight.is_finite() && weight >= 0.0
}

/// How one vote (or purge) changed a pair's derived edge state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceShift {
    /// Derived state unchanged.
    None,
    /// The pair crossed the commit margin upward.
    Committed,
    /// The pair fell back below the commit margin.
    Decommitted,
}

/// Per-pair signed vote tallies with threshold-derived edge state.
#[derive(Debug, Clone, Default)]
pub struct EvidenceLedger {
    config: EvidenceConfig,
    tallies: HashMap<Pair, Tally>,
}

impl EvidenceLedger {
    /// An empty ledger with the given thresholds.
    pub fn new(config: EvidenceConfig) -> Self {
        EvidenceLedger {
            config,
            tallies: HashMap::new(),
        }
    }

    /// Rebuild a ledger from exported tallies (snapshot import). The
    /// derived commit/veto state is recomputed from the tallies, so a
    /// restored ledger answers exactly like the one it was exported
    /// from.
    pub fn from_tallies(
        config: EvidenceConfig,
        tallies: impl IntoIterator<Item = (Pair, Tally)>,
    ) -> Self {
        EvidenceLedger {
            config,
            tallies: tallies.into_iter().collect(),
        }
    }

    /// The thresholds in force.
    #[inline]
    pub fn config(&self) -> EvidenceConfig {
        self.config
    }

    /// Number of pairs with recorded evidence.
    #[inline]
    pub fn len(&self) -> usize {
        self.tallies.len()
    }

    /// True iff no vote was ever recorded (or all were purged).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tallies.is_empty()
    }

    /// The tally for a pair, if any evidence exists.
    #[inline]
    pub fn tally(&self, pair: &Pair) -> Option<Tally> {
        self.tallies.get(pair).copied()
    }

    /// Is the pair currently crowd-committed (net ≥ commit margin)?
    #[inline]
    pub fn committed(&self, pair: &Pair) -> bool {
        self.tallies
            .get(pair)
            .is_some_and(|t| t.net() >= self.config.commit_margin)
    }

    /// Is the pair currently vetoed (net ≤ −veto margin)? Only
    /// meaningful for machine-surfaced pairs — a veto suppresses the
    /// join's edge.
    #[inline]
    pub fn vetoed(&self, pair: &Pair) -> bool {
        self.tallies
            .get(pair)
            .is_some_and(|t| t.net() <= -self.config.veto_margin)
    }

    /// Record one signed, weighted vote. Returns how the *commit*
    /// state shifted (veto shifts are reported by the caller's edge
    /// sync, which also knows about machine support).
    pub fn record(&mut self, pair: Pair, verdict: bool, weight: f64) -> EvidenceShift {
        let was = self.committed(&pair);
        let t = self.tallies.entry(pair).or_default();
        if verdict {
            t.yes += weight;
        } else {
            t.no += weight;
        }
        t.votes += 1;
        match (was, self.committed(&pair)) {
            (false, true) => EvidenceShift::Committed,
            (true, false) => EvidenceShift::Decommitted,
            _ => EvidenceShift::None,
        }
    }

    /// Forget every vote for `pair` (retraction / record deletion).
    /// Returns the shift of the commit state.
    pub fn purge(&mut self, pair: &Pair) -> EvidenceShift {
        let was = self.committed(pair);
        self.tallies.remove(pair);
        if was {
            EvidenceShift::Decommitted
        } else {
            EvidenceShift::None
        }
    }

    /// All pairs with evidence that touch `record` — the set a record
    /// deletion must purge.
    pub fn pairs_touching(&self, record: crowder_types::RecordId) -> Vec<Pair> {
        self.tallies
            .keys()
            .filter(|p| p.contains(record))
            .copied()
            .collect()
    }

    /// Iterate over all tallies (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Pair, &Tally)> {
        self.tallies.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> EvidenceLedger {
        EvidenceLedger::new(EvidenceConfig {
            commit_margin: 2.0,
            veto_margin: 2.0,
        })
    }

    #[test]
    fn vote_weight_maps_nan_estimates_to_zero() {
        assert_eq!(vote_weight(f64::NAN, 0.9), 0.0);
        assert_eq!(vote_weight(0.9, f64::NAN), 0.0);
        assert_eq!(vote_weight(f64::INFINITY, f64::NEG_INFINITY), 0.0);
        assert_eq!(vote_weight(0.9, 0.8), 0.7000000000000002);
        assert!(!valid_weight(f64::NAN) && !valid_weight(f64::INFINITY));
        assert!(!valid_weight(-0.5) && valid_weight(0.0) && valid_weight(2.5));
    }

    #[test]
    fn commit_requires_the_margin() {
        let mut l = ledger();
        let p = Pair::of(0, 1);
        assert_eq!(l.record(p, true, 1.0), EvidenceShift::None);
        assert!(!l.committed(&p), "one unit vote is below margin 2");
        assert_eq!(l.record(p, true, 1.0), EvidenceShift::Committed);
        assert!(l.committed(&p));
    }

    #[test]
    fn contradicting_votes_decommit() {
        let mut l = ledger();
        let p = Pair::of(0, 1);
        l.record(p, true, 2.0);
        assert!(l.committed(&p));
        assert_eq!(l.record(p, false, 0.5), EvidenceShift::Decommitted);
        assert!(!l.committed(&p));
        // And further negatives reach the veto margin.
        l.record(p, false, 3.5);
        assert!(l.vetoed(&p));
    }

    #[test]
    fn purge_restores_the_blank_state() {
        let mut l = ledger();
        let p = Pair::of(3, 4);
        l.record(p, true, 5.0);
        assert!(l.committed(&p));
        assert_eq!(l.purge(&p), EvidenceShift::Decommitted);
        assert!(!l.committed(&p));
        assert!(!l.vetoed(&p));
        assert!(l.tally(&p).is_none());
        assert_eq!(l.purge(&p), EvidenceShift::None);
        assert!(l.is_empty());
    }

    #[test]
    fn weights_scale_influence() {
        let mut l = ledger();
        let p = Pair::of(1, 2);
        // Ten spammer-weight yes votes never commit…
        for _ in 0..10 {
            l.record(p, true, 0.0);
        }
        assert!(!l.committed(&p));
        // …while two trusted votes do.
        l.record(p, true, 1.0);
        l.record(p, true, 1.0);
        assert!(l.committed(&p));
        assert_eq!(l.tally(&p).unwrap().votes, 12);
    }

    #[test]
    fn vote_weight_is_youdens_j() {
        assert_eq!(vote_weight(1.0, 1.0), 1.0);
        assert_eq!(vote_weight(0.5, 0.5), 0.0);
        assert_eq!(
            vote_weight(0.0, 0.0),
            0.0,
            "liars are silenced, not inverted"
        );
        assert!((vote_weight(0.9, 0.8) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn pairs_touching_finds_all() {
        use crowder_types::RecordId;
        let mut l = ledger();
        l.record(Pair::of(0, 1), true, 1.0);
        l.record(Pair::of(1, 2), false, 1.0);
        l.record(Pair::of(2, 3), true, 1.0);
        let mut touching = l.pairs_touching(RecordId(1));
        touching.sort();
        assert_eq!(touching, vec![Pair::of(0, 1), Pair::of(1, 2)]);
    }
}
