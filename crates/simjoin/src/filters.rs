//! The arithmetic and filter primitives shared by every prefix-filtered
//! Jaccard join in the workspace.
//!
//! [`prefix_join`](crate::prefix_join) (the batch PPJoin+ engine) and
//! `crowder-stream`'s delta join (one arriving record probed against an
//! insert-capable index) run the same lossless two-phase probe; this
//! module holds everything but the posting lists, so the two engines
//! cannot drift:
//!
//! * the probe kernel: [`ProbeScratch`] opens a [`Probe`], which picks
//!   the count-filter level ([`adaptive_level`]), collects the engine's
//!   window hits ([`Hits::hit`], phase 1), and filters and verifies each
//!   candidate ([`Probe::verify`], phase 2);
//! * the prefix/length/overlap formulas ([`prefix_len`],
//!   [`index_prefix_len`], [`min_match_len`], [`max_match_len`],
//!   [`min_overlap`]),
//! * the Adapt-Join index windows ([`MAX_PREFIX_EXT`],
//!   [`extended_prefix_len`], [`posting_tier`]),
//! * the Jaccard last-token truncation bound
//!   ([`positional_len_cutoff`]),
//! * the 256-bit band signature ([`BandSignature`]),
//! * the PPJoin+ suffix filter ([`suffix_hamming_lb`]),
//! * resume-merge verification ([`overlap_reaching`]).
//!
//! All `ceil`-shaped formulas nudge their argument down by [`CEIL_EPS`]
//! so exact integer products never round up a bucket: erring low only
//! admits extra candidates, which exact verification then rejects —
//! over-rounding would silently drop true results.
//!
//! ## The generalized (count-filter) prefix lemma
//!
//! The classic prefix filter is the `l = 1` case of Adapt-Join's
//! generalized lemma. Write `α_x` for a sound per-side lower bound on
//! the overlap any qualifying partner must have with `x` (`⌈t·|x|⌉`
//! for a probe prefix, `⌈2t/(1+t)·|x|⌉` for an indexing prefix, which
//! is sound only against a partner at least as long). For any
//! `1 ≤ l ≤ ⌈t·|x|⌉`, if `|x ∩ y| ≥ α ≥ max(α_x, α_y)` then the first
//! `min(|x|, |x| − α_x + l)` tokens of `x` and the first
//! `min(|y|, |y| − α_y + l)` tokens of `y` (both in the global rank
//! order) share at least `l` tokens. A probe may therefore extend its
//! prefix by `l − 1` extra tokens and *require* `l` window hits per
//! candidate — the count filter — discarding most single-shared-token
//! pairs before they ever surface as candidates. The cap
//! `l ≤ ⌈t·|x|⌉` keeps the lemma sound when windows saturate at the
//! record length (1-token records, `t = 1`).
//!
//! Both engines pair the longer record's probe prefix with the shorter
//! one's indexing prefix (PPJoin's indexing-prefix lemma). The batch
//! probe is always the longer side. A stream probe may be either: it
//! counts a shorter-or-equal indexed record inside that record's
//! indexing window, and reaches a longer one only from its own indexing
//! window. A probe caps its level at `⌈t·|x|⌉` of its own length, which
//! is at most `⌈t·|y|⌉` for a longer partner, so the cap holds for the
//! longer side in either role.

use crate::JoinStats;

/// Recursion depth of the suffix filter's binary partition. Depth `d`
/// costs at most `2^d` binary searches per candidate; the PPJoin+ paper
/// finds returns diminish quickly (it uses 2); 3 keeps the filter cheap
/// while pruning noticeably harder on long records.
pub const SUFFIX_FILTER_DEPTH: usize = 3;

/// Guard against floating-point over-rounding, applied in both
/// directions so every formula errs on the *admitting* side:
///
/// * `ceil`-shaped formulas (`prefix_len`, `index_prefix_len`,
///   `min_match_len`, `min_overlap`) subtract it before `ceil`, so an
///   exactly-integer product that f64 rounds a hair *high* never climbs
///   a bucket — erring low lengthens prefixes / widens windows /
///   lowers required overlaps, all admit-only;
/// * the `floor`-shaped `max_match_len` adds it before `floor`, so a
///   quotient f64 rounds a hair *below* an exact integer is recovered —
///   and when the true quotient merely sits ε-near an integer from
///   below, the nudge at worst admits one extra length bucket, which
///   the later filters and exact verification reject.
///
/// Never the reverse: over-rounding would silently drop true results.
/// The magnitude (1e-9) dwarfs the relative error of any one f64
/// multiply/divide for token counts below ~10^6 while staying far
/// under the 1-unit bucket granularity; the dyadic-threshold proptests
/// below pin both properties (never drops, over-admits by at most one)
/// against exact integer arithmetic.
pub const CEIL_EPS: f64 = 1e-9;

/// Highest count-filter level the index supports: every record is
/// indexed with `MAX_PREFIX_EXT − 1` tokens beyond its base prefix
/// (tiered by [`posting_tier`]), so a probe may demand up to this many
/// window hits per candidate (see the module docs' generalized prefix
/// lemma).
pub const MAX_PREFIX_EXT: usize = 3;

/// Length of the extended index window for a record of `len` tokens
/// whose base prefix (probe or indexing) is `base` tokens: the base
/// window plus up to `MAX_PREFIX_EXT − 1` frontier tokens, saturated at
/// the record length.
#[inline]
pub fn extended_prefix_len(base: usize, len: usize) -> usize {
    (base + (MAX_PREFIX_EXT - 1)).min(len)
}

/// Count-filter tier of an indexed token position: positions inside the
/// base window are tier 0, the first frontier token is tier 1, and so
/// on. A probe at level `l` counts a hit iff its tier is `< l`.
#[inline]
pub fn posting_tier(pos: usize, base: usize) -> u8 {
    (pos + 1).saturating_sub(base) as u8
}

/// Minimum postings a base window must already face before a probe
/// considers extending its prefix: below this the probe is cheap
/// enough that the count filter cannot pay for its frontier scan.
const EXTEND_MIN_SCAN: u64 = 48;

/// Should a probe extend its window by one frontier token, raising the
/// count-filter requirement by one? `scanned` estimates the postings
/// the current window already enumerates, `frontier` the extra postings
/// the frontier token's list would add. The extension's payoff is the
/// candidates the higher count requirement kills before phase 2, which
/// scales with `scanned`; its cost is the frontier scan itself — so
/// extend only while the frontier list is not disproportionately long
/// (frontier tokens are more frequent than every base-prefix token:
/// ranks are rarest-first).
#[inline]
fn extend_prefix(scanned: u64, frontier: u64) -> bool {
    scanned >= EXTEND_MIN_SCAN && frontier <= scanned.saturating_mul(4)
}

/// Adaptive count-filter level of a probe `doc` whose base probe prefix
/// is `base` tokens: extend the window one frontier token at a time
/// while the frontier's posting mass is cheap relative to what the
/// window already scans. `mass(tok)` is the index's posting count for a
/// token — any estimate works for soundness, but it must be a pure
/// function of the indexed corpus for the probe to be reproducible.
/// Capped at `⌈t·|doc|⌉` (the lemma's soundness cap — which also keeps
/// the frontier index in bounds: `base + level − 1 < |doc|` whenever
/// `level < ⌈t·|doc|⌉`).
pub fn adaptive_level(
    doc: &[u32],
    base: usize,
    threshold: f64,
    mut mass: impl FnMut(u32) -> u64,
) -> usize {
    let level_cap = MAX_PREFIX_EXT.min(min_match_len(doc.len(), threshold));
    let mut level = 1usize;
    if level_cap > 1 {
        let mut scanned: u64 = doc[..base].iter().map(|&tok| mass(tok)).sum();
        while level < level_cap {
            let frontier = mass(doc[base + level - 1]);
            if !extend_prefix(scanned, frontier) {
                break;
            }
            scanned += frontier;
            level += 1;
        }
    }
    level
}

/// Reusable scratch of the two-phase prefix probe both join engines
/// run: per-record hit state, the candidate list, and the per-position
/// truncation cutoffs. [`ProbeScratch::start`] opens one probe; one
/// scratch serves any number of probes (one per thread).
///
/// `count` and `first` are only valid where `seen` carries the current
/// probe's stamp, so nothing needs clearing between probes. `seen` is a
/// separate dense array because phase 1 reads it on every posting: kept
/// apart from the per-candidate state, it stays cache-resident on large
/// corpora.
#[derive(Debug, Clone, Default)]
pub struct ProbeScratch {
    seen: Vec<u32>,
    stamp: u32,
    /// Window hits per candidate — the count-filter tally.
    count: Vec<u8>,
    /// First hit per candidate: probe position `i`, candidate position
    /// `j`.
    first: Vec<(u32, u32)>,
    cand: Vec<u32>,
    cuts: Vec<u32>,
}

impl ProbeScratch {
    /// An empty scratch; the per-record state grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a probe of the rank-sorted, non-empty `doc` (band signature
    /// `sig`) at `0 < threshold ≤ 1` against an index of `records`
    /// record slots (candidate ids must stay below it). `mass` is the
    /// index's posting-count lookup for [`adaptive_level`].
    pub fn start<'s, 'd>(
        &'s mut self,
        doc: &'d [u32],
        sig: BandSignature,
        threshold: f64,
        records: usize,
        mass: impl FnMut(u32) -> u64,
    ) -> Probe<'s, 'd> {
        debug_assert!(!doc.is_empty() && threshold > 0.0 && threshold <= 1.0);
        let lx = doc.len();
        let base = prefix_len(lx, threshold);
        let level = adaptive_level(doc, base, threshold, mass);
        let window = (base + level - 1).min(lx);
        if self.seen.len() < records {
            self.seen.resize(records, 0);
            self.count.resize(records, 0);
            self.first.resize(records, (0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrap: forget every stale stamp once, then restart.
            self.seen.fill(0);
            self.stamp = 1;
        }
        self.cand.clear();
        self.cuts.clear();
        self.cuts.extend(
            (0..window)
                .map(|i| positional_len_cutoff(lx, i, threshold).min(u32::MAX as usize) as u32),
        );
        Probe {
            scratch: self,
            doc,
            sig,
            threshold,
            level,
        }
    }
}

/// The phase-1 hits of one probe window position (see [`Probe::at`]).
#[derive(Debug)]
pub struct Hits<'a> {
    seen: &'a mut [u32],
    count: &'a mut [u8],
    first: &'a mut [(u32, u32)],
    cand: &'a mut Vec<u32>,
    stamp: u32,
    cut: usize,
    i: u32,
}

impl Hits<'_> {
    /// Record a hit on candidate `y`, a record of `ly` tokens, at its
    /// position `j`. A first contact past the position's truncation
    /// cutoff is dropped silently: it could never pass the positional
    /// filter, and since the cutoff only tightens along the window,
    /// neither could any later contact — so the pair never becomes a
    /// candidate. Hits on a reached candidate always count.
    #[inline]
    pub fn hit(&mut self, y: u32, ly: usize, j: u32) {
        let y = y as usize;
        if self.seen[y] == self.stamp {
            self.count[y] = self.count[y].saturating_add(1);
        } else if ly <= self.cut {
            self.seen[y] = self.stamp;
            self.count[y] = 1;
            self.first[y] = (self.i, j);
            self.cand.push(y as u32);
        }
    }
}

/// One open probe (see [`ProbeScratch::start`]).
///
/// **Phase 1** (engine-specific: each engine walks its own postings)
/// feeds every hit inside both records' windows and the length window
/// to [`Hits::hit`] of its window position ([`Probe::at`]), in
/// ascending position — so a candidate's first hit is its first shared
/// token overall: windows are prefixes, and both token lists ascend in
/// the same global rank order, so any earlier shared token would also
/// be a counted hit at smaller `i` and `j`. `hit` drops first contacts
/// past the position's truncation cutoff ([`Probe::cut`]); at level 1,
/// which needs no hit counts, a length-ascending scan may stop at the
/// cutoff outright.
///
/// **Phase 2** is [`Probe::verify`], shared by both engines.
#[derive(Debug)]
pub struct Probe<'s, 'd> {
    scratch: &'s mut ProbeScratch,
    doc: &'d [u32],
    sig: BandSignature,
    threshold: f64,
    level: usize,
}

impl<'d> Probe<'_, 'd> {
    /// The count-filter level: a candidate needs this many window hits.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The probe window (base prefix plus `level − 1` frontier tokens).
    #[inline]
    pub fn window(&self) -> &'d [u32] {
        &self.doc[..self.scratch.cuts.len()]
    }

    /// Last-token truncation cutoff of window position `i`
    /// ([`positional_len_cutoff`]).
    #[inline]
    pub fn cut(&self, i: usize) -> usize {
        self.scratch.cuts[i] as usize
    }

    /// Phase 1 at window position `i`: the sink for that position's
    /// hits ([`Hits::hit`]).
    #[inline]
    pub fn at(&mut self, i: usize) -> Hits<'_> {
        let s = &mut *self.scratch;
        Hits {
            seen: &mut s.seen,
            count: &mut s.count,
            first: &mut s.first,
            cand: &mut s.cand,
            stamp: s.stamp,
            cut: s.cuts[i] as usize,
            i: i as u32,
        }
    }

    /// The candidates phase 1 reached, in first-hit order.
    #[inline]
    pub fn candidates(&self) -> &[u32] {
        &self.scratch.cand
    }

    /// Phase 2 for candidate `y` (token list `ydoc`, signature `ysig`):
    /// the count filter (silent — proven dead from index geometry, so
    /// the pair never counts as a candidate), then the positional
    /// filter, the band-signature check, the suffix filter, and
    /// resume-merge verification, each rejection tallied into its
    /// `stats` bucket. Returns the pair's Jaccard similarity iff it
    /// reaches the threshold. Both engines scan only the partner side
    /// of the pair space, so every candidate is a candidate pair of the
    /// dataset.
    ///
    /// The first hit `(i, j)` is the pair's first shared token, so the
    /// overlap up to it is exactly 1 and the merge resumes at
    /// `(i+1, j+1)`.
    #[inline]
    pub fn verify(
        &self,
        y: u32,
        ydoc: &[u32],
        ysig: &BandSignature,
        stats: &mut JoinStats,
    ) -> Option<f64> {
        let s = &*self.scratch;
        debug_assert_eq!(s.seen[y as usize], s.stamp, "{y} is no candidate");
        // Count filter: a qualifying pair shares at least `level` tokens
        // between the extended windows (the generalized prefix lemma).
        // Most hits die here, so it stays inline in the caller's loop.
        if (s.count[y as usize] as usize) < self.level {
            return None;
        }
        self.filter_and_verify(s.first[y as usize], ydoc, ysig, stats)
    }

    /// [`Probe::verify`] past the count filter, from the first hit
    /// `(i, j)` on.
    fn filter_and_verify(
        &self,
        (i, j): (u32, u32),
        ydoc: &[u32],
        ysig: &BandSignature,
        stats: &mut JoinStats,
    ) -> Option<f64> {
        let (i, j) = (i as usize, j as usize);
        let (doc, t) = (self.doc, self.threshold);
        let (lx, ly) = (doc.len(), ydoc.len());
        stats.candidates += 1;
        // Positional filter at the first shared token: overlap so far is
        // exactly 1, and at most the shorter remaining tail more.
        let alpha = min_overlap(lx, ly, t);
        let upper = 1 + (lx - i - 1).min(ly - j - 1);
        if upper < alpha {
            stats.positional_pruned += 1;
            return None;
        }
        // Band-signature reject: popcount(sig_x ^ sig_y) lower-bounds
        // |x Δ y|, which a qualifying pair keeps ≤ lx + ly − 2α. The
        // check self-gates to short records (bound < 256) — cheaper than
        // the suffix filter's recursive partition, so it runs first.
        // `upper ≥ α` above guarantees `2α ≤ lx + ly`.
        let sig_budget = lx + ly - 2 * alpha;
        if sig_budget < 256 && self.sig.distance_lb(ysig) > sig_budget {
            stats.signature_rejected += 1;
            return None;
        }
        // Suffix filter: the suffixes past the first shared token must
        // contribute the remaining α − 1 overlap, so their Hamming
        // distance is bounded by |xs| + |ys| − 2(α − 1).
        let (xs, ys) = (&doc[i + 1..], &ydoc[j + 1..]);
        if alpha > 1 {
            let hmax = xs.len() + ys.len() - 2 * (alpha - 1);
            if suffix_hamming_lb(xs, ys, hmax, SUFFIX_FILTER_DEPTH) > hmax {
                stats.suffix_pruned += 1;
                return None;
            }
        }
        stats.verified += 1;
        let o = 1 + overlap_reaching(xs, ys, alpha.saturating_sub(1))?;
        let sim = o as f64 / (lx + ly - o) as f64;
        if sim >= t {
            stats.results += 1;
            Some(sim)
        } else {
            None
        }
    }
}

/// Jaccard last-token truncation bound: the largest candidate length
/// `ly` whose required overlap `min_overlap(lx, ly, t)` is still
/// reachable from a *first* shared token at probe position `i` — the
/// remaining probe suffix (including position `i`) has `lx − i` tokens,
/// so any candidate longer than the returned cutoff fails the
/// positional filter outright and need not surface as a candidate at
/// all. Monotone non-increasing in `i`: once a candidate is past the
/// cutoff it stays past it for every later probe position, so
/// truncating a length-ascending posting list at the cutoff (count
/// level 1) or suppressing first contacts past it (higher levels) never
/// hides a hit that a later position would have needed.
///
/// The float estimate is nudged onto the exact integer boundary by
/// re-checking against [`min_overlap`] itself, so the cutoff is immune
/// to rounding in either direction.
pub fn positional_len_cutoff(lx: usize, i: usize, threshold: f64) -> usize {
    let budget = lx - i;
    let mut cut = ((budget as f64) * (1.0 + threshold) / threshold - lx as f64 + CEIL_EPS)
        .floor()
        .max(0.0) as usize;
    while min_overlap(lx, cut + 1, threshold) <= budget {
        cut += 1;
    }
    while cut > 0 && min_overlap(lx, cut, threshold) > budget {
        cut -= 1;
    }
    cut
}

/// 256-bit XOR-parity band signature of a token-id set: bit `b` holds
/// the parity of the number of tokens whose id is ≡ `b` (mod 256).
/// Token ids are dense `u32`s (rarest-first ranks), so the 256 classes
/// spread well even on small dictionaries.
///
/// For two sets, every set bit of `sig(A) XOR sig(B)` marks a residue
/// class where the two sets differ by an *odd* count — hence at least
/// one element of the symmetric difference — so
/// `popcount(sig(A) ^ sig(B)) ≤ |A Δ B|`: a lossless lower bound,
/// 4 XORs + 4 popcounts per candidate. A qualifying pair at overlap
/// `α` has `|A Δ B| = |A| + |B| − 2·|A ∩ B| ≤ |A| + |B| − 2α`, so the
/// check self-gates to short records: once that budget reaches 256 the
/// bound can never fire and the caller skips it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandSignature([u64; 4]);

impl BandSignature {
    /// Signature of a token-id set (order-insensitive; ids must be
    /// distinct, which rank-sorted set encodings guarantee).
    pub fn build(doc: &[u32]) -> Self {
        let mut words = [0u64; 4];
        for &tok in doc {
            let b = (tok & 255) as usize;
            words[b >> 6] ^= 1u64 << (b & 63);
        }
        BandSignature(words)
    }

    /// Lower bound on `|A Δ B|` between the signed sets.
    #[inline]
    pub fn distance_lb(&self, other: &BandSignature) -> usize {
        ((self.0[0] ^ other.0[0]).count_ones()
            + (self.0[1] ^ other.0[1]).count_ones()
            + (self.0[2] ^ other.0[2]).count_ones()
            + (self.0[3] ^ other.0[3]).count_ones()) as usize
    }
}

/// Probe prefix length for a record of `len` tokens:
/// `len − ⌈t·len⌉ + 1`.
pub fn prefix_len(len: usize, threshold: f64) -> usize {
    len - (threshold * len as f64 - CEIL_EPS).ceil().max(1.0) as usize + 1
}

/// Indexing prefix length (PPJoin index reduction):
/// `len − ⌈2t/(1+t)·len⌉ + 1`. Valid because probes are never shorter
/// than indexed records, so the required overlap with any probe is at
/// least `⌈2t/(1+t)·len⌉`. Always in `1..=len` for `len ≥ 1`.
pub fn index_prefix_len(len: usize, threshold: f64) -> usize {
    let factor = 2.0 * threshold / (1.0 + threshold);
    len - (factor * len as f64 - CEIL_EPS).ceil().max(1.0) as usize + 1
}

/// Length filter, lower side: a record of `len` tokens only matches
/// records with at least `⌈t·len⌉` tokens.
pub fn min_match_len(len: usize, threshold: f64) -> usize {
    (threshold * len as f64 - CEIL_EPS).ceil().max(1.0) as usize
}

/// Length filter, upper side: a record of `len` tokens only matches
/// records with at most `⌊len/t⌋` tokens. The batch join never needs
/// this (its probe is always the longer side by construction); the
/// streaming delta join probes in arrival order, where the indexed
/// record may be the longer one.
pub fn max_match_len(len: usize, threshold: f64) -> usize {
    debug_assert!(threshold > 0.0, "upper length filter needs t > 0");
    (len as f64 / threshold + CEIL_EPS).floor() as usize
}

/// Overlap a pair of sizes `(lx, ly)` must reach for Jaccard ≥ t:
/// `⌈t/(1+t)·(lx+ly)⌉`.
pub fn min_overlap(lx: usize, ly: usize, threshold: f64) -> usize {
    ((threshold / (1.0 + threshold)) * (lx + ly) as f64 - CEIL_EPS).ceil() as usize
}

/// Lower bound on the Hamming distance (symmetric-difference size) of
/// two sorted, deduplicated id slices, by recursive binary partition
/// around pivot tokens (the PPJoin+ suffix filter).
///
/// Partitioning both slices around a pivot `w` is lossless for the
/// bound: elements `< w` can only match elements `< w`, likewise `> w`,
/// and the pivot itself mismatches iff exactly one side holds it — so
/// the true distance is at least the sum over the parts. Each part is
/// bounded by its length difference, or recursively up to `depth` more
/// splits. Recursion abandons early once the accumulated bound exceeds
/// `hmax` (the caller's prune threshold): any value `> hmax` suffices.
pub fn suffix_hamming_lb(a: &[u32], b: &[u32], hmax: usize, depth: usize) -> usize {
    let base = a.len().abs_diff(b.len());
    if depth == 0 || a.is_empty() || b.is_empty() || base > hmax {
        return base;
    }
    // Pivot on b's middle token: b is the indexed (shorter) side, so
    // its midpoint splits the work evenly where it matters.
    let w = b[b.len() / 2];
    let ai = a.partition_point(|&v| v < w);
    let bi = b.partition_point(|&v| v < w);
    let a_has = a.get(ai) == Some(&w);
    let b_has = b.get(bi) == Some(&w);
    let diff = usize::from(a_has != b_has);
    let (al, ar) = (&a[..ai], &a[ai + usize::from(a_has)..]);
    let (bl, br) = (&b[..bi], &b[bi + usize::from(b_has)..]);
    let left_base = al.len().abs_diff(bl.len());
    let right_base = ar.len().abs_diff(br.len());
    if left_base + right_base + diff > hmax {
        return left_base + right_base + diff;
    }
    // Budgets below never underflow: the check above guarantees
    // `right_base + diff ≤ hmax`, and the early return after it
    // guarantees `hl + diff ≤ hmax`.
    let hl = suffix_hamming_lb(al, bl, hmax - right_base - diff, depth - 1);
    if hl + right_base + diff > hmax {
        return hl + right_base + diff;
    }
    let hr = suffix_hamming_lb(ar, br, hmax - hl - diff, depth - 1);
    hl + diff + hr
}

/// Overlap of two sorted id slices, abandoning as soon as the best still
/// achievable total drops below `required` (returns `None`: the caller
/// only cares about overlaps reaching the threshold).
pub fn overlap_reaching(a: &[u32], b: &[u32], required: usize) -> Option<usize> {
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        if o + (a.len() - i).min(b.len() - j) < required {
            return None;
        }
        let (x, y) = (a[i], b[j]);
        o += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (o >= required).then_some(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_never_exceed_length() {
        for len in 1usize..=40 {
            for thr in [0.05, 0.3, 0.5, 0.8, 1.0] {
                let p = prefix_len(len, thr);
                let ip = index_prefix_len(len, thr);
                assert!((1..=len).contains(&p), "prefix_len({len}, {thr}) = {p}");
                assert!((1..=len).contains(&ip), "index_prefix_len = {ip}");
                assert!(ip <= p, "indexing prefix is never longer than probe");
                assert!(min_match_len(len, thr) <= len + 1);
                assert!(max_match_len(len, thr) >= len, "len {len} thr {thr}");
            }
        }
    }

    #[test]
    fn length_filters_bracket_exactly() {
        // At t = 0.5 a 4-token record matches only 2..=8 token records.
        assert_eq!(min_match_len(4, 0.5), 2);
        assert_eq!(max_match_len(4, 0.5), 8);
        // At t = 1.0 only identical lengths qualify.
        assert_eq!(min_match_len(7, 1.0), 7);
        assert_eq!(max_match_len(7, 1.0), 7);
    }

    #[test]
    fn min_overlap_matches_hand_computation() {
        // J ≥ 0.5 on (4, 4): o ≥ ⌈(0.5/1.5)·8⌉ = ⌈2.67⌉ = 3.
        assert_eq!(min_overlap(4, 4, 0.5), 3);
        // Exact integer product must not round up: (0.5/1.5)·6 = 2.
        assert_eq!(min_overlap(3, 3, 0.5), 2);
    }

    #[test]
    fn overlap_reaching_abandons_and_counts() {
        assert_eq!(overlap_reaching(&[1, 2, 3], &[2, 3, 4], 2), Some(2));
        assert_eq!(overlap_reaching(&[1, 2, 3], &[4, 5, 6], 1), None);
        assert_eq!(overlap_reaching(&[], &[], 0), Some(0));
        assert_eq!(overlap_reaching(&[1], &[1], 2), None);
    }

    #[test]
    fn tier_and_window_formulas() {
        // Base window positions are tier 0, frontiers count up.
        assert_eq!(posting_tier(0, 3), 0);
        assert_eq!(posting_tier(2, 3), 0);
        assert_eq!(posting_tier(3, 3), 1);
        assert_eq!(posting_tier(4, 3), 2);
        // The extended window saturates at the record length.
        assert_eq!(extended_prefix_len(3, 10), 3 + MAX_PREFIX_EXT - 1);
        assert_eq!(extended_prefix_len(3, 4), 4);
        assert_eq!(extended_prefix_len(1, 1), 1);
    }

    #[test]
    fn positional_cutoff_sits_exactly_on_the_overlap_boundary() {
        for lx in 1usize..=40 {
            for thr in [0.05, 0.25, 0.3, 0.5, 0.75, 1.0] {
                for i in 0..lx {
                    let budget = lx - i;
                    let cut = positional_len_cutoff(lx, i, thr);
                    // Everything above the cutoff is positionally dead…
                    assert!(
                        min_overlap(lx, cut + 1, thr) > budget,
                        "lx={lx} thr={thr} i={i}: cut {cut} admits a dead length"
                    );
                    // …and the cutoff itself (when any length survives)
                    // is still reachable.
                    if cut > 0 {
                        assert!(
                            min_overlap(lx, cut, thr) <= budget,
                            "lx={lx} thr={thr} i={i}: cut {cut} drops a live length"
                        );
                    }
                }
            }
        }
    }

    /// The PPJoin+ adversarial split: sides fully disjoint, so the
    /// pivot (always drawn from `b`) is held by exactly one side at
    /// every recursion depth — `diff = 1` on every split. The bound
    /// must stay a true lower bound at every depth and every budget,
    /// including `hmax = 0`, where a buggy budget subtraction would
    /// underflow (and panic in debug builds).
    #[test]
    fn suffix_bound_sound_on_adversarial_disjoint_splits() {
        let b: Vec<u32> = (0..24).map(|i| 2 * i).collect();
        let a: Vec<u32> = (0..17).map(|i| 2 * i + 1).collect();
        let true_h = a.len() + b.len(); // fully disjoint
        for depth in 0..=6 {
            for hmax in [0usize, 1, 2, 7, usize::MAX] {
                let lb = suffix_hamming_lb(&a, &b, hmax, depth);
                assert!(lb <= true_h, "depth {depth} hmax {hmax}: {lb} > {true_h}");
            }
        }
    }

    #[test]
    fn suffix_bound_never_underflows_at_zero_budget() {
        // hmax = 0 is reachable from the engines (alpha − 1 == (|xs| +
        // |ys|) / 2): every subtraction in the recursion must be
        // guarded by the early returns. Identical slices must come back
        // with bound 0 (a positive bound would falsely prune an exact
        // duplicate).
        let cases: [(&[u32], &[u32]); 5] = [
            (&[], &[]),
            (&[5], &[5]),
            (&[1, 2, 3, 4], &[1, 2, 3, 4]),
            (&[1, 3, 5], &[2, 4, 6]),
            (&[10, 20, 30, 40, 50], &[10, 25, 30, 45, 50]),
        ];
        for (a, b) in cases {
            let true_h = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(a, b);
            for depth in 0..=4 {
                let lb = suffix_hamming_lb(a, b, 0, depth);
                assert!(lb <= true_h, "{a:?} vs {b:?} depth {depth}");
                if true_h == 0 {
                    assert_eq!(lb, 0, "{a:?} vs {b:?} depth {depth}");
                }
            }
        }
    }

    #[test]
    fn band_signature_is_a_symmetric_difference_lower_bound() {
        let a: Vec<u32> = vec![1, 2, 3, 300, 513];
        let b: Vec<u32> = vec![1, 3, 257, 300]; // 257 ≡ 1 collides with 1
        let sa = BandSignature::build(&a);
        let sb = BandSignature::build(&b);
        let true_d = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(&a, &b);
        assert!(sa.distance_lb(&sb) <= true_d);
        assert_eq!(sa.distance_lb(&sa), 0, "identical sets differ nowhere");
    }

    // ---- exact integer oracles for dyadic thresholds t = k / 2^m ----
    //
    // With t dyadic, `t·len`, `len/t`, `2t/(1+t)·len`, and
    // `t/(1+t)·s` are exact rationals with small integer numerators
    // and denominators, so u128 arithmetic gives the true ceil/floor
    // with no rounding at all. The proptests pin the CEIL_EPS contract
    // for all five formulas: never on the dropping side, and at most
    // one bucket of over-admission.

    fn oracle_ceil_t_len(k: u128, m: u32, len: u128) -> usize {
        ((k * len).div_ceil(1u128 << m)) as usize
    }

    fn oracle_floor_len_over_t(k: u128, m: u32, len: u128) -> usize {
        ((len << m) / k) as usize
    }

    fn oracle_index_ceil(k: u128, m: u32, len: u128) -> usize {
        // 2t/(1+t) = 2k / (2^m + k)
        ((2 * k * len).div_ceil((1u128 << m) + k)) as usize
    }

    fn oracle_min_overlap(k: u128, m: u32, s: u128) -> usize {
        // t/(1+t) = k / (2^m + k)
        ((k * s).div_ceil((1u128 << m) + k)) as usize
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// All five formulas vs the exact dyadic oracles: admit-only,
        /// and within one bucket of exact. `m = 1, k = 1` (t = 0.5)
        /// makes `len/t` land *exactly* on an integer for every `len` —
        /// the max_match_len boundary the CEIL_EPS audit is about —
        /// while larger m sweep quotients ε-near integers from both
        /// sides.
        #[test]
        fn dyadic_thresholds_pin_the_ceil_eps_contract(
            m in 1u32..=10,
            kk in 1u64..=1024,
            len in 1usize..=4096,
            ly in 1usize..=4096,
        ) {
            let k = (kk as u128).min(1u128 << m); // t = k/2^m ∈ (0, 1]
            let t = k as f64 / (1u128 << m) as f64;
            let l128 = len as u128;

            // min_match_len: requiring *less* admits. Exact would be
            // max(⌈t·len⌉, 1) (the formula clamps at 1).
            let exact = oracle_ceil_t_len(k, m, l128).max(1);
            let got = min_match_len(len, t);
            proptest::prop_assert!(got <= exact, "min_match_len drops: {got} > exact {exact}");
            proptest::prop_assert!(got + 1 >= exact, "min_match_len over-admits: {got} vs {exact}");

            // max_match_len: allowing *more* admits.
            let exact = oracle_floor_len_over_t(k, m, l128);
            let got = max_match_len(len, t);
            proptest::prop_assert!(got >= exact, "max_match_len drops: {got} < exact {exact}");
            proptest::prop_assert!(got <= exact + 1, "max_match_len over-admits: {got} vs {exact}");

            // prefix_len: a *longer* probe prefix admits.
            let exact = len - oracle_ceil_t_len(k, m, l128).max(1) + 1;
            let got = prefix_len(len, t);
            proptest::prop_assert!(got >= exact, "prefix_len drops: {got} < exact {exact}");
            proptest::prop_assert!(got <= exact + 1, "prefix_len over-admits: {got} vs {exact}");

            // index_prefix_len: same direction as prefix_len.
            let exact = len - oracle_index_ceil(k, m, l128).max(1) + 1;
            let got = index_prefix_len(len, t);
            proptest::prop_assert!(got >= exact, "index_prefix_len drops: {got} < exact {exact}");
            proptest::prop_assert!(got <= exact + 1, "index_prefix_len over-admits: {got} vs {exact}");

            // min_overlap: requiring *less* overlap admits.
            let exact = oracle_min_overlap(k, m, (len + ly) as u128);
            let got = min_overlap(len, ly, t);
            proptest::prop_assert!(got <= exact, "min_overlap drops: {got} > exact {exact}");
            proptest::prop_assert!(got + 1 >= exact, "min_overlap over-admits: {got} vs {exact}");
        }

        /// The generalized (count-filter) prefix lemma, both window
        /// shapes: for any qualifying pair and any admissible level
        /// `l`, the extended windows share at least `l` tokens. This is
        /// the soundness contract the adaptive-prefix probes stand on.
        #[test]
        fn count_filter_lemma_holds_on_random_sets(
            xa in proptest::collection::vec(0u32..48, 1..20),
            yb in proptest::collection::vec(0u32..48, 1..20),
            thr_k in 1usize..=20,
        ) {
            let t = thr_k as f64 / 20.0;
            let mut x = xa;
            let mut y = yb;
            x.sort_unstable();
            x.dedup();
            y.sort_unstable();
            y.dedup();
            if x.len() < y.len() {
                std::mem::swap(&mut x, &mut y);
            }
            let (lx, ly) = (x.len(), y.len());
            let o = crowder_text::intersection_size_ids(&x, &y);
            let sim = o as f64 / (lx + ly - o) as f64;
            if sim < t {
                return Ok(());
            }
            let cap = MAX_PREFIX_EXT.min(min_match_len(lx, t));
            for l in 1..=cap {
                // Symmetric windows (the streaming index): both sides
                // use the probe prefix.
                let wx = (prefix_len(lx, t) + l - 1).min(lx);
                let wy = (prefix_len(ly, t) + l - 1).min(ly);
                let shared = crowder_text::intersection_size_ids(&x[..wx], &y[..wy]);
                proptest::prop_assert!(
                    shared >= l,
                    "symmetric windows share {shared} < l={l} (lx={lx} ly={ly} t={t})"
                );
                // Asymmetric windows (the batch index, and the stream
                // probe with the roles of probe and indexed record
                // swapped when the indexed one is longer): the shorter
                // side keeps only its indexing prefix. `cap` is the
                // longer side's, so it covers the shorter probe's cap.
                let wy = (index_prefix_len(ly, t) + l - 1).min(ly);
                let shared = crowder_text::intersection_size_ids(&x[..wx], &y[..wy]);
                proptest::prop_assert!(
                    shared >= l,
                    "batch windows share {shared} < l={l} (lx={lx} ly={ly} t={t})"
                );
            }
        }

        /// Signature lower bound on random sets, sorted or not: the
        /// XOR parity never exceeds the true symmetric difference.
        #[test]
        fn band_signature_sound_on_random_sets(
            a in proptest::collection::vec(0u32..4096, 0..40),
            b in proptest::collection::vec(0u32..4096, 0..40),
        ) {
            let mut a = a;
            let mut b = b;
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let true_d = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(&a, &b);
            let lb = BandSignature::build(&a).distance_lb(&BandSignature::build(&b));
            proptest::prop_assert!(lb <= true_d, "{lb} > {true_d}");
        }

        /// Early-abandoned bounds are still lower bounds: whatever
        /// partial sum the budgeted recursion returns, it never exceeds
        /// the exact Hamming distance — for any budget, including 0.
        #[test]
        fn suffix_bound_sound_under_tight_budgets(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
            hmax in 0usize..=8,
            depth in 0usize..=5,
        ) {
            let mut a = a;
            let mut b = b;
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let true_h = a.len() + b.len() - 2 * crowder_text::intersection_size_ids(&a, &b);
            proptest::prop_assert!(suffix_hamming_lb(&a, &b, hmax, depth) <= true_h);
        }
    }
}
