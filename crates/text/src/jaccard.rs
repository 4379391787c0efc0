//! Jaccard set similarity — the paper's machine-pass likelihood function.

use crate::tokenize::{tokenize, TokenSet};

/// Jaccard similarity of two token sets: `|A ∩ B| / |A ∪ B|`.
///
/// Two empty sets have similarity 0 by convention (they carry no evidence
/// of referring to the same entity).
///
/// ```
/// use crowder_text::{jaccard, tokenize};
/// let r1 = tokenize("iPad Two 16GB WiFi White");
/// let r2 = tokenize("iPad 2nd generation 16GB WiFi White");
/// // Paper §2.1.1: J(r1, r2) = 4/7 ≈ 0.57.
/// assert!((jaccard(&r1, &r2) - 4.0 / 7.0).abs() < 1e-12);
/// ```
pub fn jaccard(a: &TokenSet, b: &TokenSet) -> f64 {
    let inter = a.intersection_size(b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Convenience wrapper: tokenize both strings then compute [`jaccard`].
pub fn jaccard_strs(a: &str, b: &str) -> f64 {
    jaccard(&tokenize(a), &tokenize(b))
}

/// Intersection size of two sorted, deduplicated id slices (linear
/// merge). The integer counterpart of
/// [`TokenSet::intersection_size`](crate::tokenize::TokenSet::intersection_size),
/// used by the interned similarity-join hot path.
pub fn intersection_size_ids(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        count += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    count
}

/// Jaccard similarity of two sorted, deduplicated id slices — identical
/// to [`jaccard`] over the corresponding token sets, but the inner loop
/// compares `u32`s instead of `String`s.
///
/// Two empty slices have similarity 0, matching the [`jaccard`]
/// convention.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    let inter = intersection_size_ids(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_have_similarity_one() {
        let t = tokenize("a b c");
        assert_eq!(jaccard(&t, &t), 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        assert_eq!(jaccard_strs("a b", "c d"), 0.0);
    }

    #[test]
    fn empty_sets_convention() {
        assert_eq!(jaccard_strs("", ""), 0.0);
        assert_eq!(jaccard_strs("", "a"), 0.0);
    }

    #[test]
    fn paper_section211_examples() {
        // J(r1, r2) = 0.57 ≥ 0.5 — considered the same entity.
        let j12 = jaccard_strs(
            "iPad Two 16GB WiFi White",
            "iPad 2nd generation 16GB WiFi White",
        );
        assert!((j12 - 4.0 / 7.0).abs() < 1e-12);
        // J(r1, r3) = 0.25 < 0.5 — not a match at threshold 0.5.
        let j13 = jaccard_strs(
            "iPad Two 16GB WiFi White",
            "iPhone 4th generation White 16GB",
        );
        assert!((j13 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn symmetric_and_bounded() {
        let a = tokenize("x y z w");
        let b = tokenize("y z q");
        assert_eq!(jaccard(&a, &b), jaccard(&b, &a));
        let v = jaccard(&a, &b);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn id_jaccard_agrees_with_string_jaccard() {
        use crate::dict::TokenDict;
        let texts = [
            "iPad Two 16GB WiFi White",
            "iPad 2nd generation 16GB WiFi White",
            "Apple iPod shuffle 2GB Blue",
            "",
        ];
        let sets: Vec<TokenSet> = texts.iter().map(|t| tokenize(t)).collect();
        let mut dict = TokenDict::new();
        let ids: Vec<Vec<u32>> = texts
            .iter()
            .map(|t| {
                let mut ids = Vec::new();
                dict.intern([*t], &mut ids);
                ids
            })
            .collect();
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                assert_eq!(
                    jaccard(&sets[i], &sets[j]),
                    jaccard_ids(&ids[i], &ids[j]),
                    "({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn id_intersection_edge_cases() {
        assert_eq!(intersection_size_ids(&[], &[]), 0);
        assert_eq!(intersection_size_ids(&[1, 2, 3], &[]), 0);
        assert_eq!(intersection_size_ids(&[1, 3, 5], &[2, 3, 4, 5]), 2);
        assert_eq!(jaccard_ids(&[], &[]), 0.0);
        assert_eq!(jaccard_ids(&[7], &[7]), 1.0);
    }
}
