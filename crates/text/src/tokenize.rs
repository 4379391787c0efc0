//! Tokenization into sorted token sets.
//!
//! §7.1 of the paper: *"We first generated a token set for each record,
//! which consisted of the tokens from all attribute values."* Tokens are
//! whitespace-separated words of the normalized text.

use crowder_types::normalize;

/// A record's token set: sorted, deduplicated tokens.
///
/// Sorted storage makes set intersection a linear merge, which is the hot
/// operation of the all-pairs similarity pass (10⁶ pairs on Product), and
/// lets the prefix-filtering join slice stable prefixes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenSet {
    tokens: Vec<String>,
}

impl TokenSet {
    /// Build from any token iterator; sorts and deduplicates.
    pub fn from_tokens<I, S>(iter: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut tokens: Vec<String> = iter.into_iter().map(Into::into).collect();
        tokens.sort_unstable();
        tokens.dedup();
        TokenSet { tokens }
    }

    /// Number of distinct tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The sorted tokens.
    #[inline]
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Membership test (binary search).
    pub fn contains(&self, token: &str) -> bool {
        self.tokens
            .binary_search_by(|t| t.as_str().cmp(token))
            .is_ok()
    }

    /// Size of the intersection with `other` (linear merge of the two
    /// sorted lists).
    pub fn intersection_size(&self, other: &TokenSet) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        let (a, b) = (&self.tokens, &other.tokens);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Size of the union with `other` (|A| + |B| − |A∩B|).
    pub fn union_size(&self, other: &TokenSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }
}

/// Tokenize raw text: normalize per the paper's preprocessing, then split
/// on whitespace into a [`TokenSet`].
///
/// ```
/// use crowder_text::tokenize;
/// let t = tokenize("iPad Two 16GB WiFi White");
/// assert_eq!(t.len(), 5);
/// assert!(t.contains("ipad"));
/// ```
pub fn tokenize(text: &str) -> TokenSet {
    TokenSet::from_tokens(normalize(text).split_whitespace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_normalizes_sorts_dedups() {
        let t = tokenize("White  iPad WHITE ipad 16GB");
        assert_eq!(t.tokens(), &["16gb", "ipad", "white"]);
    }

    #[test]
    fn paper_example_token_sets() {
        // §2.1.1: r1 = "iPad Two 16GB WiFi White" ∩ r2 = "iPad 2nd
        // generation 16GB WiFi White" share {ipad, 16gb, wifi, white}.
        let r1 = tokenize("iPad Two 16GB WiFi White");
        let r2 = tokenize("iPad 2nd generation 16GB WiFi White");
        assert_eq!(r1.intersection_size(&r2), 4);
        assert_eq!(r1.union_size(&r2), 7);
    }

    #[test]
    fn empty_inputs() {
        let e = tokenize("");
        assert!(e.is_empty());
        assert_eq!(e.intersection_size(&e), 0);
        assert_eq!(e.union_size(&tokenize("a b")), 2);
    }

    #[test]
    fn contains_uses_normalized_tokens() {
        let t = tokenize("Apple iPod-Shuffle");
        assert!(t.contains("apple"));
        assert!(t.contains("ipod"));
        assert!(t.contains("shuffle"));
        assert!(!t.contains("Apple")); // tokens are lowercased
    }

    #[test]
    fn intersection_is_symmetric() {
        let a = tokenize("a b c d");
        let b = tokenize("c d e");
        assert_eq!(a.intersection_size(&b), b.intersection_size(&a));
        assert_eq!(a.union_size(&b), b.union_size(&a));
    }
}
