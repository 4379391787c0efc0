//! # crowder-text
//!
//! The string-similarity substrate of the CrowdER reproduction. The paper
//! relies on off-the-shelf similarity machinery; we build it from scratch:
//!
//! * [`tokenize`](mod@tokenize) — whitespace tokenization into sorted, deduplicated
//!   [`TokenSet`]s (the unit of the paper's `simjoin` likelihood), plus
//!   character [`tokenize::qgrams`] for blocking indexes,
//! * [`dict`] — corpus-wide token interning to frequency-ordered `u32`
//!   ids ([`TokenDict`], built in one pass by [`DictBuilder`]), the
//!   substrate of the similarity-join hot path,
//! * [`jaccard`](mod@jaccard) — Jaccard set similarity (the likelihood function of §2.1.1
//!   and §7.1), over both string sets and interned id slices,
//! * [`levenshtein`] — edit distance and its normalized similarity (one of
//!   the two SVM features, §7.3),
//! * [`cosine`] — token-frequency cosine similarity (the other SVM feature),
//! * [`overlap`] — overlap and Dice coefficients (used by ablations),
//! * [`features`] — per-attribute feature-vector extraction for
//!   learning-based ER (§2.1.2: *n* similarity functions × *m* attributes).

pub mod cosine;
pub mod dict;
pub mod features;
pub mod jaccard;
pub mod levenshtein;
pub mod overlap;
pub mod tokenize;

pub use cosine::cosine_similarity;
pub use dict::{DictBuilder, TokenDict};
pub use features::{FeatureExtractor, SimilarityFn};
pub use jaccard::{intersection_size_ids, jaccard, jaccard_ids, jaccard_strs};
pub use levenshtein::{edit_distance, edit_similarity};
pub use overlap::{dice, overlap_coefficient};
pub use tokenize::{tokenize, TokenSet};
