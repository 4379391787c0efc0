//! # crowder-graph
//!
//! The pair-graph substrate used by HIT generation (paper §4–§5).
//!
//! The paper models the set of pairs to be crowdsourced as a graph: each
//! vertex is a record, each edge a pair that needs verification; a
//! cluster-based HIT is a vertex set that *covers* the edges inside it.
//! All five cluster-HIT generators operate on this structure:
//!
//! * [`pairs_by_component`] — a pair list split by connected component,
//!   each with its ascending vertex list (the two-tiered algorithm's
//!   first step, Algorithm 1 line 2),
//! * [`HitGraph`] — a flat CSR graph over dense local ids supporting
//!   the edge removals every generator performs ("remove the edges
//!   covered by H"), with the max-degree query Algorithm 2 seeds from,
//! * [`UnionFind`] — disjoint sets for component labelling (grow-only),
//! * [`DynamicConnectivity`] — fully-dynamic connectivity with edge
//!   *removal* and split detection, the substrate of fault-tolerant
//!   clustering in `crowder-stream` (wrong crowd answers decommit
//!   edges; record deletions take their pairs with them — both can
//!   split a cluster, which a union-find cannot express).

pub mod components;
pub mod dynforest;
pub mod hitgraph;
pub mod unionfind;

pub use components::pairs_by_component;
pub use dynforest::{DynamicConnectivity, EdgeCut, EdgeLink};
pub use hitgraph::HitGraph;
pub use unionfind::UnionFind;
