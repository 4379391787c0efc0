//! # crowder-graph
//!
//! The pair-graph substrate used by HIT generation (paper §4–§5).
//!
//! The paper models the set of pairs to be crowdsourced as a graph: each
//! vertex is a record, each edge a pair that needs verification; a
//! cluster-based HIT is a vertex set that *covers* the edges inside it.
//! All five cluster-HIT generators operate on this structure:
//!
//! * [`pairs_by_component`] — a pair list split by connected component
//!   (the two-tiered algorithm's first step, Algorithm 1 line 2),
//! * [`MutGraph`] — an adjacency-set graph supporting the edge removals
//!   every generator performs ("remove the edges covered by H"),
//! * [`UnionFind`] — disjoint sets for component labelling (grow-only),
//! * [`DynamicConnectivity`] — fully-dynamic connectivity with edge
//!   *removal* and split detection, the substrate of fault-tolerant
//!   clustering in `crowder-stream` (wrong crowd answers decommit
//!   edges; record deletions take their pairs with them — both can
//!   split a cluster, which a union-find cannot express).

pub mod components;
pub mod dynforest;
pub mod mutgraph;
pub mod unionfind;

pub use components::pairs_by_component;
pub use dynforest::{DynamicConnectivity, EdgeCut, EdgeLink};
pub use mutgraph::MutGraph;
pub use unionfind::UnionFind;
