//! # crowder-packing
//!
//! The *bottom tier* of the paper's two-tiered HIT generation (§5.3):
//! packing small connected components into the minimum number of
//! cluster-based HITs of capacity `k`.
//!
//! The paper formulates this as a one-dimensional cutting-stock integer
//! linear program over HIT *patterns* `p = [a₁ … a_k]` (`a_j` = number of
//! SCCs of size `j` in the HIT, feasible iff `Σ j·a_j ≤ k`):
//!
//! ```text
//!   min  Σᵢ xᵢ      s.t.  Σᵢ aᵢⱼ xᵢ ≥ cⱼ  ∀j,   xᵢ ≥ 0 integer
//! ```
//!
//! and solves it with column generation and branch-and-bound. This crate
//! solves the same program without the LP relaxation:
//!
//! * [`ffd`] — first-fit-decreasing, which already reaches the optimum
//!   on almost every instance the top tier produces,
//! * `bound` — the Martello–Toth L2 lower bound, which certifies FFD in
//!   those cases,
//! * [`branchbound`] — an exact bin-completion search over count-vector
//!   bins, run only when FFD exceeds L2 and kept only when it finds
//!   strictly fewer bins,
//! * [`solver`] — the public entry point [`pack_items`] tying the pieces
//!   together and mapping size classes back to concrete items.

mod bound;
pub mod branchbound;
pub mod ffd;
pub mod solver;

pub use ffd::first_fit_decreasing;
pub use solver::{pack_items, PackingConfig, PackingSolution};
