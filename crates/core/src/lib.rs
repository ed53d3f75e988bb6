//! # kron-core — nonstochastic Kronecker graphs with ground truth
//!
//! The paper's primary contribution: given two small factor graphs `A` and
//! `B`, represent the (potentially enormous) Kronecker product graph
//! `C = A ⊗ B` *implicitly* and compute ground truth for a wide set of
//! graph analytics directly from the factors:
//!
//! * **degrees** — `d_C = d_A ⊗ d_B` ([`degree`])
//! * **triangles** at vertices/edges/globally, both for loop-free factors
//!   and for the full-self-loop construction `C = (A+I) ⊗ (B+I)`
//!   (Cor. 1 / Cor. 2; [`triangles`])
//! * **clustering coefficients** and their scaling laws
//!   (Thm. 1 / Thm. 2; [`clustering`])
//! * **hop distance, eccentricity, diameter** (Thm. 3 / Thm. 5,
//!   Cor. 3–5; [`distance`])
//! * **closeness centrality**, naive and histogram-factored fast paths
//!   (Thm. 4; [`closeness`])
//! * **community structure** — Kronecker vertex sets and partitions with
//!   exact internal/external edge counts and density scaling laws
//!   (Def. 14/16, Thm. 6, Cor. 6/7; [`community`])
//! * **probabilistic edge rejection** — the hash-thresholded subgraph
//!   family `G_{C,ν}` of §IV-C with expected local triangle statistics
//!   ([`rejection`])
//! * the **scaling-law table** of §I evaluated end-to-end ([`scaling`])
//!
//! Everything is exact integer/rational arithmetic on factor-sized state:
//! `O(|E_A| + |E_B|)` storage produces ground truth for a graph with
//! `|E_A|·|E_B|` edges, which is the paper's sublinear-memory claim.

pub mod classes;
pub mod clustering;
pub mod closeness;
pub mod community;
pub mod degree;
pub mod distance;
pub mod generate;
pub mod pair;
pub mod power;
pub mod rejection;
pub mod scaling;
pub mod spectrum;
pub mod triangles;

pub use pair::{KronError, KroneckerPair, SelfLoopMode};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KronError>;
