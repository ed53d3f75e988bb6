//! # kron-analytics — reference exact graph algorithms
//!
//! Direct (non-Kronecker) implementations of every analytic the paper
//! derives ground-truth formulas for: BFS hop counts, eccentricity,
//! diameter, closeness centrality (§V), triangle participation at vertices
//! and edges with full enumeration (§IV), clustering coefficients (Def. 7),
//! and community edge counts/densities (§VI, Def. 13).
//!
//! These are the algorithms a downstream HPC developer would be validating;
//! in this repository they double as the independent check that the
//! `kron-core` formulas are correct on materialized product graphs.

pub mod artifacts;
pub mod clustering;
pub mod community;
pub mod distance;
pub mod histogram;
pub mod triangles;

pub use clustering::{edge_clustering, vertex_clustering};
pub use community::{community_profile, CommunityProfile};
pub use distance::{
    all_eccentricities, bfs_hops, closeness, diameter, eccentricity, DistanceSummary,
};
pub use histogram::Histogram;
pub use triangles::{edge_triangles, global_triangles, vertex_triangles, TriangleCounts};
