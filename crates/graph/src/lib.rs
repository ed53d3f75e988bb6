//! # kron-graph — graph substrate
//!
//! Foundation crate for the Kronecker ground-truth library: compact graph
//! representations ([`EdgeList`], [`CsrGraph`]), file IO, structural
//! operations (symmetrization, self-loop management, induced subgraphs,
//! largest connected component), deterministic seeded generators (cliques,
//! paths, Erdős–Rényi, Barabási–Albert, stochastic block models, R-MAT),
//! and connectivity/degree utilities.
//!
//! ## Conventions
//!
//! * Vertex ids are `u64`, 0-based and dense in `0..n`. [`CsrGraph`]
//!   stores its neighbor ids as `u32` and so holds at most 2^32 vertices;
//!   the out-of-core [`shard`] tier has no such limit.
//! * Undirected graphs store **both arcs** `(u, v)` and `(v, u)`; a self
//!   loop is the single arc `(v, v)`.
//! * `nnz` counts stored arcs (= nonzeros of the adjacency matrix);
//!   `undirected_edge_count` counts unordered edges, with a self loop
//!   contributing one edge.
//! * The degree of `v` is its adjacency-row sum: each incident edge
//!   contributes 1, including a self loop (matching the paper's `d = A·1`).

pub mod arena;
pub mod connectivity;
pub mod csr;
pub mod degree;
pub mod edge_list;
pub mod generators;
pub mod hash;
pub mod io;
pub mod ops;
pub mod shard;
pub mod union_find;

pub use arena::Arena;
pub use csr::CsrGraph;
pub use edge_list::EdgeList;

/// Vertex identifier: 0-based, dense in `0..n`.
pub type VertexId = u64;

/// A directed arc `(source, target)`.
pub type Arc = (VertexId, VertexId);

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An arc references a vertex id `>= n`.
    VertexOutOfRange { vertex: VertexId, n: u64 },
    /// The operation requires an undirected (symmetric) graph.
    NotUndirected { missing_reverse: Arc },
    /// The operation requires a loop-free graph.
    HasSelfLoop { vertex: VertexId },
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A file being parsed is malformed.
    Parse { line: usize, message: String },
    /// More vertices than an in-memory [`CsrGraph`] can index
    /// (`n > CsrGraph::MAX_VERTICES = 2^32`).
    TooManyVertices { n: u64 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with n={n}")
            }
            GraphError::NotUndirected { missing_reverse: (u, v) } => {
                write!(f, "graph is not undirected: arc ({u},{v}) has no reverse")
            }
            GraphError::HasSelfLoop { vertex } => {
                write!(f, "graph has a self loop at vertex {vertex}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::TooManyVertices { n } => write!(
                f,
                "{n} vertices exceed the 2^32-vertex limit of an in-memory CSR graph"
            ),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
