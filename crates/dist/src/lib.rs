//! # kron-dist — simulated distributed Kronecker generation (§III)
//!
//! The paper's HPC generator runs on MPI ranks under HavoqGT (IBM BG/Q,
//! 1.57M cores). This crate reproduces its *structure* on one machine:
//! each simulated rank is an OS thread, the asynchronous edge exchange
//! runs over a channel mesh behind a swappable (and fault-injectable)
//! transport, and edge storage ownership is a hash map over ranks — so the partitioning math, communication pattern, storage
//! bounds, and the 1D-vs-2D scalability argument of §III/Rem. 1 are all
//! exercised by real concurrent code.
//!
//! * [`partition`] — §III's 1D scheme (distribute `E_A`, replicate `B`)
//!   and Rem. 1's 2D scheme (distribute both factors over a rank grid).
//! * [`owner`] — which rank stores a generated edge (block or hash map).
//! * [`generator`] — the rank threads: generate `C_r = A_r ⊗ B_r`, route
//!   every edge to its owner under a per-link credit window while
//!   draining incoming edges, report stats.
//! * [`transport`] — the swappable rank mesh: perfect channels or a
//!   seeded adversary injecting drop/duplication/delay/reordering.
//! * `reliability` — seq/ack/retry exactly-once links and the one
//!   rank-thread runner that the exchange, [`bfs`] and
//!   [`triangle_count`] all run on.
//! * [`stats`] — per-rank counters and load-imbalance/storage metrics.

pub mod bfs;
pub mod generator;
pub mod owner;
pub mod partition;
mod reliability;
pub mod stats;
pub mod transport;
pub mod triangle_count;
pub mod validate;

pub use generator::{
    generate_distributed, spill_shards_direct, DirectSpillResult, DistConfig, DistResult,
    OwnerConfig, SpillConfig, StorageMode, CREDIT_WINDOW,
};
pub use owner::{EdgeOwner, HashOwner, VertexBlockOwner};
pub use partition::{grid_dims, FactorPartition, FactorSlice, GridPartition, PartitionScheme};
pub use stats::{GenStats, RankStats};
pub use transport::{FaultConfig, TransportConfig};
pub use bfs::distributed_bfs_traced;
pub use triangle_count::{distributed_triangle_count, distributed_triangle_count_traced};
pub use validate::{validate_against_ground_truth, ValidationReport};
