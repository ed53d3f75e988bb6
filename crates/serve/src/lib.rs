//! kron-serve: a virtual-graph query server that answers per-vertex
//! questions about the Kronecker product `C = A ⊗ B` from the factors
//! alone — `C` is never materialized.
//!
//! The paper's central trade — generate a graph whose properties are
//! *known* instead of measured — becomes an online service here: a
//! scale-`2s` product with billions of arcs is "hosted" by a process
//! whose resident state is two factor CSRs plus factor-sized oracle
//! tables, and every query (`Neighbors`, `Degree`, `TriangleCount`,
//! `Closeness`, `CommunityId`, `HopsFromRoot`) is answered in O(deg) or
//! O(1) from the closed forms.
//!
//! Module map:
//!
//! * [`protocol`] — the length-prefixed binary wire format and its
//!   hardened (never panics, never over-allocates) decoders, including
//!   the versioned admin opcodes (`Stats`, `SlowQueries`, `FlightDump`,
//!   `ResetStats`).
//! * [`admin`] — always-on exact [`admin::ServeCounters`] plus the JSON
//!   builders behind the admin opcodes.
//! * [`engine`] — [`engine::QueryEngine`]: factor CSRs + precomputed
//!   class tables; answers every query kind without touching `C`, and
//!   writes Neighbors rows from the factor rows straight into the reply
//!   frame (no product row is ever stored).
//! * [`queue`] — the bounded blocking MPMC queue between connection
//!   readers and the worker pool.
//! * [`server`] — accept loop, readers, workers, graceful shutdown.
//! * [`load`] — the seeded zipfian load generator with bit-for-bit
//!   response validation against the independent `kron_core` oracles.
//!
//! Binaries: `kron-serve` (the server) and `kron-load` (the load harness
//! that drives it over TCP). The pipeline benchmark's serving workloads
//! (`benchmark/`) host the server in process.

pub mod admin;
pub mod engine;
pub mod load;
pub mod protocol;
pub mod queue;
pub mod server;
