//! # kron-bench — experiment harness
//!
//! Drivers that regenerate every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index). Each
//! experiment lives in [`experiments`] as a pure function returning a
//! serializable report, and the `src/bin/` targets print them.

pub mod experiments;
pub mod report;
pub mod svg;

pub use report::Table;
