//! # gsketch-bench — experiment harness
//!
//! Reproduces every table and figure of the gSketch paper's evaluation
//! (§6). Each `benches/exp_*.rs` target is a `harness = false` binary
//! that prints the corresponding figure's series as an aligned table;
//! `benches/{construction,synopsis_micro}.rs` are Criterion
//! micro-benchmarks. See DESIGN.md §3 for the experiment index.
//!
//! Performance is measured in one place, `perfbench/` at the repository
//! root (repeated runs, medians, host line). `benches/replay.rs` and
//! `benches/parallel_ingest.rs` are print-only dev tools for what it
//! cannot measure: the pre-filter's absent-key sweep and the 2-owner
//! sharded ingest row.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod figures;
pub mod harness;
pub mod table;

pub use datasets::{Bundle, Dataset};
pub use harness::{
    experiment_scale, load, make_query_sets, rate_of, run_cell, run_subgraph_cell, CellResult,
    QuerySets, Scenario, EXPERIMENT_SEED, QUERY_SET_SIZE,
};
pub use table::{fmt_bytes, fmt_f, Table};
