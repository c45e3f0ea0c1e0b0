//! # gsketch-bench — experiment harness
//!
//! Reproduces every table and figure of the gSketch paper's evaluation
//! (§6). Each `benches/exp_*.rs` target is a `harness = false` binary
//! that prints the corresponding figure's series as an aligned table;
//! `benches/{sketch_micro,construction,query_time}.rs` are Criterion
//! micro-benchmarks. See DESIGN.md §3 for the experiment index;
//! `sketch_micro` and `parallel_ingest` additionally append their
//! headline throughput to `BENCH_ingest.json` via [`trajectory`].

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod figures;
pub mod harness;
pub mod table;
pub mod trajectory;

pub use datasets::{Bundle, Dataset};
pub use harness::{
    experiment_scale, load, make_query_sets, run_cell, run_subgraph_cell, CellResult, QuerySets,
    Scenario, EXPERIMENT_SEED, QUERY_SET_SIZE,
};
pub use table::{fmt_bytes, fmt_f, Table};
