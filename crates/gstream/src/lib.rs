//! # gstream — graph-stream substrate
//!
//! The data model, synthetic workloads, sampling machinery, and
//! ground-truth accounting that the gSketch reproduction is evaluated on:
//!
//! * [`Edge`], [`StreamEdge`], [`VertexId`], [`Interner`] — the graph
//!   stream model of §3.1 (directed edges with timestamps and weights,
//!   string labels interned to dense ids);
//! * [`gen`] — R-MAT (GTGraph), DBLP-like, and IP-attack-like stream
//!   generators (§6.1);
//! * [`sample`] — reservoir sampling (data samples) and exact Zipf
//!   sampling (workload samples);
//! * [`workload`] — edge / subgraph query-set generation (§6.2–6.4);
//! * [`io`] — the plain-text stream and query-workload file formats
//!   (streams load whole, as the slice every ingest path takes);
//! * [`ExactCounter`] — exact per-edge and per-vertex frequencies, the
//!   evaluation ground truth;
//! * [`VarianceStats`] — the σ_G/σ_V variance-ratio characterisation of
//!   §6.1.
//!
//! ```
//! use gstream::gen::{RmatConfig, RmatGenerator};
//! use gstream::ExactCounter;
//!
//! let stream: Vec<_> = RmatGenerator::new(RmatConfig::gtgraph(8, 1_000, 42)).collect();
//! let truth = ExactCounter::from_stream(&stream);
//! assert_eq!(truth.arrivals(), 1_000);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod edge;
pub mod exact;
pub mod fxhash;
pub mod gen;
pub mod io;
pub mod sample;
pub mod stats;
pub mod vertex;
pub mod workload;

pub use edge::{Edge, StreamEdge};
pub use exact::{ExactCounter, VertexProfile};
pub use io::{
    load_queries, load_stream, load_workload, read_queries, read_stream, read_workload,
    save_queries, save_stream, save_workload, write_queries, write_stream, write_workload,
    QueryFileSource, StreamIoError,
};
pub use stats::VarianceStats;
pub use vertex::{Interner, VertexId};
pub use workload::{SubgraphQuery, WorkloadQuery, ZipfRank};
