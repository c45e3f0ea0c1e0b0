//! # gsketch — query estimation in graph streams via sketch partitioning
//!
//! A from-scratch Rust reproduction of **gSketch: On Query Estimation in
//! Graph Streams** (Zhao, Aggarwal & Wang, PVLDB 5(3), VLDB 2011).
//!
//! A graph stream delivers directed edges `(x, y; t)` at high speed over a
//! massive vertex domain. gSketch answers *edge queries* (the frequency of
//! one edge) and *aggregate subgraph queries* (an aggregate `Γ` over a bag
//! of edges) by partitioning one virtual CountMin sketch into localized
//! sketches, using vertex statistics estimated from a small data sample
//! (and optionally a query-workload sample). Structurally similar regions
//! share a sketch, so low-frequency edges are no longer crushed by
//! collisions with heavy edges — the core reason gSketch beats a single
//! global sketch by up to an order of magnitude at equal memory.
//!
//! ## Quick start
//!
//! ```
//! use gsketch::{EdgeSink, GSketch, GlobalSketch};
//! use gstream::{Edge, StreamEdge};
//!
//! // A toy stream: one heavy edge and many light ones.
//! let mut stream = Vec::new();
//! for t in 0..1000u64 {
//!     stream.push(StreamEdge::unit(Edge::new(1u32, 2u32), t));       // heavy
//!     stream.push(StreamEdge::unit(Edge::new((t % 50) as u32 + 10, 99u32), t)); // light
//! }
//!
//! // Scenario 1: partition from a data sample (here: the stream prefix).
//! let mut gs = GSketch::builder()
//!     .memory_bytes(64 * 1024)
//!     .min_width(64)
//!     .build_from_sample(&stream[..200])
//!     .unwrap();
//! gs.ingest(&stream);
//!
//! // CountMin never underestimates; partitioning keeps the light edges
//! // accurate despite the heavy hitter.
//! assert!(gs.estimate(Edge::new(1u32, 2u32)) >= 1000);
//! assert!(gs.estimate(Edge::new(10u32, 99u32)) >= 20);
//! ```
//!
//! ## Module map
//!
//! | paper section | module |
//! |---|---|
//! | §3.2 global sketch baseline | [`global`] |
//! | §4 vertex statistics from samples | [`vstats`] |
//! | §4.1–4.2 partitioning trees (Figs. 2–3) | [`partition`] |
//! | §5 router `H: V → S_i`, outlier sketch | [`router`], [`gsketch`] |
//! | §3.1/§5 edge + subgraph queries (batched engine) | [`query`] |
//! | §6.2 accuracy metrics | [`metrics`] |
//! | §5 time-windowed deployment | [`window`] |
//! | beyond the paper: unified ingest surface | [`sink`] |
//! | beyond the paper: owner-sharded ingest | [`pipeline`] |
//! | beyond the paper: memoized query replay | [`replay`] |
//!
//! ## Synopsis backends
//!
//! [`GSketch`] is generic over a [`FrequencySketch`] backend
//! (DESIGN.md §2). The default, [`CmArena`], keeps every partition's
//! counters plus the outlier's in **one contiguous slab** with a single
//! shared per-row hash family; `GSketch<CountMinSketch>` is the classic
//! one-allocation-per-partition layout, and `GSketch<CountSketch>` swaps
//! in unbiased L2-error estimates for the ablation benches. Arena and
//! per-partition layouts return bit-identical estimates at equal build
//! parameters (pinned by the `backend_parity` proptests).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod concurrent;
pub mod global;
pub mod gsketch;
pub mod metrics;
pub mod partition;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod replay;
pub mod router;
pub mod sink;
pub mod vstats;
pub mod window;

pub use adaptive::{AdaptiveConfig, AdaptiveGSketch};
pub use concurrent::ConcurrentGSketch;
pub use global::GlobalSketch;
pub use gsketch::{Estimate, GSketch, GSketchBuilder};
pub use metrics::{
    evaluate_edge_queries, evaluate_subgraph_queries, relative_error, Accuracy, DEFAULT_G0,
};
pub use partition::{Objective, PartitionConfig, PartitionPlan, WidthAllocation};
pub use persist::{
    load_gsketch, load_gsketch_backend, load_windowed, load_windowed_backend,
    load_windowed_horizon, load_windowed_horizon_backend, save_gsketch, save_windowed,
    PersistError, RawSnapshot, FORMAT_VERSION, WINDOWED_FORMAT_VERSION,
};
pub use pipeline::{IngestReport, ShardedIngest};
pub use query::{
    estimate_subgraph, estimate_subgraph_with, Aggregator, EdgeEstimator, ParallelQuery,
};
pub use replay::{ReplayEngine, ReplayStats, WindowedReplay, WriteLocalized};
pub use router::{OwnerMap, Router, SketchId};
pub use sink::{EdgeSink, SlotRouted};
pub use sketch::{CmArena, CountMinSketch, CountSketch, DetailedRow, FrequencySketch, SketchBank};
pub use vstats::SampleStats;
pub use window::{IntervalEstimate, WindowConfig, WindowedGSketch};
