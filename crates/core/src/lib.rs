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
//! use gsketch::{EdgeSink, GSketch};
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
//! | §3.2 global sketch baseline | [`GSketch::global`] |
//! | §4 vertex statistics from samples | [`vstats`] |
//! | §4.1–4.2 partitioning trees (Figs. 2–3) | [`partition`] |
//! | §5 router `H: V → S_i`, outlier sketch | [`router`], [`gsketch`] |
//! | §3.1/§5 edge + subgraph queries (batched engine) | [`query`] |
//! | §6.2 accuracy metrics | [`metrics`] |
//! | §5 time-windowed deployment | [`window`] |
//! | beyond the paper: unified ingest surface | [`sink`] |
//! | beyond the paper: combining one-owner ingest | [`pipeline`] |
//! | beyond the paper: per-batch deduplicated query replay (flat and interval) | [`replay`] |
//!
//! ## The synopsis
//!
//! [`GSketch`] keeps every partition's CountMin counters plus the
//! outlier's in one [`CmArena`] (DESIGN.md §2): **one contiguous slab**
//! with a single shared per-row hash family. Its estimates are
//! bit-identical to one reference `sketch::CountMinSketch` per slot of
//! the same widths and seed (pinned by the `backend_parity` proptests),
//! so every deployment keeps CountMin's one-sided `e·N_i/w_i` bound.
//! The arena is the only CountMin engine: the §3.2 Global baseline is
//! [`GSketch::global`], a gSketch with zero partitions whose outlier
//! slot holds the whole budget, and the adaptive deployment's warm-up
//! sketch is a one-slot arena.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod concurrent;
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
pub use gsketch::{Estimate, GSketch, GSketchBuilder};
pub use metrics::{
    evaluate_edge_queries, evaluate_subgraph_queries, relative_error, Accuracy, DEFAULT_G0,
};
pub use partition::{Objective, PartitionConfig, PartitionPlan, WidthAllocation};
pub use persist::{
    load_gsketch, load_windowed, load_windowed_horizon, save_gsketch, save_windowed, PersistError,
    RawSnapshot, FORMAT_VERSION, GSKETCH_KIND, WINDOWED_FORMAT_VERSION, WINDOWED_KIND,
};
pub use pipeline::{IngestReport, ShardedIngest};
pub use query::{estimate_subgraph, estimate_subgraph_with, Aggregator, EdgeEstimator, FANOUT_MIN};
pub use replay::{ReplayEngine, ReplayStats, WindowedReplay};
pub use router::{Router, SketchId};
pub use sink::EdgeSink;
pub use sketch::CmArena;
pub use vstats::SampleStats;
pub use window::{IntervalEstimate, WindowConfig, WindowedGSketch};

/// Checks of the §3.2 Global baseline, [`GSketch::global`]: one CountMin
/// sketch over the whole budget, held as the outlier slot of a gSketch
/// with zero partitions.
#[cfg(test)]
mod global {
    mod tests {
        use crate::{EdgeSink, GSketch};
        use gstream::{Edge, StreamEdge};

        #[test]
        fn never_underestimates() {
            let mut g = GSketch::global(1 << 16, 3, 1).unwrap();
            let stream: Vec<StreamEdge> = (0..500u32)
                .map(|i| StreamEdge::unit(Edge::new(i % 50, i / 50), i as u64))
                .collect();
            g.ingest(&stream);
            for se in &stream {
                assert!(g.estimate(se.edge) >= 1);
            }
        }

        #[test]
        fn respects_byte_budget() {
            let g = GSketch::global(1 << 20, 3, 1).unwrap();
            assert!(g.bytes() <= 1 << 20);
            assert!(g.bytes() * 2 >= 1 << 20);
        }

        #[test]
        fn width_times_depth_fits_budget() {
            let g = GSketch::global(4096, 4, 1).unwrap();
            assert_eq!(g.num_partitions(), 0);
            assert_eq!(g.arena().slot_width(0), 4096 / 8 / 4);
        }

        #[test]
        fn error_bound_grows_with_stream() {
            let mut g = GSketch::global(1 << 12, 3, 1).unwrap();
            let probe = Edge::new(1u32, 2u32);
            let b0 = g.estimate_detailed(probe).error_bound;
            g.update(StreamEdge::weighted(probe, 0, 1000));
            assert!(g.estimate_detailed(probe).error_bound > b0);
            assert_eq!(g.total_weight(), 1000);
        }
    }
}
