//! The unified ingest surface: every estimator is an [`EdgeSink`]
//! (DESIGN.md §7).
//!
//! Before this trait each ingest-capable type grew its own ad-hoc
//! signatures — `GSketch::{update, ingest, ingest_batch}`,
//! `WindowedGSketch::insert` — which meant the evaluation harness and
//! the CLI each needed per-type plumbing.
//! [`EdgeSink`] replaces all of them with one contract:
//!
//! * [`update`](EdgeSink::update) — record one arrival;
//! * [`ingest_batch`](EdgeSink::ingest_batch) — record a contiguous batch
//!   (sinks override this when batching buys locality: `GSketch`
//!   counting-sorts the batch by slot, while `WindowedGSketch` and
//!   `AdaptiveGSketch` run the fused one-owner
//!   [`ShardedIngest`](crate::ShardedIngest) combiner per window epoch
//!   and after the warm-up switchover);
//! * [`ingest`](EdgeSink::ingest) — the provided per-arrival `update`
//!   loop over a whole stream: the sequential reference the batched
//!   paths are pinned against (`backend_parity`).
//!
//! No sink buffers: every arrival a call accepts is visible to the
//! sink's queries once the call returns. Streams are slices — every ingest
//! path in the workspace takes a materialized `&[StreamEdge]` — so "ingest
//! a stream into X" means the same thing for every estimator.
//!
//! Implementors: [`GSketch`](crate::GSketch) (the Global baseline
//! included: it is [`GSketch::global`](crate::GSketch::global)),
//! [`AdaptiveGSketch`](crate::AdaptiveGSketch) and
//! [`WindowedGSketch`](crate::WindowedGSketch). The combining engine is
//! not a sink: [`ShardedIngest`](crate::ShardedIngest) borrows a
//! `&mut GSketch` for one run over a materialized stream and commits
//! straight into its arena and filter.

use gstream::edge::StreamEdge;

/// Anything that can absorb a graph stream, arrival by arrival or in
/// contiguous batches.
///
/// Counters are commutative, so sinks make no ordering promises between
/// arrivals beyond what their own documentation states (the windowed sink
/// requires non-decreasing timestamps, for example).
pub trait EdgeSink {
    /// Record one arrival.
    fn update(&mut self, se: StreamEdge);

    /// Record a contiguous batch of arrivals. Equivalent to updating each
    /// element in order; sinks override it when batch shape buys locality
    /// or amortization. Every arrival the call accepts is visible to the
    /// sink's queries once it returns.
    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        for se in batch {
            self.update(*se);
        }
    }

    /// Ingest a whole stream in arrival order, one
    /// [`update`](Self::update) per arrival.
    fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I)
    where
        Self: Sized,
    {
        for se in stream {
            self.update(*se);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::edge::Edge;

    /// A sink that records what reached it, to pin the provided-method
    /// plumbing independently of any real estimator.
    #[derive(Default)]
    struct Probe {
        arrivals: Vec<StreamEdge>,
    }

    impl EdgeSink for Probe {
        fn update(&mut self, se: StreamEdge) {
            self.arrivals.push(se);
        }
    }

    #[test]
    fn ingest_visits_in_order() {
        let stream: Vec<StreamEdge> = (0..10u64)
            .map(|t| StreamEdge::unit(Edge::new((t % 5) as u32, 9u32), t))
            .collect();
        let mut p = Probe::default();
        p.ingest(&stream);
        assert_eq!(p.arrivals, stream);
    }
}
