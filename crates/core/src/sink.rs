//! The unified ingest surface: every estimator is an [`EdgeSink`]
//! (DESIGN.md §7).
//!
//! Before this trait each ingest-capable type grew its own ad-hoc
//! signatures — `GSketch::{update, ingest, ingest_batch}`,
//! `GlobalSketch::ingest`, `WindowedGSketch::insert` — which meant the
//! evaluation harness and the CLI each needed per-type plumbing.
//! [`EdgeSink`] replaces all of them with one contract:
//!
//! * [`update`](EdgeSink::update) — record one arrival;
//! * [`ingest_batch`](EdgeSink::ingest_batch) — record a contiguous batch
//!   (sinks override this when batching buys locality, e.g. the
//!   slot-grouped counting sort of `GSketch`);
//! * [`flush`](EdgeSink::flush) — make every accepted arrival visible to
//!   queries. A no-op for unbuffered sinks; a buffered sink holds
//!   arrivals in staging buffers until a batch boundary or a flush.
//!
//! The provided [`ingest`](EdgeSink::ingest) and
//! [`drain`](EdgeSink::drain) methods are the only stream-shaped loops in
//! the workspace: everything that used to hand-roll `for se in stream`
//! now goes through them, so "ingest a stream into X" means the same
//! thing for every estimator.
//!
//! Implementors: [`GSketch`](crate::GSketch) (any backend),
//! [`GlobalSketch`](crate::GlobalSketch),
//! [`AdaptiveGSketch`](crate::AdaptiveGSketch) and
//! [`WindowedGSketch`](crate::WindowedGSketch). Parallel ingest is not a
//! sink: [`ShardedIngest`](crate::ShardedIngest) borrows a `&mut GSketch`
//! and commits into exclusive per-owner slices of it.

use gstream::edge::StreamEdge;
use gstream::source::EdgeSource;
use gstream::vertex::VertexId;

/// The routing view of a partitioned synopsis: a flat slot space and the
/// §5 hash structure `H : V → S_i` mapping source vertices into it.
///
/// The owner-sharded engine derives one
/// [`OwnerMap`](crate::router::OwnerMap) from `num_slots`, and both the
/// scatter stage (writes) and the slot-routed parallel query (reads)
/// group work by `slot_of` so each slot's cache lines are only ever
/// touched by the slot's owner. Implementor: `GSketch<B>` (any
/// backend).
pub trait SlotRouted {
    /// Total number of slots (partitions + outlier).
    fn num_slots(&self) -> usize;

    /// The flat slot responsible for edges emanating from `src`.
    fn slot_of(&self, src: VertexId) -> u32;
}

impl<T: SlotRouted + ?Sized> SlotRouted for &T {
    fn num_slots(&self) -> usize {
        (**self).num_slots()
    }
    fn slot_of(&self, src: VertexId) -> u32 {
        (**self).slot_of(src)
    }
}

/// Anything that can absorb a graph stream, arrival by arrival or in
/// contiguous batches.
///
/// Counters are commutative, so sinks make no ordering promises between
/// arrivals beyond what their own documentation states (the windowed sink
/// requires non-decreasing timestamps, for example). After
/// [`flush`](Self::flush) returns, every arrival previously accepted is
/// visible to the sink's query side.
pub trait EdgeSink {
    /// Record one arrival.
    fn update(&mut self, se: StreamEdge);

    /// Record a contiguous batch of arrivals. Equivalent to updating each
    /// element in order; sinks override it when batch shape buys locality
    /// or amortization.
    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        for se in batch {
            self.update(*se);
        }
    }

    /// Make every accepted arrival visible to queries. No-op for
    /// unbuffered sinks.
    fn flush(&mut self) {}

    /// Ingest a whole stream in arrival order, then flush.
    fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I)
    where
        Self: Sized,
    {
        for se in stream {
            self.update(*se);
        }
        self.flush();
    }

    /// Drain a chunked [`EdgeSource`] to exhaustion through
    /// [`ingest_batch`](Self::ingest_batch), then flush. Returns the
    /// number of arrivals absorbed. `chunk` bounds the staging buffer
    /// (arrivals per refill).
    fn drain<S: EdgeSource>(&mut self, source: &mut S, chunk: usize) -> u64
    where
        Self: Sized,
    {
        let chunk = chunk.max(1);
        let mut buf = Vec::with_capacity(chunk);
        let mut absorbed = 0u64;
        while source.fill_chunk(&mut buf, chunk) > 0 {
            absorbed += buf.len() as u64;
            self.ingest_batch(&buf);
        }
        self.flush();
        absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::edge::Edge;

    /// A sink that records what reached it, to pin the provided-method
    /// plumbing (batching boundaries, flush-at-end) independently of any
    /// real estimator.
    #[derive(Default)]
    struct Probe {
        arrivals: Vec<StreamEdge>,
        batches: Vec<usize>,
        flushes: usize,
    }

    impl EdgeSink for Probe {
        fn update(&mut self, se: StreamEdge) {
            self.arrivals.push(se);
        }
        fn ingest_batch(&mut self, batch: &[StreamEdge]) {
            self.batches.push(batch.len());
            for se in batch {
                self.update(*se);
            }
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    fn toy(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|t| StreamEdge::unit(Edge::new((t % 5) as u32, 9u32), t))
            .collect()
    }

    #[test]
    fn ingest_visits_in_order_and_flushes_once() {
        let stream = toy(10);
        let mut p = Probe::default();
        p.ingest(&stream);
        assert_eq!(p.arrivals, stream);
        assert_eq!(p.flushes, 1);
    }

    #[test]
    fn drain_chunks_and_flushes() {
        let stream = toy(10);
        let mut src = gstream::SliceSource::new(&stream);
        let mut p = Probe::default();
        let n = p.drain(&mut src, 4);
        assert_eq!(n, 10);
        assert_eq!(p.arrivals, stream);
        assert_eq!(p.batches, vec![4, 4, 2]);
        assert_eq!(p.flushes, 1);
    }

    #[test]
    fn drain_clamps_zero_chunk() {
        let stream = toy(3);
        let mut src = gstream::SliceSource::new(&stream);
        let mut p = Probe::default();
        assert_eq!(p.drain(&mut src, 0), 3);
    }
}
