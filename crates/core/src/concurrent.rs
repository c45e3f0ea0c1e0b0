//! A move-only [`GSketch`] wrapper kept for source compatibility.
//!
//! The combining ingest engine borrows the sketch itself —
//! `ShardedIngest::new(&mut gsketch, 1)` commits straight into its arena
//! (DESIGN.md §11) — so there is nothing to convert to or from. The wrapper remains only because the `perfbench`
//! benchmark names it; new code should not use it.

use crate::gsketch::GSketch;
use std::ops::{Deref, DerefMut};

/// A [`GSketch`] behind a newtype that derefs to it. Kept only because
/// the `perfbench` benchmark names it (`from_gsketch` → `ShardedIngest`
/// → `into_gsketch`); every other caller passes `&mut GSketch` to
/// [`ShardedIngest::new`](crate::ShardedIngest::new) directly.
#[derive(Debug)]
pub struct ConcurrentGSketch(GSketch);

impl ConcurrentGSketch {
    /// Wrap a built [`GSketch`].
    pub fn from_gsketch(g: GSketch) -> Self {
        Self(g)
    }

    /// Unwrap the [`GSketch`].
    pub fn into_gsketch(self) -> GSketch {
        self.0
    }
}

impl Deref for ConcurrentGSketch {
    type Target = GSketch;

    fn deref(&self) -> &GSketch {
        &self.0
    }
}

impl DerefMut for ConcurrentGSketch {
    fn deref_mut(&mut self) -> &mut GSketch {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::SketchId;
    use crate::{EdgeSink, ShardedIngest};
    use gstream::edge::{Edge, StreamEdge};

    fn sample() -> Vec<StreamEdge> {
        (0..100u32)
            .map(|v| StreamEdge::unit(Edge::new(v, v + 1000), v as u64))
            .collect()
    }

    fn build() -> ConcurrentGSketch {
        let g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(32)
            .build_from_sample(&sample())
            .unwrap();
        ConcurrentGSketch::from_gsketch(g)
    }

    #[test]
    fn single_thread_matches_sequential_semantics() {
        let mut c = build();
        let e = Edge::new(5u32, 1005u32);
        c.update(StreamEdge::weighted(e, 0, 7));
        assert!(c.estimate(e) >= 7);
    }

    /// The benchmark's path — wrap, run a one-owner combining ingest
    /// through the wrapper, unwrap — loses no weight.
    #[test]
    fn concurrent_ingest_loses_nothing() {
        let mut c = build();
        let sources = 8u32;
        let per_source = 1_000u64;
        let shared = Edge::new(1u32, 1001u32);
        let stream: Vec<StreamEdge> = (0..sources)
            .flat_map(|t| {
                let private = Edge::new(t, 1000 + t);
                (0..per_source)
                    .flat_map(move |_| [StreamEdge::unit(shared, 0), StreamEdge::unit(private, 0)])
            })
            .collect();
        let report = ShardedIngest::new(&mut c, 1).run_slice(&stream);
        assert_eq!(report.arrivals, stream.len() as u64);
        assert!(c.estimate(shared) >= u64::from(sources) * per_source);
        let g = c.into_gsketch();
        assert_eq!(g.total_weight(), u64::from(sources) * per_source * 2);
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let mut c = build();
        let e = Edge::new(3u32, 1003u32);
        c.update(StreamEdge::weighted(e, 0, 11));
        let g = c.into_gsketch();
        assert!(g.estimate(e) >= 11);
    }

    #[test]
    fn roundtrip_preserves_routing_and_plan() {
        let g = build().into_gsketch();
        let partitions = g.num_partitions();
        let routes: Vec<SketchId> = sample().iter().map(|se| g.route(se.edge)).collect();
        let back = ConcurrentGSketch::from_gsketch(g).into_gsketch();
        assert_eq!(back.num_partitions(), partitions);
        assert_eq!(back.plan().len(), partitions);
        for (se, r) in sample().iter().zip(routes) {
            assert_eq!(back.route(se.edge), r);
        }
    }
}
