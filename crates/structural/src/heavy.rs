//! Heavy-vertex detection on graph streams.
//!
//! The vertex-level analogue of heavy-hitter queries: which sources emit
//! (or destinations receive) a disproportionate share of the stream?
//! This powers blacklist candidates in the paper's network-intrusion
//! scenario (§1: scanners touch many targets; sustained attackers emit
//! huge weight) and the hub detection used by structural analyses.
//!
//! Built directly on [`SpaceSaving`], so the guarantees carry over:
//! every vertex with weight share above `1/k` is guaranteed to be
//! tracked, and each report separates *guaranteed* heavy vertices
//! (`count − error ≥ threshold`) from *candidates*.

use gstream::edge::{Edge, StreamEdge};
use gstream::vertex::VertexId;
use sketch::{Counter, SketchError, SpaceSaving};

/// A reported heavy vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyVertex {
    /// The vertex.
    pub vertex: VertexId,
    /// Upper bound on its weighted frequency.
    pub count: u64,
    /// Guaranteed lower bound.
    pub lower_bound: u64,
    /// Whether the lower bound already clears the queried threshold.
    pub guaranteed: bool,
}

/// Tracks heavy sources and heavy destinations of a graph stream.
#[derive(Debug, Clone)]
pub struct HeavyVertexTracker {
    sources: SpaceSaving,
    destinations: SpaceSaving,
}

impl HeavyVertexTracker {
    /// Track up to `k` sources and `k` destinations.
    pub fn new(k: usize) -> Result<Self, SketchError> {
        Ok(Self {
            sources: SpaceSaving::new(k)?,
            destinations: SpaceSaving::new(k)?,
        })
    }

    /// Observe one weighted arrival.
    pub fn observe(&mut self, edge: Edge, weight: u64) {
        self.sources.update(edge.src.as_u64(), weight);
        self.destinations.update(edge.dst.as_u64(), weight);
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge, se.weight);
        }
    }

    /// Total weight observed.
    pub fn seen(&self) -> u64 {
        self.sources.seen()
    }

    fn report(summary: &SpaceSaving, phi: f64) -> Vec<HeavyVertex> {
        let threshold = (phi * summary.seen() as f64).ceil() as u64;
        summary
            .heavy_hitters(phi)
            .into_iter()
            .map(|c: Counter| HeavyVertex {
                vertex: VertexId(c.key as u32),
                count: c.count,
                lower_bound: c.lower_bound(),
                guaranteed: c.lower_bound() >= threshold,
            })
            .collect()
    }

    /// Sources that may hold more than a `phi` fraction of the stream
    /// weight (no false negatives), hottest first.
    pub fn heavy_sources(&self, phi: f64) -> Vec<HeavyVertex> {
        Self::report(&self.sources, phi)
    }

    /// Destinations that may hold more than a `phi` fraction of the
    /// stream weight, hottest first.
    pub fn heavy_destinations(&self, phi: f64) -> Vec<HeavyVertex> {
        Self::report(&self.destinations, phi)
    }

    /// Upper-bound estimate of a source's weighted out-frequency
    /// (0 when untracked).
    pub fn source_weight(&self, v: VertexId) -> u64 {
        self.sources.estimate(v.as_u64())
    }

    /// Upper-bound estimate of a destination's weighted in-frequency.
    pub fn destination_weight(&self, v: VertexId) -> u64 {
        self.destinations.estimate(v.as_u64())
    }

    /// Batched [`source_weight`](Self::source_weight): `out` is cleared
    /// and receives one upper bound per vertex, in order — the surface
    /// cross-referencing layers (hub ranking, scanner spread reports)
    /// drive instead of a scalar probe per vertex.
    pub fn source_weights(&self, vertices: &[VertexId], out: &mut Vec<u64>) {
        let keys: Vec<u64> = vertices.iter().map(|v| v.as_u64()).collect();
        self.sources.estimate_batch(&keys, out);
    }

    /// Batched [`destination_weight`](Self::destination_weight).
    pub fn destination_weights(&self, vertices: &[VertexId], out: &mut Vec<u64>) {
        let keys: Vec<u64> = vertices.iter().map(|v| v.as_u64()).collect();
        self.destinations.estimate_batch(&keys, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_with_hot_source() -> Vec<StreamEdge> {
        let mut out = Vec::new();
        for t in 0..10_000u64 {
            // Vertex 7 emits 30% of traffic; the rest is all-distinct churn.
            if t % 10 < 3 {
                out.push(StreamEdge::unit(
                    Edge::new(7u32, (t % 100) as u32 + 1000),
                    t,
                ));
            } else {
                out.push(StreamEdge::unit(Edge::new(50_000 + t as u32, 9u32), t));
            }
        }
        out
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(HeavyVertexTracker::new(0).is_err());
    }

    #[test]
    fn hot_source_is_guaranteed_heavy() {
        let mut hv = HeavyVertexTracker::new(16).unwrap();
        hv.ingest(&stream_with_hot_source());
        let heavy = hv.heavy_sources(0.2);
        assert!(!heavy.is_empty());
        assert_eq!(heavy[0].vertex, VertexId(7));
        assert!(
            heavy[0].guaranteed,
            "30% source must be guaranteed at φ=0.2"
        );
        assert!(heavy[0].count >= 3_000);
    }

    #[test]
    fn hot_destination_is_detected() {
        let mut hv = HeavyVertexTracker::new(16).unwrap();
        hv.ingest(&stream_with_hot_source());
        // Vertex 9 receives 70% of arrivals.
        let heavy = hv.heavy_destinations(0.5);
        assert_eq!(heavy[0].vertex, VertexId(9));
        assert!(heavy[0].guaranteed);
    }

    #[test]
    fn cold_vertices_not_guaranteed() {
        let mut hv = HeavyVertexTracker::new(8).unwrap();
        hv.ingest(&stream_with_hot_source());
        for h in hv.heavy_sources(0.2) {
            if h.vertex != VertexId(7) {
                assert!(
                    !h.guaranteed,
                    "churn source {:?} cannot be guaranteed",
                    h.vertex
                );
            }
        }
    }

    #[test]
    fn weights_count() {
        let mut hv = HeavyVertexTracker::new(4).unwrap();
        hv.observe(Edge::new(1u32, 2u32), 100);
        hv.observe(Edge::new(3u32, 2u32), 1);
        assert_eq!(hv.source_weight(VertexId(1)), 100);
        assert_eq!(hv.destination_weight(VertexId(2)), 101);
        assert_eq!(hv.seen(), 101);
    }

    #[test]
    fn untracked_vertices_report_zero() {
        let hv = HeavyVertexTracker::new(4).unwrap();
        assert_eq!(hv.source_weight(VertexId(999)), 0);
        assert_eq!(hv.destination_weight(VertexId(999)), 0);
    }

    #[test]
    fn batched_weights_match_scalar_probes() {
        let mut hv = HeavyVertexTracker::new(16).unwrap();
        hv.ingest(&stream_with_hot_source());
        let vs: Vec<VertexId> = [7u32, 9, 50_001, 123_456].map(VertexId).to_vec();
        let mut src = Vec::new();
        let mut dst = Vec::new();
        hv.source_weights(&vs, &mut src);
        hv.destination_weights(&vs, &mut dst);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(src[i], hv.source_weight(v));
            assert_eq!(dst[i], hv.destination_weight(v));
        }
    }
}
