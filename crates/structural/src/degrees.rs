//! Distinct-degree queries on multigraph streams (Cormode &
//! Muthukrishnan, PODS 2005 — the paper's ref. \[15\]).
//!
//! A multigraph stream repeats edges; the *distinct* out-degree of a
//! vertex (how many different partners it contacted) is what separates a
//! scanner touching 10 000 hosts once each from a chatty pair exchanging
//! 10 000 messages — the exact distinction §1's intrusion scenario needs.
//! [`MultigraphDegrees`] answers it in fixed memory from a
//! [`DegreeSketch`] (CountMin-style bucket rows of HyperLogLogs), with
//! [`ExactDegrees`] as the `O(|E|)` ground truth.

use gstream::edge::{Edge, StreamEdge};
use gstream::fxhash::{FxHashMap, FxHashSet};
use gstream::vertex::VertexId;
use sketch::{DegreeSketch, SketchError};

/// Exact distinct out-/in-degree counting (ground truth).
#[derive(Debug, Clone, Default)]
pub struct ExactDegrees {
    out: FxHashMap<VertexId, FxHashSet<VertexId>>,
    inc: FxHashMap<VertexId, FxHashSet<VertexId>>,
}

impl ExactDegrees {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one arrival (repeats are no-ops).
    pub fn observe(&mut self, edge: Edge) {
        self.out.entry(edge.src).or_default().insert(edge.dst);
        self.inc.entry(edge.dst).or_default().insert(edge.src);
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge);
        }
    }

    /// Distinct out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.get(&v).map_or(0, FxHashSet::len)
    }

    /// Distinct in-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inc.get(&v).map_or(0, FxHashSet::len)
    }
}

/// Sketched distinct-degree estimation with memory independent of both
/// the vertex and the edge count.
#[derive(Debug, Clone)]
pub struct MultigraphDegrees {
    out: DegreeSketch,
    inc: DegreeSketch,
}

impl MultigraphDegrees {
    /// Create with `buckets × depth` HyperLogLogs per direction at the
    /// given register `precision`.
    pub fn new(
        buckets: usize,
        depth: usize,
        precision: u32,
        seed: u64,
    ) -> Result<Self, SketchError> {
        Ok(Self {
            out: DegreeSketch::new(buckets, depth, precision, seed)?,
            inc: DegreeSketch::new(buckets, depth, precision, seed ^ 0x1B5E)?,
        })
    }

    /// Observe one arrival.
    pub fn observe(&mut self, edge: Edge) {
        self.out.observe(edge.src.as_u64(), edge.dst.as_u64());
        self.inc.observe(edge.dst.as_u64(), edge.src.as_u64());
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge);
        }
    }

    /// Estimated distinct out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> f64 {
        self.out.estimate(v.as_u64())
    }

    /// Estimated distinct in-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> f64 {
        self.inc.estimate(v.as_u64())
    }

    /// Batched [`out_degree`](Self::out_degree): `out` is cleared and
    /// receives one degree estimate per vertex, in order — the hot loop
    /// of the scanner-spread report, driven through the sketch's batched
    /// surface.
    pub fn out_degrees(&self, vertices: &[VertexId], out: &mut Vec<f64>) {
        let keys: Vec<u64> = vertices.iter().map(|v| v.as_u64()).collect();
        self.out.estimate_batch(&keys, out);
    }

    /// Batched [`in_degree`](Self::in_degree).
    pub fn in_degrees(&self, vertices: &[VertexId], out: &mut Vec<f64>) {
        let keys: Vec<u64> = vertices.iter().map(|v| v.as_u64()).collect();
        self.inc.estimate_batch(&keys, out);
    }

    /// Memory footprint in bytes of the out- and in-degree sketches.
    pub fn bytes(&self) -> usize {
        self.out.bytes() + self.inc.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner_stream() -> Vec<StreamEdge> {
        let mut out = Vec::new();
        let mut t = 0u64;
        // Vertex 1 is a scanner: 2 000 distinct targets, once each.
        for p in 0..2_000u32 {
            out.push(StreamEdge::unit(Edge::new(1u32, 10_000 + p), t));
            t += 1;
        }
        // Vertex 2 is chatty: 4 partners, 500 times each.
        for r in 0..500u32 {
            for p in 0..4u32 {
                out.push(StreamEdge::unit(Edge::new(2u32, 20_000 + p), t));
                t += 1;
                let _ = r;
            }
        }
        out
    }

    #[test]
    fn exact_degrees_ignore_repeats() {
        let mut d = ExactDegrees::new();
        d.ingest(&scanner_stream());
        assert_eq!(d.out_degree(VertexId(1)), 2_000);
        assert_eq!(d.out_degree(VertexId(2)), 4);
        assert_eq!(d.in_degree(VertexId(20_000)), 1);
        assert_eq!(d.out_degree(VertexId(999)), 0);
    }

    #[test]
    fn sketch_separates_scanner_from_chatty() {
        let mut d = MultigraphDegrees::new(512, 3, 10, 7).unwrap();
        d.ingest(&scanner_stream());
        let scanner = d.out_degree(VertexId(1));
        let chatty = d.out_degree(VertexId(2));
        assert!(
            (scanner - 2_000.0).abs() / 2_000.0 < 0.2,
            "scanner degree ≈ {scanner}"
        );
        assert!(chatty < scanner / 10.0, "chatty degree ≈ {chatty}");
    }

    #[test]
    fn sketch_tracks_in_degrees_independently() {
        let mut d = MultigraphDegrees::new(256, 3, 10, 7).unwrap();
        // 300 distinct sources all hit vertex 5.
        for s in 0..300u32 {
            d.observe(Edge::new(100 + s, 5u32));
        }
        let indeg = d.in_degree(VertexId(5));
        assert!((indeg - 300.0).abs() / 300.0 < 0.25, "in-degree ≈ {indeg}");
        // Its out-degree bucket holds only collision unions; for a
        // 256-bucket sketch over 300 keyed sources it stays well below.
        assert!(d.out_degree(VertexId(5)) < indeg);
    }

    #[test]
    fn bytes_accounting() {
        let d = MultigraphDegrees::new(16, 2, 8, 1).unwrap();
        assert_eq!(d.bytes(), 2 * 16 * 2 * 256);
    }

    #[test]
    fn batched_degrees_match_scalar_probes() {
        let mut d = MultigraphDegrees::new(256, 3, 10, 7).unwrap();
        d.ingest(&scanner_stream());
        let vs: Vec<VertexId> = [1u32, 2, 10_000, 20_001, 777_777].map(VertexId).to_vec();
        let mut outd = Vec::new();
        let mut ind = Vec::new();
        d.out_degrees(&vs, &mut outd);
        d.in_degrees(&vs, &mut ind);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(outd[i], d.out_degree(v));
            assert_eq!(ind[i], d.in_degree(v));
        }
    }
}
