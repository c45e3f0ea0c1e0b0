//! The Global Sketch baseline (§3.2): one CountMin sketch for the whole
//! graph stream, blind to graph structure. Every experiment compares
//! gSketch against this.

use gstream::edge::{Edge, StreamEdge};
use sketch::{CountMinSketch, SketchError};

/// A single global CountMin sketch over edge keys.
#[derive(Debug, Clone)]
pub struct GlobalSketch {
    inner: CountMinSketch,
}

impl GlobalSketch {
    /// Build from a byte budget and depth, mirroring
    /// [`crate::GSketch`]'s accounting so comparisons are fair: the full
    /// budget becomes one `width × depth` counter matrix.
    pub fn new(memory_bytes: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        let total_cells = CountMinSketch::cells_for_bytes(memory_bytes);
        let width = total_cells / depth.max(1);
        Ok(Self {
            inner: CountMinSketch::new(width.max(1), depth.max(1), seed)?,
        })
    }

    /// Estimate the aggregate frequency of an edge.
    #[inline]
    pub fn estimate(&self, edge: Edge) -> u64 {
        self.inner.estimate(edge.key())
    }

    /// Answer a whole query batch. One sketch means no routing, and the
    /// baseline has no arena to batch into — a plain scalar pass, which
    /// is exactly what the batched-vs-scalar bench rows measure against.
    /// `out` is overwritten with one estimate per edge, in query order.
    pub fn estimate_batch(&self, edges: &[Edge], out: &mut Vec<u64>) {
        out.clear();
        out.extend(edges.iter().map(|e| self.inner.estimate(e.key())));
    }

    /// Counter memory in bytes.
    pub fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    /// Width of the single sketch.
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// Total absorbed weight (`N` of Equation 1).
    pub fn total_weight(&self) -> u64 {
        self.inner.total()
    }

    /// Additive error bound `e·N/w` (Equation 1).
    pub fn error_bound(&self) -> f64 {
        self.inner.error_bound()
    }
}

impl crate::EdgeSink for GlobalSketch {
    #[inline]
    fn update(&mut self, se: StreamEdge) {
        self.inner.update(se.edge.key(), se.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeSink;

    #[test]
    fn never_underestimates() {
        let mut g = GlobalSketch::new(1 << 16, 3, 1).unwrap();
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
        let g = GlobalSketch::new(1 << 20, 3, 1).unwrap();
        assert!(g.bytes() <= 1 << 20);
        assert!(g.bytes() * 2 >= 1 << 20);
    }

    #[test]
    fn width_times_depth_fits_budget() {
        let g = GlobalSketch::new(4096, 4, 1).unwrap();
        assert_eq!(g.width(), 4096 / 8 / 4);
    }

    #[test]
    fn error_bound_grows_with_stream() {
        let mut g = GlobalSketch::new(1 << 12, 3, 1).unwrap();
        let b0 = g.error_bound();
        g.update(StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 1000));
        assert!(g.error_bound() > b0);
        assert_eq!(g.total_weight(), 1000);
    }
}
