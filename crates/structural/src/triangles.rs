//! Streaming triangle counting.
//!
//! Triangle counting is the canonical structural query on graph streams
//! (the gSketch paper's related-work section cites Bar-Yossef et al.,
//! SODA 2002 and Buriol et al., PODS 2006 for it). Two counters live
//! here:
//!
//! * [`ExactTriangleCounter`] — incremental exact counting over the
//!   *distinct* underlying graph (every new undirected edge `{u, v}`
//!   closes one triangle per common neighbour of `u` and `v`). Linear in
//!   the graph size; serves as ground truth and as the counting core of
//!   the sampled estimator.
//! * [`TriangleEstimator`] — DOULION (Tsourakakis, Kang, Miller &
//!   Faloutsos, KDD 2009): keep each distinct edge independently with
//!   probability `p`, count triangles exactly on the sparsified graph,
//!   and scale by `1/p³`. The estimate is unbiased and its variance
//!   vanishes as the true count grows; memory shrinks by `≈ p`.
//!
//! Both operate on the *undirected support* of the stream (triangles are
//! a symmetric notion; arrival direction and multiplicity are ignored, so
//! repeated arrivals of the same edge are no-ops).

use gstream::edge::{Edge, StreamEdge};
use gstream::fxhash::{FxHashMap, FxHashSet};
use gstream::vertex::VertexId;
use sketch::hash::mix64;

/// Incremental exact triangle counter over the undirected edge support.
#[derive(Debug, Clone, Default)]
pub struct ExactTriangleCounter {
    /// Undirected adjacency sets.
    adj: FxHashMap<VertexId, FxHashSet<VertexId>>,
    /// Distinct undirected edges seen.
    edges: usize,
    /// Running triangle count.
    triangles: u64,
}

impl ExactTriangleCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one arrival; repeated and self-loop arrivals are no-ops.
    /// Returns the number of triangles this arrival closed.
    pub fn observe(&mut self, edge: Edge) -> u64 {
        if edge.is_loop() {
            return 0;
        }
        let (u, v) = (edge.canonical().src, edge.canonical().dst);
        if self.adj.get(&u).is_some_and(|s| s.contains(&v)) {
            return 0; // already present
        }
        // New edge: every common neighbour of u and v closes a triangle.
        let closed = match (self.adj.get(&u), self.adj.get(&v)) {
            (Some(nu), Some(nv)) => {
                // Iterate the smaller set (standard intersection trick).
                let (small, large) = if nu.len() <= nv.len() {
                    (nu, nv)
                } else {
                    (nv, nu)
                };
                small.iter().filter(|x| large.contains(x)).count() as u64
            }
            _ => 0,
        };
        self.adj.entry(u).or_default().insert(v);
        self.adj.entry(v).or_default().insert(u);
        self.edges += 1;
        self.triangles += closed;
        closed
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge);
        }
    }

    /// Total triangles in the undirected support graph.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Distinct undirected edges retained.
    pub fn edges(&self) -> usize {
        self.edges
    }
}

/// DOULION: unbiased one-pass triangle estimation by edge sparsification.
#[derive(Debug, Clone)]
pub struct TriangleEstimator {
    /// Edge-keeping probability `p ∈ (0, 1]`.
    p: f64,
    /// Deterministic keep/drop decisions come from hashing the canonical
    /// edge key with this seed, so repeated arrivals of one edge agree.
    seed: u64,
    inner: ExactTriangleCounter,
    /// Arrivals observed (diagnostics).
    arrivals: u64,
}

impl TriangleEstimator {
    /// Create an estimator keeping each distinct edge with probability
    /// `p`. Panics if `p` is outside `(0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        // lint: allow(no-panics) — documented precondition (`# Panics`): a keep probability outside (0, 1] must fail at construction.
        assert!(p > 0.0 && p <= 1.0, "keep probability must be in (0, 1]");
        Self {
            p,
            seed,
            inner: ExactTriangleCounter::new(),
            arrivals: 0,
        }
    }

    /// Whether the sparsifier keeps `edge` (deterministic per edge).
    fn keeps(&self, edge: Edge) -> bool {
        if self.p >= 1.0 {
            return true;
        }
        let h = mix64(edge.canonical().key() ^ self.seed);
        // Map the hash to [0, 1) and compare with p.
        (h as f64 / u64::MAX as f64) < self.p
    }

    /// Observe one arrival.
    pub fn observe(&mut self, edge: Edge) {
        self.arrivals += 1;
        if !edge.is_loop() && self.keeps(edge) {
            self.inner.observe(edge);
        }
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge);
        }
    }

    /// Unbiased estimate of the triangle count: `T_sampled / p³`.
    pub fn estimate(&self) -> f64 {
        self.inner.triangles() as f64 / (self.p * self.p * self.p)
    }

    /// Triangles counted on the sparsified graph (before scaling).
    pub fn sampled_triangles(&self) -> u64 {
        self.inner.triangles()
    }

    /// Distinct edges retained by the sparsifier — the memory driver,
    /// ≈ `p · |E|`.
    pub fn retained_edges(&self) -> usize {
        self.inner.edges()
    }

    /// Arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(u, v)
    }

    /// K4 has 4 triangles.
    fn k4_edges() -> Vec<Edge> {
        let mut out = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                out.push(e(u, v));
            }
        }
        out
    }

    #[test]
    fn empty_graph_has_no_triangles() {
        let c = ExactTriangleCounter::new();
        assert_eq!(c.triangles(), 0);
        assert_eq!(c.edges(), 0);
    }

    #[test]
    fn single_triangle_counted_once() {
        let mut c = ExactTriangleCounter::new();
        c.observe(e(1, 2));
        c.observe(e(2, 3));
        assert_eq!(c.triangles(), 0);
        let closed = c.observe(e(3, 1));
        assert_eq!(closed, 1);
        assert_eq!(c.triangles(), 1);
    }

    #[test]
    fn k4_has_four_triangles() {
        let mut c = ExactTriangleCounter::new();
        for edge in k4_edges() {
            c.observe(edge);
        }
        assert_eq!(c.triangles(), 4);
        assert_eq!(c.edges(), 6);
    }

    #[test]
    fn duplicates_and_direction_ignored() {
        let mut c = ExactTriangleCounter::new();
        c.observe(e(1, 2));
        c.observe(e(2, 1)); // reverse duplicate
        c.observe(e(1, 2)); // exact duplicate
        c.observe(e(2, 3));
        c.observe(e(1, 3));
        assert_eq!(c.triangles(), 1);
        assert_eq!(c.edges(), 3);
    }

    #[test]
    fn self_loops_ignored() {
        let mut c = ExactTriangleCounter::new();
        assert_eq!(c.observe(e(5, 5)), 0);
        assert_eq!(c.edges(), 0);
    }

    #[test]
    fn arrival_order_does_not_matter() {
        let edges = k4_edges();
        let mut forward = ExactTriangleCounter::new();
        let mut backward = ExactTriangleCounter::new();
        for edge in &edges {
            forward.observe(*edge);
        }
        for edge in edges.iter().rev() {
            backward.observe(*edge);
        }
        assert_eq!(forward.triangles(), backward.triangles());
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn zero_p_rejected() {
        TriangleEstimator::new(0.0, 1);
    }

    #[test]
    fn p_one_is_exact() {
        let mut est = TriangleEstimator::new(1.0, 7);
        for edge in k4_edges() {
            est.observe(edge);
        }
        assert_eq!(est.estimate(), 4.0);
        assert_eq!(est.retained_edges(), 6);
    }

    #[test]
    fn repeated_arrivals_agree_on_keep_decision() {
        // The same edge must be kept or dropped consistently, otherwise a
        // later duplicate could sneak a dropped edge in.
        let est = TriangleEstimator::new(0.5, 3);
        for u in 0..50u32 {
            let edge = e(u, u + 1);
            let first = est.keeps(edge);
            for _ in 0..5 {
                assert_eq!(est.keeps(edge), first);
                assert_eq!(est.keeps(edge.reversed()), first, "direction-blind");
            }
        }
    }

    #[test]
    fn sparsified_estimate_tracks_truth_on_dense_graph() {
        // A clique K_n has C(n,3) triangles — plenty of signal for the
        // 1/p³ scaling to concentrate.
        let n = 60u32;
        let mut exact = ExactTriangleCounter::new();
        let mut est = TriangleEstimator::new(0.5, 11);
        for u in 0..n {
            for v in (u + 1)..n {
                exact.observe(e(u, v));
                est.observe(e(u, v));
            }
        }
        let truth = exact.triangles() as f64; // 34_220 for n = 60
        let got = est.estimate();
        let rel = (got - truth).abs() / truth;
        assert!(
            rel < 0.2,
            "estimate {got} vs truth {truth} (rel {rel:.3}) too far"
        );
        // Memory shrank roughly by p.
        assert!(est.retained_edges() < exact.edges() * 3 / 4);
    }

    #[test]
    fn estimator_ingests_streams() {
        let stream: Vec<StreamEdge> = k4_edges()
            .into_iter()
            .enumerate()
            .map(|(t, edge)| StreamEdge::unit(edge, t as u64))
            .collect();
        let mut exact = ExactTriangleCounter::new();
        exact.ingest(&stream);
        assert_eq!(exact.triangles(), 4);
        let mut est = TriangleEstimator::new(1.0, 5);
        est.ingest(&stream);
        assert_eq!(est.arrivals(), 6);
        assert_eq!(est.estimate(), 4.0);
    }

    #[test]
    fn average_over_seeds_is_unbiased_ish() {
        // Mean of many independent sparsifier runs should approach truth.
        let n = 30u32;
        let mut exact = ExactTriangleCounter::new();
        for u in 0..n {
            for v in (u + 1)..n {
                exact.observe(e(u, v));
            }
        }
        let truth = exact.triangles() as f64;
        let runs = 30;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut est = TriangleEstimator::new(0.4, seed);
            for u in 0..n {
                for v in (u + 1)..n {
                    est.observe(e(u, v));
                }
            }
            sum += est.estimate();
        }
        let mean = sum / runs as f64;
        let rel = (mean - truth).abs() / truth;
        assert!(rel < 0.15, "mean {mean} vs truth {truth}: rel {rel:.3}");
    }
}
