//! 2-path (wedge) aggregates over graph streams.
//!
//! A *2-path* is a directed wedge `x → y → z`; its weighted count through
//! an intermediate vertex `y` is `in(y) · out(y)`, where `in`/`out` are
//! `y`'s weighted in-/out-frequencies, and the stream's total 2-path
//! weight is `Σ_y in(y)·out(y)`. Path aggregates of this shape are the
//! subject of Ganguly & Saha (ISAAC 2006), cited by the paper's related
//! work; top through-flow vertices ("hubs") are the building block of
//! streaming PageRank-style analyses (Das Sarma et al., PODS 2008).
//!
//! Two implementations, mirroring the paper's own memory philosophy:
//!
//! * [`PathAggregator`] — exact per-vertex in/out counters, `O(|V|)`
//!   memory. The paper's §1 argument applies verbatim: the vertex set is
//!   modest even when the edge set is enormous (gSketch's own router `H`
//!   already pays this cost).
//! * [`PathSketch`] — `|V|`-independent: two [`CountSketch`]es keyed by
//!   vertex hold the in- and out-frequency vectors; per-vertex
//!   through-flow multiplies two point estimates and the stream total is
//!   one inner product (unbiased, error `O(‖in‖₂·‖out‖₂/√w)`).

use gstream::edge::{Edge, StreamEdge};
use gstream::fxhash::FxHashMap;
use gstream::vertex::VertexId;
use sketch::{CountSketch, SketchError};

/// Exact per-vertex 2-path accounting.
#[derive(Debug, Clone, Default)]
pub struct PathAggregator {
    /// Weighted out-frequency per vertex.
    out: FxHashMap<VertexId, u64>,
    /// Weighted in-frequency per vertex.
    inc: FxHashMap<VertexId, u64>,
    /// Total arrivals' weight.
    weight: u64,
}

impl PathAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one weighted arrival.
    pub fn observe(&mut self, edge: Edge, weight: u64) {
        *self.out.entry(edge.src).or_insert(0) += weight;
        *self.inc.entry(edge.dst).or_insert(0) += weight;
        self.weight += weight;
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge, se.weight);
        }
    }

    /// Weighted out-frequency of `v` (Eq. 2's `fv`).
    pub fn out_weight(&self, v: VertexId) -> u64 {
        self.out.get(&v).copied().unwrap_or(0)
    }

    /// Weighted in-frequency of `v`.
    pub fn in_weight(&self, v: VertexId) -> u64 {
        self.inc.get(&v).copied().unwrap_or(0)
    }

    /// Weighted 2-path count through `v`: `in(v) · out(v)`. Counts
    /// weighted wedge multiplicity, including degenerate wedges whose
    /// endpoints coincide (`x = z`) — the standard multigraph convention.
    pub fn through_flow(&self, v: VertexId) -> u128 {
        self.in_weight(v) as u128 * self.out_weight(v) as u128
    }

    /// Total weighted 2-path count `Σ_v in(v)·out(v)`.
    pub fn total_paths(&self) -> u128 {
        // Iterate the smaller map and look up in the other; the product
        // is symmetric so the direction of the lookup does not matter.
        let (small, large) = if self.inc.len() <= self.out.len() {
            (&self.inc, &self.out)
        } else {
            (&self.out, &self.inc)
        };
        small
            .iter()
            .map(|(v, &a)| a as u128 * large.get(v).copied().unwrap_or(0) as u128)
            .sum()
    }

    /// The `k` vertices with the largest through-flow, descending
    /// (deterministic tie-break on vertex id).
    pub fn top_hubs(&self, k: usize) -> Vec<(VertexId, u128)> {
        let mut hubs: Vec<(VertexId, u128)> = self
            .inc
            .keys()
            .filter(|v| self.out.contains_key(v))
            .map(|&v| (v, self.through_flow(v)))
            .filter(|&(_, f)| f > 0)
            .collect();
        hubs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hubs.truncate(k);
        hubs
    }

    /// Total stream weight observed.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Number of distinct vertices tracked (memory diagnostic).
    pub fn tracked_vertices(&self) -> usize {
        // Vertices may appear in either or both maps.
        let mut n = self.out.len();
        n += self
            .inc
            .keys()
            .filter(|v| !self.out.contains_key(v))
            .count();
        n
    }
}

/// Sketched 2-path accounting with memory independent of `|V|`: two
/// [`CountSketch`]es hold the in- and out-frequency vectors. Per-vertex
/// weights are the clamped median estimates (unbiased, two-sided), and
/// the signed cells give the inner-product
/// [`total_paths`](PathSketch::total_paths).
#[derive(Debug, Clone)]
pub struct PathSketch {
    /// Out-frequency vector, keyed by source vertex.
    out: CountSketch,
    /// In-frequency vector, keyed by destination vertex — same seed as
    /// `out` so inner products are meaningful.
    inc: CountSketch,
    weight: u64,
}

impl PathSketch {
    /// Create a path sketch of the given CountSketch dimensions.
    pub fn new(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        Ok(Self {
            out: CountSketch::new(width, depth, seed)?,
            inc: CountSketch::new(width, depth, seed)?,
            weight: 0,
        })
    }

    /// Observe one weighted arrival.
    pub fn observe(&mut self, edge: Edge, weight: u64) {
        self.out.update(edge.src.as_u64(), weight);
        self.inc.update(edge.dst.as_u64(), weight);
        self.weight += weight;
    }

    /// Ingest a whole stream.
    pub fn ingest<'a, I: IntoIterator<Item = &'a StreamEdge>>(&mut self, stream: I) {
        for se in stream {
            self.observe(se.edge, se.weight);
        }
    }

    /// Estimated weighted out-frequency of `v` (clamped at 0).
    pub fn out_weight(&self, v: VertexId) -> u64 {
        self.out.estimate_non_negative(v.as_u64())
    }

    /// Estimated weighted in-frequency of `v` (clamped at 0).
    pub fn in_weight(&self, v: VertexId) -> u64 {
        self.inc.estimate_non_negative(v.as_u64())
    }

    /// Batched [`out_weight`](Self::out_weight): `out` is cleared and
    /// receives one estimate per vertex, in order.
    pub fn out_weights(&self, vertices: &[VertexId], out: &mut Vec<u64>) {
        out.clear();
        out.extend(vertices.iter().map(|&v| self.out_weight(v)));
    }

    /// Batched [`in_weight`](Self::in_weight).
    pub fn in_weights(&self, vertices: &[VertexId], out: &mut Vec<u64>) {
        out.clear();
        out.extend(vertices.iter().map(|&v| self.in_weight(v)));
    }

    /// Estimated 2-path count through `v`.
    pub fn through_flow(&self, v: VertexId) -> u128 {
        self.in_weight(v) as u128 * self.out_weight(v) as u128
    }

    /// Batched [`through_flow`](Self::through_flow): both frequency
    /// vectors are probed as one batch each, then multiplied pairwise —
    /// the hot loop of hub ranking, rewritten onto the batched
    /// estimator.
    pub fn through_flows(&self, vertices: &[VertexId]) -> Vec<u128> {
        let mut inw = Vec::with_capacity(vertices.len());
        let mut outw = Vec::with_capacity(vertices.len());
        self.in_weights(vertices, &mut inw);
        self.out_weights(vertices, &mut outw);
        inw.iter()
            .zip(&outw)
            .map(|(&i, &o)| i as u128 * o as u128)
            .collect()
    }

    /// The `k` candidates with the largest estimated through-flow,
    /// descending (deterministic tie-break on vertex id) — the sketched
    /// analogue of [`PathAggregator::top_hubs`], ranking any candidate
    /// set (e.g. a heavy-vertex report) in two batched probes.
    pub fn top_hubs(&self, candidates: &[VertexId], k: usize) -> Vec<(VertexId, u128)> {
        let mut hubs: Vec<(VertexId, u128)> = candidates
            .iter()
            .copied()
            .zip(self.through_flows(candidates))
            .filter(|&(_, f)| f > 0)
            .collect();
        hubs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hubs.truncate(k);
        hubs
    }

    /// Total stream weight observed.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Counter memory in bytes.
    pub fn bytes(&self) -> usize {
        self.out.bytes() + self.inc.bytes()
    }

    /// Estimated total 2-path count: the inner product of the in- and
    /// out-frequency vectors (unbiased; clamped at 0).
    pub fn total_paths(&self) -> f64 {
        self.inc
            .inner_product(&self.out)
            // lint: allow(no-panics) — both sketches are built from one config
            // in the constructor, so dimensions and seed always match.
            .expect("twin sketches share dimensions and seed")
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn se(s: u32, d: u32, w: u64) -> StreamEdge {
        StreamEdge::weighted(Edge::new(s, d), 0, w)
    }

    #[test]
    fn empty_has_no_paths() {
        let p = PathAggregator::new();
        assert_eq!(p.total_paths(), 0);
        assert!(p.top_hubs(5).is_empty());
    }

    #[test]
    fn single_wedge() {
        let mut p = PathAggregator::new();
        p.observe(Edge::new(1u32, 2u32), 1);
        p.observe(Edge::new(2u32, 3u32), 1);
        assert_eq!(p.through_flow(VertexId(2)), 1);
        assert_eq!(p.total_paths(), 1);
        assert_eq!(p.top_hubs(5), vec![(VertexId(2), 1)]);
    }

    #[test]
    fn weights_multiply() {
        let mut p = PathAggregator::new();
        p.observe(Edge::new(1u32, 2u32), 3);
        p.observe(Edge::new(2u32, 3u32), 5);
        assert_eq!(p.through_flow(VertexId(2)), 15);
    }

    #[test]
    fn total_is_sum_over_intermediates() {
        let mut p = PathAggregator::new();
        // Star through 2 and through 5.
        p.ingest(&[
            se(1, 2, 1),
            se(2, 3, 1),
            se(2, 4, 1),
            se(4, 5, 1),
            se(5, 6, 1),
        ]);
        // in(2)=1, out(2)=2 → 2; in(4)=1, out(4)=1 → 1; in(5)=1, out(5)=1 → 1.
        assert_eq!(p.total_paths(), 4);
        let hubs = p.top_hubs(2);
        assert_eq!(hubs[0], (VertexId(2), 2));
    }

    #[test]
    fn degenerate_round_trips_counted() {
        // x → y → x is a valid directed wedge.
        let mut p = PathAggregator::new();
        p.observe(Edge::new(1u32, 2u32), 1);
        p.observe(Edge::new(2u32, 1u32), 1);
        assert_eq!(p.through_flow(VertexId(1)), 1);
        assert_eq!(p.through_flow(VertexId(2)), 1);
        assert_eq!(p.total_paths(), 2);
    }

    #[test]
    fn tracked_vertices_counts_union() {
        let mut p = PathAggregator::new();
        p.observe(Edge::new(1u32, 2u32), 1); // 1 out-only, 2 in-only
        p.observe(Edge::new(2u32, 3u32), 1); // 2 both, 3 in-only
        assert_eq!(p.tracked_vertices(), 3);
        assert_eq!(p.weight(), 2);
    }

    #[test]
    fn sketch_matches_exact_on_small_streams() {
        let stream: Vec<StreamEdge> = (0..200u64)
            .map(|t| StreamEdge::unit(Edge::new((t % 10) as u32, ((t + 1) % 10) as u32), t))
            .collect();
        let mut exact = PathAggregator::new();
        exact.ingest(&stream);
        let mut sk = PathSketch::new(1024, 5, 7).unwrap();
        sk.ingest(&stream);
        // Wide sketch, few keys: point estimates are exact.
        for v in 0..10u32 {
            assert_eq!(sk.out_weight(VertexId(v)), exact.out_weight(VertexId(v)));
            assert_eq!(sk.in_weight(VertexId(v)), exact.in_weight(VertexId(v)));
        }
        let truth = exact.total_paths() as f64;
        let got = sk.total_paths();
        assert!(
            (got - truth).abs() / truth < 0.05,
            "total paths {got} vs {truth}"
        );
    }

    #[test]
    fn sketch_total_tracks_truth_under_collisions() {
        // 2 000 vertices into a width-256 sketch: heavy collisions, the
        // inner product must still land near the truth.
        let stream: Vec<StreamEdge> = (0..40_000u64)
            .map(|t| StreamEdge::unit(Edge::new((t % 2000) as u32, ((t * 7 + 1) % 2000) as u32), t))
            .collect();
        let mut exact = PathAggregator::new();
        exact.ingest(&stream);
        let mut sk = PathSketch::new(256, 7, 13).unwrap();
        sk.ingest(&stream);
        let truth = exact.total_paths() as f64;
        let got = sk.total_paths();
        let rel = (got - truth).abs() / truth;
        assert!(rel < 0.5, "total paths {got} vs {truth} (rel {rel:.3})");
        assert!(sk.bytes() < 60_000);
    }

    #[test]
    fn sketch_hubs_rank_heavy_vertices_high() {
        // Vertex 0 is a massive hub; its sketched through-flow must beat
        // every light vertex's.
        let mut stream = Vec::new();
        for t in 0..5_000u64 {
            stream.push(StreamEdge::unit(Edge::new((t % 50 + 1) as u32, 0u32), t));
            stream.push(StreamEdge::unit(Edge::new(0u32, (t % 50 + 100) as u32), t));
        }
        let mut sk = PathSketch::new(512, 5, 3).unwrap();
        sk.ingest(&stream);
        let hub = sk.through_flow(VertexId(0));
        for v in 1..50u32 {
            assert!(sk.through_flow(VertexId(v)) < hub / 10);
        }
    }

    #[test]
    fn zero_weight_arrivals_are_neutral() {
        let mut p = PathAggregator::new();
        p.observe(Edge::new(1u32, 2u32), 0);
        assert_eq!(p.weight(), 0);
        assert_eq!(p.total_paths(), 0);
    }

    /// The batched flow surface answers exactly like the scalar probes.
    #[test]
    fn batched_flows_match_scalar_probes() {
        let stream: Vec<StreamEdge> = (0..2_000u64)
            .map(|t| StreamEdge::unit(Edge::new((t % 80) as u32, ((t * 3 + 1) % 80) as u32), t))
            .collect();
        let vs: Vec<VertexId> = (0..100u32).map(VertexId).collect(); // incl. absent
        let mut cs = PathSketch::new(512, 5, 7).unwrap();
        cs.ingest(&stream);
        let mut outw = Vec::new();
        let mut inw = Vec::new();
        cs.out_weights(&vs, &mut outw);
        cs.in_weights(&vs, &mut inw);
        let flows = cs.through_flows(&vs);
        for (i, &v) in vs.iter().enumerate() {
            assert_eq!(outw[i], cs.out_weight(v));
            assert_eq!(inw[i], cs.in_weight(v));
            assert_eq!(flows[i], cs.through_flow(v));
        }
    }

    #[test]
    fn sketched_top_hubs_rank_candidates() {
        let mut stream = Vec::new();
        for t in 0..3_000u64 {
            stream.push(StreamEdge::unit(Edge::new((t % 40 + 1) as u32, 0u32), t));
            stream.push(StreamEdge::unit(Edge::new(0u32, (t % 40 + 100) as u32), t));
        }
        let mut sk = PathSketch::new(512, 5, 3).unwrap();
        sk.ingest(&stream);
        let candidates: Vec<VertexId> = (0..150u32).map(VertexId).collect();
        let hubs = sk.top_hubs(&candidates, 3);
        assert!(!hubs.is_empty());
        assert_eq!(hubs[0].0, VertexId(0), "the massive hub must rank first");
        assert!(hubs.len() <= 3);
        // Ranked output agrees with per-candidate scalar flows.
        for &(v, f) in &hubs {
            assert_eq!(f, sk.through_flow(v));
        }
    }
}
