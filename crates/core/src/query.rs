//! Query processing (§3.1 and §5): edge queries and aggregate subgraph
//! queries with an aggregate function `Γ(·)` — batched end to end
//! (DESIGN.md §8).
//!
//! The write path batches aggressively (slot-grouped counting sort, span
//! commits, prefetch — DESIGN.md §11); this module gives the read path
//! the same discipline. [`EdgeEstimator::estimate_edges`] answers a
//! whole query batch at once: the partitioned estimators counting-sort
//! the batch by router slot so each slot's counter block is walked once,
//! and the arena backend answers each slot run through its batched read
//! kernel (shared per-key hash folds, fastmod range reduction,
//! block-prefetched cells, duplicate coalescing). Everything downstream —
//! subgraph aggregation, workload replay, the accuracy metrics, the
//! structural queries — drives this surface instead of scalar loops, and
//! [`ParallelQuery`] fans a large batch out across the same clamped
//! worker pool the ingest pipeline uses. Answers are bit-identical to
//! the scalar path (pinned by the `backend_parity` proptests).

use gstream::edge::Edge;
use gstream::vertex::VertexId;
use gstream::workload::SubgraphQuery;

/// Anything that can answer edge-frequency point queries — scalar or
/// batched. Every deployment ([`crate::GSketch`], [`crate::GlobalSketch`],
/// [`crate::AdaptiveGSketch`], [`crate::WindowedGSketch`]) and the
/// exact ground truth implement
/// this, so the whole evaluation harness is generic over the synopsis.
pub trait EdgeEstimator {
    /// Estimated aggregate frequency of `edge`.
    fn estimate_edge(&self, edge: Edge) -> u64;

    /// The estimate in its native precision. Integral for every counter
    /// synopsis; the windowed deployment overrides it to expose its
    /// fractional interval extrapolation unrounded, so aggregates round
    /// once at the aggregation boundary instead of once per edge.
    fn estimate_edge_f64(&self, edge: Edge) -> f64 {
        self.estimate_edge(edge) as f64
    }

    /// Batched point queries: `out` is cleared and receives one estimate
    /// per entry of `edges`, in order. This provided default is the
    /// scalar loop; the partitioned estimators override it to
    /// counting-sort the batch by router slot before hitting the
    /// synopsis bank. Answers are bit-identical either way.
    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        out.clear();
        out.extend(edges.iter().map(|&e| self.estimate_edge(e)));
    }

    /// Batched [`estimate_edge_f64`](Self::estimate_edge_f64): the
    /// surface subgraph aggregation consumes. Routed through
    /// [`estimate_edges`](Self::estimate_edges) so estimators that only
    /// override the integer batch still answer batched.
    fn estimate_edges_f64(&self, edges: &[Edge], out: &mut Vec<f64>) {
        let mut ints = Vec::with_capacity(edges.len());
        self.estimate_edges(edges, &mut ints);
        out.clear();
        out.extend(ints.iter().map(|&v| v as f64));
    }
}

/// Estimators answer through shared references, so a borrow is as good
/// as the estimator itself — this is what lets the replay engine front
/// a deployment it merely borrows (e.g. one also driven by a
/// [`ParallelQuery`] pool). Every method forwards, so backend-specific
/// batch overrides are preserved.
impl<T: EdgeEstimator + ?Sized> EdgeEstimator for &T {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        (**self).estimate_edge(edge)
    }

    fn estimate_edge_f64(&self, edge: Edge) -> f64 {
        (**self).estimate_edge_f64(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        (**self).estimate_edges(edges, out);
    }

    fn estimate_edges_f64(&self, edges: &[Edge], out: &mut Vec<f64>) {
        (**self).estimate_edges_f64(edges, out);
    }
}

/// Counting-sort a query batch by destination slot and answer each slot
/// run through one batched bank probe — the read-side mirror of the
/// ingest path's slot-grouped batching, shared by every partitioned
/// estimator (sequential and concurrent banks differ only in the
/// `run_estimator` they pass in). `out` is overwritten with one answer
/// per query, in query order.
///
/// `slot_of` contractually returns values below `n_slots`; the scatter
/// indices it feeds are nevertheless guarded (`get`/`get_mut` — a rogue
/// slot drops its queries to answer `0` instead of panicking), so the
/// monomorphized kernels this body lands in stay panic-free in the
/// compiled artifact (`xtask audit`).
pub(crate) fn estimate_batch_by_slot<S, R>(
    edges: &[Edge],
    n_slots: usize,
    slot_of: S,
    mut run_estimator: R,
    out: &mut Vec<u64>,
) where
    S: Fn(VertexId) -> u32,
    R: FnMut(u32, &[u64], &mut Vec<u64>),
{
    out.clear();
    out.resize(edges.len(), 0);
    // Route each query once; counting-sort (key, origin) pairs by slot.
    let slots: Vec<u32> = edges.iter().map(|e| slot_of(e.src)).collect();
    let mut counts = vec![0usize; n_slots];
    for &s in &slots {
        if let Some(c) = counts.get_mut(s as usize) {
            *c += 1;
        }
    }
    let mut cursors = Vec::with_capacity(n_slots);
    let mut acc = 0usize;
    for &c in &counts {
        cursors.push(acc);
        acc += c;
    }
    let starts = cursors.clone();
    let mut keys: Vec<u64> = vec![0; edges.len()];
    let mut origin: Vec<usize> = vec![0; edges.len()];
    for (i, (e, &s)) in edges.iter().zip(&slots).enumerate() {
        let Some(at) = cursors.get_mut(s as usize) else {
            continue;
        };
        if let Some(k) = keys.get_mut(*at) {
            *k = e.key();
        }
        if let Some(o) = origin.get_mut(*at) {
            *o = i;
        }
        *at += 1;
    }
    // One batched bank probe per non-empty slot run, scattered back to
    // query order.
    let mut vals = Vec::new();
    for (slot, (&start, &count)) in starts.iter().zip(&counts).enumerate() {
        if count == 0 {
            continue;
        }
        let Some(run) = keys.get(start..start + count) else {
            continue;
        };
        run_estimator(slot as u32, run, &mut vals);
        for (&v, &o) in vals.iter().zip(origin.iter().skip(start).take(count)) {
            if let Some(slot_out) = out.get_mut(o) {
                *slot_out = v;
            }
        }
    }
}

impl<B: sketch::FrequencySketch> EdgeEstimator for crate::GSketch<B> {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.estimate(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        self.estimate_batch(edges, out);
    }
}

impl EdgeEstimator for crate::GlobalSketch {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.estimate(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        self.estimate_batch(edges, out);
    }
}

/// The adaptive estimator answers a batch as the sum of its two
/// components: the warm-up sketch's batched estimates plus (after
/// switchover) the partitioned sketch's slot-sorted batch.
impl EdgeEstimator for crate::AdaptiveGSketch {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.estimate(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        self.estimate_batch(edges, out);
    }
}

/// The windowed synopsis answers as an estimator over the whole observed
/// lifetime. Sealed windows are fully covered, so no extrapolation is
/// involved and the fractional sum is integral; rounding only guards
/// float error. The fractional surface exposes the unrounded sum, so an
/// aggregate over interval-extrapolated estimates rounds once at the
/// aggregation boundary, never per edge.
impl EdgeEstimator for crate::WindowedGSketch {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.estimate_lifetime(edge).round() as u64
    }

    fn estimate_edge_f64(&self, edge: Edge) -> f64 {
        self.estimate_lifetime(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        let mut frac = Vec::with_capacity(edges.len());
        self.estimate_lifetime_batch(edges, &mut frac);
        out.clear();
        out.extend(frac.iter().map(|v| v.round() as u64));
    }

    fn estimate_edges_f64(&self, edges: &[Edge], out: &mut Vec<f64>) {
        self.estimate_lifetime_batch(edges, out);
    }
}

/// Exact ground truth is also an estimator — used to compute the
/// denominator of relative errors and in tests. Point lookups in a hash
/// map gain nothing from batch shape, so this deliberately rides the
/// provided default.
impl EdgeEstimator for gstream::ExactCounter {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.frequency(edge)
    }
}

/// Embarrassingly parallel read fan-out: a large query batch is split
/// into contiguous spans, each answered by one worker through the
/// estimator's batched surface (slot sort and all), writing into
/// disjoint regions of the output. Workers are clamped to the host's
/// available parallelism by the same rule as the ingest engine's
/// owner pool (DESIGN.md §11); answers are bit-identical to a sequential
/// [`EdgeEstimator::estimate_edges`] call because each span's batch is
/// answered independently.
#[derive(Debug)]
pub struct ParallelQuery<'e, E: EdgeEstimator + Sync> {
    estimator: &'e E,
    threads: usize,
    oversubscribe: bool,
}

impl<'e, E: EdgeEstimator + Sync> ParallelQuery<'e, E> {
    /// Fan queries out over `estimator` from up to `threads` workers
    /// (clamped to at least 1 and to the host's available parallelism).
    pub fn new(estimator: &'e E, threads: usize) -> Self {
        Self {
            estimator,
            threads: threads.max(1),
            oversubscribe: false,
        }
    }

    /// Spawn exactly the requested worker count even beyond the host's
    /// cores (for correctness tests that need real interleaving).
    #[must_use]
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Requested worker threads (upper bound).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads a batch will actually fan out over.
    pub fn effective_threads(&self) -> usize {
        crate::pipeline::clamp_workers(self.threads, self.oversubscribe)
    }

    /// Answer a query batch across the worker pool: `out` is overwritten
    /// with one estimate per edge, in query order.
    pub fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        let workers = self.effective_threads();
        if workers <= 1 || edges.len() < 2 {
            self.estimator.estimate_edges(edges, out);
            return;
        }
        out.clear();
        out.resize(edges.len(), 0);
        let span = edges.len().div_ceil(workers);
        let estimator = self.estimator;
        std::thread::scope(|scope| {
            for (chunk, sink) in edges.chunks(span).zip(out.chunks_mut(span)) {
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(chunk.len());
                    estimator.estimate_edges(chunk, &mut local);
                    sink.copy_from_slice(&local);
                });
            }
        });
    }
}

impl<'e, E: EdgeEstimator + crate::SlotRouted + Sync> ParallelQuery<'e, E> {
    /// Answer a query batch through the **ownership map** of the
    /// owner-sharded engine (DESIGN.md §11): the batch is routed once and
    /// counting-sorted by destination slot, each owning worker answers
    /// the contiguous span of queries whose slots fall in its
    /// [`crate::OwnerMap::slot_range`], and answers are scattered back to
    /// query order.
    ///
    /// Where the span fan-out of [`estimate_edges`](Self::estimate_edges)
    /// hands every worker a slot-mixed chunk (each worker's internal
    /// counting sort then touches the whole bank), this shape aligns the
    /// read path with the sharded write path: a worker only walks counter
    /// blocks inside its own slot range — the same contiguous arena bytes
    /// it committed during ingest, warm in its cache and local on its
    /// NUMA node. Answers are bit-identical to a sequential
    /// [`EdgeEstimator::estimate_edges`] call because every query is
    /// answered independently by the same batched slot kernel (pinned by
    /// the `backend_parity` proptests).
    pub fn estimate_edges_routed(&self, edges: &[Edge], out: &mut Vec<u64>) {
        let workers = self.effective_threads();
        if workers <= 1 || edges.len() < 2 {
            self.estimator.estimate_edges(edges, out);
            return;
        }
        let n_slots = self.estimator.num_slots();
        let map = crate::OwnerMap::new(n_slots, workers);
        if map.owners() <= 1 {
            self.estimator.estimate_edges(edges, out);
            return;
        }
        // Route each query once; counting-sort (edge, origin) pairs by
        // slot so each owner's queries form one contiguous span.
        let slots: Vec<u32> = edges
            .iter()
            .map(|e| self.estimator.slot_of(e.src))
            .collect();
        let mut starts = vec![0usize; n_slots + 1];
        for &s in &slots {
            starts[s as usize + 1] += 1;
        }
        for i in 0..n_slots {
            starts[i + 1] += starts[i];
        }
        let mut cursors = starts.clone();
        let mut sorted: Vec<Edge> = vec![Edge::new(0u32, 0u32); edges.len()];
        let mut origin: Vec<usize> = vec![0; edges.len()];
        for (i, (&e, &s)) in edges.iter().zip(&slots).enumerate() {
            let at = &mut cursors[s as usize];
            sorted[*at] = e;
            origin[*at] = i;
            *at += 1;
        }
        // Each owner answers its span through the estimator's batched
        // surface, writing into the disjoint slot-sorted output span.
        let mut sorted_out = vec![0u64; edges.len()];
        let estimator = self.estimator;
        std::thread::scope(|scope| {
            let mut rest = sorted.as_slice();
            let mut out_rest = sorted_out.as_mut_slice();
            let mut consumed = 0usize;
            // cast: usize -> u32; owners <= num_slots and slot ids are u32.
            for w in 0..map.owners() as u32 {
                let (_, hi) = map.slot_range(w);
                let end = starts[hi as usize];
                let (chunk, tail) = rest.split_at(end - consumed);
                let (sink, out_tail) = out_rest.split_at_mut(end - consumed);
                rest = tail;
                out_rest = out_tail;
                consumed = end;
                if chunk.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(chunk.len());
                    estimator.estimate_edges(chunk, &mut local);
                    sink.copy_from_slice(&local);
                });
            }
        });
        out.clear();
        out.resize(edges.len(), 0);
        for (&v, &o) in sorted_out.iter().zip(&origin) {
            out[o] = v;
        }
    }
}

/// The aggregate function `Γ(·)` of an aggregate subgraph query.
///
/// The paper evaluates `SUM` (§6.2) and names `MIN`/`AVERAGE` as further
/// examples (§3.1); the remaining variants implement §7's future-work
/// item of "more complex queries … involving the computation of complex
/// functions of edge frequencies in a subgraph query". Truly ad-hoc
/// functions go through [`estimate_subgraph_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregator {
    /// `Γ = SUM` — total frequency of the constituent edges (the paper's
    /// experimental choice, §6.2).
    #[default]
    Sum,
    /// `Γ = MIN`.
    Min,
    /// `Γ = MAX`.
    Max,
    /// `Γ = AVERAGE`.
    Average,
    /// `Γ = COUNT` of edges whose estimate is non-zero — the subgraph's
    /// *materialized* edge count.
    CountPresent,
    /// Population variance of the constituent edge frequencies — a
    /// homogeneity measure for the subgraph's activity.
    Variance,
    /// Median of the constituent edge frequencies (lower middle for even
    /// lengths) — a heavy-hitter-robust center.
    Median,
    /// Euclidean norm `√(Σ f̃²)` — the subgraph's frequency "energy",
    /// dominated by its hottest edges.
    L2Norm,
}

impl Aggregator {
    /// Apply the aggregate over integer per-edge values.
    pub fn apply(&self, values: &[u64]) -> f64 {
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        self.apply_f64(&as_f64)
    }

    /// Apply the aggregate over per-edge values in their native
    /// precision — the form the batched query path feeds, so estimators
    /// with fractional estimates (the windowed synopsis) are aggregated
    /// without a per-edge rounding step. Values must be finite and
    /// non-negative (every estimator's contract).
    pub fn apply_f64(&self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let n = values.len() as f64;
        match self {
            Aggregator::Sum => values.iter().sum(),
            Aggregator::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregator::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregator::Average => values.iter().sum::<f64>() / n,
            Aggregator::CountPresent => values.iter().filter(|&&v| v > 0.0).count() as f64,
            Aggregator::Variance => {
                let mean = values.iter().sum::<f64>() / n;
                values.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / n
            }
            Aggregator::Median => {
                let mut sorted: Vec<f64> = values.to_vec();
                sorted.sort_unstable_by(|a, b| {
                    // lint: allow(no-panics) — estimates are u64 counters cast to f64,
                    // so every value is finite and the comparator total.
                    a.partial_cmp(b).expect("estimates are finite and ordered")
                });
                sorted[(sorted.len() - 1) / 2]
            }
            Aggregator::L2Norm => values.iter().map(|&v| v * v).sum::<f64>().sqrt(),
        }
    }
}

/// Answer an aggregate subgraph query by decomposing it into its
/// constituent edge queries — answered as **one batch** through
/// [`EdgeEstimator::estimate_edges_f64`] — and applying `Γ` to the
/// estimates (§5).
pub fn estimate_subgraph<E: EdgeEstimator + ?Sized>(
    estimator: &E,
    query: &SubgraphQuery,
    aggregator: Aggregator,
) -> f64 {
    let mut values = Vec::with_capacity(query.edges.len());
    estimator.estimate_edges_f64(&query.edges, &mut values);
    aggregator.apply_f64(&values)
}

/// Answer an aggregate subgraph query with an arbitrary aggregate
/// function over the per-edge estimates — §7's "complex functions of edge
/// frequencies" without enumerating them. The closure receives the
/// batched estimates in the query's edge order, in native precision.
pub fn estimate_subgraph_with<E, F>(estimator: &E, query: &SubgraphQuery, gamma: F) -> f64
where
    E: EdgeEstimator + ?Sized,
    F: FnOnce(&[f64]) -> f64,
{
    let mut values = Vec::with_capacity(query.edges.len());
    estimator.estimate_edges_f64(&query.edges, &mut values);
    gamma(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::edge::StreamEdge;
    use gstream::ExactCounter;

    fn truth() -> ExactCounter {
        let stream = vec![
            StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 10),
            StreamEdge::weighted(Edge::new(2u32, 3u32), 1, 20),
            StreamEdge::weighted(Edge::new(3u32, 4u32), 2, 30),
        ];
        ExactCounter::from_stream(&stream)
    }

    fn q() -> SubgraphQuery {
        SubgraphQuery {
            edges: vec![
                Edge::new(1u32, 2u32),
                Edge::new(2u32, 3u32),
                Edge::new(3u32, 4u32),
            ],
        }
    }

    #[test]
    fn aggregators_compute_expected_values() {
        let t = truth();
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::Sum), 60.0);
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::Min), 10.0);
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::Max), 30.0);
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::Average), 20.0);
    }

    #[test]
    fn extended_aggregators_compute_expected_values() {
        let t = truth();
        // Frequencies of q() are [10, 20, 30].
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::CountPresent), 3.0);
        assert_eq!(estimate_subgraph(&t, &q(), Aggregator::Median), 20.0);
        // Variance of {10,20,30}: mean 20, deviations²: 100+0+100 → /3.
        let var = estimate_subgraph(&t, &q(), Aggregator::Variance);
        assert!((var - 200.0 / 3.0).abs() < 1e-9);
        let l2 = estimate_subgraph(&t, &q(), Aggregator::L2Norm);
        assert!((l2 - (1400.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn integer_and_f64_aggregates_agree() {
        let values = [10u64, 20, 30, 0, 7];
        let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for agg in [
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Average,
            Aggregator::CountPresent,
            Aggregator::Variance,
            Aggregator::Median,
            Aggregator::L2Norm,
        ] {
            assert_eq!(agg.apply(&values), agg.apply_f64(&as_f64), "{agg:?}");
        }
    }

    #[test]
    fn count_present_skips_absent_edges() {
        let t = truth();
        let query = SubgraphQuery {
            edges: vec![Edge::new(1u32, 2u32), Edge::new(77u32, 88u32)],
        };
        assert_eq!(estimate_subgraph(&t, &query, Aggregator::CountPresent), 1.0);
    }

    #[test]
    fn median_even_length_takes_lower_middle() {
        let t = truth();
        let query = SubgraphQuery {
            edges: vec![Edge::new(1u32, 2u32), Edge::new(2u32, 3u32)],
        };
        // Frequencies [10, 20]: lower middle = 10.
        assert_eq!(estimate_subgraph(&t, &query, Aggregator::Median), 10.0);
    }

    #[test]
    fn custom_gamma_closure() {
        let t = truth();
        // Geometric mean — a genuinely "complex function" of §7.
        let gm = estimate_subgraph_with(&t, &q(), |vals| {
            let logsum: f64 = vals.iter().map(|&v| v.ln()).sum();
            (logsum / vals.len() as f64).exp()
        });
        let expect = (10.0f64 * 20.0 * 30.0).powf(1.0 / 3.0);
        assert!((gm - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_query_aggregates_to_zero() {
        let t = truth();
        let empty = SubgraphQuery { edges: vec![] };
        for agg in [
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Average,
            Aggregator::CountPresent,
            Aggregator::Variance,
            Aggregator::Median,
            Aggregator::L2Norm,
        ] {
            assert_eq!(estimate_subgraph(&t, &empty, agg), 0.0);
        }
    }

    #[test]
    fn sketches_implement_estimator() {
        use crate::EdgeSink;
        let stream = vec![
            StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 10),
            StreamEdge::weighted(Edge::new(2u32, 3u32), 1, 20),
        ];
        let mut gs = crate::GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .build_from_sample(&stream)
            .unwrap();
        gs.ingest(&stream);
        let mut gl = crate::GlobalSketch::new(1 << 14, 3, 1).unwrap();
        gl.ingest(&stream);
        let query = SubgraphQuery {
            edges: vec![Edge::new(1u32, 2u32), Edge::new(2u32, 3u32)],
        };
        // SUM over CountMin estimates never underestimates.
        assert!(estimate_subgraph(&gs, &query, Aggregator::Sum) >= 30.0);
        assert!(estimate_subgraph(&gl, &query, Aggregator::Sum) >= 30.0);
    }

    /// The paper's headline structure — `estimate_subgraph` over a
    /// partitioned sketch — must also run after a sharded ingest (through
    /// the `ConcurrentGSketch` wrapper, which derefs to the sketch) and
    /// against the windowed deployment.
    #[test]
    fn concurrent_and_windowed_implement_estimator() {
        use crate::EdgeSink;
        let stream = vec![
            StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 10),
            StreamEdge::weighted(Edge::new(2u32, 3u32), 1, 20),
            StreamEdge::weighted(Edge::new(1u32, 2u32), 150, 5),
        ];
        let query = SubgraphQuery {
            edges: vec![Edge::new(1u32, 2u32), Edge::new(2u32, 3u32)],
        };

        let gs = crate::GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .build_from_sample(&stream)
            .unwrap();
        let mut conc = crate::ConcurrentGSketch::from_gsketch(gs);
        crate::ShardedIngest::new(&mut conc, 2)
            .oversubscribe(true)
            .run_slice(&stream);
        assert!(estimate_subgraph(&*conc, &query, Aggregator::Sum) >= 35.0);

        let mut windowed = crate::WindowedGSketch::new(
            crate::WindowConfig {
                span: 100,
                memory_bytes_per_window: 1 << 14,
                sample_capacity: 64,
                seed: 5,
            },
            crate::GSketch::builder().min_width(16),
        )
        .unwrap();
        windowed.ingest(&stream);
        // Lifetime SUM covers both windows; CountMin never underestimates.
        assert!(estimate_subgraph(&windowed, &query, Aggregator::Sum) >= 35.0);
        assert!(estimate_subgraph(&windowed, &query, Aggregator::Max) >= 20.0);
    }

    fn toy_stream(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|t| {
                StreamEdge::weighted(
                    Edge::new((t % 23) as u32, (t % 7) as u32 + 100),
                    t,
                    t % 5 + 1,
                )
            })
            .collect()
    }

    /// The batched surface must answer exactly like the scalar loop on a
    /// mixed batch (duplicates, absent edges, shuffled order) — the
    /// inline companion of the `backend_parity` proptests.
    #[test]
    fn batched_estimates_match_scalar_loop() {
        use crate::EdgeSink;
        let stream = toy_stream(4_000);
        let mut gs = crate::GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .seed(9)
            .build_from_sample(&stream[..400])
            .unwrap();
        gs.ingest(&stream);
        let mut batch: Vec<Edge> = stream.iter().step_by(3).map(|se| se.edge).collect();
        batch.push(Edge::new(9_999u32, 1u32)); // absent
        batch.extend(batch.clone()); // duplicates, non-adjacent
        let mut out = Vec::new();
        gs.estimate_edges(&batch, &mut out);
        assert_eq!(out.len(), batch.len());
        for (&e, &v) in batch.iter().zip(&out) {
            assert_eq!(v, gs.estimate_edge(e));
        }
    }

    /// `ParallelQuery` fan-out answers bit-identically to the sequential
    /// batch, for any worker count (oversubscribed to force real
    /// interleaving) and for batches smaller than the pool.
    #[test]
    fn parallel_query_matches_sequential_batch() {
        use crate::EdgeSink;
        let stream = toy_stream(5_000);
        let mut gs = crate::GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .seed(3)
            .build_from_sample(&stream[..500])
            .unwrap();
        gs.ingest(&stream);
        let batch: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        let mut sequential = Vec::new();
        gs.estimate_edges(&batch, &mut sequential);
        for threads in [1usize, 2, 4, 7] {
            let pq = ParallelQuery::new(&gs, threads).oversubscribe(true);
            assert_eq!(pq.effective_threads(), threads);
            let mut parallel = Vec::new();
            pq.estimate_edges(&batch, &mut parallel);
            assert_eq!(parallel, sequential, "{threads} workers");
            // Tiny batch: falls back to the sequential path.
            let mut tiny = Vec::new();
            pq.estimate_edges(&batch[..1], &mut tiny);
            assert_eq!(tiny, sequential[..1]);
        }
        let pq = ParallelQuery::new(&gs, 0);
        assert_eq!(pq.threads(), 1);
        let mut out = Vec::new();
        pq.estimate_edges(&[], &mut out);
        assert!(out.is_empty());
    }

    /// The slot-routed fan-out (ownership-map spans) answers
    /// bit-identically to the sequential batch for any worker count,
    /// including duplicates, absent edges, and batches smaller than the
    /// pool.
    #[test]
    fn routed_query_matches_sequential_batch() {
        use crate::EdgeSink;
        let stream = toy_stream(5_000);
        let mut gs = crate::GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .seed(3)
            .build_from_sample(&stream[..500])
            .unwrap();
        gs.ingest(&stream);
        let mut batch: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        batch.push(Edge::new(9_999u32, 1u32)); // absent → outlier slot
        let mut sequential = Vec::new();
        gs.estimate_edges(&batch, &mut sequential);
        for threads in [1usize, 2, 3, 8] {
            let pq = ParallelQuery::new(&gs, threads).oversubscribe(true);
            let mut routed = Vec::new();
            pq.estimate_edges_routed(&batch, &mut routed);
            assert_eq!(routed, sequential, "{threads} workers");
            let mut tiny = Vec::new();
            pq.estimate_edges_routed(&batch[..1], &mut tiny);
            assert_eq!(tiny, sequential[..1]);
        }
        // More workers than slots: the owner map clamps and the routed
        // path still answers exactly.
        let pq = ParallelQuery::new(&gs, 64).oversubscribe(true);
        let mut routed = Vec::new();
        pq.estimate_edges_routed(&batch, &mut routed);
        assert_eq!(routed, sequential);
    }
}
