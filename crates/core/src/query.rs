//! Query processing (§3.1 and §5): edge queries and aggregate subgraph
//! queries with an aggregate function `Γ(·)` — batched end to end
//! (DESIGN.md §8).
//!
//! The write path batches aggressively (slot-grouped counting sort, span
//! commits, prefetch — DESIGN.md §11); this module gives the read path
//! its batched surface. [`EdgeEstimator::estimate_edges`] answers a
//! whole query batch at once: the partitioned estimators route each
//! query in place and answer the batch in query order, chunk by chunk,
//! through the arena's gather kernel (one hash fold per key, fastmod
//! range reduction, block-prefetched cells), with no sort by slot and
//! no scatter back. Everything downstream —
//! subgraph aggregation, workload replay, the accuracy metrics, the
//! structural queries — drives this surface instead of scalar loops. A
//! long batch is split over the host's cores inside
//! [`crate::GSketch::estimate_batch`] itself, so every caller gets the
//! fan-out with nothing to wrap or set. Answers are bit-identical to the
//! scalar path (pinned by the `backend_parity` proptests).

use gstream::edge::Edge;
use gstream::workload::SubgraphQuery;

/// Anything that can answer edge-frequency point queries — scalar or
/// batched. Every deployment ([`crate::GSketch`], which includes the
/// Global baseline [`crate::GSketch::global`], [`crate::AdaptiveGSketch`],
/// [`crate::WindowedGSketch`]) and the exact ground truth implement
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
    /// scalar loop; the partitioned estimators override it with the
    /// chunked in-order gather over the synopsis bank. Answers are
    /// bit-identical either way.
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
/// a deployment it merely borrows. Every method forwards, so
/// estimator-specific batch overrides are preserved.
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

impl EdgeEstimator for crate::GSketch {
    fn estimate_edge(&self, edge: Edge) -> u64 {
        self.estimate(edge)
    }

    fn estimate_edges(&self, edges: &[Edge], out: &mut Vec<u64>) {
        self.estimate_batch(edges, out);
    }
}

/// The adaptive estimator answers a batch as the sum of its two
/// components: the warm-up sketch's batched estimates plus (after
/// switchover) the partitioned sketch's batch.
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

/// Batches shorter than this many edges are answered on the calling
/// thread. Spawning and joining a scoped worker costs tens of
/// microseconds; this is the shortest batch at which a 2-core fan-out
/// beat the one-thread read in every run of the length sweep in
/// DESIGN.md §8.
pub const FANOUT_MIN: usize = 16 * 1024;

/// The host's available parallelism, read once: the standard library
/// re-reads the cgroup quota on every call, and most read batches are a
/// handful of edges.
pub(crate) fn host_workers() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| crate::pipeline::clamp_workers(usize::MAX, false))
}

/// The read fan-out (DESIGN.md §8): answer `inputs` into `out` (one
/// slot per input) over at most `workers` threads. The batch is cut
/// into contiguous spans, whole multiples of the read chunk except the
/// last; the calling thread answers the first span and one scoped
/// worker answers each other span, writing straight into its own part
/// of `out`. A batch shorter than [`FANOUT_MIN`] (or one worker) runs
/// `answer` once on the calling thread and spawns nothing. Answers are
/// bit-identical to one sequential `answer` call whenever an answer
/// depends only on its own input, as every point estimate does.
pub(crate) fn fan_out<I, T, F>(inputs: &[I], out: &mut [T], workers: usize, answer: F)
where
    I: Sync,
    T: Send,
    F: Fn(&[I], &mut [T]) + Sync,
{
    if workers <= 1 || inputs.len() < FANOUT_MIN {
        answer(inputs, out);
        return;
    }
    let span = inputs
        .len()
        .div_ceil(workers)
        .next_multiple_of(crate::gsketch::READ_CHUNK);
    let mut spans = inputs.chunks(span).zip(out.chunks_mut(span));
    let Some((first_in, first_out)) = spans.next() else {
        return;
    };
    let answer = &answer;
    std::thread::scope(|scope| {
        for (inputs, out) in spans {
            scope.spawn(move || answer(inputs, out));
        }
        answer(first_in, first_out);
    });
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
        let mut gl = crate::GSketch::global(1 << 14, 3, 1).unwrap();
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

    /// The fan-out cuts a long batch into contiguous spans of whole read
    /// chunks, answers each on its own thread (the caller's included) and
    /// writes every answer into its own slot; a short batch stays on the
    /// calling thread.
    #[test]
    fn fan_out_splits_long_batches_into_contiguous_spans() {
        use crate::gsketch::READ_CHUNK;
        use std::sync::Mutex;
        let inputs: Vec<usize> = (0..FANOUT_MIN + 3 * READ_CHUNK + 5).collect();
        for workers in [1usize, 2, 3, 7] {
            for len in [0, 1, FANOUT_MIN - 1, FANOUT_MIN, inputs.len()] {
                let spans = Mutex::new(Vec::new());
                let mut out = vec![usize::MAX; len];
                fan_out(&inputs[..len], &mut out, workers, |span, out| {
                    let first = span.first().copied().unwrap_or(0);
                    let id = std::thread::current().id();
                    spans.lock().unwrap().push((first, span.len(), id));
                    out.copy_from_slice(span);
                });
                assert_eq!(out, inputs[..len], "{workers} workers, len {len}");
                let mut spans = spans.into_inner().unwrap();
                spans.sort_unstable_by_key(|&(first, _, _)| first);
                let expect = if workers == 1 || len < FANOUT_MIN {
                    1
                } else {
                    len.div_ceil(len.div_ceil(workers).next_multiple_of(READ_CHUNK))
                };
                assert_eq!(spans.len(), expect, "{workers} workers, len {len}");
                let mut next = 0;
                for (i, &(first, span_len, _)) in spans.iter().enumerate() {
                    assert_eq!(first, next, "spans are contiguous");
                    if i + 1 < spans.len() {
                        assert_eq!(span_len % READ_CHUNK, 0, "whole read chunks");
                    }
                    next += span_len;
                }
                let mut ids: Vec<_> = spans.iter().map(|&(_, _, id)| id).collect();
                ids.dedup();
                assert_eq!(ids.len(), spans.len(), "one thread per span");
            }
        }
    }

    /// Both batched reads answer bit-identically to the scalar path at
    /// any forced worker count, for every read configuration: the filter
    /// read, the filter switched off, and a filterless build. Lengths
    /// straddle `FANOUT_MIN`, and the longest cuts spans that are not
    /// whole read chunks; one output buffer is reused across lengths, so
    /// shrinking and growing batches are both covered.
    #[test]
    fn fanned_out_batches_match_scalar_estimates() {
        use crate::gsketch::READ_CHUNK;
        use crate::EdgeSink;
        let stream = toy_stream(5_000);
        let build = |prefilter: bool| {
            let mut gs = crate::GSketch::builder()
                .memory_bytes(1 << 14)
                .min_width(16)
                .seed(3)
                .prefilter(prefilter)
                .build_from_sample(&stream[..500])
                .unwrap();
            gs.ingest(&stream);
            gs
        };
        let filtered = build(true);
        let mut unread = filtered.clone();
        unread.set_prefilter(false);
        let long = FANOUT_MIN + 3 * READ_CHUNK + 5;
        // A quarter of the batch is never ingested, so the filter read
        // proves keys absent.
        let batch: Vec<Edge> = (0..long)
            .map(|i| {
                if i % 4 == 0 {
                    Edge::new((i % 5_003) as u32 + 1_000, (i % 11) as u32)
                } else {
                    stream[(i * 31) % stream.len()].edge
                }
            })
            .collect();
        for gs in [&filtered, &unread, &build(false)] {
            let scalar: Vec<u64> = batch.iter().map(|&e| gs.estimate(e)).collect();
            let detailed: Vec<crate::Estimate> =
                batch.iter().map(|&e| gs.estimate_detailed(e)).collect();
            let (mut out, mut rows) = (Vec::new(), Vec::new());
            for workers in [2usize, 3, 7] {
                for len in [long, 0, FANOUT_MIN, 1, FANOUT_MIN - 1, FANOUT_MIN + 1] {
                    gs.estimate_batch_over(&batch[..len], &mut out, workers);
                    assert_eq!(out, scalar[..len], "{workers} workers, len {len}");
                    gs.estimate_detailed_batch_over(&batch[..len], &mut rows, workers);
                    assert_eq!(rows, detailed[..len], "{workers} workers, len {len}");
                }
            }
        }
    }
}
