//! The query-replay engines (DESIGN.md §9, §13).
//!
//! Both engines are a **per-batch dedup front**: [`ReplayEngine`] for a
//! flat deployment, [`WindowedReplay`] for interval queries over a
//! windowed one. Query workloads are Zipf-headed (scenario 2 of the
//! paper is built on that assumption: the partitioner discounts
//! never-queried vertices because query streams concentrate on a
//! head), so one batch repeats its hot edges many times. An engine
//! deduplicates each batch by the raw `(src, dst)` endpoint pair,
//! answers the distinct edges **once** through the deployment's batched
//! surface (for a flat deployment the in-order gather, DESIGN.md §8),
//! and copies each answer back to every repeat. Nothing is kept across
//! batches, so there is nothing to invalidate: writes through an
//! engine's [`EdgeSink`] impl are a plain forward, and answers are
//! bit-identical to the bare deployment under any interleaving of
//! ingest and query batches.
//!
//! Cross-batch answer memos were measured and removed (DESIGN.md §9,
//! §13): on the live-serving workload every write chunk touches nearly
//! every router slot, so memoized answers were dead before the next
//! query batch, and on every recorded workload almost every "hit" was a
//! within-batch repeat the dedup already answers.

use crate::query::EdgeEstimator;
use crate::sink::EdgeSink;
use crate::window::IntervalEstimate;
use crate::WindowedGSketch;
use gstream::edge::{Edge, StreamEdge};

/// What a replay engine did so far (monotone counters; useful for
/// asserting hit rates in benches and smokes). Every query is counted
/// exactly once: `hits + misses` is the number of queries answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Queries answered without asking the synopsis: repeats of an
    /// edge already asked in the same batch.
    pub hits: u64,
    /// Distinct edges sent to the synopsis's batched surface.
    pub misses: u64,
    /// Always 0: neither engine keeps an answer across batches, so
    /// nothing is ever invalidated. Kept so counter readers stay
    /// source-compatible.
    pub invalidations: u64,
}

/// The packed endpoint pair identifying an edge exactly (the same
/// tagging scheme as the ingest combiner's cache).
#[inline]
fn edge_pair(e: Edge) -> u64 {
    (u64::from(e.src.0) << 32) | u64::from(e.dst.0)
}

/// Per-batch dedup scratch shared by both replay engines. Reused across
/// batches so the steady state allocates nothing.
#[derive(Debug, Default)]
struct BatchDedup<V> {
    /// The batch's distinct edges, in first-occurrence order.
    edges: Vec<Edge>,
    /// One answer per entry of `edges`.
    vals: Vec<V>,
    /// Per query, in query order: its index into `edges`.
    slots: Vec<usize>,
    /// Endpoint pair → index into `edges`.
    index: gstream::fxhash::FxHashMap<u64, usize>,
}

impl<V: Copy> BatchDedup<V> {
    /// Overwrite `out` with one answer per edge, in query order. The
    /// queries are deduplicated by endpoint pair: the distinct edges
    /// reach `answer` once, in first-occurrence order (it must fill one
    /// value per edge, in order), and every repeat is copied from that
    /// answer. The distinct edges count as `stats.misses`, every other
    /// query as `stats.hits`.
    fn run<F>(&mut self, edges: &[Edge], out: &mut Vec<V>, stats: &mut ReplayStats, answer: F)
    where
        F: FnOnce(&[Edge], &mut Vec<V>),
    {
        out.clear();
        self.edges.clear();
        self.slots.clear();
        self.index.clear();
        for &e in edges {
            let slot = *self.index.entry(edge_pair(e)).or_insert_with(|| {
                self.edges.push(e);
                self.edges.len() - 1
            });
            self.slots.push(slot);
        }
        let misses = self.edges.len() as u64;
        stats.misses += misses;
        stats.hits += edges.len() as u64 - misses;
        if misses == 0 {
            return;
        }
        answer(&self.edges, &mut self.vals);
        debug_assert_eq!(self.vals.len(), self.edges.len());
        out.extend(self.slots.iter().map(|&slot| self.vals[slot]));
    }
}

/// A query-replay engine: the deployment handle plus a per-batch dedup
/// front on its batched query surface.
///
/// Each batch's distinct edges are answered once through the
/// estimator's own [`estimate_edges`](EdgeEstimator::estimate_edges),
/// and repeats are copied from the
/// first answer. No answer outlives its batch, so writes through the
/// [`EdgeSink`] impl need no invalidation and the engine is
/// bit-identical to the bare batched engine under any interleaving of
/// ingest and query batches.
#[derive(Debug)]
pub struct ReplayEngine<S> {
    inner: S,
    dedup: BatchDedup<u64>,
    stats: ReplayStats,
}

impl<S: EdgeEstimator> ReplayEngine<S> {
    /// Wrap `inner` in a dedup front.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            dedup: BatchDedup::default(),
            stats: ReplayStats::default(),
        }
    }

    /// Answer a query batch: its distinct edges go **once**, as one
    /// batch, through the estimator's own
    /// [`estimate_edges`](EdgeEstimator::estimate_edges), and every
    /// repeat is copied from the first answer. `out` is overwritten with
    /// one estimate per edge, in query order, bit-identical to the bare
    /// batch.
    pub fn estimate_edges(&mut self, edges: &[Edge], out: &mut Vec<u64>) {
        let inner = &self.inner;
        self.dedup
            .run(edges, out, &mut self.stats, |distinct, vals| {
                inner.estimate_edges(distinct, vals)
            });
    }

    /// Cumulative hit/miss counters (`invalidations` stays 0).
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Read-only access to the fronted deployment.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// Writes forward to the deployment: the engine keeps no answer across
/// batches, so there is nothing to invalidate.
impl<S: EdgeSink> EdgeSink for ReplayEngine<S> {
    fn update(&mut self, se: StreamEdge) {
        self.inner.update(se);
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        self.inner.ingest_batch(batch);
    }
}

/// The same per-batch dedup front as [`ReplayEngine`], for
/// **time-travel queries** over a windowed deployment: each interval
/// batch's distinct edges are answered once through
/// [`WindowedGSketch::estimate_interval_detailed_batch`] and every
/// repeat is copied from the first answer. Nothing outlives its batch,
/// so writes through the [`EdgeSink`] impl need no invalidation and
/// answers are bit-identical to the bare deployment under any
/// interleaving of ingest (rotations and coarsening included) and query
/// batches.
#[derive(Debug)]
pub struct WindowedReplay {
    inner: WindowedGSketch,
    dedup: BatchDedup<IntervalEstimate>,
    stats: ReplayStats,
}

impl WindowedReplay {
    /// Wrap `inner` in a dedup front.
    pub fn new(inner: WindowedGSketch) -> Self {
        Self {
            inner,
            dedup: BatchDedup::default(),
            stats: ReplayStats::default(),
        }
    }

    /// Deduplicated
    /// [`estimate_interval_detailed_batch`](WindowedGSketch::estimate_interval_detailed_batch):
    /// the batch's distinct edges go once, as one batch, through the
    /// deployment, and every repeat is copied from the first answer.
    /// `out` is overwritten with one row per edge, in query order,
    /// bit-identical to the bare batch.
    pub fn estimate_interval_detailed_batch(
        &mut self,
        edges: &[Edge],
        t_start: u64,
        t_end: u64,
        out: &mut Vec<IntervalEstimate>,
    ) {
        let inner = &self.inner;
        self.dedup
            .run(edges, out, &mut self.stats, |distinct, rows| {
                inner.estimate_interval_detailed_batch(distinct, t_start, t_end, rows)
            });
    }

    /// Cumulative hit/miss counters (`invalidations` stays 0).
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Read-only access to the fronted deployment.
    pub fn inner(&self) -> &WindowedGSketch {
        &self.inner
    }
}

/// Writes forward to the deployment: the engine keeps no answer across
/// batches, so there is nothing to invalidate.
impl EdgeSink for WindowedReplay {
    fn update(&mut self, se: StreamEdge) {
        self.inner.update(se);
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        self.inner.ingest_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GSketch;

    fn stream(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|t| {
                let src = if t % 3 == 0 { 1 } else { (t % 37) as u32 };
                StreamEdge::weighted(Edge::new(src, (t % 11) as u32 + 50), t, t % 4 + 1)
            })
            .collect()
    }

    fn build(stream: &[StreamEdge]) -> GSketch {
        GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(16)
            .seed(5)
            .build_from_sample(&stream[..stream.len() / 4])
            .unwrap()
    }

    fn distinct(queries: &[Edge]) -> u64 {
        queries
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len() as u64
    }

    /// Every batch sends each distinct edge to the synopsis once and
    /// answers the rest as repeats: nothing carries over between batches.
    #[test]
    fn cached_answers_match_uncached() {
        use crate::EdgeSink;
        let s = stream(3_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().map(|se| se.edge).collect();
        let mut bare = Vec::new();
        gs.estimate_edges(&queries, &mut bare);
        let mut engine = ReplayEngine::new(gs);
        for _ in 0..3 {
            let mut cached = Vec::new();
            engine.estimate_edges(&queries, &mut cached);
            assert_eq!(cached, bare);
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 3 * distinct(&queries), "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 3 * queries.len() as u64);
        assert_eq!(stats.invalidations, 0);
    }

    /// Within one batch, a repeated edge reaches the estimator once —
    /// scattered or adjacent — and every further occurrence is a hit.
    #[test]
    fn duplicate_misses_deduplicate_within_a_batch() {
        use crate::EdgeSink;
        let s = stream(1_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        let hot = s[0].edge;
        let other = s[1].edge;
        // Scattered duplicates of two distinct edges.
        let batch = vec![hot, other, hot, hot, other, hot];
        let mut bare = Vec::new();
        gs.estimate_edges(&batch, &mut bare);
        let mut engine = ReplayEngine::new(gs);
        let mut cached = Vec::new();
        engine.estimate_edges(&batch, &mut cached);
        assert_eq!(cached, bare);
        let stats = engine.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4, "repeat occurrences are hits");
    }

    // --- interval-keyed replay (WindowedReplay) ------------------------

    use crate::{WindowConfig, WindowedGSketch};

    fn wcfg() -> WindowConfig {
        WindowConfig {
            span: 100,
            memory_bytes_per_window: 1 << 14,
            sample_capacity: 64,
            seed: 11,
        }
    }

    fn wstream(range: std::ops::Range<u64>) -> Vec<StreamEdge> {
        range
            .map(|ts| StreamEdge::unit(Edge::new((ts % 7) as u32, 60 + (ts % 3) as u32), ts))
            .collect()
    }

    fn wbuild(upto: u64) -> WindowedGSketch {
        let mut w = WindowedGSketch::new(wcfg(), GSketch::builder().min_width(16)).unwrap();
        for se in wstream(0..upto) {
            w.try_insert(se).unwrap();
        }
        w
    }

    fn wqueries() -> Vec<Edge> {
        (0..7u32)
            .flat_map(|s| (60..63u32).map(move |d| Edge::new(s, d)))
            .collect()
    }

    const INTERVALS: [(u64, u64); 4] = [(0, 149), (0, u64::MAX), (120, 480), (333, 333)];

    /// A query batch with scattered repeats: every query edge, then
    /// every other one again.
    fn wbatch() -> Vec<Edge> {
        let q = wqueries();
        q.iter().chain(q.iter().step_by(2)).copied().collect()
    }

    #[test]
    fn windowed_cached_answers_match_uncached() {
        let w = wbuild(700);
        let batch = wbatch();
        let mut bare = Vec::new();
        let mut bare_rows = Vec::new();
        let mut cached_rows = Vec::new();
        let mut engine = WindowedReplay::new(wbuild(700));
        for _ in 0..3 {
            for &(ts, te) in &INTERVALS {
                w.estimate_interval_detailed_batch(&batch, ts, te, &mut bare_rows);
                engine.estimate_interval_detailed_batch(&batch, ts, te, &mut cached_rows);
                assert_eq!(
                    cached_rows, bare_rows,
                    "detailed mismatch over [{ts}, {te}]"
                );
                w.estimate_interval_batch(&batch, ts, te, &mut bare);
                let cached: Vec<f64> = cached_rows.iter().map(|r| r.value).collect();
                assert_eq!(cached, bare, "plain mismatch over [{ts}, {te}]");
            }
        }
        // 3 passes × 4 intervals, each batch answering its distinct
        // edges once and nothing carried between batches.
        let stats = engine.stats();
        assert_eq!(stats.misses, 12 * distinct(&batch), "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 12 * batch.len() as u64);
        assert_eq!(stats.invalidations, 0);
    }

    /// Answers `batch` over `[ts, te]` through the engine, checks the
    /// rows against the bare deployment, and checks that the batch sent
    /// exactly its distinct edges to the deployment (nothing carries
    /// over from earlier batches).
    fn wcheck(
        engine: &mut WindowedReplay,
        batch: &[Edge],
        ts: u64,
        te: u64,
    ) -> Vec<IntervalEstimate> {
        let before = engine.stats();
        let (mut out, mut bare) = (Vec::new(), Vec::new());
        engine.estimate_interval_detailed_batch(batch, ts, te, &mut out);
        engine
            .inner()
            .estimate_interval_detailed_batch(batch, ts, te, &mut bare);
        assert_eq!(out, bare, "mismatch over [{ts}, {te}]");
        let after = engine.stats();
        assert_eq!(after.misses, before.misses + distinct(batch), "{after:?}");
        assert_eq!(
            after.hits + after.misses,
            before.hits + before.misses + batch.len() as u64,
            "{after:?}"
        );
        out
    }

    /// A sealed interval's answer is unchanged by any amount of further
    /// ingest — rotations included — because nothing after the live
    /// boundary can overlap it (without a horizon, sealed history is
    /// immutable); every interval stays bit-identical to the bare
    /// deployment throughout.
    #[test]
    fn windowed_sealed_answers_survive_writes_and_rotations() {
        use crate::EdgeSink;
        let mut engine = WindowedReplay::new(wbuild(700));
        let batch = wbatch();
        let (ts, te) = (0u64, 399u64);
        assert!(te < engine.inner().current_window_start());
        let first = wcheck(&mut engine, &batch, ts, te);
        let windows0 = engine.inner().sealed_windows();
        // No write, writes inside the open window, several rotations.
        for writes in [700..700, 700..760, 760..1_500, 1_500..1_520] {
            engine.ingest_batch(&wstream(writes));
            for &(ts, te) in &INTERVALS {
                wcheck(&mut engine, &batch, ts, te);
            }
            assert_eq!(
                wcheck(&mut engine, &batch, ts, te),
                first,
                "sealed answer changed under live writes"
            );
        }
        assert!(engine.inner().sealed_windows() > windows0);
    }

    /// Intervals overlapping the open window see every write batch: the
    /// next query batch re-derives them to the fresh answer.
    #[test]
    fn windowed_live_answers_invalidated_by_writes() {
        use crate::EdgeSink;
        let mut engine = WindowedReplay::new(wbuild(700));
        let batch = wbatch();
        let (ts, te) = (500u64, u64::MAX); // overlaps the open window
        engine.ingest_batch(&wstream(700..720)); // opens window [700, 800)
        let windows0 = engine.inner().sealed_windows();
        let before = wcheck(&mut engine, &batch, ts, te);
        engine.ingest_batch(&wstream(720..780)); // no rotation, same window
        assert_eq!(engine.inner().sealed_windows(), windows0);
        let after = wcheck(&mut engine, &batch, ts, te);
        // 60 consecutive timestamps cover all 21 query edges.
        assert!(
            before.iter().zip(&after).all(|(b, a)| a.value > b.value),
            "live answers did not see the write"
        );
    }

    /// Under a horizon, coarsening is the one event that rewrites sealed
    /// history — sealed answers must follow it, never go stale.
    #[test]
    fn windowed_coarsening_invalidates_sealed_answers() {
        use crate::EdgeSink;
        let mut w =
            WindowedGSketch::with_horizon(wcfg(), GSketch::builder().min_width(16), 2).unwrap();
        w.ingest_batch(&wstream(0..1_000));
        let mut engine = WindowedReplay::new(w);
        let batch = wbatch();
        wcheck(&mut engine, &batch, 0, 399);
        let coarsenings0 = engine.inner().coarsenings();
        for writes in [1_000..1_060, 1_060..1_300] {
            engine.ingest_batch(&wstream(writes)); // rotations => coarsening
            for &(ts, te) in &INTERVALS {
                wcheck(&mut engine, &batch, ts, te);
            }
        }
        assert!(engine.inner().coarsenings() > coarsenings0);
    }
}
