//! The query-replay engines (DESIGN.md §9, §13).
//!
//! [`ReplayEngine`] is a **per-batch dedup front** for a flat
//! deployment. Query workloads are Zipf-headed (scenario 2 of the
//! paper is built on that assumption: the partitioner discounts
//! never-queried vertices because query streams concentrate on a
//! head), so one batch repeats its hot edges many times. The engine
//! deduplicates each batch by the raw `(src, dst)` endpoint pair,
//! answers the distinct edges **once** through the estimator's batched
//! surface (the in-order gather, DESIGN.md §8), and copies each answer
//! back to every repeat. Nothing is kept across batches, so there is
//! nothing to invalidate: writes through the engine's [`EdgeSink`]
//! impl are a plain forward, and answers are bit-identical to the bare
//! engine under any interleaving of ingest and query batches.
//!
//! A cross-batch answer memo was measured and removed: on the
//! live-serving workload every write chunk touches nearly every router
//! slot, so memoized answers were dead before the next query batch, and
//! almost every "hit" was a within-batch repeat the dedup already
//! answers (DESIGN.md §9).
//!
//! [`WindowedReplay`] keeps an interval-keyed memo in front of the
//! windowed deployment: sealed intervals never change without
//! coarsening, so their answers stay valid across batches.

use crate::query::EdgeEstimator;
use crate::sink::EdgeSink;
use gstream::edge::{Edge, StreamEdge};

/// What a replay engine did so far (monotone counters; useful for
/// asserting hit rates in benches and smokes). Every query is counted
/// exactly once: `hits + misses` is the number of queries answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Queries answered without asking the synopsis: repeats of an
    /// edge already asked in the same batch, plus (windowed engine)
    /// answers served from the interval memo.
    pub hits: u64,
    /// Distinct edges sent to the synopsis's batched surface.
    pub misses: u64,
    /// Memo invalidations. Always 0 for [`ReplayEngine`], which keeps
    /// no memo; [`WindowedReplay`] counts one per domain bump.
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
    /// The batch's distinct unanswered edges, in first-occurrence order.
    edges: Vec<Edge>,
    /// One answer per entry of `edges`.
    vals: Vec<V>,
    /// `(distinct index, output position)` per query left to the
    /// answerer.
    occ: Vec<(usize, usize)>,
    /// Endpoint pair → index into `edges`.
    index: gstream::fxhash::FxHashMap<u64, usize>,
}

impl<V: Copy + Default> BatchDedup<V> {
    /// Overwrite `out` with one answer per edge, in query order.
    /// `probe` may answer a query on the spot (the windowed memo; the
    /// flat engine never does). Every other query is deduplicated by
    /// its endpoint pair: the distinct edges reach `answer` once, in
    /// first-occurrence order (it must fill one value per edge, in
    /// order), and every repeat is copied from that answer. The
    /// distinct edges count as `stats.misses`, every other query as
    /// `stats.hits`.
    fn run<P, F>(
        &mut self,
        edges: &[Edge],
        out: &mut Vec<V>,
        stats: &mut ReplayStats,
        mut probe: P,
        answer: F,
    ) where
        P: FnMut(u64) -> Option<V>,
        F: FnOnce(&[Edge], &mut Vec<V>),
    {
        out.clear();
        out.resize(edges.len(), V::default());
        self.edges.clear();
        self.occ.clear();
        self.index.clear();
        for (i, &e) in edges.iter().enumerate() {
            let pair = edge_pair(e);
            if let Some(v) = probe(pair) {
                out[i] = v;
                continue;
            }
            let slot = *self.index.entry(pair).or_insert_with(|| {
                self.edges.push(e);
                self.edges.len() - 1
            });
            self.occ.push((slot, i));
        }
        let misses = self.edges.len() as u64;
        stats.misses += misses;
        stats.hits += edges.len() as u64 - misses;
        if misses == 0 {
            return;
        }
        answer(&self.edges, &mut self.vals);
        debug_assert_eq!(self.vals.len(), self.edges.len());
        for &(slot, i) in &self.occ {
            out[i] = self.vals[slot];
        }
    }

    /// The distinct edges of the last [`run`](Self::run), each with its
    /// answer.
    fn answered(&self) -> impl Iterator<Item = (Edge, V)> + '_ {
        self.edges.iter().copied().zip(self.vals.iter().copied())
    }
}

/// A query-replay engine: the deployment handle plus a per-batch dedup
/// front on its batched query surface.
///
/// Each batch's distinct edges are answered once through the
/// estimator's own [`estimate_edges`](EdgeEstimator::estimate_edges)
/// (or a caller-supplied answerer), and repeats are copied from the
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
        self.dedup.run(
            edges,
            out,
            &mut self.stats,
            |_| None,
            |distinct, vals| inner.estimate_edges(distinct, vals),
        );
    }

    /// [`estimate_edges`](Self::estimate_edges) with a caller-supplied
    /// answerer for the distinct edges — the hook the CLI uses to fan
    /// them out over a [`crate::ParallelQuery`] pool. `answer` must
    /// answer exactly like the inner estimator (it is handed the
    /// distinct edges in first-occurrence order and must fill one value
    /// per edge, in order).
    pub fn estimate_edges_with<F>(&mut self, edges: &[Edge], out: &mut Vec<u64>, answer: F)
    where
        F: FnOnce(&[Edge], &mut Vec<u64>),
    {
        self.dedup
            .run(edges, out, &mut self.stats, |_| None, answer);
    }

    /// Cumulative hit/miss counters (`invalidations` stays 0).
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Read-only access to the fronted deployment.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap the deployment.
    pub fn into_inner(self) -> S {
        self.inner
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

    fn flush(&mut self) {
        self.inner.flush();
    }
}

// ---------------------------------------------------------------------------
// Interval-keyed replay for windowed deployments (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Memo set index for a key: one Fibonacci multiply — the memo only
/// needs spread, not pairwise independence.
#[inline]
fn set_index(key: u64, shift: u32) -> usize {
    // cast: u64 -> usize; `>> shift` leaves at most (64 - shift) bits,
    // the set-count bit width, so the index fits and is in range.
    ((key ^ (key >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Default memo capacity: 2^14 sets × 4 ways ≈ 64k answers — sized so a
/// Zipf-headed workload's head (plus warm tail) stays resident while
/// the memo itself stays a few MiB, far below the synopses it fronts.
const DEFAULT_ENTRIES: usize = 1 << 16;

/// One 4-way interval-memo set: ways are tagged by the `(pair, interval)`
/// key and cache the full [`IntervalEstimate`] row (value, bound,
/// confidence), so the plain and detailed query surfaces share one memo.
struct IvalSet {
    pairs: [u64; 4],
    ivals: [u32; 4],
    values: [f64; 4],
    bounds: [f64; 4],
    confs: [f64; 4],
    stamps: [u64; 4],
    hits: [u32; 4],
}

const EMPTY_IVAL_SET: IvalSet = IvalSet {
    pairs: [0; 4],
    ivals: [0; 4],
    values: [0.0; 4],
    bounds: [0.0; 4],
    confs: [0.0; 4],
    stamps: [0; 4],
    hits: [0; 4],
};

impl std::fmt::Debug for IvalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvalSet").finish_non_exhaustive()
    }
}

use crate::window::IntervalEstimate;
use crate::WindowedGSketch;

/// A replay engine for **time-travel queries** over a windowed
/// deployment: a set-associative memo keyed by `(edge pair, interval)`
/// in front of [`WindowedGSketch::estimate_interval_detailed_batch`].
///
/// The point of a separate engine is the **two-domain invalidation
/// protocol**, which is what makes historical answers effectively
/// immortal:
///
/// * An interval is **sealed** iff its inclusive end lies before the
///   currently open window (`t_end < current_window_start()`). A sealed
///   interval's answer is computed entirely from sealed windows and
///   tiers — the live window cannot overlap it — and window rotation
///   cannot change it either (the newly sealed window starts at the old
///   live boundary, past the interval's end). The only event that moves
///   a sealed answer is **coarsening** (folding expired windows into
///   tiers), which the engine detects through the deployment's monotone
///   [`coarsenings`](WindowedGSketch::coarsenings) counter. Without a
///   horizon that never happens: sealed hits survive any amount of
///   further ingest.
/// * A **live** interval (overlapping the open window) is invalidated
///   by every write batch.
///
/// Classification is monotone — `current_window_start` never decreases,
/// so a sealed interval can never become live again — and both domain
/// generations are drawn from one strictly-increasing counter, so a
/// stale live-domain stamp can never collide with a sealed-domain
/// generation (no ABA resurrection).
///
/// Combined with [`crate::persist::load_windowed`], this gives
/// O(workload) time travel: [`replace_inner`](Self::replace_inner)
/// swaps in a snapshot-loaded deployment and *keeps* the sealed half of
/// the memo when the snapshot's history extends the current one, so a
/// warmed replay survives process handoff through the snapshot file.
#[derive(Debug)]
pub struct WindowedReplay {
    inner: WindowedGSketch,
    memo: IvalMemo,
    /// Dense id per distinct queried interval (grows with the number of
    /// distinct `[t_start, t_end]` spans the workload uses — a handful
    /// in practice; ids are never recycled).
    interval_ids: gstream::fxhash::FxHashMap<(u64, u64), u32>,
    /// Generation of the sealed domain (bumped only by coarsening).
    sealed_gen: u64,
    /// Generation of the live domain (bumped by every write batch).
    live_gen: u64,
    /// Strictly increasing stamp source shared by both domains.
    next_gen: u64,
    /// Dedup scratch for the memo's misses.
    dedup: BatchDedup<IntervalEstimate>,
    stats: ReplayStats,
}

/// The interval memo's sets. Split from [`WindowedReplay`] so a batch
/// can probe it while the deployment answers the misses.
#[derive(Debug)]
struct IvalMemo {
    sets: Box<[IvalSet]>,
    /// `64 − log2(sets.len())`: the set-index shift.
    shift: u32,
}

impl IvalMemo {
    /// Set index for a `(pair, interval)` key: mix the interval id into
    /// the pair before the Fibonacci spread so the same edge under
    /// different intervals lands in different sets.
    #[inline]
    fn set_of(&mut self, pair: u64, ival: u32) -> &mut IvalSet {
        let idx = set_index(
            pair ^ u64::from(ival).wrapping_mul(0xA24B_AED4_963E_E407),
            self.shift,
        );
        &mut self.sets[idx]
    }

    /// The cached row for `(pair, interval)` if it carries stamp `gen`;
    /// a hit bumps the way's hit counter (its eviction weight).
    #[inline]
    fn probe(&mut self, pair: u64, ival: u32, gen: u64) -> Option<IntervalEstimate> {
        let set = self.set_of(pair, ival);
        for j in 0..4 {
            if set.pairs[j] == pair
                && set.ivals[j] == ival
                && set.hits[j] != 0
                && set.stamps[j] == gen
            {
                set.hits[j] = set.hits[j].saturating_add(1);
                return Some(IntervalEstimate {
                    value: set.values[j],
                    error_bound: set.bounds[j],
                    confidence: set.confs[j],
                });
            }
        }
        None
    }

    /// Cache a row stamped `gen`. An existing way holding the same key
    /// is refreshed in place; otherwise the lightest way is displaced,
    /// where ways stamped by neither current generation weigh nothing.
    fn insert(&mut self, pair: u64, ival: u32, gen: u64, row: IntervalEstimate, live: [u64; 2]) {
        let set = self.set_of(pair, ival);
        let mut victim = 0usize;
        let mut victim_weight = u32::MAX;
        for j in 0..4 {
            if set.pairs[j] == pair && set.ivals[j] == ival && set.hits[j] != 0 {
                victim = j;
                break;
            }
            // Eviction weight only: a way stamped by neither current
            // generation is certainly dead (weightless). A stale way
            // that happens to match one is merely over-weighted — the
            // probe's exact stamp check keeps correctness.
            let alive = set.hits[j] != 0 && live.contains(&set.stamps[j]);
            let weight = if alive { set.hits[j] } else { 0 };
            if weight < victim_weight {
                victim = j;
                victim_weight = weight;
            }
        }
        set.pairs[victim] = pair;
        set.ivals[victim] = ival;
        set.values[victim] = row.value;
        set.bounds[victim] = row.error_bound;
        set.confs[victim] = row.confidence;
        set.stamps[victim] = gen;
        set.hits[victim] = 1;
    }
}

impl WindowedReplay {
    /// Front `inner` with an interval memo of the default capacity.
    pub fn new(inner: WindowedGSketch) -> Self {
        Self::with_capacity(inner, DEFAULT_ENTRIES)
    }

    /// Front `inner` with a memo of at least `entries` cached answers
    /// (rounded up to a power-of-two set count).
    pub fn with_capacity(inner: WindowedGSketch, entries: usize) -> Self {
        let sets = (entries.max(4) / 4).next_power_of_two().max(2);
        Self {
            inner,
            memo: IvalMemo {
                sets: (0..sets).map(|_| EMPTY_IVAL_SET).collect(),
                shift: 64 - sets.trailing_zeros(),
            },
            interval_ids: gstream::fxhash::FxHashMap::default(),
            sealed_gen: 0,
            live_gen: 1,
            next_gen: 1,
            dedup: BatchDedup::default(),
            stats: ReplayStats::default(),
        }
    }

    /// The dense id of interval `(t_start, t_end)`.
    fn interval_id(&mut self, t_start: u64, t_end: u64) -> u32 {
        let next = self.interval_ids.len();
        // cast: interval count is bounded by distinct workload spans,
        // far below u32::MAX; a truncated id would only cause extra
        // misses, never a wrong answer.
        *self
            .interval_ids
            .entry((t_start, t_end))
            .or_insert(next as u32)
    }

    /// The generation an entry for this interval must carry to be live
    /// *now*: sealed intervals check against the sealed domain, live
    /// ones against the live domain.
    fn current_gen(&self, t_end: u64) -> u64 {
        if t_end < self.inner.current_window_start() {
            self.sealed_gen
        } else {
            self.live_gen
        }
    }

    fn bump_live(&mut self) {
        self.next_gen += 1;
        self.live_gen = self.next_gen;
        self.stats.invalidations += 1;
    }

    fn bump_sealed(&mut self) {
        self.next_gen += 1;
        self.sealed_gen = self.next_gen;
        self.stats.invalidations += 1;
    }

    /// Memoized
    /// [`estimate_interval_detailed_batch`](WindowedGSketch::estimate_interval_detailed_batch):
    /// hits are served from resident `(pair, interval)` lines, the
    /// distinct misses are answered as one batch through the deployment
    /// and inserted. Bit-identical to the uncached batch, in query
    /// order.
    pub fn estimate_interval_detailed_batch(
        &mut self,
        edges: &[Edge],
        t_start: u64,
        t_end: u64,
        out: &mut Vec<IntervalEstimate>,
    ) {
        let ival = self.interval_id(t_start, t_end);
        let gen = self.current_gen(t_end);
        let (memo, inner) = (&mut self.memo, &self.inner);
        self.dedup.run(
            edges,
            out,
            &mut self.stats,
            |pair| memo.probe(pair, ival, gen),
            |miss, rows| inner.estimate_interval_detailed_batch(miss, t_start, t_end, rows),
        );
        let live = [self.sealed_gen, self.live_gen];
        for (e, row) in self.dedup.answered() {
            self.memo.insert(edge_pair(e), ival, gen, row, live);
        }
    }

    /// Memoized
    /// [`estimate_interval_batch`](WindowedGSketch::estimate_interval_batch):
    /// the plain surface shares the detailed memo (the windowed
    /// deployment pins plain and detailed values bit-identical).
    pub fn estimate_interval_batch(
        &mut self,
        edges: &[Edge],
        t_start: u64,
        t_end: u64,
        out: &mut Vec<f64>,
    ) {
        let mut rows = Vec::new();
        self.estimate_interval_detailed_batch(edges, t_start, t_end, &mut rows);
        out.clear();
        out.extend(rows.iter().map(|r| r.value));
    }

    /// Fallible single-arrival ingest (the windowed counterpart of
    /// [`WindowedGSketch::try_insert`]), with invalidation.
    pub fn try_insert(&mut self, se: StreamEdge) -> Result<(), sketch::SketchError> {
        self.bump_live();
        let before = self.inner.coarsenings();
        let r = self.inner.try_insert(se);
        if self.inner.coarsenings() != before {
            self.bump_sealed();
        }
        r
    }

    /// Swap in a replacement deployment — typically one loaded from a
    /// snapshot file — and keep as much of the memo as is sound:
    ///
    /// * the **sealed** half survives iff the replacement provably
    ///   extends the current deployment's history (same configuration
    ///   and horizon, same coarsening count, current sealed spans a
    ///   prefix of the replacement's, neither instance partial): every
    ///   synopsis a sealed interval was answered from is still present
    ///   and unchanged, and the replacement's extra windows all start at
    ///   or past the old live boundary, outside every sealed interval;
    /// * the **live** half is always invalidated — the open window's
    ///   counters have no such guarantee.
    ///
    /// Returns whether sealed answers were preserved.
    pub fn replace_inner(&mut self, new: WindowedGSketch) -> bool {
        let old_spans = self.inner.sealed_spans();
        let new_spans = new.sealed_spans();
        let preserved = !self.inner.is_partial()
            && !new.is_partial()
            && self.inner.config() == new.config()
            && self.inner.horizon_keep() == new.horizon_keep()
            && self.inner.coarsenings() == new.coarsenings()
            && new_spans.len() >= old_spans.len()
            && old_spans == new_spans[..old_spans.len()];
        self.inner = new;
        self.bump_live();
        if !preserved {
            self.bump_sealed();
        }
        preserved
    }

    /// Drop every cached answer.
    pub fn invalidate_all(&mut self) {
        self.bump_live();
        self.bump_sealed();
    }

    /// Cumulative hit/miss/invalidation counters.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Read-only access to the fronted deployment.
    pub fn inner(&self) -> &WindowedGSketch {
        &self.inner
    }

    /// Unwrap the deployment. (No `inner_mut`, for the same reason as
    /// [`ReplayEngine::into_inner`]: a mutable handle could write
    /// without invalidating.)
    pub fn into_inner(self) -> WindowedGSketch {
        self.inner
    }
}

/// Writes invalidate the live domain before touching the deployment;
/// if the write triggered coarsening (the only mutation of sealed
/// history), the sealed domain is invalidated too.
impl EdgeSink for WindowedReplay {
    fn update(&mut self, se: StreamEdge) {
        self.bump_live();
        let before = self.inner.coarsenings();
        self.inner.update(se);
        if self.inner.coarsenings() != before {
            self.bump_sealed();
        }
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        if batch.is_empty() {
            return;
        }
        self.bump_live();
        let before = self.inner.coarsenings();
        self.inner.ingest_batch(batch);
        if self.inner.coarsenings() != before {
            self.bump_sealed();
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
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
        let mut seen = 0usize;
        let mut cached = Vec::new();
        engine.estimate_edges_with(&batch, &mut cached, |miss, vals| {
            seen = miss.len();
            let mut v = Vec::new();
            miss.iter().for_each(|&e| v.push(e));
            // Answer through a fresh scalar pass over the inner — the
            // closure stands in for the estimator here.
            vals.clear();
            vals.extend(bare.iter().take(2)); // hot then other, first-miss order
            assert_eq!(v, vec![hot, other]);
        });
        assert_eq!(seen, 2, "six queries, two distinct misses");
        assert_eq!(cached, bare);
        let stats = engine.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4, "repeat occurrences are hits");
    }

    /// The fan-out hook: an engine fronting a *borrowed* deployment can
    /// answer each batch's distinct edges through a `ParallelQuery` pool
    /// over the same borrow — the CLI's replay shape — and stays
    /// bit-identical.
    #[test]
    fn estimate_edges_with_fans_misses_out() {
        use crate::EdgeSink;
        let s = stream(1_500);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().step_by(2).map(|se| se.edge).collect();
        let mut bare = Vec::new();
        gs.estimate_edges(&queries, &mut bare);
        let pq = crate::ParallelQuery::new(&gs, 3).oversubscribe(true);
        let mut engine = ReplayEngine::new(&gs);
        let mut cached = Vec::new();
        for _ in 0..2 {
            engine.estimate_edges_with(&queries, &mut cached, |miss, vals| {
                pq.estimate_edges(miss, vals);
            });
            assert_eq!(cached, bare);
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 2 * distinct(&queries));
        assert_eq!(stats.hits + stats.misses, 2 * queries.len() as u64);
    }

    /// The distinct edges can also ride the **slot-routed** fan-out: the
    /// owner of each router slot answers the edges landing in its slot
    /// range (the read half of the owner-sharded engine, DESIGN.md §11)
    /// — bit-identical to the bare sequential batch.
    #[test]
    fn miss_batches_route_by_slot_ownership() {
        use crate::EdgeSink;
        let s = stream(1_500);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().step_by(2).map(|se| se.edge).collect();
        let mut bare = Vec::new();
        gs.estimate_edges(&queries, &mut bare);
        let pq = crate::ParallelQuery::new(&gs, 4).oversubscribe(true);
        let mut engine = ReplayEngine::new(&gs);
        let mut cached = Vec::new();
        for _ in 0..2 {
            engine.estimate_edges_with(&queries, &mut cached, |miss, vals| {
                pq.estimate_edges_routed(miss, vals);
            });
            assert_eq!(cached, bare);
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 2 * distinct(&queries));
        assert_eq!(stats.hits + stats.misses, 2 * queries.len() as u64);
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

    #[test]
    fn windowed_cached_answers_match_uncached() {
        let w = wbuild(700);
        let queries = wqueries();
        let mut bare = Vec::new();
        let mut bare_rows = Vec::new();
        let mut cached = Vec::new();
        let mut cached_rows = Vec::new();
        let mut engine = WindowedReplay::new(wbuild(700));
        for _ in 0..3 {
            for &(ts, te) in &INTERVALS {
                w.estimate_interval_batch(&queries, ts, te, &mut bare);
                engine.estimate_interval_batch(&queries, ts, te, &mut cached);
                assert_eq!(cached, bare, "plain mismatch over [{ts}, {te}]");
                w.estimate_interval_detailed_batch(&queries, ts, te, &mut bare_rows);
                engine.estimate_interval_detailed_batch(&queries, ts, te, &mut cached_rows);
                assert_eq!(
                    cached_rows, bare_rows,
                    "detailed mismatch over [{ts}, {te}]"
                );
            }
        }
        let stats = engine.stats();
        assert!(stats.hits > stats.misses, "{stats:?}");
        // Both surfaces count every query once: 3 passes × 4 intervals
        // × (plain + detailed).
        assert_eq!(stats.hits + stats.misses, 24 * queries.len() as u64);
    }

    /// A sealed interval's cached answer survives any amount of further
    /// ingest — rotations included — because nothing after the live
    /// boundary can overlap it (without a horizon, sealed history is
    /// immutable).
    #[test]
    fn windowed_sealed_answers_survive_writes_and_rotations() {
        use crate::EdgeSink;
        let mut engine = WindowedReplay::new(wbuild(700));
        let queries = wqueries();
        let (ts, te) = (0u64, 399u64);
        assert!(te < engine.inner().current_window_start());
        let mut first = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut first);
        let windows_before = engine.inner().sealed_windows();
        engine.ingest_batch(&wstream(700..1_500)); // several rotations
        assert!(engine.inner().sealed_windows() > windows_before);
        let (hits0, misses0) = (engine.stats().hits, engine.stats().misses);
        let mut again = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut again);
        assert_eq!(again, first, "sealed answer changed under live writes");
        assert_eq!(engine.stats().misses, misses0, "sealed answers re-derived");
        assert_eq!(engine.stats().hits, hits0 + queries.len() as u64);
        // And the survivors are still *correct*, not merely resident.
        let mut bare = Vec::new();
        engine
            .inner()
            .estimate_interval_detailed_batch(&queries, ts, te, &mut bare);
        assert_eq!(again, bare);
    }

    /// Intervals overlapping the open window are invalidated by every
    /// write batch and re-derive to the fresh answer.
    #[test]
    fn windowed_live_answers_invalidated_by_writes() {
        use crate::EdgeSink;
        let mut engine = WindowedReplay::new(wbuild(700));
        let queries = wqueries();
        let (ts, te) = (500u64, u64::MAX); // overlaps the open window
        let mut out = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        engine.ingest_batch(&wstream(700..760)); // no rotation, same window
        let misses0 = engine.stats().misses;
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        assert_eq!(
            engine.stats().misses,
            misses0 + queries.len() as u64,
            "live answers must re-derive after a write"
        );
        let mut bare = Vec::new();
        engine
            .inner()
            .estimate_interval_detailed_batch(&queries, ts, te, &mut bare);
        assert_eq!(out, bare);
    }

    /// Under a horizon, coarsening is the one event that rewrites sealed
    /// history — cached sealed answers must re-derive, never go stale.
    #[test]
    fn windowed_coarsening_invalidates_sealed_answers() {
        use crate::EdgeSink;
        let mut w =
            WindowedGSketch::with_horizon(wcfg(), GSketch::builder().min_width(16), 2).unwrap();
        for se in wstream(0..1_000) {
            w.try_insert(se).unwrap();
        }
        let mut engine = WindowedReplay::new(w);
        let queries = wqueries();
        let (ts, te) = (0u64, 399u64);
        let mut out = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        let coarsenings = engine.inner().coarsenings();
        engine.ingest_batch(&wstream(1_000..1_300)); // rotations => coarsening
        assert!(engine.inner().coarsenings() > coarsenings);
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        let mut bare = Vec::new();
        engine
            .inner()
            .estimate_interval_detailed_batch(&queries, ts, te, &mut bare);
        assert_eq!(out, bare, "stale sealed answer after coarsening");
    }

    /// `replace_inner` keeps the sealed memo when the replacement
    /// provably extends the current history (the snapshot-reload path),
    /// and drops it otherwise.
    #[test]
    fn windowed_replace_inner_preserves_sealed_on_history_extension() {
        let mut engine = WindowedReplay::new(wbuild(700));
        let queries = wqueries();
        let (ts, te) = (0u64, 399u64);
        let mut out = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        // Same config, longer deterministic history: a strict extension.
        assert!(
            engine.replace_inner(wbuild(1_200)),
            "extension not detected"
        );
        let misses0 = engine.stats().misses;
        let mut again = Vec::new();
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut again);
        assert_eq!(engine.stats().misses, misses0, "sealed memo was dropped");
        let mut bare = Vec::new();
        engine
            .inner()
            .estimate_interval_detailed_batch(&queries, ts, te, &mut bare);
        assert_eq!(again, bare);
        // A diverged deployment (different seed) must invalidate all.
        let other = WindowedGSketch::new(
            WindowConfig { seed: 99, ..wcfg() },
            GSketch::builder().min_width(16),
        )
        .unwrap();
        assert!(!engine.replace_inner(other), "divergence not detected");
        let misses1 = engine.stats().misses;
        engine.estimate_interval_detailed_batch(&queries, ts, te, &mut out);
        assert_eq!(engine.stats().misses, misses1 + queries.len() as u64);
    }
}
