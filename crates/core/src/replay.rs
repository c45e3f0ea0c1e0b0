//! The query-replay engine (DESIGN.md §9): a hot-answer memo in front
//! of the batched query engine.
//!
//! The ingest engine's combiner cache (DESIGN.md §11) exploits the
//! Zipf head of a graph *stream*; real query workloads are just as
//! skewed (scenario 2 of the paper is built on that assumption — the
//! partitioner discounts never-queried vertices precisely because query
//! streams concentrate on a head), yet workload replay re-answered the
//! same hot edges from the synopsis on every batch. [`ReplayEngine`] is
//! the read-side twin: a small set-associative memo tagged by the raw
//! `(src, dst)` endpoint pair — exact equality, no hashing, exactly
//! like the combiner's tags — that answers the head from one resident
//! probe per query and sends only the misses to the estimator's batched
//! surface.
//!
//! **Why it lives in the replay layer.** A memoized answer is only
//! correct while the underlying counters have not moved, so the memo
//! must see every write. The engine therefore *owns* the deployment
//! handle and fronts both of its surfaces: queries go through the memo,
//! and writes go through the engine's [`EdgeSink`] impl, which
//! invalidates before delegating. Interleaved ingest/query replays stay
//! bit-identical to an uncached replay (pinned by the `backend_parity`
//! interleaving proptest).
//!
//! **Invalidation protocol.** Two levels, both O(1) per write:
//!
//! * a **global generation floor** — [`ReplayEngine::invalidate_all`]
//!   bumps one counter and every cached entry whose stamp is below the
//!   floor is dead, no scan required;
//! * **per-slot generations** when the deployment can localize the
//!   write ([`WriteLocalized`]): partitioned sketches route a write to
//!   exactly one router slot, and slot counter spans are disjoint, so a
//!   write to slot `s` can only move estimates of edges routed to `s` —
//!   bumping `s`'s generation kills exactly those cached answers and
//!   leaves the rest of the head resident.
//!
//! Entry stamps are drawn from one strictly-increasing `u64` counter,
//! so a stamp can never be reused and the classic ABA staleness of
//! wrapping generation tags cannot occur.

use crate::query::EdgeEstimator;
use crate::sink::EdgeSink;
use gstream::edge::{Edge, StreamEdge};
use gstream::vertex::VertexId;

/// How a deployment localizes the effect of a write, for cache
/// invalidation. A write that lands in invalidation domain `d` may only
/// change estimates of edges whose source routes to `d`.
///
/// The partitioned sketches implement this with their router (domain =
/// router slot: slot counter spans are disjoint, so cross-slot
/// estimates cannot move). Deployments that cannot bound a write's
/// blast radius — the global baseline's single shared sketch, the
/// adaptive sketch's warm-up phase, the windowed sketch's rotation —
/// use the safe single-domain default, where every write invalidates
/// the whole memo.
pub trait WriteLocalized {
    /// Number of distinct invalidation domains (≥ 1).
    fn write_domains(&self) -> usize {
        1
    }

    /// The domain absorbing writes whose source vertex is `src`
    /// (`< write_domains()`).
    fn write_domain(&self, _src: VertexId) -> u32 {
        0
    }
}

/// Forwarding impls so an engine can front a borrowed deployment.
impl<T: WriteLocalized + ?Sized> WriteLocalized for &T {
    fn write_domains(&self) -> usize {
        (**self).write_domains()
    }

    fn write_domain(&self, src: VertexId) -> u32 {
        (**self).write_domain(src)
    }
}

/// The global baseline is one shared sketch: any write can collide with
/// any cached answer.
impl WriteLocalized for crate::GlobalSketch {}

/// Before switchover every write lands in the (global) warm-up sketch;
/// afterwards estimates still *sum* warm-up + partitioned components.
/// The safe single-domain default is the correct blast radius.
impl WriteLocalized for crate::AdaptiveGSketch {}

/// A write may rotate windows (rebuilding the current router), so no
/// per-slot localization is sound across the write stream.
impl WriteLocalized for crate::WindowedGSketch {}

/// Exact truth: a write to edge `e` only changes `e`, but the exact
/// counter is a hash map — memoizing in front of it buys nothing, so it
/// keeps the safe default (used only in tests).
impl WriteLocalized for gstream::ExactCounter {}

/// What a replay engine did so far (monotone counters; useful for
/// asserting hit rates in benches and smokes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries sent to the estimator's batched surface.
    pub misses: u64,
    /// Domain invalidations (writes that bumped a generation), plus one
    /// per whole-cache invalidation.
    pub invalidations: u64,
}

/// One 4-way memo set. Ways are tagged by the raw `(src, dst)` endpoint
/// pair; `hits[j] == 0` marks way `j` free (an occupied way has
/// answered at least its filling query). A way is *valid* iff its stamp
/// equals its domain's current generation and sits at or above the
/// global floor.
struct MemoSet {
    pairs: [u64; 4],
    values: [u64; 4],
    stamps: [u64; 4],
    domains: [u32; 4],
    hits: [u32; 4],
}

const EMPTY_MEMO_SET: MemoSet = MemoSet {
    pairs: [0; 4],
    values: [0; 4],
    stamps: [0; 4],
    domains: [0; 4],
    hits: [0; 4],
};

/// The packed endpoint pair identifying an edge exactly (the same
/// tagging scheme as the ingest combiner's cache).
#[inline]
fn edge_pair(e: Edge) -> u64 {
    (u64::from(e.src.0) << 32) | u64::from(e.dst.0)
}

/// Memo set index for a pair: one Fibonacci multiply — the memo only
/// needs spread, not pairwise independence.
#[inline]
fn set_index(pair: u64, shift: u32) -> usize {
    // cast: u64 -> usize; `>> shift` leaves at most (64 - shift) bits,
    // the set-count bit width, so the index fits and is in range.
    ((pair ^ (pair >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Default memo capacity: 2^14 sets × 4 ways ≈ 64k answers — sized so a
/// Zipf-headed workload's head (plus warm tail) stays resident while
/// the memo itself stays a few MiB, far below the synopses it fronts.
const DEFAULT_ENTRIES: usize = 1 << 16;

/// A query-replay engine: the deployment handle plus the hot-answer
/// memo fronting its batched query surface.
///
/// The engine owns both surfaces of the deployment — queries through
/// [`estimate_edges`](Self::estimate_edges), writes through the
/// [`EdgeSink`] impl — which is what makes the memo sound: every write
/// passes through invalidation before it can touch a counter. Cached
/// answers are bit-identical to uncached ones under any interleaving of
/// ingest and query replays.
#[derive(Debug)]
pub struct ReplayEngine<S> {
    inner: S,
    memo: AnswerMemo,
}

impl<S: EdgeEstimator + WriteLocalized> ReplayEngine<S> {
    /// Front `inner` with a memo of the default capacity.
    pub fn new(inner: S) -> Self {
        Self::with_capacity(inner, DEFAULT_ENTRIES)
    }

    /// Front `inner` with a memo of at least `entries` cached answers
    /// (rounded up to a power-of-two set count).
    pub fn with_capacity(inner: S, entries: usize) -> Self {
        let sets = (entries.max(4) / 4).next_power_of_two();
        let memo = AnswerMemo::new(sets, inner.write_domains().max(1));
        Self { inner, memo }
    }

    /// Answer a query batch through the memo: hits are served from
    /// resident lines, misses are answered as **one batch** through the
    /// estimator's own [`estimate_edges`](EdgeEstimator::estimate_edges)
    /// (chunked gather, batched kernels and all) and then inserted. `out` is
    /// overwritten with one estimate per edge, in query order —
    /// bit-identical to an uncached batch.
    pub fn estimate_edges(&mut self, edges: &[Edge], out: &mut Vec<u64>) {
        let inner = &self.inner;
        self.memo.answer_batch(
            edges,
            out,
            |src| inner.write_domain(src),
            |miss, vals| inner.estimate_edges(miss, vals),
        );
    }

    /// [`estimate_edges`](Self::estimate_edges) with a caller-supplied
    /// answerer for the miss batch — the hook the CLI uses to fan misses
    /// out over a [`crate::ParallelQuery`] pool while hits stay on the
    /// calling thread. `answer` must answer exactly like the inner
    /// estimator (it is handed the miss edges in first-miss order and
    /// must fill one value per edge, in order).
    pub fn estimate_edges_with<F>(&mut self, edges: &[Edge], out: &mut Vec<u64>, answer: F)
    where
        F: FnOnce(&[Edge], &mut Vec<u64>),
    {
        let inner = &self.inner;
        self.memo
            .answer_batch(edges, out, |src| inner.write_domain(src), answer);
    }

    /// Scalar convenience: one memoized point query.
    pub fn estimate_edge(&mut self, edge: Edge) -> u64 {
        let pair = edge_pair(edge);
        if let Some(v) = self.memo.probe(pair) {
            return v;
        }
        let v = self.inner.estimate_edge(edge);
        let domain = self.inner.write_domain(edge.src);
        self.memo.insert(pair, domain, v);
        self.memo.stats.misses += 1;
        v
    }

    /// Drop every cached answer (one counter bump; no scan).
    pub fn invalidate_all(&mut self) {
        self.memo.invalidate_all();
    }

    /// Cumulative hit/miss/invalidation counters.
    pub fn stats(&self) -> ReplayStats {
        self.memo.stats
    }

    /// Read-only access to the fronted deployment.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap the deployment. (There is deliberately no `inner_mut`:
    /// a mutable handle could write without invalidating.)
    pub fn into_inner(self) -> S {
        self.inner
    }
}

/// Writes pass through invalidation before touching the deployment:
/// localized deployments invalidate only the touched domains (once per
/// domain per batch), the rest invalidate the whole memo.
impl<S: EdgeEstimator + WriteLocalized + EdgeSink> EdgeSink for ReplayEngine<S> {
    fn update(&mut self, se: StreamEdge) {
        self.memo
            .invalidate_domain(self.inner.write_domain(se.edge.src));
        self.inner.update(se);
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        self.memo
            .invalidate_batch(batch, |src| self.inner.write_domain(src));
        self.inner.ingest_batch(batch);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// The memo proper: sets, generations, and scratch. Split from the
/// engine so the borrow of the inner estimator (answering misses) and
/// the borrow of the cache state can coexist.
#[derive(Debug)]
struct AnswerMemo {
    sets: Box<[MemoSet]>,
    /// `64 − log2(sets.len())`: the set-index shift.
    shift: u32,
    /// Current generation per invalidation domain.
    domain_gens: Vec<u64>,
    /// Stamps below this are globally invalidated (whole-cache
    /// invalidation bumps this once; domains re-stamp lazily on the
    /// next insert).
    floor: u64,
    /// Strictly increasing stamp source — stamps are never reused, so
    /// generation reuse (ABA) cannot resurrect a stale entry.
    next_gen: u64,
    /// Scratch marking domains already invalidated within one batch.
    touched: Vec<bool>,
    /// Miss scratch: the batch's *distinct* missed edges, the
    /// (distinct-miss index, output position) pair per missed query,
    /// and the per-distinct-miss dedup map.
    miss_edges: Vec<Edge>,
    miss_occ: Vec<(usize, usize)>,
    miss_vals: Vec<u64>,
    miss_index: gstream::fxhash::FxHashMap<u64, usize>,
    stats: ReplayStats,
}

impl AnswerMemo {
    fn new(sets: usize, domains: usize) -> Self {
        // At least 2 sets so the set-index shift stays below 64.
        let sets = sets.next_power_of_two().max(2);
        Self {
            sets: (0..sets).map(|_| EMPTY_MEMO_SET).collect(),
            shift: 64 - sets.trailing_zeros(),
            domain_gens: vec![0; domains],
            floor: 0,
            next_gen: 0,
            touched: vec![false; domains],
            miss_edges: Vec::new(),
            miss_occ: Vec::new(),
            miss_vals: Vec::new(),
            miss_index: gstream::fxhash::FxHashMap::default(),
            stats: ReplayStats::default(),
        }
    }

    /// Look up a pair; a hit bumps the way's hit counter (heaviest-stays
    /// currency) and counts toward [`ReplayStats::hits`].
    ///
    /// The set access stays a checked index: `set_index` is in range by
    /// construction (the shift leaves exactly the set-count bit width),
    /// but that proof lives in the constructor, out of LLVM's reach, so
    /// the retained bounds check is counted by the audit ratchet rather
    /// than papered over with a fallback. A way whose domain id has no
    /// generation (shrunken domain table) simply never validates.
    #[inline]
    fn probe(&mut self, pair: u64) -> Option<u64> {
        let set = &mut self.sets[set_index(pair, self.shift)];
        for j in 0..4 {
            if set.pairs[j] == pair
                && set.hits[j] != 0
                && set.stamps[j] >= self.floor
                && Some(set.stamps[j]) == self.domain_gens.get(set.domains[j] as usize).copied()
            {
                set.hits[j] = set.hits[j].saturating_add(1);
                self.stats.hits += 1;
                return Some(set.values[j]);
            }
        }
        None
    }

    /// Cache an answer. An existing way holding the same pair (live or
    /// stale) is refreshed in place; otherwise the **lightest** way is
    /// displaced — dead ways count as weightless, so the hottest live
    /// answers are the ones that stay (the combiner cache's
    /// heaviest-stays rule, with hit counts as the weight).
    // audit: kernel(panic-free)
    fn insert(&mut self, pair: u64, domain: u32, value: u64) {
        // A domain last stamped before the global floor gets a fresh
        // generation, so the new entry is live but pre-floor ones stay
        // dead. A domain id with no generation slot cannot produce a
        // valid stamp, so the answer is dropped (the query degrades to
        // a permanent miss) rather than indexing out of range.
        let floor = self.floor;
        let Some(gen) = self.domain_gens.get_mut(domain as usize) else {
            return;
        };
        if *gen < floor {
            self.next_gen += 1;
            *gen = self.next_gen;
        }
        let stamp = *gen;
        // Checked set index, same rationale as `probe`: in range by
        // construction, counted by the audit ratchet.
        let set = &mut self.sets[set_index(pair, self.shift)];
        let mut victim = 0usize;
        let mut victim_weight = u32::MAX;
        for j in 0..4 {
            if set.pairs[j] == pair && set.hits[j] != 0 {
                victim = j;
                break;
            }
            let live = set.hits[j] != 0
                && set.stamps[j] >= floor
                && Some(set.stamps[j]) == self.domain_gens.get(set.domains[j] as usize).copied();
            let weight = if live { set.hits[j] } else { 0 };
            if weight < victim_weight {
                victim = j;
                victim_weight = weight;
            }
        }
        set.pairs[victim] = pair;
        set.values[victim] = value;
        set.stamps[victim] = stamp;
        set.domains[victim] = domain;
        set.hits[victim] = 1;
    }

    /// Kill every cached answer for one domain.
    fn invalidate_domain(&mut self, domain: u32) {
        self.next_gen += 1;
        self.domain_gens[domain as usize] = self.next_gen;
        self.stats.invalidations += 1;
    }

    /// Kill every cached answer.
    fn invalidate_all(&mut self) {
        self.next_gen += 1;
        self.floor = self.next_gen;
        self.stats.invalidations += 1;
    }

    /// Invalidate the domains a write batch touches, once per domain.
    fn invalidate_batch<D: Fn(VertexId) -> u32>(&mut self, batch: &[StreamEdge], domain_of: D) {
        if self.domain_gens.len() == 1 {
            if !batch.is_empty() {
                self.invalidate_domain(0);
            }
            return;
        }
        self.touched.fill(false);
        for se in batch {
            // cast: u32 -> usize is widening on every supported target; the
            // index is bounds-checked against `touched` on the next line.
            let d = domain_of(se.edge.src) as usize;
            if !self.touched[d] {
                self.touched[d] = true;
                self.invalidate_domain(d as u32);
            }
        }
    }

    /// The batched probe/answer/fill cycle (see
    /// [`ReplayEngine::estimate_edges`]). Missed queries are deduplicated
    /// *within the batch*: a hot edge repeated anywhere in the batch —
    /// adjacent or scattered — reaches the estimator once and every
    /// further occurrence is served from the first answer, so the head
    /// of a Zipf workload pays one synopsis probe per batch even on a
    /// cold memo. Repeat occurrences count as hits (they are answered
    /// by the replay layer, not the synopsis).
    fn answer_batch<D, F>(&mut self, edges: &[Edge], out: &mut Vec<u64>, domain_of: D, answer: F)
    where
        D: Fn(VertexId) -> u32,
        F: FnOnce(&[Edge], &mut Vec<u64>),
    {
        out.clear();
        out.resize(edges.len(), 0);
        let mut miss_edges = std::mem::take(&mut self.miss_edges);
        let mut miss_occ = std::mem::take(&mut self.miss_occ);
        let mut miss_vals = std::mem::take(&mut self.miss_vals);
        let mut miss_index = std::mem::take(&mut self.miss_index);
        miss_edges.clear();
        miss_occ.clear();
        miss_index.clear();
        for (i, &e) in edges.iter().enumerate() {
            let pair = edge_pair(e);
            match self.probe(pair) {
                Some(v) => out[i] = v,
                None => {
                    let slot = *miss_index.entry(pair).or_insert_with(|| {
                        miss_edges.push(e);
                        miss_edges.len() - 1
                    });
                    miss_occ.push((slot, i));
                }
            }
        }
        if !miss_edges.is_empty() {
            self.stats.misses += miss_edges.len() as u64;
            self.stats.hits += (miss_occ.len() - miss_edges.len()) as u64;
            answer(&miss_edges, &mut miss_vals);
            debug_assert_eq!(miss_vals.len(), miss_edges.len());
            for &(slot, i) in &miss_occ {
                out[i] = miss_vals[slot];
            }
            for (&e, &v) in miss_edges.iter().zip(&miss_vals) {
                self.insert(edge_pair(e), domain_of(e.src), v);
            }
        }
        self.miss_edges = miss_edges;
        self.miss_occ = miss_occ;
        self.miss_vals = miss_vals;
        self.miss_index = miss_index;
    }
}

impl std::fmt::Debug for MemoSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoSet").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Interval-keyed replay for windowed deployments (DESIGN.md §13)
// ---------------------------------------------------------------------------

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
///   by every write batch, exactly like [`ReplayEngine`]'s
///   single-domain deployments.
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
    sets: Box<[IvalSet]>,
    shift: u32,
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
    /// Miss scratch (see [`AnswerMemo`] for the dedup scheme).
    miss_edges: Vec<Edge>,
    miss_occ: Vec<(usize, usize)>,
    miss_rows: Vec<IntervalEstimate>,
    miss_index: gstream::fxhash::FxHashMap<u64, usize>,
    stats: ReplayStats,
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
            sets: (0..sets).map(|_| EMPTY_IVAL_SET).collect(),
            shift: 64 - sets.trailing_zeros(),
            interval_ids: gstream::fxhash::FxHashMap::default(),
            sealed_gen: 0,
            live_gen: 1,
            next_gen: 1,
            miss_edges: Vec::new(),
            miss_occ: Vec::new(),
            miss_rows: Vec::new(),
            miss_index: gstream::fxhash::FxHashMap::default(),
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

    /// Set index for a `(pair, interval)` key: mix the interval id into
    /// the pair before the Fibonacci spread so the same edge under
    /// different intervals lands in different sets.
    #[inline]
    fn ival_set_index(&self, pair: u64, ival: u32) -> usize {
        set_index(
            pair ^ u64::from(ival).wrapping_mul(0xA24B_AED4_963E_E407),
            self.shift,
        )
    }

    #[inline]
    fn probe(&mut self, pair: u64, ival: u32, gen: u64) -> Option<IntervalEstimate> {
        let idx = self.ival_set_index(pair, ival);
        let set = &mut self.sets[idx];
        for j in 0..4 {
            if set.pairs[j] == pair
                && set.ivals[j] == ival
                && set.hits[j] != 0
                && set.stamps[j] == gen
            {
                set.hits[j] = set.hits[j].saturating_add(1);
                self.stats.hits += 1;
                return Some(IntervalEstimate {
                    value: set.values[j],
                    error_bound: set.bounds[j],
                    confidence: set.confs[j],
                });
            }
        }
        None
    }

    fn insert(&mut self, pair: u64, ival: u32, gen: u64, row: IntervalEstimate) {
        let idx = self.ival_set_index(pair, ival);
        let (sealed_gen, live_gen) = (self.sealed_gen, self.live_gen);
        let set = &mut self.sets[idx];
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
            let live =
                set.hits[j] != 0 && (set.stamps[j] == sealed_gen || set.stamps[j] == live_gen);
            let weight = if live { set.hits[j] } else { 0 };
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
        out.clear();
        out.resize(edges.len(), IntervalEstimate::default());
        let ival = self.interval_id(t_start, t_end);
        let gen = self.current_gen(t_end);
        let mut miss_edges = std::mem::take(&mut self.miss_edges);
        let mut miss_occ = std::mem::take(&mut self.miss_occ);
        let mut miss_rows = std::mem::take(&mut self.miss_rows);
        let mut miss_index = std::mem::take(&mut self.miss_index);
        miss_edges.clear();
        miss_occ.clear();
        miss_index.clear();
        for (i, &e) in edges.iter().enumerate() {
            let pair = edge_pair(e);
            match self.probe(pair, ival, gen) {
                Some(row) => out[i] = row,
                None => {
                    let slot = *miss_index.entry(pair).or_insert_with(|| {
                        miss_edges.push(e);
                        miss_edges.len() - 1
                    });
                    miss_occ.push((slot, i));
                }
            }
        }
        if !miss_edges.is_empty() {
            self.stats.misses += miss_edges.len() as u64;
            self.stats.hits += (miss_occ.len() - miss_edges.len()) as u64;
            self.inner.estimate_interval_detailed_batch(
                &miss_edges,
                t_start,
                t_end,
                &mut miss_rows,
            );
            debug_assert_eq!(miss_rows.len(), miss_edges.len());
            for &(slot, i) in &miss_occ {
                out[i] = miss_rows[slot];
            }
            for (&e, &row) in miss_edges.iter().zip(&miss_rows) {
                self.insert(edge_pair(e), ival, gen, row);
            }
        }
        self.miss_edges = miss_edges;
        self.miss_occ = miss_occ;
        self.miss_rows = miss_rows;
        self.miss_index = miss_index;
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
    use crate::{GSketch, GlobalSketch};

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
        // Second and third passes answer the whole workload from the
        // memo (37 sources × 11 destinations ≪ capacity).
        assert!(stats.hits > stats.misses, "{stats:?}");
        for &q in queries.iter().take(50) {
            assert_eq!(engine.estimate_edge(q), engine.inner().estimate_edge(q));
        }
    }

    #[test]
    fn writes_invalidate_affected_answers() {
        use crate::EdgeSink;
        let s = stream(2_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().step_by(7).map(|se| se.edge).collect();
        let mut engine = ReplayEngine::new(gs);
        let mut out = Vec::new();
        engine.estimate_edges(&queries, &mut out); // fill the memo
        engine.estimate_edges(&queries, &mut out); // all hits
                                                   // Write through the engine, then re-query: answers must track
                                                   // the new counters exactly.
        for se in &s[..300] {
            engine.update(*se);
        }
        engine.estimate_edges(&queries, &mut out);
        for (&q, &v) in queries.iter().zip(&out) {
            assert_eq!(v, engine.inner().estimate_edge(q), "stale answer for {q}");
        }
        assert!(engine.stats().invalidations > 0);
    }

    #[test]
    fn batched_writes_invalidate_once_per_domain() {
        use crate::EdgeSink;
        let s = stream(2_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().step_by(5).map(|se| se.edge).collect();
        let mut engine = ReplayEngine::new(gs);
        let mut out = Vec::new();
        engine.estimate_edges(&queries, &mut out);
        let before = engine.stats().invalidations;
        engine.ingest_batch(&s[..500]);
        let bumps = engine.stats().invalidations - before;
        assert!(bumps > 0);
        assert!(
            bumps <= engine.inner().num_partitions() as u64 + 1,
            "at most one bump per touched domain: {bumps}"
        );
        engine.flush();
        engine.estimate_edges(&queries, &mut out);
        for (&q, &v) in queries.iter().zip(&out) {
            assert_eq!(v, engine.inner().estimate_edge(q));
        }
    }

    #[test]
    fn localized_writes_keep_unrelated_answers_resident() {
        use crate::EdgeSink;
        let s = stream(2_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        // Two queries in different domains (partition vs outlier).
        let part_q = s[0].edge;
        let out_q = Edge::new(900_000u32, 1u32);
        assert_ne!(gs.write_domain(part_q.src), gs.write_domain(out_q.src));
        let mut engine = ReplayEngine::new(gs);
        let mut out = Vec::new();
        engine.estimate_edges(&[part_q, out_q], &mut out);
        // A write localized to the outlier domain must not evict the
        // partition-domain answer.
        engine.update(StreamEdge::weighted(out_q, 0, 3));
        let hits_before = engine.stats().hits;
        engine.estimate_edges(&[part_q], &mut out);
        assert_eq!(engine.stats().hits, hits_before + 1, "resident answer lost");
        // And the invalidated domain re-answers correctly.
        engine.estimate_edges(&[out_q], &mut out);
        assert_eq!(out[0], engine.inner().estimate_edge(out_q));
    }

    #[test]
    fn invalidate_all_is_total() {
        let s = stream(1_000);
        let mut gs = build(&s);
        {
            use crate::EdgeSink;
            gs.ingest(&s);
        }
        let queries: Vec<Edge> = s.iter().step_by(3).map(|se| se.edge).collect();
        let mut engine = ReplayEngine::new(gs);
        let mut out = Vec::new();
        engine.estimate_edges(&queries, &mut out);
        engine.invalidate_all();
        let misses_before = engine.stats().misses;
        engine.estimate_edges(&queries, &mut out);
        // Every distinct edge must re-derive from the synopsis (repeat
        // occurrences within the batch dedupe onto the first miss).
        let distinct: std::collections::HashSet<Edge> = queries.iter().copied().collect();
        assert_eq!(
            engine.stats().misses - misses_before,
            distinct.len() as u64,
            "every distinct answer must re-derive after a total invalidation"
        );
    }

    #[test]
    fn single_domain_deployments_use_whole_cache_invalidation() {
        use crate::EdgeSink;
        let s = stream(1_000);
        let mut gl = GlobalSketch::new(1 << 12, 3, 9).unwrap();
        gl.ingest(&s);
        assert_eq!(gl.write_domains(), 1);
        let queries: Vec<Edge> = s.iter().step_by(4).map(|se| se.edge).collect();
        let mut engine = ReplayEngine::with_capacity(gl, 1 << 10);
        let mut out = Vec::new();
        engine.estimate_edges(&queries, &mut out);
        engine.update(StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 5));
        engine.estimate_edges(&queries, &mut out);
        for (&q, &v) in queries.iter().zip(&out) {
            assert_eq!(v, engine.inner().estimate_edge(q));
        }
    }

    /// Scalar writes and queries in every interleaving: an 8-write
    /// script against an 8-query script over three edges, each of the
    /// C(16,8) orders enumerated by the mask of write positions. A
    /// memoized answer must equal the uncached oracle at every query —
    /// a cached answer is never served across a write.
    #[test]
    fn scalar_interleavings_never_serve_stale_answers() {
        use crate::EdgeSink;
        let e = [Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)];
        let writes = [e[0], e[1], e[0], e[2], e[1], e[0], e[2], e[2]];
        let queries = [e[0], e[1], e[2], e[0], e[1], e[2], e[0], e[1]];
        let fresh = || GlobalSketch::new(2048, 2, 5).unwrap();
        let mut interleavings = 0u32;
        for mask in 0u32..1 << 16 {
            if mask.count_ones() != 8 {
                continue;
            }
            interleavings += 1;
            let mut eng = ReplayEngine::with_capacity(fresh(), 16);
            let mut oracle = fresh();
            let (mut wi, mut qi) = (0, 0);
            for step in 0..16 {
                if mask >> step & 1 == 1 {
                    eng.update(StreamEdge::unit(writes[wi], 0));
                    oracle.update(StreamEdge::unit(writes[wi], 0));
                    wi += 1;
                } else {
                    let got = eng.estimate_edge(queries[qi]);
                    assert_eq!(got, oracle.estimate(queries[qi]), "mask {mask:#06x}");
                    qi += 1;
                }
            }
        }
        assert_eq!(interleavings, 12870, "C(16,8) interleavings");
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

    /// Tiny capacities exercise eviction: correctness must not depend on
    /// residency.
    #[test]
    fn tiny_memo_still_answers_exactly() {
        use crate::EdgeSink;
        let s = stream(4_000);
        let mut gs = build(&s);
        gs.ingest(&s);
        let queries: Vec<Edge> = s.iter().map(|se| se.edge).collect();
        let mut bare = Vec::new();
        gs.estimate_edges(&queries, &mut bare);
        let mut engine = ReplayEngine::with_capacity(gs, 4);
        let mut cached = Vec::new();
        engine.estimate_edges(&queries, &mut cached);
        engine.estimate_edges(&queries, &mut cached);
        assert_eq!(cached, bare);
    }

    /// The fan-out hook: an engine fronting a *borrowed* deployment can
    /// answer its miss batches through a `ParallelQuery` pool over the
    /// same borrow — the CLI's replay shape — and stays bit-identical.
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
        assert!(engine.stats().hits >= queries.len() as u64 / 2);
    }

    /// Miss batches can also ride the **slot-routed** fan-out: the owner
    /// of each router slot answers the misses landing in its slot range
    /// (the read half of the owner-sharded engine, DESIGN.md §11) —
    /// bit-identical to the uncached sequential batch.
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
        assert!(engine.stats().hits >= queries.len() as u64 / 2);
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
