//! The owner-sharded ingest engine (DESIGN.md §11).
//!
//! [`ShardedIngest`] borrows a [`GSketch`] mutably and splits its
//! counter slab and pre-filter into one exclusive `&mut` share per owner
//! ([`CmArena::split_slots`](sketch::CmArena::split_slots)): each owner
//! of the [`OwnerMap`] gets the cells, totals and filter words of its
//! contiguous slot range, and the router is shared read-only. It then
//! runs four stages between a materialized stream and those shares:
//!
//! 1. **Scatter.** The calling thread routes each arrival once, to pick
//!    the owner of its router slot, and hands per-owner `(pair, weight)`
//!    batches over bounded SPSC queues.
//! 2. **Hot-key combining.** Each owner folds its batches through a
//!    4-way set-associative combiner cache tagged by the raw `(src, dst)`
//!    endpoint pair (one 64-byte set per probe, heaviest-stays eviction,
//!    software-prefetched a few arrivals ahead). The Zipf head of a real
//!    graph stream hits the cache over and over, accumulating one weight
//!    instead of issuing one synopsis update per arrival; the router
//!    probe and the 64-bit sketch-key mix happen only when an entry
//!    leaves the cache, so hot edges pay them once, not once per arrival.
//! 3. **Slot sort.** Evicted and drained cache entries — one per
//!    distinct key per cache residency — are routed in one batched pass
//!    and counting-sorted by destination slot.
//! 4. **Span commit.** Each slot run is committed into the owner's share
//!    through
//!    [`CmArenaSlice::add_batch_saturating`](sketch::CmArenaSlice::add_batch_saturating),
//!    the same kernel as the sequential
//!    [`add_batch_saturating`](sketch::CmArena::add_batch_saturating):
//!    adjacent duplicates coalesced, the per-key field fold hoisted out
//!    of the row loop, fastmod range reduction, block prefetch, and the
//!    slot's total written once per run.
//!
//! When the map clamps to one owner the engine fuses all four stages on
//! the calling thread (no scatter pass, no queue, no spawn). Owners
//! write disjoint slot ranges and saturating addition is associative,
//! so the result is bit-identical to a sequential ingest of the same
//! stream for any owner count and chunking (pinned by `backend_parity`'s
//! sharded parity proptest).
//!
//! **Worker-pool sizing.** Like every CPU-bound pool (rayon, TBB), the
//! engine treats the requested owner count as an *upper bound* and
//! clamps it to the machine's available parallelism: oversubscribing a
//! single core with N compute-bound workers buys nothing and costs
//! context switches and per-worker cache dilution. Tests that need real
//! thread interleaving regardless of the host use
//! [`ShardedIngest::oversubscribe`].

use crate::gsketch::GSketch;
use crate::router::{OwnerMap, Router};
use crate::sink::SlotRouted;
use gstream::edge::StreamEdge;
use sketch::sync::spsc::SpscQueue;
use sketch::{prefetch, BlockedBloomSlice, CmArenaSlice};
// Scoped threads come through the `sync` shim seam (DESIGN.md §10);
// std items in normal builds.
use sketch::sync::thread;

/// Default arrivals per chunk. The combiner cache carries duplicate
/// state *across* chunks, so this only sets how often scatter hands
/// batches to the owners, not how much duplication a chunk can fold.
pub const DEFAULT_CHUNK: usize = 1 << 15;

/// log2 of the combiner sets per worker: 2^16 sets × 4 ways × 16 B =
/// 4 MiB per worker — sized so the Zipf head plus most of the warm tail
/// of a multi-million-arrival stream stays resident (the sweep on the
/// R-MAT traffic bench plateaus here; see `benches/parallel_ingest.rs`).
const SET_BITS: u32 = 16;

/// How many arrivals ahead the absorb loop prefetches its combiner set.
const PREFETCH_AHEAD: usize = 12;

/// Clamp a requested worker count to the host's available parallelism —
/// the rayon-style rule every CPU-bound pool in the workspace shares
/// (ingest's [`ShardedIngest`] and the query engine's
/// [`ParallelQuery`](crate::query::ParallelQuery), including its
/// slot-routed read path). Oversubscribing a
/// single core with N compute-bound workers buys nothing and costs
/// context switches; `oversubscribe` exists so correctness tests can
/// force real thread interleaving on small machines.
pub(crate) fn clamp_workers(requested: usize, oversubscribe: bool) -> usize {
    let requested = requested.max(1);
    if oversubscribe {
        requested
    } else {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        requested.min(cores)
    }
}

/// One owner's exclusive share of the synopsis: the counter cells,
/// totals and filter words of its [`OwnerMap`] slot range (see
/// `GSketch::split_owners`). Owners hold disjoint shares, so they
/// commit in parallel with plain stores.
#[derive(Debug)]
pub(crate) struct OwnerShare<'a> {
    pub(crate) cells: CmArenaSlice<'a>,
    pub(crate) filter: Option<BlockedBloomSlice<'a>>,
}

impl OwnerShare<'_> {
    /// Commit one slot run: filter membership, then counters — the same
    /// order and kernels as `GSketch::ingest_batch`. A slot outside the
    /// share is a no-op.
    #[inline]
    fn commit(&mut self, slot: u32, run: &[(u64, u64)]) {
        if let Some(f) = &mut self.filter {
            f.insert_run(slot, run);
        }
        self.cells.add_batch_saturating(slot, run);
    }
}

/// What an ingest run absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Stream arrivals absorbed.
    pub arrivals: u64,
    /// Chunks the stream was cut into: one per `chunk_capacity`
    /// arrivals, the last one possibly short.
    pub chunks: u64,
    /// Owners that committed: the requested count, clamped to the
    /// host's available parallelism (unless oversubscription was
    /// forced) and to the slot count. With one owner the calling thread
    /// commits and no thread is spawned.
    pub workers: usize,
}

/// The packed endpoint pair identifying an edge exactly.
#[inline]
fn edge_pair(se: &StreamEdge) -> u64 {
    (u64::from(se.edge.src.0) << 32) | u64::from(se.edge.dst.0)
}

/// Combiner set index for a pair: one Fibonacci multiply — the cache
/// only needs spread, not pairwise independence.
#[inline]
fn set_index(pair: u64, shift: u32) -> usize {
    // cast: u64 -> usize; `>> shift` leaves at most (64 - shift) bits,
    // the set-count bit width, so the index fits and is in range.
    ((pair ^ (pair >> 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// The sketch key of a cached pair (must agree with [`Edge::key`], which
/// the query side uses).
#[inline]
fn pair_key(pair: u64) -> u64 {
    sketch::hash::combine64(pair >> 32, pair & 0xFFFF_FFFF)
}

/// Batches the scatter stage hands an owner: `(pair, weight)` entries
/// whose router slot lies inside the owner's range. An **empty** batch
/// is the end-of-stream sentinel. Slots are *not* shipped: the owner
/// re-derives them from the shared read-only router at commit time,
/// batched (see [`OwnerWorker::commit_evicted`]), which keeps the
/// handoff at 16 bytes per entry and the absorb loop free of routing.
type OwnerBatch = Vec<(u64, u64)>;

/// Batches in flight per owner queue. Deep enough to keep an owner fed
/// across scatter's next chunk; shallow enough that backpressure kicks
/// in before batches pile up beyond the cache.
const OWNER_QUEUE_DEPTH: usize = 8;

/// Spin until `item` fits in the bounded queue (the scatter side of the
/// backpressure protocol; yields so an oversubscribed host makes
/// progress).
fn push_spin<T>(queue: &SpscQueue<T>, mut item: T) {
    loop {
        match queue.try_push(item) {
            Ok(()) => return,
            Err(back) => {
                item = back;
                std::thread::yield_now();
            }
        }
    }
}

/// One 4-way owner-combiner set, exactly one cache line: four pair tags
/// and four **64-bit** accumulators. Ways are tagged by the raw
/// `(src, dst)` endpoint pair — exact equality, no hashing — and
/// `weights[j] == 0` marks way `j` free (zero-weight arrivals are
/// identities and are dropped at the door), so a probe is one line
/// fill, four compares. No slot is cached per way (the owner re-routes
/// at commit time, batched), which leaves room for full-width weights —
/// so the hit path is a plain `saturating_add` with **no overflow flush
/// and no out-of-band heavy-weight path**: saturating addition is
/// associative, so pre-summing arrivals in a u64 accumulator commits
/// the same counter values as adding them one by one.
#[repr(align(64))]
#[derive(Clone, Copy)]
struct OwnerSet {
    pairs: [u64; 4],
    weights: [u64; 4],
}

const EMPTY_OWNER_SET: OwnerSet = OwnerSet {
    pairs: [0; 4],
    weights: [0; 4],
};

/// Commit the owner's evicted-entry list once it reaches this length.
/// The commit counting-sorts by slot, and longer batches mean longer
/// per-slot runs — better span-walk amortization per slot commit
/// (measured on the ingest bench: 32 Ki batches shave several percent
/// over 8 Ki).
const SHARD_COMMIT_LEN: usize = 1 << 15;

/// Per-owner combiner state for [`ShardedIngest`]: a slot-less 4-way
/// cache ([`OwnerSet`]) plus the deferred-routing commit scratch.
/// Private to one owner thread — never shared, never locked.
///
/// The router never runs in the absorb loop: `OwnerWorker` absorbs raw
/// `(pair, weight)` entries and routes only at commit time, in one
/// batched pass over the evicted list (one probe per *committed* entry,
/// with the router's table hot in cache for the whole pass), instead of
/// threading a hash-map probe through every combiner miss.
struct OwnerWorker {
    sets: Box<[OwnerSet]>,
    /// `64 - log2(sets.len())`: the set-index shift.
    shift: u32,
    /// Evicted `(pair, weight)` entries awaiting a batched commit.
    evicted: Vec<(u64, u64)>,
    /// Slot of each evicted entry, filled by the commit's routing pass.
    slots: Vec<u32>,
    /// Counting-sort scratch, sized to the synopsis' slot count.
    counts: Vec<usize>,
    cursors: Vec<usize>,
    runs: Vec<(u64, u64)>,
}

impl OwnerWorker {
    fn new(n_slots: usize) -> Self {
        Self {
            sets: vec![EMPTY_OWNER_SET; 1 << SET_BITS].into_boxed_slice(),
            shift: 64 - SET_BITS,
            evicted: Vec::with_capacity(SHARD_COMMIT_LEN + DEFAULT_CHUNK),
            slots: Vec::with_capacity(SHARD_COMMIT_LEN + DEFAULT_CHUNK),
            counts: vec![0; n_slots],
            cursors: Vec::with_capacity(n_slots),
            runs: Vec::new(),
        }
    }

    /// Absorb one raw stream chunk with prefetch lookahead (the fused
    /// single-owner path: this thread is scatter and owner at once, so
    /// arrivals come straight from the stream).
    #[inline]
    fn absorb_chunk(&mut self, chunk: &[StreamEdge]) {
        // Split borrows once: `sets` and `evicted` are provably disjoint
        // buffers inside the loop, so the eviction push can't force the
        // set line to be re-read.
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        let shift = self.shift;
        for (i, se) in chunk.iter().enumerate() {
            if let Some(ahead) = chunk.get(i + PREFETCH_AHEAD) {
                prefetch(&sets[set_index(edge_pair(ahead), shift)]);
            }
            if se.weight == 0 {
                continue;
            }
            absorb_owner(sets, shift, evicted, edge_pair(se), se.weight);
        }
    }

    /// Absorb one scattered owner batch with prefetch lookahead (the
    /// owner-thread path; scatter already dropped zero weights).
    #[inline]
    fn absorb_batch(&mut self, batch: &[(u64, u64)]) {
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        let shift = self.shift;
        for (i, &(pair, weight)) in batch.iter().enumerate() {
            if let Some(&(ahead, _)) = batch.get(i + PREFETCH_AHEAD) {
                prefetch(&sets[set_index(ahead, shift)]);
            }
            absorb_owner(sets, shift, evicted, pair, weight);
        }
    }

    /// Route, counting-sort and commit the evicted list: one batched
    /// routing pass fills `slots`, then each slot run is committed into
    /// the owner's share (every pair this owner absorbed routes into its
    /// range).
    ///
    /// The router's slots contractually stay below the slot count (the
    /// scratch arrays' length); the scatter indices are `get`-guarded
    /// anyway so the commit span carries no panic edge in the compiled
    /// artifact (`xtask audit` — a rogue slot drops its entries rather
    /// than panicking).
    // audit: kernel(bounds-free)
    fn commit_evicted(&mut self, router: &Router, share: &mut OwnerShare<'_>) {
        // Destructure into disjoint field borrows so the scratch-array
        // writes below can't be assumed to alias each other.
        let Self {
            evicted,
            slots,
            counts,
            cursors,
            runs,
            ..
        } = self;
        if evicted.is_empty() {
            return;
        }
        counts.fill(0);
        slots.clear();
        for &(pair, _) in evicted.iter() {
            // cast: u64 -> u32; the high half of the packed pair is the
            // source vertex id, which is 32 bits by construction.
            let slot = router.slot(gstream::vertex::VertexId((pair >> 32) as u32));
            slots.push(slot);
            if let Some(c) = counts.get_mut(slot as usize) {
                *c += 1;
            }
        }
        cursors.clear();
        let mut acc = 0usize;
        for &c in counts.iter() {
            cursors.push(acc);
            acc += c;
        }
        runs.clear();
        runs.resize(evicted.len(), (0, 0));
        for (&(pair, weight), &slot) in evicted.iter().zip(slots.iter()) {
            let Some(at) = cursors.get_mut(slot as usize) else {
                continue;
            };
            // The sketch key is derived here — once per committed entry,
            // not once per arrival.
            if let Some(r) = runs.get_mut(*at) {
                *r = (pair_key(pair), weight);
            }
            *at += 1;
        }
        let mut start = 0usize;
        for (slot, &end) in cursors.iter().enumerate() {
            if end > start {
                let Some(run) = runs.get(start..end) else {
                    break;
                };
                // cast: usize -> u32; slot indices are bounded by the
                // slot count, which fits u32 (slot ids are u32).
                share.commit(slot as u32, run);
            }
            start = end;
        }
        evicted.clear();
    }

    /// Evict every live cache entry and commit everything: after this,
    /// all absorbed arrivals are visible in the share.
    // audit: kernel(bounds-free)
    fn drain(&mut self, router: &Router, share: &mut OwnerShare<'_>) {
        let sets = &mut self.sets;
        let evicted = &mut self.evicted;
        for set in sets.iter_mut() {
            for j in 0..4 {
                if set.weights[j] != 0 {
                    evicted.push((set.pairs[j], set.weights[j]));
                    set.weights[j] = 0;
                }
            }
        }
        self.commit_evicted(router, share);
    }
}

/// Fold one (non-zero-weight) arrival into an owner combiner. Hits
/// saturating-add into the resident line; misses displace the set's
/// lightest way — the heaviest (hottest) entries are the ones that
/// stay. No routing happens here; `sets` and `evicted` are passed as
/// separate borrows so the optimizer knows they don't alias.
#[inline]
fn absorb_owner(
    sets: &mut [OwnerSet],
    shift: u32,
    evicted: &mut Vec<(u64, u64)>,
    pair: u64,
    weight: u64,
) {
    let set = &mut sets[set_index(pair, shift)];
    let p = &set.pairs;
    let w = &set.weights;
    let hit_mask = u32::from(p[0] == pair && w[0] != 0)
        | u32::from(p[1] == pair && w[1] != 0) << 1
        | u32::from(p[2] == pair && w[2] != 0) << 2
        | u32::from(p[3] == pair && w[3] != 0) << 3;
    if hit_mask != 0 {
        let j = hit_mask.trailing_zeros() as usize;
        set.weights[j] = set.weights[j].saturating_add(weight);
        return;
    }
    let mut victim = 0usize;
    for j in 1..4 {
        victim = if set.weights[j] < set.weights[victim] {
            j
        } else {
            victim
        };
    }
    if set.weights[victim] != 0 {
        evicted.push((set.pairs[victim], set.weights[victim]));
    }
    set.pairs[victim] = pair;
    set.weights[victim] = weight;
}

impl std::fmt::Debug for OwnerWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OwnerWorker")
            .field("cache_entries", &(self.sets.len() * 4))
            .field("evicted", &self.evicted.len())
            .finish_non_exhaustive()
    }
}

/// The owner-sharded ingest engine (DESIGN.md §11): a scatter stage on
/// the calling thread routes each arrival once and hands per-owner
/// `(pair, weight)` batches over bounded SPSC queues to owning workers.
/// Each owner holds a **contiguous** slot range of the [`OwnerMap`] — an
/// exclusive `&mut` share of the counter slab and filter, split off the
/// borrowed [`GSketch`] — combines locally through its own slot-less
/// 4-way cache (`OwnerWorker`), and commits into its share with plain
/// stores. The `&mut GSketch` borrow held for the engine's lifetime
/// proves no outside writer exists, and the disjoint `split_at_mut`
/// shares prove the owners don't race each other: the borrow checker
/// enforces the sole-writer contract.
///
/// With one effective owner there is no handoff at all: no scatter
/// pass, no queue, **no spawned thread** — the calling thread is the
/// owner, absorbing the stream in place and committing into the whole
/// slab. This is the `sharded/1t` configuration of the ingest bench.
#[derive(Debug)]
pub struct ShardedIngest<'s> {
    sketch: &'s mut GSketch,
    owners: usize,
    chunk_capacity: usize,
    oversubscribe: bool,
}

impl<'s> ShardedIngest<'s> {
    /// An engine committing into `sketch` from up to `owners` owning
    /// workers (clamped to the host's available parallelism and to the
    /// sketch's slot count — an owner without slots would idle). The
    /// exclusive borrow is held for the engine's lifetime; see the type
    /// docs.
    pub fn new(sketch: &'s mut GSketch, owners: usize) -> Self {
        Self {
            sketch,
            owners: owners.max(1),
            chunk_capacity: DEFAULT_CHUNK,
            oversubscribe: false,
        }
    }

    /// Override the arrivals scattered per chunk (clamped to at least 1).
    #[must_use]
    pub fn chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity.max(1);
        self
    }

    /// Spawn exactly the requested owner count even beyond the host's
    /// available parallelism. Oversubscription never helps a CPU-bound
    /// engine — this exists so correctness tests can force real thread
    /// interleaving on small machines.
    #[must_use]
    pub fn oversubscribe(mut self, on: bool) -> Self {
        self.oversubscribe = on;
        self
    }

    /// Requested owner count (upper bound).
    pub fn owners(&self) -> usize {
        self.owners
    }

    /// The ownership map a run will use: requested owners, clamped to
    /// the host (unless oversubscribed) and to the slot count.
    pub fn owner_map(&self) -> OwnerMap {
        OwnerMap::new(
            self.sketch.num_slots(),
            clamp_workers(self.owners, self.oversubscribe),
        )
    }

    /// Owner threads a run will actually use.
    pub fn effective_owners(&self) -> usize {
        self.owner_map().owners()
    }

    /// Ingest a materialized stream and return what was absorbed
    /// (`workers` reports the effective owner count). For a
    /// generator-backed source, materialize the stream first — scatter
    /// reads it exactly once, in order.
    pub fn run_slice(&mut self, stream: &[StreamEdge]) -> IngestReport {
        let map = self.owner_map();
        let n_slots = map.num_slots();
        let cap = self.chunk_capacity;
        let (router, mut shares) = self.sketch.split_owners(&map);
        let workers = shares.len();
        let mut chunks = 0u64;
        if let [share] = shares.as_mut_slice() {
            // Fused path: the calling thread is the sole owner — no
            // scatter pass, no queue, no spawn (see the type docs).
            let mut worker = OwnerWorker::new(n_slots);
            for chunk in stream.chunks(cap) {
                chunks += 1;
                worker.absorb_chunk(chunk);
                if worker.evicted.len() >= SHARD_COMMIT_LEN {
                    worker.commit_evicted(router, share);
                }
            }
            worker.drain(router, share);
            return IngestReport {
                arrivals: stream.len() as u64,
                chunks,
                workers,
            };
        }
        let queues: Vec<SpscQueue<OwnerBatch>> = (0..workers)
            .map(|_| SpscQueue::with_capacity(OWNER_QUEUE_DEPTH))
            .collect();
        thread::scope(|scope| {
            for (mut share, queue) in shares.into_iter().zip(&queues) {
                scope.spawn(move || {
                    let mut worker = OwnerWorker::new(n_slots);
                    loop {
                        match queue.try_pop() {
                            Some(batch) => {
                                if batch.is_empty() {
                                    break;
                                }
                                worker.absorb_batch(&batch);
                                if worker.evicted.len() >= SHARD_COMMIT_LEN {
                                    worker.commit_evicted(router, &mut share);
                                }
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    worker.drain(router, &mut share);
                });
            }
            // Scatter runs here, on the calling thread: the single
            // producer of every owner queue. Each arrival is routed
            // once, to pick its slot's owner; the slot itself stays
            // behind (owners re-route at commit time, batched).
            let mut batches: Vec<OwnerBatch> = vec![OwnerBatch::new(); workers];
            for chunk in stream.chunks(cap) {
                chunks += 1;
                for se in chunk {
                    if se.weight == 0 {
                        continue;
                    }
                    let slot = router.slot(se.edge.src);
                    // cast: u32 -> usize is widening on every supported
                    // target; owner ids are < owners = batches.len().
                    batches[map.owner_of(slot) as usize].push((edge_pair(se), se.weight));
                }
                for (w, batch) in batches.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        push_spin(&queues[w], std::mem::take(batch));
                    }
                }
            }
            for queue in &queues {
                push_spin(queue, OwnerBatch::new());
            }
        });
        IngestReport {
            arrivals: stream.len() as u64,
            chunks,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EdgeSink;
    use gstream::edge::Edge;

    fn skewed_stream(n: u64) -> Vec<StreamEdge> {
        // A Zipf-ish head plus a long tail, so the combiner cache sees
        // both hits and evictions.
        (0..n)
            .map(|t| {
                let src = if t % 3 == 0 { 1 } else { (t % 97) as u32 };
                StreamEdge::unit(Edge::new(src, (t % 11) as u32 + 100), t)
            })
            .collect()
    }

    fn build(stream: &[StreamEdge]) -> GSketch {
        GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(32)
            .seed(3)
            .build_from_sample(&stream[..stream.len() / 4])
            .unwrap()
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let stream = skewed_stream(10);
        let mut c = build(&stream);
        let mut engine = ShardedIngest::new(&mut c, 0);
        assert_eq!(engine.owners(), 1);
        assert_eq!(engine.effective_owners(), 1);
        assert_eq!(engine.run_slice(&stream).workers, 1);
        assert_eq!(c.total_weight(), 10);
    }

    /// Zero-weight arrivals are identities; weights beyond `u32::MAX`,
    /// alone or summed in one combiner way, commit in full.
    #[test]
    fn weighted_and_zero_weight_arrivals_handled() {
        let stream = skewed_stream(200);
        let mut c = build(&stream);
        let e = stream[0].edge;
        let arrivals = [
            StreamEdge::weighted(e, 0, 0),
            StreamEdge::weighted(e, 0, u64::from(u32::MAX) + 5),
            StreamEdge::weighted(e, 0, u64::from(u32::MAX)),
            StreamEdge::weighted(e, 0, 3),
        ];
        ShardedIngest::new(&mut c, 1).run_slice(&arrivals);
        let total = u64::from(u32::MAX) + 5 + u64::from(u32::MAX) + 3;
        assert_eq!(c.total_weight(), total);
        assert!(c.estimate(e) >= total);
    }

    /// The fused single-owner path (calling thread, no scatter, no
    /// queue) commits exactly what the sequential ingest does.
    #[test]
    fn sharded_single_owner_matches_sequential() {
        let stream = skewed_stream(20_000);
        let sample = &stream[..2_000];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(7)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        let mut sharded = build_seq();
        let report = ShardedIngest::new(&mut sharded, 1)
            .chunk_capacity(1 << 10)
            .run_slice(&stream);
        assert_eq!(report.arrivals, 20_000);
        assert_eq!(report.workers, 1);
        assert_eq!(report.chunks, 20_000u64.div_ceil(1 << 10));
        for se in &stream {
            assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }
        assert_eq!(sharded.total_weight(), serial.total_weight());
    }

    /// Multi-owner runs (scatter → SPSC handoff → exclusive owner
    /// commits) stay bit-identical to sequential ingest for any owner
    /// count, including more owners than the host has cores.
    #[test]
    fn sharded_multi_owner_matches_sequential() {
        let stream = skewed_stream(20_000);
        let sample = &stream[..2_000];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(32)
                .seed(7)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&stream);

        for owners in [2usize, 4, 7] {
            let mut sharded = build_seq();
            let engine = ShardedIngest::new(&mut sharded, owners).oversubscribe(true);
            assert_eq!(engine.owners(), owners);
            let report = engine.chunk_capacity(1 << 9).run_slice(&stream);
            assert_eq!(report.arrivals, 20_000);
            assert_eq!(report.chunks, 20_000u64.div_ceil(1 << 9));
            assert!(report.workers >= 2, "{owners} owners clamped to one");
            for se in &stream {
                assert_eq!(
                    sharded.estimate(se.edge),
                    serial.estimate(se.edge),
                    "{owners} owners"
                );
            }
            assert_eq!(sharded.total_weight(), serial.total_weight());
        }
    }

    /// Requesting more owners than the sketch has slots clamps to the
    /// slot count; zero owners clamps to one; zero-weight arrivals are
    /// identities; saturating weights commit exactly like the
    /// sequential saturating path.
    #[test]
    fn sharded_edge_cases_match_sequential() {
        let stream = skewed_stream(500);
        let e = stream[0].edge;
        let mut spiced = stream.clone();
        spiced.push(StreamEdge::weighted(e, 500, 0)); // identity
        spiced.push(StreamEdge::weighted(e, 501, u64::MAX / 2));
        spiced.push(StreamEdge::weighted(e, 502, u64::MAX / 2)); // saturates
        let sample = &stream[..100];
        let build_seq = || {
            GSketch::builder()
                .memory_bytes(1 << 15)
                .min_width(16)
                .seed(5)
                .build_from_sample(sample)
                .unwrap()
        };
        let mut serial = build_seq();
        serial.ingest(&spiced);

        let mut sharded = build_seq();
        let mut engine = ShardedIngest::new(&mut sharded, 0);
        assert_eq!(engine.owners(), 1);
        engine.run_slice(&spiced);
        for se in &spiced {
            assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }

        let mut c2 = build_seq();
        let engine = ShardedIngest::new(&mut c2, usize::MAX).oversubscribe(true);
        let n_slots = engine.owner_map().num_slots();
        assert!(engine.effective_owners() <= n_slots);
    }
}
