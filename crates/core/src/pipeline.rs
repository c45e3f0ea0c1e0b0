//! The combining one-owner ingest engine (DESIGN.md §11).
//!
//! [`ShardedIngest`] borrows a [`GSketch`] mutably and runs three stages
//! on the calling thread between a materialized stream and its arena and
//! pre-filter:
//!
//! 1. **Hot-key combining.** Arrivals fold through a 4-way
//!    set-associative combiner cache tagged by the raw `(src, dst)`
//!    endpoint pair (one 64-byte set per probe, heaviest-stays eviction,
//!    software-prefetched a few arrivals ahead, about one set per eight
//!    arrivals of the run up to 4 MiB). The Zipf head of a real graph
//!    stream hits the cache over and over, accumulating one weight
//!    instead of issuing one synopsis update per arrival; the router
//!    probe and the 64-bit sketch-key mix happen only when an entry
//!    leaves the cache, so hot edges pay them once, not once per arrival.
//! 2. **Slot sort.** Evicted and drained cache entries — one per
//!    distinct key per cache residency — are routed in one batched pass
//!    and counting-sorted by destination slot.
//! 3. **Span commit.** Each slot run is committed through
//!    [`BlockedBloom::insert_run`](sketch::BlockedBloom::insert_run) and
//!    [`CmArena::add_batch_saturating`](sketch::CmArena::add_batch_saturating),
//!    the kernels of the flat write: adjacent duplicates coalesced, the
//!    per-key field fold hoisted out of the row loop, fastmod range
//!    reduction, block prefetch, and the slot's total written once per
//!    run.
//!
//! Saturating addition is associative, so the result is bit-identical
//! to a sequential ingest of the same stream for any chunking (pinned by
//! `backend_parity`'s sharded parity proptest). The engine has one
//! owner: an owner-sharded variant (scatter thread, per-owner channels
//! and slab slices) never beat it on a 2-vCPU host and was removed
//! (DESIGN.md §11).

use crate::gsketch::GSketch;
use gstream::edge::StreamEdge;
use sketch::prefetch;

/// Arrivals per chunk. The combiner cache carries duplicate state
/// *across* chunks, so this only sets how often the engine checks
/// whether its evicted list is due for a commit.
pub const DEFAULT_CHUNK: usize = 1 << 15;

/// Cap on log2 of the combiner sets: 2^16 sets × 4 ways × 16 B =
/// 4 MiB — sized so the Zipf head plus most of the
/// warm tail of a multi-million-arrival stream stays resident (the sweep
/// on the R-MAT traffic bench plateaus here; see
/// `benches/parallel_ingest.rs`). Shorter runs get fewer sets
/// ([`set_bits`]), so a short run does not pay to fill and drain 4 MiB.
const SET_BITS: u32 = 16;

/// Floor on log2 of the combiner sets: 2^8 sets (16 KiB).
const MIN_SET_BITS: u32 = 8;

/// log2 of the combiner sets for a run of `len` arrivals: about `len / 8`
/// sets (`bit_length(len) − 3`), clamped to `[MIN_SET_BITS, SET_BITS]`.
/// Allocating, filling and draining the sets is a fixed cost per run;
/// this keeps it proportional to the run (set counts of about `len / 4`
/// and `len / 32` measured the same on `windowed-restart`), while every
/// run of 2^18 arrivals or more gets the full cap.
fn set_bits(len: usize) -> u32 {
    (usize::BITS - len.leading_zeros())
        .saturating_sub(3)
        .clamp(MIN_SET_BITS, SET_BITS)
}

/// How many arrivals ahead the absorb loop prefetches its combiner set.
const PREFETCH_AHEAD: usize = 12;

/// What an ingest run absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Stream arrivals absorbed.
    pub arrivals: u64,
    /// Chunks the stream was cut into: one per [`DEFAULT_CHUNK`]
    /// arrivals, the last one possibly short.
    pub chunks: u64,
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

/// One 4-way combiner set, exactly one cache line: four pair tags
/// and four **64-bit** accumulators. Ways are tagged by the raw
/// `(src, dst)` endpoint pair — exact equality, no hashing — and
/// `weights[j] == 0` marks way `j` free (zero-weight arrivals are
/// identities and are dropped at the door), so a probe is one line
/// fill, four compares. No slot is cached per way (the engine re-routes
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

/// Commit the evicted-entry list once it reaches this length.
/// The commit counting-sorts by slot, and longer batches mean longer
/// per-slot runs — better span-walk amortization per slot commit
/// (measured on the ingest bench: 32 Ki batches shave several percent
/// over 8 Ki).
const SHARD_COMMIT_LEN: usize = 1 << 15;

/// The combiner state of one [`ShardedIngest`] run: a slot-less 4-way
/// cache ([`OwnerSet`]) plus the deferred-routing commit scratch.
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
    /// A worker for a run of `run_len` arrivals (sizes the combiner; see
    /// [`set_bits`]) over a synopsis of `n_slots` slots.
    fn new(n_slots: usize, run_len: usize) -> Self {
        let bits = set_bits(run_len);
        let staged = run_len.min(SHARD_COMMIT_LEN + DEFAULT_CHUNK);
        Self {
            sets: vec![EMPTY_OWNER_SET; 1 << bits].into_boxed_slice(),
            shift: 64 - bits,
            evicted: Vec::with_capacity(staged),
            slots: Vec::with_capacity(staged),
            counts: vec![0; n_slots],
            cursors: Vec::with_capacity(n_slots),
            runs: Vec::new(),
        }
    }

    /// Absorb one stream chunk with prefetch lookahead.
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

    /// Route, counting-sort and commit the evicted list: one batched
    /// routing pass fills `slots`, then each slot run is committed into
    /// the sketch.
    ///
    /// The router's slots contractually stay below the slot count (the
    /// scratch arrays' length); the scatter indices are `get`-guarded
    /// anyway so the commit span carries no panic edge in the compiled
    /// artifact (`xtask audit` — a rogue slot drops its entries rather
    /// than panicking).
    // audit: kernel(bounds-free)
    fn commit_evicted(&mut self, sketch: &mut GSketch) {
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
        let router = sketch.router();
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
                sketch.commit_run(slot as u32, run);
            }
            start = end;
        }
        evicted.clear();
    }

    /// Evict every live cache entry and commit everything: after this,
    /// all absorbed arrivals are visible in the sketch. Kept out of line
    /// (it runs once per run) so the audit sees it apart from
    /// `run_slice`, whose allocations carry the standard library's panic
    /// paths.
    // audit: kernel(bounds-free)
    #[inline(never)]
    fn drain(&mut self, sketch: &mut GSketch) {
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
        self.commit_evicted(sketch);
    }
}

/// Fold one (non-zero-weight) arrival into the combiner. Hits
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

/// The combining one-owner ingest engine (DESIGN.md §11): the calling
/// thread absorbs the stream in place through a slot-less 4-way combiner
/// cache (`OwnerWorker`) and commits evicted entries into the borrowed
/// [`GSketch`], batched and sorted by slot. No thread is spawned. This
/// is the `sharded/1t` row of the ingest bench.
#[derive(Debug)]
pub struct ShardedIngest<'s> {
    sketch: &'s mut GSketch,
}

impl<'s> ShardedIngest<'s> {
    /// An engine committing into `sketch`; the exclusive borrow is held
    /// for the engine's lifetime. `_owners` is ignored: it exists only
    /// because the `perfbench` benchmark passes it (as
    /// [`ConcurrentGSketch`](crate::ConcurrentGSketch) exists only
    /// because it names that type).
    pub fn new(sketch: &'s mut GSketch, _owners: usize) -> Self {
        Self { sketch }
    }

    /// Ingest a materialized stream and return what was absorbed.
    pub fn run_slice(&mut self, stream: &[StreamEdge]) -> IngestReport {
        let mut worker = OwnerWorker::new(self.sketch.arena().num_slots(), stream.len());
        let mut chunks = 0u64;
        for chunk in stream.chunks(DEFAULT_CHUNK) {
            chunks += 1;
            worker.absorb_chunk(chunk);
            if worker.evicted.len() >= SHARD_COMMIT_LEN {
                worker.commit_evicted(self.sketch);
            }
        }
        worker.drain(self.sketch);
        IngestReport {
            arrivals: stream.len() as u64,
            chunks,
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

    /// A zero owner count is accepted (the argument is ignored) and the
    /// run absorbs every arrival.
    #[test]
    fn zero_threads_clamps_to_one() {
        let stream = skewed_stream(10);
        let mut c = build(&stream);
        assert_eq!(
            ShardedIngest::new(&mut c, 0).run_slice(&stream).arrivals,
            10
        );
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

    /// The engine commits exactly what the sequential ingest does, over
    /// a run of several chunks.
    #[test]
    fn sharded_single_owner_matches_sequential() {
        let len = 2 * DEFAULT_CHUNK as u64 + 20_000;
        let stream = skewed_stream(len);
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
        let report = ShardedIngest::new(&mut sharded, 1).run_slice(&stream);
        assert_eq!(report.arrivals, len);
        assert_eq!(report.chunks, 3);
        for se in &stream {
            assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }
        assert_eq!(sharded.total_weight(), serial.total_weight());
    }

    /// The combiner is sized to the run: every run length around the
    /// floor and past the cap commits exactly what a sequential
    /// `update` loop does, with weights near `u64::MAX` saturating alike
    /// and zero weights identities on both paths (no counter, no filter
    /// membership — the whole serialized state is compared).
    #[test]
    fn sized_combiner_matches_sequential_at_every_run_length() {
        assert_eq!(set_bits(0), MIN_SET_BITS);
        assert_eq!(set_bits(2047), MIN_SET_BITS);
        assert_eq!(set_bits(2048), MIN_SET_BITS + 1);
        assert_eq!(set_bits(1 << 18), SET_BITS);
        assert_eq!(set_bits(usize::MAX), SET_BITS);
        let above_cap = (1usize << (SET_BITS + 3)) + 1;
        let sample = skewed_stream(4_000);
        for len in [0usize, 1, 255, 256, 257, 2047, 2048, 2049, above_cap] {
            let stream: Vec<StreamEdge> = (0..len as u64)
                .map(|t| {
                    let e = Edge::new((t % 1_013) as u32, (t * 7 % 331) as u32);
                    let w = match t % 13 {
                        0 => 0,
                        1 => u64::MAX - t,
                        _ => t % 5 + 1,
                    };
                    StreamEdge::weighted(e, t, w)
                })
                .collect();
            let mut serial = build(&sample);
            serial.ingest(&stream);
            let mut fused = build(&sample);
            let report = ShardedIngest::new(&mut fused, 1).run_slice(&stream);
            assert_eq!(report.arrivals, len as u64);
            assert!(
                serde::Serialize::to_value(&fused) == serde::Serialize::to_value(&serial),
                "run of {len} arrivals diverged"
            );
        }
    }

    /// Zero-weight arrivals are identities and saturating weights commit
    /// exactly like the sequential saturating path; the ignored owner
    /// argument changes nothing.
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

        for owners in [0, usize::MAX] {
            let mut sharded = build_seq();
            ShardedIngest::new(&mut sharded, owners).run_slice(&spiced);
            for se in &spiced {
                assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
            }
        }
    }
}
