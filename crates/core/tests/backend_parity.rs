//! Property tests pinning the arena's central invariant: a `GSketch`'s
//! contiguous counter slab ([`gsketch::CmArena`]) is *observationally
//! identical* to an independent reference — one standalone
//! [`CountMinSketch`] per slot, of the built sketch's slot widths, the
//! builder's depth and seed, routed by the sketch's own router. For any
//! stream and any seed, every estimate, total, route and load agrees bit
//! for bit (DESIGN.md §2): the arena shares one per-row hash family
//! seeded from the builder seed, so slot `i` holds exactly the cells
//! slot `i`'s standalone sketch would hold. The remaining properties pin
//! every batched, sharded and deduplicated path against the scalar
//! sequential one.

use gsketch::{
    save_windowed, AdaptiveConfig, AdaptiveGSketch, EdgeEstimator, EdgeSink, GSketch,
    GSketchBuilder, ReplayEngine, ShardedIngest, SketchId, WindowConfig, WindowedGSketch,
    FANOUT_MIN,
};
use gstream::edge::{Edge, StreamEdge};
use proptest::collection::vec;
use proptest::prelude::*;
use sketch::{CmArena, CountMinSketch, UpdatePolicy};

/// A raw (src, dst, weight) arrival.
type Arrival = (u32, u32, u8);

fn stream_of(arrivals: &[Arrival]) -> Vec<StreamEdge> {
    arrivals
        .iter()
        .enumerate()
        .map(|(t, &(s, d, w))| StreamEdge::weighted(Edge::new(s, d), t as u64, u64::from(w) + 1))
        .collect()
}

/// A windowed arrival: (src, dst, weight, gap selector). Zero weights
/// are kept (identities on every ingest path).
type TimedArrival = (u32, u32, u8, u8);

/// Timestamps advance by the gap selector: 0 or 1 (same or next tick),
/// a window and a bit, or a jump of many windows; with `at_max` the
/// last quarter of the stream is moved to the top of the timestamp
/// domain, so its final window abuts `u64::MAX` and never rotates.
fn timed_stream_of(arrivals: &[TimedArrival], span: u64, at_max: bool) -> Vec<StreamEdge> {
    let mut ts = 0u64;
    let mut stream: Vec<StreamEdge> = arrivals
        .iter()
        .map(|&(s, d, w, g)| {
            ts += match g % 4 {
                0 => 0,
                1 => 1,
                2 => span + 1,
                _ => span * 50 + 3,
            };
            StreamEdge::weighted(Edge::new(s, d), ts, u64::from(w))
        })
        .collect();
    if at_max {
        let from = stream.len() - stream.len() / 4;
        let n = (stream.len() - from) as u64;
        for (i, se) in stream[from..].iter_mut().enumerate() {
            se.ts = u64::MAX - n + 1 + i as u64;
        }
    }
    stream
}

/// The bytes `save_windowed` writes for `w` (a fresh file, not an
/// append).
fn windowed_bytes(w: &WindowedGSketch, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "gsketch_backend_parity_{tag}_{}.wsnap",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    save_windowed(&path, w).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn builder(memory: usize, depth: usize, seed: u64) -> GSketchBuilder {
    GSketch::builder()
        .memory_bytes(memory)
        .depth(depth)
        .min_width(16)
        .seed(seed)
}

/// Deterministic Fisher–Yates driven by an LCG, so query order is
/// proptest-controlled without depending on a shuffle strategy.
fn shuffle_edges(edges: &mut [Edge], seed: u64) {
    let mut x = seed | 1;
    for i in (1..edges.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((x >> 33) as usize) % (i + 1);
        edges.swap(i, j);
    }
}

/// Both batched surfaces must answer exactly like their scalar
/// counterparts, element for element.
fn assert_batch_parity<E: EdgeEstimator>(est: &E, queries: &[Edge]) {
    let mut ints = Vec::new();
    est.estimate_edges(queries, &mut ints);
    assert_eq!(ints.len(), queries.len());
    for (&q, &v) in queries.iter().zip(&ints) {
        assert_eq!(v, est.estimate_edge(q), "integer surface diverged on {q}");
    }
    let mut fracs = Vec::new();
    est.estimate_edges_f64(queries, &mut fracs);
    assert_eq!(fracs.len(), queries.len());
    for (&q, &v) in queries.iter().zip(&fracs) {
        assert_eq!(
            v.to_bits(),
            est.estimate_edge_f64(q).to_bits(),
            "fractional surface diverged on {q}"
        );
    }
}

/// The reference layout: one standalone `CountMinSketch` per slot of
/// `gs`, with the slot widths read from the built sketch and the depth
/// and seed of its builder. Arrivals route through `gs`'s router.
struct PerSlotModel {
    slots: Vec<CountMinSketch>,
}

impl PerSlotModel {
    fn of(gs: &GSketch, depth: usize, seed: u64) -> Self {
        let arena = gs.arena();
        let slots = (0..arena.num_slots() as u32)
            .map(|s| CountMinSketch::new(arena.slot_width(s), depth, seed).unwrap())
            .collect();
        Self { slots }
    }

    /// The slot `gs` routes `e` to: partition `i` is slot `i`, and the
    /// outlier is the last slot.
    fn slot(gs: &GSketch, e: Edge) -> usize {
        match gs.route(e) {
            SketchId::Partition(i) => i as usize,
            SketchId::Outlier => gs.num_partitions(),
        }
    }

    fn update(&mut self, gs: &GSketch, se: StreamEdge) {
        self.slots[Self::slot(gs, se.edge)].update(se.edge.key(), se.weight);
    }

    fn estimate(&self, gs: &GSketch, e: Edge) -> u64 {
        self.slots[Self::slot(gs, e)].estimate(e.key())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any stream and seed, a `GSketch` returns bit-identical
    /// estimates (and routes, totals, loads) to the per-slot CountMin
    /// model. The sketch is built without the pre-filter so raw counters
    /// are compared, absent probes included; the filter's own contract
    /// is pinned by `tests/prefilter.rs`.
    #[test]
    fn arena_estimates_match_per_partition_layout(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..120),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 0..120),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let stream: Vec<StreamEdge> =
            sample.iter().chain(&stream_of(&tail)).copied().collect();

        let mut gs = builder(1 << 13, depth, seed)
            .prefilter(false)
            .build_from_sample(&sample)
            .unwrap();
        let mut model = PerSlotModel::of(&gs, depth, seed);

        prop_assert_eq!(model.slots.len(), gs.num_partitions() + 1);
        prop_assert_eq!(
            gs.bytes(),
            model.slots.iter().map(CountMinSketch::bytes).sum::<usize>()
        );

        gs.ingest(&stream);
        for se in &stream {
            model.update(&gs, *se);
        }

        for se in &stream {
            prop_assert_eq!(gs.estimate(se.edge), model.estimate(&gs, se.edge));
        }
        // Also probe edges that never arrived (pure collision noise must
        // agree too — same hash family, same cells).
        for v in 0..60u32 {
            let e = Edge::new(v, 999u32);
            prop_assert_eq!(gs.estimate(e), model.estimate(&gs, e));
        }
        let (outlier, partitions) = model.slots.split_last().unwrap();
        prop_assert_eq!(
            gs.total_weight(),
            model.slots.iter().map(CountMinSketch::total).sum::<u64>()
        );
        prop_assert_eq!(gs.outlier_weight(), outlier.total());
        let loads: Vec<(usize, u64)> = partitions.iter().map(|cm| (cm.width(), cm.total())).collect();
        prop_assert_eq!(gs.partition_loads(), loads);
    }

    /// The Global baseline is a gSketch with zero partitions:
    /// `GSketch::global(m, d, s)` answers bit for bit like the reference
    /// `CountMinSketch` of width `m / 8 / d`, depth `d` and seed `s` —
    /// estimates (absent probes included), bytes, total weight, error
    /// bound and confidence.
    #[test]
    fn global_matches_reference_countmin(
        arrivals in vec((0u32..60, 0u32..60, 0u8..8), 0..200),
        memory in 256usize..(1 << 14),
        depth in 1usize..5,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&arrivals);
        let mut global = GSketch::global(memory, depth, seed).unwrap();
        let mut cm = CountMinSketch::new(memory / 8 / depth, depth, seed).unwrap();
        prop_assert_eq!(global.num_partitions(), 0);
        prop_assert_eq!(global.bytes(), cm.bytes());

        global.ingest(&stream);
        for se in &stream {
            cm.update(se.edge.key(), se.weight);
        }
        for v in 0..60u32 {
            for e in [Edge::new(v, v), Edge::new(v, 999u32)] {
                let detailed = global.estimate_detailed(e);
                prop_assert_eq!(detailed.value, cm.estimate(e.key()));
                prop_assert_eq!(detailed.error_bound.to_bits(), cm.error_bound().to_bits());
                prop_assert_eq!(detailed.confidence.to_bits(), cm.confidence().to_bits());
            }
        }
        for se in &stream {
            prop_assert_eq!(global.estimate(se.edge), cm.estimate(se.edge.key()));
        }
        prop_assert_eq!(global.total_weight(), cm.total());
    }

    /// `CmArena::update_slot_conservative` answers bit for bit like the
    /// reference `CountMinSketch` under `UpdatePolicy::Conservative`, in
    /// every slot; zero and near-`u64::MAX` weights included.
    #[test]
    fn arena_conservative_update_matches_reference(
        updates in vec((0u64..200, 0u16..1000, 0u8..8), 0..300),
        widths in (1usize..64, 1usize..64),
        depth in 1usize..5,
        seed in any::<u64>(),
    ) {
        let widths = [widths.0, widths.1];
        let mut arena = CmArena::with_slots(&widths, depth, seed).unwrap();
        let mut reference = widths.map(|w| {
            CountMinSketch::new(w, depth, seed)
                .unwrap()
                .with_policy(UpdatePolicy::Conservative)
        });
        for &(key, w, heavy) in &updates {
            let weight = match heavy {
                0 => u64::MAX - u64::from(w),
                1 => u64::MAX / 2 + u64::from(w),
                _ => u64::from(w),
            };
            let slot = (key % 2) as u32;
            arena.update_slot_conservative(slot, key, weight);
            reference[slot as usize].update(key, weight);
        }
        for (slot, cm) in reference.iter().enumerate() {
            let slot = slot as u32;
            prop_assert_eq!(arena.slot_total(slot), cm.total());
            for key in 0..400u64 {
                prop_assert_eq!(arena.estimate_slot(slot, key), cm.estimate(key));
            }
        }
    }

    /// Batched ingest is estimate-identical to streaming ingest
    /// (counting-sort grouping must not reorder *within* a slot's
    /// saturating adds in any observable way).
    #[test]
    fn batched_ingest_matches_streaming(
        sample in vec((0u32..30, 0u32..30, 0u8..8), 1..80),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&sample);
        let mut streaming = builder(1 << 12, depth, seed)
            .build_from_sample(&stream)
            .unwrap();
        let mut batched = streaming.clone();
        streaming.ingest(&stream);
        batched.ingest_batch(&stream);
        for se in &stream {
            prop_assert_eq!(batched.estimate(se.edge), streaming.estimate(se.edge));
        }
        prop_assert_eq!(batched.total_weight(), streaming.total_weight());
    }

    /// The batched query engine is observationally identical to the
    /// scalar loop on **every estimator** — for any
    /// stream, seed, and query batch, including duplicate keys (each
    /// query repeated `dup` times) and shuffled order. This pins the
    /// whole read path: the chunked in-order gather, the arena's gather
    /// kernel (fold hoisting, fastmod, prefetch blocks), the one-slot
    /// batched kernel (duplicate coalescing), and the provided defaults
    /// all answer bit
    /// for bit what `estimate_edge` answers.
    #[test]
    fn batched_queries_match_scalar_queries(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..80),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 0..120),
        dup in 1usize..4,
        shuffle_seed in any::<u64>(),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let stream: Vec<StreamEdge> =
            sample.iter().chain(&stream_of(&tail)).copied().collect();
        // Duplicate every stream edge `dup` times, add absent probes,
        // and shuffle, so runs of equal keys appear both adjacent (the
        // coalescing path) and scattered.
        let mut queries: Vec<Edge> = Vec::new();
        for se in &stream {
            for _ in 0..dup {
                queries.push(se.edge);
            }
        }
        for v in 0..20u32 {
            queries.push(Edge::new(v, 777u32));
        }
        shuffle_edges(&mut queries, shuffle_seed);

        // GSketch, with the pre-filter read and without a filter.
        for prefilter in [true, false] {
            let mut gs = builder(1 << 13, depth, seed)
                .prefilter(prefilter)
                .build_from_sample(&sample)
                .unwrap();
            gs.ingest(&stream);
            assert_batch_parity(&gs, &queries);
            // A batch long enough to fan out over the host's cores,
            // through the public path, answers like the short one.
            let mut short = Vec::new();
            gs.estimate_edges(&queries, &mut short);
            let long: Vec<Edge> =
                queries.iter().cycle().take(FANOUT_MIN + 1).copied().collect();
            let mut fanned = Vec::new();
            gs.estimate_batch(&long, &mut fanned);
            prop_assert_eq!(fanned.len(), long.len());
            for (i, &v) in fanned.iter().enumerate() {
                prop_assert_eq!(v, short[i % short.len()], "query {}", i);
            }
        }

        // The global baseline.
        let mut global = GSketch::global(1 << 12, depth, seed).unwrap();
        global.ingest(&stream);
        assert_batch_parity(&global, &queries);

        // The windowed deployment (re-timestamped so windows rotate) —
        // its fractional surface must match `estimate_lifetime` to the
        // bit, with rounding applied once per edge on the integer path.
        let mut wstream = stream.clone();
        for (t, se) in wstream.iter_mut().enumerate() {
            se.ts = t as u64;
        }
        let mut windowed = WindowedGSketch::new(
            WindowConfig {
                span: 40,
                memory_bytes_per_window: 1 << 12,
                sample_capacity: 32,
                seed,
            },
            GSketch::builder().min_width(16).depth(depth),
        )
        .unwrap();
        windowed.ingest(&wstream);
        assert_batch_parity(&windowed, &queries);

        // The adaptive deployment, straddling its switchover.
        let mut adaptive = AdaptiveGSketch::new(AdaptiveConfig {
            memory_bytes: 1 << 13,
            warmup_arrivals: (stream.len() as u64 / 2).max(1),
            depth,
            min_width: 16,
            seed,
            ..AdaptiveConfig::default()
        })
        .unwrap();
        adaptive.ingest(&stream);
        assert_batch_parity(&adaptive, &queries);
    }

    /// The windowed deployment's batched interval surface is
    /// bit-identical to the scalar one for **any** interval — fully
    /// inside one window, straddling several (the overlapping case,
    /// where fractional extrapolation kicks in on both partial ends),
    /// and the open-ended `[t, u64::MAX]` form whose inclusive→exclusive
    /// conversion must saturate, not wrap. This pins the f64→rounded
    /// boundary PR 4 drew: fractional sums accumulate identically in
    /// window order on both paths, and the integer estimator surface
    /// rounds exactly once per edge on both paths.
    #[test]
    fn windowed_interval_batch_matches_scalar(
        arrivals in vec((0u32..30, 0u32..30, 0u8..8), 1..200),
        span in 5u64..60,
        t_a in 0u64..260,
        t_b in 0u64..260,
        open_start in 0u64..260,
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut windowed = WindowedGSketch::new(
            WindowConfig {
                span,
                memory_bytes_per_window: 1 << 12,
                sample_capacity: 32,
                seed,
            },
            GSketch::builder().min_width(16).depth(depth),
        )
        .unwrap();
        let stream = stream_of(&arrivals);
        windowed.ingest(&stream);

        let mut queries: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        for v in 0..10u32 {
            queries.push(Edge::new(v, 555u32)); // absent probes
        }
        let (t_start, t_end) = (t_a.min(t_b), t_a.max(t_b));
        let mut batch = Vec::new();
        for (ts, te) in [
            (t_start, t_end),
            (t_start, t_start),              // single instant
            (open_start, u64::MAX),          // open-ended
            (0, windowed.lifetime_end()),    // exact lifetime
        ] {
            windowed.estimate_interval_batch(&queries, ts, te, &mut batch);
            prop_assert_eq!(batch.len(), queries.len());
            for (&q, &b) in queries.iter().zip(&batch) {
                let s = windowed.estimate_interval(q, ts, te);
                prop_assert_eq!(s.to_bits(), b.to_bits(),
                    "interval [{}, {}] diverged on {}: scalar {} batched {}", ts, te, q, s, b);
            }
            // The detailed rows carry the same values, bit for bit.
            let mut rows = Vec::new();
            windowed.estimate_interval_detailed_batch(&queries, ts, te, &mut rows);
            for (row, &b) in rows.iter().zip(&batch) {
                prop_assert_eq!(row.value.to_bits(), b.to_bits());
            }
        }
        // A detailed batch long enough for each window's read to fan
        // out over the host's cores answers like the scalar interval.
        let scalar: Vec<f64> = queries
            .iter()
            .map(|&q| windowed.estimate_interval(q, t_start, t_end))
            .collect();
        let long: Vec<Edge> = queries.iter().cycle().take(FANOUT_MIN + 1).copied().collect();
        let mut rows = Vec::new();
        windowed.estimate_interval_detailed_batch(&long, t_start, t_end, &mut rows);
        prop_assert_eq!(rows.len(), long.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(row.value.to_bits(), scalar[i % scalar.len()].to_bits(), "query {}", i);
        }
        // And the estimator surfaces (lifetime): one rounding per edge.
        let mut ints = Vec::new();
        windowed.estimate_edges(&queries, &mut ints);
        for (&q, &v) in queries.iter().zip(&ints) {
            prop_assert_eq!(v, windowed.estimate_edge(q));
        }
    }

    /// Dedup-front interleavings: a `ReplayEngine` wrapping a `GSketch`
    /// must stay **bit-identical to the bare engine** across arbitrary
    /// ingest/query/ingest sequences, and its counters must agree with
    /// the queries at every step: each batch sends every distinct edge
    /// to the synopsis once and counts every other query as a hit.
    #[test]
    fn replay_cache_interleavings_match_uncached(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..80),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 8..160),
        cuts in vec(0usize..160, 1..5),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let tail = stream_of(&tail);
        // Interleaving plan: ingest tail[c_i..c_{i+1}], then replay the
        // query set, repeatedly.
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (tail.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(tail.len());

        let empty = GSketch::builder()
            .memory_bytes(1 << 13)
            .depth(depth)
            .min_width(16)
            .seed(seed)
            .build_from_sample(&sample)
            .unwrap();
        let mut bare = empty.clone();
        let mut engine = ReplayEngine::new(empty);
        let queries: Vec<Edge> = sample
            .iter()
            .chain(&tail)
            .map(|se| se.edge)
            .chain((0..8u32).map(|v| Edge::new(v, 999u32)))
            .collect();
        let distinct = queries.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        let mut cached_out = Vec::new();
        let mut bare_out = Vec::new();
        let mut at = 0usize;
        let mut asked = 0u64;
        let mut sent = 0u64;
        for &cut in &cuts {
            let chunk = &tail[at..cut];
            at = cut;
            engine.ingest_batch(chunk);
            bare.ingest_batch(chunk);
            // Replay twice: no answer may carry over from the first pass.
            for _ in 0..2 {
                engine.estimate_edges(&queries, &mut cached_out);
                bare.estimate_edges(&queries, &mut bare_out);
                prop_assert_eq!(&cached_out, &bare_out);
                asked += queries.len() as u64;
                sent += distinct;
                let stats = engine.stats();
                prop_assert_eq!(stats.hits + stats.misses, asked);
                prop_assert_eq!(stats.misses, sent);
                prop_assert_eq!(stats.invalidations, 0);
            }
        }
    }

    /// The owner-sharded engine (scatter → channel handoff → per-owner
    /// plain-store commits over disjoint arena slices, DESIGN.md §11) is
    /// observationally identical to sequential ingest for any stream,
    /// owner count, and chunk size, under real oversubscribed threads.
    /// Pre-summed per-owner commits are exact addition in the
    /// non-saturating regime, so parity is bit-for-bit.
    #[test]
    fn sharded_ingest_matches_sequential_ingest(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..120),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 0..200),
        owners in 1usize..9,
        chunk in 1usize..600,
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let stream: Vec<StreamEdge> =
            sample.iter().chain(&stream_of(&tail)).copied().collect();
        let empty = builder(1 << 13, depth, seed)
            .build_from_sample(&sample)
            .unwrap();

        let mut serial = empty.clone();
        serial.ingest(&stream);

        let mut sharded = empty;
        let report = ShardedIngest::new(&mut sharded, owners)
            .chunk_capacity(chunk)
            .oversubscribe(true)
            .run_slice(&stream);
        prop_assert_eq!(report.arrivals as usize, stream.len());
        prop_assert_eq!(report.chunks as usize, stream.len().div_ceil(chunk));

        for se in &stream {
            prop_assert_eq!(sharded.estimate(se.edge), serial.estimate(se.edge));
        }
        // Collision-only keys must agree too (same cells, same layout).
        for v in 0..60u32 {
            let e = Edge::new(v, 999u32);
            prop_assert_eq!(sharded.estimate(e), serial.estimate(e));
        }
        prop_assert_eq!(sharded.total_weight(), serial.total_weight());
        prop_assert_eq!(sharded.outlier_weight(), serial.outlier_weight());
        prop_assert_eq!(sharded.partition_loads(), serial.partition_loads());
    }

    /// Windowed epoch handoff: sharded ingest with rotations mid-stream
    /// (including a split *inside* a window, so one window's arrivals
    /// arrive across two sharded calls) seals the same windows, keeps
    /// the same reservoir-driven partitionings, and answers every
    /// lifetime and interval query bit-identically to the sequential
    /// deployment (DESIGN.md §11).
    #[test]
    fn sharded_windowed_ingest_matches_sequential(
        arrivals in vec((0u32..30, 0u32..30, 0u8..8), 2..200),
        span in 5u64..60,
        owners in 1usize..7,
        split_frac in 0.0f64..1.0,
        t_a in 0u64..260,
        t_b in 0u64..260,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&arrivals);
        let cfg = WindowConfig {
            span,
            memory_bytes_per_window: 1 << 12,
            sample_capacity: 32,
            seed,
        };
        let mut serial =
            WindowedGSketch::new(cfg, GSketch::builder().min_width(16)).unwrap();
        serial.ingest(&stream);

        let mut sharded =
            WindowedGSketch::new(cfg, GSketch::builder().min_width(16)).unwrap();
        let mid = ((stream.len() as f64) * split_frac) as usize;
        sharded.try_ingest_sharded(&stream[..mid], owners, true).unwrap();
        sharded.try_ingest_sharded(&stream[mid..], owners, true).unwrap();

        prop_assert_eq!(sharded.sealed_windows(), serial.sealed_windows());
        prop_assert_eq!(sharded.current_window_start(), serial.current_window_start());
        let mut queries: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        for v in 0..10u32 {
            queries.push(Edge::new(v, 555u32));
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        sharded.estimate_edges_f64(&queries, &mut a);
        serial.estimate_edges_f64(&queries, &mut b);
        for (&x, &y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "lifetime estimate diverged");
        }
        let (t_start, t_end) = (t_a.min(t_b), t_a.max(t_b));
        sharded.estimate_interval_batch(&queries, t_start, t_end, &mut a);
        serial.estimate_interval_batch(&queries, t_start, t_end, &mut b);
        for (&x, &y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "interval estimate diverged");
        }
    }

    /// `WindowedGSketch::ingest_batch` (the fused one-owner epoch path)
    /// over any chunking — cuts inside a window, on window boundaries,
    /// across timestamp gaps, into a window abutting `u64::MAX` — leaves
    /// the deployment exactly as a `try_insert` loop does: the same
    /// sealed windows and open window, bit-identical interval answers,
    /// and the same `save_windowed` bytes, which pins every window's
    /// counters and filter, the reservoir and its RNG state.
    #[test]
    fn windowed_ingest_batch_matches_insert_loop(
        arrivals in vec((0u32..30, 0u32..30, 0u8..8, 0u8..16), 1..200),
        span in 1u64..40,
        cuts in vec(0usize..200, 0..6),
        boundary_cuts in any::<bool>(),
        at_max in any::<bool>(),
        t_a in 0u64..4_000,
        t_b in 0u64..4_000,
        seed in any::<u64>(),
    ) {
        let stream = timed_stream_of(&arrivals, span, at_max);
        let cfg = WindowConfig {
            span,
            memory_bytes_per_window: 1 << 12,
            sample_capacity: 16,
            seed,
        };
        let mut serial =
            WindowedGSketch::new(cfg, GSketch::builder().min_width(16)).unwrap();
        for se in &stream {
            serial.try_insert(*se).unwrap();
        }

        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
        if boundary_cuts {
            cuts.extend((1..stream.len()).filter(|&i| {
                stream[i].ts / span != stream[i - 1].ts / span
            }));
        }
        cuts.push(stream.len());
        cuts.sort_unstable();
        let mut batched =
            WindowedGSketch::new(cfg, GSketch::builder().min_width(16)).unwrap();
        let mut from = 0;
        for &cut in &cuts {
            batched.ingest_batch(&stream[from..cut]);
            from = cut;
        }

        prop_assert_eq!(batched.sealed_windows(), serial.sealed_windows());
        prop_assert_eq!(batched.current_window_start(), serial.current_window_start());
        let mut queries: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        queries.push(Edge::new(3u32, 999u32));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (t_start, t_end) in [(t_a.min(t_b), t_a.max(t_b)), (0, u64::MAX)] {
            batched.estimate_interval_batch(&queries, t_start, t_end, &mut a);
            serial.estimate_interval_batch(&queries, t_start, t_end, &mut b);
            for (&x, &y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "interval estimate diverged");
            }
        }
        prop_assert!(
            windowed_bytes(&batched, "batched") == windowed_bytes(&serial, "serial"),
            "save_windowed bytes diverged"
        );
    }

    /// Adaptive warm-up switchover under sharded ingest: the
    /// order-dependent warm-up prefix replays sequentially inside
    /// `ingest_sharded` (the switchover fires exactly where it always
    /// did), so for any stream, warm-up length, and split point — before,
    /// at, or after the switchover — the deployment is bit-identical to
    /// sequential ingest under real oversubscribed threads.
    #[test]
    fn sharded_adaptive_ingest_matches_sequential(
        arrivals in vec((0u32..40, 0u32..40, 0u8..8), 2..250),
        warmup_frac in 0.0f64..1.0,
        split_frac in 0.0f64..1.0,
        owners in 1usize..7,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&arrivals);
        let warmup = (((stream.len() as f64) * warmup_frac) as u64).max(1);
        let cfg = AdaptiveConfig {
            memory_bytes: 1 << 13,
            warmup_arrivals: warmup,
            warmup_memory_fraction: 0.15,
            depth: 2,
            min_width: 16,
            expected_growth: (stream.len() as f64 / warmup as f64).max(1.0),
            seed,
            ..AdaptiveConfig::default()
        };
        let mut serial = AdaptiveGSketch::new(cfg).unwrap();
        serial.ingest(&stream);

        let mut sharded = AdaptiveGSketch::new(cfg).unwrap();
        let mid = ((stream.len() as f64) * split_frac) as usize;
        sharded.ingest_sharded(&stream[..mid], owners, true);
        sharded.ingest_sharded(&stream[mid..], owners, true);

        prop_assert_eq!(sharded.num_partitions(), serial.num_partitions());
        let mut queries: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        for v in 0..10u32 {
            queries.push(Edge::new(v, 777u32));
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        sharded.estimate_edges(&queries, &mut a);
        serial.estimate_edges(&queries, &mut b);
        prop_assert_eq!(a, b, "adaptive estimates diverged");
    }
}
