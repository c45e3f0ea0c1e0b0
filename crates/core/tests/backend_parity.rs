//! Property tests pinning the arena refactor's central invariant: the
//! contiguous-slab backend ([`CmArena`]) is *observationally identical*
//! to the per-partition CountMin layout it replaces — for any stream and
//! any seed, every estimate, total, route, and merge result agrees bit
//! for bit. This is what makes the arena a pure layout optimization
//! (DESIGN.md §2): both banks share one per-row hash family seeded from
//! the builder seed, so slot `i` of the arena holds exactly the cells
//! partition `i`'s standalone sketch would hold.

use gsketch::{
    AdaptiveConfig, AdaptiveGSketch, CmArena, CountMinSketch, CountSketch, EdgeEstimator, EdgeSink,
    GSketch, GSketchBuilder, GlobalSketch, ParallelQuery, ReplayEngine, ShardedIngest,
    WindowConfig, WindowedGSketch,
};
use gstream::edge::{Edge, StreamEdge};
use proptest::collection::vec;
use proptest::prelude::*;

/// A raw (src, dst, weight) arrival.
type Arrival = (u32, u32, u8);

fn stream_of(arrivals: &[Arrival]) -> Vec<StreamEdge> {
    arrivals
        .iter()
        .enumerate()
        .map(|(t, &(s, d, w))| StreamEdge::weighted(Edge::new(s, d), t as u64, u64::from(w) + 1))
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any stream and seed, `GSketch<CmArena>` returns bit-identical
    /// estimates (and routes, totals, loads) to the per-partition
    /// `GSketch<CountMinSketch>` layout.
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

        let mut arena: GSketch<CmArena> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
            .unwrap();
        let mut pervec: GSketch<CountMinSketch> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
            .unwrap();

        prop_assert_eq!(arena.num_partitions(), pervec.num_partitions());
        prop_assert_eq!(arena.bytes(), pervec.bytes());

        arena.ingest(&stream);
        pervec.ingest(&stream);

        for se in &stream {
            prop_assert_eq!(arena.route(se.edge), pervec.route(se.edge));
            prop_assert_eq!(arena.estimate(se.edge), pervec.estimate(se.edge));
        }
        // Also probe edges that never arrived (pure collision noise must
        // agree too — same hash family, same cells).
        for v in 0..60u32 {
            let e = Edge::new(v, 999u32);
            prop_assert_eq!(arena.estimate(e), pervec.estimate(e));
        }
        prop_assert_eq!(arena.total_weight(), pervec.total_weight());
        prop_assert_eq!(arena.outlier_weight(), pervec.outlier_weight());
        prop_assert_eq!(arena.partition_loads(), pervec.partition_loads());
    }

    /// Batched ingest is estimate-identical to streaming ingest on both
    /// backends (counting-sort grouping must not reorder *within* a
    /// slot's saturating adds in any observable way).
    #[test]
    fn batched_ingest_matches_streaming(
        sample in vec((0u32..30, 0u32..30, 0u8..8), 1..80),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&sample);
        let mut streaming: GSketch<CmArena> = builder(1 << 12, depth, seed)
            .build_from_sample_backend(&stream)
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
    /// scalar loop on **every backend and every estimator** — for any
    /// stream, seed, and query batch, including duplicate keys (each
    /// query repeated `dup` times) and shuffled order. This pins the
    /// whole read-path refactor: counting-sort by slot, the arena's
    /// batched kernel (fold hoisting, fastmod, prefetch blocks,
    /// duplicate coalescing), and the provided defaults all answer bit
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

        // GSketch over every backend.
        let mut arena: GSketch<CmArena> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
            .unwrap();
        arena.ingest(&stream);
        assert_batch_parity(&arena, &queries);
        let mut pervec: GSketch<CountMinSketch> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
            .unwrap();
        pervec.ingest(&stream);
        assert_batch_parity(&pervec, &queries);
        let mut csketch: GSketch<CountSketch> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
            .unwrap();
        csketch.ingest(&stream);
        assert_batch_parity(&csketch, &queries);

        // The global baseline.
        let mut global = GlobalSketch::new(1 << 12, depth, seed).unwrap();
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

        // Parallel fan-out answers bit-identically to the sequential
        // batch, with real oversubscribed threads.
        let mut sequential = Vec::new();
        arena.estimate_edges(&queries, &mut sequential);
        for threads in [2usize, 5] {
            let pq = ParallelQuery::new(&arena, threads).oversubscribe(true);
            let mut parallel = Vec::new();
            pq.estimate_edges(&queries, &mut parallel);
            prop_assert_eq!(&parallel, &sequential, "{} workers", threads);
        }
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
        // And the estimator surfaces (lifetime): one rounding per edge.
        let mut ints = Vec::new();
        windowed.estimate_edges(&queries, &mut ints);
        for (&q, &v) in queries.iter().zip(&ints) {
            prop_assert_eq!(v, windowed.estimate_edge(q));
        }
    }

    /// Replay-cache invalidation interleavings: a `ReplayEngine`
    /// wrapping each backend must stay **bit-identical to the uncached
    /// path** across arbitrary ingest/query/ingest sequences — writes
    /// through the engine invalidate exactly enough of the memo that no
    /// stale answer survives, on the slot-localized backends and the
    /// rest alike.
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

        fn check<B: gsketch::FrequencySketch>(
            sample: &[StreamEdge],
            tail: &[StreamEdge],
            cuts: &[usize],
            depth: usize,
            seed: u64,
        ) {
            let empty: GSketch<B> = GSketch::builder()
                .memory_bytes(1 << 13)
                .depth(depth)
                .min_width(16)
                .seed(seed)
                .build_from_sample_backend(sample)
                .unwrap();
            let mut bare = empty.clone();
            let mut engine = ReplayEngine::with_capacity(empty, 256);
            let queries: Vec<Edge> = sample
                .iter()
                .chain(tail)
                .map(|se| se.edge)
                .chain((0..8u32).map(|v| Edge::new(v, 999u32)))
                .collect();
            let mut cached_out = Vec::new();
            let mut bare_out = Vec::new();
            let mut at = 0usize;
            for &cut in cuts {
                let chunk = &tail[at..cut];
                at = cut;
                engine.ingest_batch(chunk);
                bare.ingest_batch(chunk);
                // Replay twice so the second pass reads memoized
                // answers (and must still agree bit for bit).
                for _ in 0..2 {
                    engine.estimate_edges(&queries, &mut cached_out);
                    bare.estimate_edges(&queries, &mut bare_out);
                    assert_eq!(cached_out, bare_out);
                }
            }
            // The engine actually exercised the memo.
            assert!(engine.stats().hits > 0);
        }

        check::<CmArena>(&sample, &tail, &cuts, depth, seed);
        check::<CountMinSketch>(&sample, &tail, &cuts, depth, seed);
        check::<CountSketch>(&sample, &tail, &cuts, depth, seed);
    }

    /// Merge on the backend trait agrees with sequential ingest: split
    /// any stream across two workers, merge, and get the bit-exact
    /// serial sketch — on the arena and on the per-partition layout.
    #[test]
    fn merge_agrees_with_sequential_ingest(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..100),
        at_frac in 0.0f64..1.0,
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let stream = stream_of(&sample);
        let mid = ((stream.len() as f64) * at_frac) as usize;

        fn check<B>(stream: &[StreamEdge], mid: usize, depth: usize, seed: u64)
        where
            B: gsketch::FrequencySketch,
        {
            let empty: GSketch<B> = GSketch::builder()
                .memory_bytes(1 << 12)
                .depth(depth)
                .min_width(16)
                .seed(seed)
                .build_from_sample_backend(stream)
                .unwrap();
            let mut serial = empty.clone();
            serial.ingest(stream);
            let mut a = empty.clone();
            let mut b = empty;
            a.ingest(&stream[..mid]);
            b.ingest(&stream[mid..]);
            a.merge(&b).unwrap();
            for se in stream {
                assert_eq!(a.estimate(se.edge), serial.estimate(se.edge));
            }
            assert_eq!(a.total_weight(), serial.total_weight());
        }

        check::<CmArena>(&stream, mid, depth, seed);
        check::<CountMinSketch>(&stream, mid, depth, seed);
    }

    /// The owner-sharded engine (scatter → SPSC handoff → per-owner
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
        let empty: GSketch<CmArena> = builder(1 << 13, depth, seed)
            .build_from_sample_backend(&sample)
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

    /// The slot-routed read path answers bit-identically to the
    /// sequential batch on **every backend**: counting-sorting a query
    /// batch by router slot and fanning owner-aligned spans out over
    /// real oversubscribed threads regroups independent per-edge
    /// answers, nothing more (DESIGN.md §11).
    #[test]
    fn routed_queries_match_sequential_batch(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..80),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 0..120),
        dup in 1usize..4,
        threads in 1usize..9,
        shuffle_seed in any::<u64>(),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let stream: Vec<StreamEdge> =
            sample.iter().chain(&stream_of(&tail)).copied().collect();
        let mut queries: Vec<Edge> = Vec::new();
        for se in &stream {
            for _ in 0..dup {
                queries.push(se.edge);
            }
        }
        for v in 0..20u32 {
            queries.push(Edge::new(v, 999u32)); // absent probes
        }
        shuffle_edges(&mut queries, shuffle_seed);

        fn check<B: gsketch::FrequencySketch>(
            sample: &[StreamEdge],
            stream: &[StreamEdge],
            queries: &[Edge],
            threads: usize,
            depth: usize,
            seed: u64,
        ) where
            GSketch<B>: Sync,
        {
            let mut gs: GSketch<B> = GSketch::builder()
                .memory_bytes(1 << 13)
                .depth(depth)
                .min_width(16)
                .seed(seed)
                .build_from_sample_backend(sample)
                .unwrap();
            gs.ingest(stream);
            let mut sequential = Vec::new();
            gs.estimate_edges(queries, &mut sequential);
            let pq = ParallelQuery::new(&gs, threads).oversubscribe(true);
            let mut routed = Vec::new();
            pq.estimate_edges_routed(queries, &mut routed);
            assert_eq!(routed, sequential, "routed read path diverged");
        }

        check::<CmArena>(&sample, &stream, &queries, threads, depth, seed);
        check::<CountMinSketch>(&sample, &stream, &queries, threads, depth, seed);
        check::<CountSketch>(&sample, &stream, &queries, threads, depth, seed);
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
