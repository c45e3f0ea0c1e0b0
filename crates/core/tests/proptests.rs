//! Property-based tests of the gSketch core invariants: for ANY stream,
//! sample, memory budget and seed, the assembled system must preserve
//! the CountMin one-sided guarantee, conserve weight, respect memory,
//! and route deterministically.

use gsketch::{EdgeSink, GSketch, SketchId, WidthAllocation};
use gstream::edge::{Edge, StreamEdge};
use gstream::exact::ExactCounter;
use proptest::collection::vec;
use proptest::prelude::*;

fn to_stream(raw: &[(u16, u16, u8)]) -> Vec<StreamEdge> {
    raw.iter()
        .enumerate()
        .map(|(i, &(s, d, w))| {
            StreamEdge::weighted(Edge::new(s as u32, d as u32), i as u64, w as u64 + 1)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-sided estimates for any stream/sample/seed/allocation combo.
    #[test]
    fn estimates_one_sided(
        raw in vec((0u16..60, 0u16..60, any::<u8>()), 1..250),
        sample_div in 2usize..8,
        seed in any::<u64>(),
        equal_split in any::<bool>(),
    ) {
        let stream = to_stream(&raw);
        let sample = &stream[..stream.len() / sample_div];
        let allocation = if equal_split {
            WidthAllocation::EqualSplit
        } else {
            WidthAllocation::Optimal
        };
        let mut gs = GSketch::builder()
            .memory_bytes(16 << 10)
            .min_width(8)
            .allocation(allocation)
            .seed(seed)
            .build_from_sample(sample)
            .unwrap();
        gs.ingest(&stream);
        let truth = ExactCounter::from_stream(&stream);
        for (edge, f) in truth.iter() {
            prop_assert!(gs.estimate(edge) >= f);
        }
    }

    /// Weight conservation and routing consistency: update and estimate
    /// must agree on the sketch for every edge.
    #[test]
    fn weight_conserved_and_routing_stable(
        raw in vec((0u16..40, 0u16..40, any::<u8>()), 1..200),
        seed in any::<u64>(),
    ) {
        let stream = to_stream(&raw);
        let sample = &stream[..stream.len().div_ceil(4)];
        let mut gs = GSketch::builder()
            .memory_bytes(16 << 10)
            .min_width(8)
            .seed(seed)
            .build_from_sample(sample)
            .unwrap();
        gs.ingest(&stream);
        let total: u64 = stream.iter().map(|se| se.weight).sum();
        prop_assert_eq!(gs.total_weight(), total);
        // Routing is a pure function.
        for se in &stream {
            prop_assert_eq!(gs.route(se.edge), gs.route(se.edge));
        }
    }

    /// The memory budget is never exceeded, calibrated or not.
    #[test]
    fn memory_budget_respected(
        raw in vec((0u16..50, 0u16..50, any::<u8>()), 1..200),
        memory_kb in 2usize..128,
        seed in any::<u64>(),
        calibrated in any::<bool>(),
    ) {
        let stream = to_stream(&raw);
        let sample = &stream[..stream.len().div_ceil(4)];
        let builder = GSketch::builder()
            .memory_bytes(memory_kb << 10)
            .min_width(8)
            .seed(seed);
        let gs = if calibrated {
            builder.build_from_sample_calibrated(sample, &stream).unwrap()
        } else {
            builder.build_from_sample(sample).unwrap()
        };
        prop_assert!(gs.bytes() <= memory_kb << 10,
            "{} > {}", gs.bytes(), memory_kb << 10);
    }

    /// Every vertex appearing as a source in the sample routes to a
    /// partition; everything else routes to the outlier.
    #[test]
    fn sample_vertices_get_partitions(
        raw in vec((0u16..30, 0u16..30, any::<u8>()), 4..150),
        seed in any::<u64>(),
    ) {
        let stream = to_stream(&raw);
        let half = stream.len() / 2;
        let sample = &stream[..half.max(1)];
        let gs = GSketch::builder()
            .memory_bytes(32 << 10)
            .min_width(8)
            .seed(seed)
            .build_from_sample(sample)
            .unwrap();
        let sampled: std::collections::HashSet<u32> =
            sample.iter().map(|se| se.edge.src.0).collect();
        for se in &stream {
            let route = gs.route(se.edge);
            if sampled.contains(&se.edge.src.0) {
                prop_assert!(matches!(route, SketchId::Partition(_)),
                    "sampled vertex routed to outlier");
            } else {
                prop_assert_eq!(route, SketchId::Outlier);
            }
        }
    }

    /// Estimates are monotone in the stream: ingesting more arrivals
    /// never lowers an estimate.
    #[test]
    fn estimates_monotone_in_stream(
        raw in vec((0u16..30, 0u16..30, any::<u8>()), 2..120),
        seed in any::<u64>(),
    ) {
        let stream = to_stream(&raw);
        let sample = &stream[..stream.len().div_ceil(4)];
        let mut gs = GSketch::builder()
            .memory_bytes(16 << 10)
            .min_width(8)
            .seed(seed)
            .build_from_sample(sample)
            .unwrap();
        let probe_edge = stream[0].edge;
        let mut last = 0u64;
        for se in &stream {
            gs.update(*se);
            let now = gs.estimate(probe_edge);
            prop_assert!(now >= last, "estimate decreased");
            last = now;
        }
    }
}

// ---------------------------------------------------------------------------
// Windowed snapshot round-trips (DESIGN.md §13)
// ---------------------------------------------------------------------------

use gsketch::{load_windowed, save_windowed, WindowConfig, WindowedGSketch};

fn temp_snapshot_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("gsketch_core_proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}_{}_{}.wsnap",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Save the half-ingested deployment, ingest the rest, append, load,
/// and require bit-identical interval answers — then resume ingest on
/// BOTH instances (pinning reservoir + RNG fidelity through the
/// snapshot) and require identity again.
fn exercise_windowed_round_trip(stream: &[StreamEdge], seed: u64, keep: Option<usize>) {
    let cfg = WindowConfig {
        span: 16,
        memory_bytes_per_window: 8 << 10,
        sample_capacity: 24,
        seed,
    };
    let builder = GSketch::builder().min_width(8);
    let mut live = match keep {
        Some(k) => WindowedGSketch::with_horizon(cfg, builder, k),
        None => WindowedGSketch::new(cfg, builder),
    }
    .unwrap();
    let path = temp_snapshot_path("windowed");
    let half = stream.len() / 2;
    for se in &stream[..half] {
        live.try_insert(*se).unwrap();
    }
    save_windowed(&path, &live).unwrap();
    for se in &stream[half..] {
        live.try_insert(*se).unwrap();
    }
    save_windowed(&path, &live).unwrap(); // incremental append
    let mut loaded = load_windowed(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let edges: Vec<Edge> = stream.iter().take(24).map(|se| se.edge).collect();
    let t_max = stream.last().map_or(0, |se| se.ts);
    let intervals = [
        (0, u64::MAX),
        (0, 7),
        // Clamped: a stream shorter than six arrivals ends before t = 5.
        (5.min(t_max), t_max),
        (t_max / 2, t_max / 2 + 3),
    ];
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut da, mut db) = (Vec::new(), Vec::new());
    for &(ts, te) in &intervals {
        live.estimate_interval_batch(&edges, ts, te, &mut a);
        loaded.estimate_interval_batch(&edges, ts, te, &mut b);
        prop_assert_eq!(&a, &b, "plain mismatch over [{}, {}]", ts, te);
        live.estimate_interval_detailed_batch(&edges, ts, te, &mut da);
        loaded.estimate_interval_detailed_batch(&edges, ts, te, &mut db);
        prop_assert_eq!(&da, &db, "detailed mismatch over [{}, {}]", ts, te);
    }
    // Resume: the restored instance must continue exactly like the live
    // one — window rotations, reservoir offers, and (with a horizon)
    // coarsening included.
    for i in 0..40u64 {
        let se = StreamEdge::unit(Edge::new((i % 5) as u32, (i % 3) as u32), t_max + i);
        live.try_insert(se).unwrap();
        loaded.try_insert(se).unwrap();
    }
    for &(ts, te) in &intervals {
        live.estimate_interval_detailed_batch(&edges, ts, te, &mut da);
        loaded.estimate_interval_detailed_batch(&edges, ts, te, &mut db);
        prop_assert_eq!(&da, &db, "post-resume mismatch over [{}, {}]", ts, te);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY stream, seed, and horizon setting, a windowed snapshot —
    /// fresh or appended — restores an instance bit-identical to the
    /// live one.
    #[test]
    fn windowed_snapshots_round_trip(
        raw in vec((0u16..20, 0u16..20, any::<u8>()), 2..160),
        seed in any::<u64>(),
        keep_raw in 0usize..4,
    ) {
        let stream = to_stream(&raw);
        // 0 means "no horizon"; 1..4 coarsen sealed history into tiers.
        let keep = (keep_raw > 0).then_some(keep_raw);
        exercise_windowed_round_trip(&stream, seed, keep);
    }
}
