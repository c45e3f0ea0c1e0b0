//! Failure-injection and degenerate-input tests: the system must stay
//! correct (or fail loudly and early) on empty, constant, adversarial,
//! and resource-starved inputs.

use gsketch::{AdaptiveConfig, AdaptiveGSketch, EdgeSink, GSketch, SketchId};
use gstream::gen::{ErdosRenyiConfig, ErdosRenyiGenerator};
use gstream::{read_stream, Edge, ExactCounter, StreamEdge};
use sketch::{CmArena, CountSketch, SpaceSaving};
use structural::{ExactTriangleCounter, PathAggregator, TriangleEstimator};

fn unit(s: u32, d: u32, t: u64) -> StreamEdge {
    StreamEdge::unit(Edge::new(s, d), t)
}

// ---------------------------------------------------------------- empty

#[test]
fn empty_stream_everything_is_zero() {
    let stream: Vec<StreamEdge> = Vec::new();
    let mut gs = GSketch::builder()
        .memory_bytes(16 << 10)
        .build_from_sample(&stream)
        .expect("empty sample is legal");
    gs.ingest(&stream);
    assert_eq!(gs.num_partitions(), 0);
    assert_eq!(gs.total_weight(), 0);
    assert_eq!(gs.route(Edge::new(1u32, 2u32)), SketchId::Outlier);
    assert_eq!(gs.estimate(Edge::new(1u32, 2u32)), 0);

    let truth = ExactCounter::from_stream(&stream);
    assert_eq!(truth.distinct_edges(), 0);

    let mut tri = ExactTriangleCounter::new();
    tri.ingest(&stream);
    assert_eq!(tri.triangles(), 0);

    let mut paths = PathAggregator::new();
    paths.ingest(&stream);
    assert_eq!(paths.total_paths(), 0);
}

// ----------------------------------------------------- constant streams

#[test]
fn single_edge_repeated_forever() {
    // One edge carries the entire stream: the partitioner sees a single
    // vertex, Theorem 1 fires immediately, and the estimate is exact.
    let stream: Vec<StreamEdge> = (0..50_000u64).map(|t| unit(1, 2, t)).collect();
    let mut gs = GSketch::builder()
        .memory_bytes(16 << 10)
        .min_width(16)
        .build_from_sample(&stream[..1_000])
        .expect("build");
    gs.ingest(&stream);
    assert_eq!(gs.estimate(Edge::new(1u32, 2u32)), 50_000);

    let mut cs = CountSketch::new(64, 5, 1).unwrap();
    for se in &stream {
        cs.update(se.edge.key(), se.weight);
    }
    assert_eq!(cs.estimate(stream[0].edge.key()), 50_000);
}

#[test]
fn self_loop_only_stream() {
    let stream: Vec<StreamEdge> = (0..1_000u64).map(|t| unit(9, 9, t)).collect();
    let mut gs = GSketch::builder()
        .memory_bytes(16 << 10)
        .min_width(16)
        .build_from_sample(&stream[..100])
        .expect("build");
    gs.ingest(&stream);
    assert!(gs.estimate(Edge::new(9u32, 9u32)) >= 1_000);
    // Structural: loops never make triangles or paths through themselves
    // in a simple-graph sense, but the aggregator still counts the
    // degenerate wedge 9 → 9 → 9 (in(9)·out(9)).
    let mut tri = ExactTriangleCounter::new();
    tri.ingest(&stream);
    assert_eq!(tri.triangles(), 0);
}

// -------------------------------------------------------- huge weights

#[test]
fn saturating_weights_never_wrap() {
    let mut gl = GSketch::global(4 << 10, 2, 1).unwrap();
    let e = Edge::new(1u32, 2u32);
    gl.update(StreamEdge::weighted(e, 0, u64::MAX));
    gl.update(StreamEdge::weighted(e, 0, u64::MAX));
    assert_eq!(gl.estimate(e), u64::MAX);
    assert_eq!(gl.total_weight(), u64::MAX);

    // One partition plus the outlier, each at `u64::MAX`: the sum over
    // slots saturates like every per-slot total.
    let mut two = GSketch::builder()
        .memory_bytes(4 << 10)
        .depth(2)
        .min_width(4)
        .prefilter(false)
        .build_from_sample(&[StreamEdge::unit(e, 0)])
        .unwrap();
    assert_eq!(two.num_partitions(), 1);
    two.update(StreamEdge::weighted(e, 0, u64::MAX));
    two.update(StreamEdge::weighted(Edge::new(7u32, 2u32), 0, u64::MAX));
    assert_eq!(two.outlier_weight(), u64::MAX);
    assert_eq!(two.total_weight(), u64::MAX);

    let mut ss = SpaceSaving::new(4).unwrap();
    ss.update(7, u64::MAX);
    ss.update(7, u64::MAX);
    assert_eq!(ss.estimate(7), u64::MAX);
}

// ------------------------------------------------- resource starvation

#[test]
fn minimum_viable_memory_still_sound() {
    // The smallest budget the builder accepts must still never
    // underestimate — accuracy may be terrible, soundness may not.
    let stream: Vec<StreamEdge> = (0..5_000u64)
        .map(|t| unit((t % 50) as u32, 99, t))
        .collect();
    let mut found_min = None;
    for bytes in [8usize, 32, 64, 128, 256, 1024] {
        if let Ok(mut gs) = GSketch::builder()
            .memory_bytes(bytes)
            .min_width(2)
            .build_from_sample(&stream[..500])
        {
            gs.ingest(&stream);
            found_min = Some(bytes);
            for v in 0..50u32 {
                let e = Edge::new(v, 99u32);
                assert!(gs.estimate(e) >= 100, "{e} underestimated at {bytes}B");
            }
            break;
        }
    }
    let min = found_min.expect("some budget must be accepted");
    assert!(min <= 1024, "builder rejected every tiny budget");
}

#[test]
fn spacesaving_capacity_one() {
    let mut ss = SpaceSaving::new(1).unwrap();
    for i in 0..1_000u64 {
        ss.update(i % 3, 1);
    }
    assert_eq!(ss.seen(), 1_000);
    assert_eq!(ss.len(), 1);
    // The single counter upper-bounds whatever key it currently holds.
    let top = ss.top(1)[0];
    assert!(top.count >= 334, "monitored count must cover max truth");
}

// ---------------------------------------------------- adversarial time

#[test]
fn stream_io_rejects_time_regression_exactly_once() {
    let text = "1 2 5 1\n3 4 9 1\n5 6 2 1\n";
    let err = read_stream(text.as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "wrong line attribution: {msg}");
    assert!(msg.contains("byte 16"), "wrong byte attribution: {msg}");
}

// ------------------------------------------- degenerate query workloads

#[test]
fn empty_query_workload_is_legal_and_empty() {
    assert!(gstream::read_queries("".as_bytes()).unwrap().is_empty());
    assert!(gstream::read_queries("# comments only\n\n".as_bytes())
        .unwrap()
        .is_empty());
    // Replaying an empty workload through the batched engine is a no-op.
    let truth = ExactCounter::new();
    let mut out = vec![42u64];
    gsketch::EdgeEstimator::estimate_edges(&truth, &[], &mut out);
    assert!(out.is_empty());
}

#[test]
fn query_workload_trailing_garbage_stops_at_first_bad_record() {
    use gstream::QueryFileSource;
    // Two good queries, then trailing garbage after the last record.
    let text = "1 2\n3 4\n5 6 extra\n";
    let mut src = QueryFileSource::from_reader(text.as_bytes());
    let mut buf = Vec::new();
    let mut delivered = 0usize;
    while src.fill_queries(&mut buf, 64) > 0 {
        delivered += buf.len();
    }
    assert_eq!(delivered, 2, "records before the garbage were delivered");
    let err = src.finish().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "{msg}");
    assert!(msg.contains("byte 8"), "{msg}");
    assert!(msg.contains("trailing"), "{msg}");
}

#[test]
fn query_workload_overflowing_ids_rejected_with_position() {
    // 2^32 exceeds the u32 vertex domain; 2^32 − 1 is the boundary and
    // must be accepted.
    let ok = gstream::read_queries("4294967295 0\n".as_bytes()).unwrap();
    assert_eq!(ok, vec![Edge::new(u32::MAX, 0u32)]);
    let err = gstream::read_queries("7 8\n4294967296 0\n".as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 4"), "{msg}");
    assert!(msg.contains("u32"), "{msg}");
    // A value too large even for u64 is a parse error, not a wrap.
    let err = gstream::read_queries("99999999999999999999999 1\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("src"), "{err}");
}

#[test]
fn crlf_inputs_report_line_start_offsets_on_both_sources() {
    use gstream::QueryFileSource;
    // Stream reader: "1 2 0 1\r\n" is 9 bytes, so the malformed line 2
    // starts at byte 9 — the offset must be seekable on CRLF files.
    let text = "1 2 0 1\r\n3 x 0 1\r\n";
    let msg = read_stream(text.as_bytes()).unwrap_err().to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 9"), "{msg}");
    // Query source: "1 2\r\n" is 5 bytes.
    let qtext = "1 2\r\n5 x\r\n";
    let mut qsrc = QueryFileSource::from_reader(qtext.as_bytes());
    let mut qbuf = Vec::new();
    while qsrc.fill_queries(&mut qbuf, 64) > 0 {}
    let msg = qsrc.finish().unwrap_err().to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 5"), "{msg}");
}

#[test]
fn final_line_without_newline_parses_on_both_sources() {
    // A valid unterminated final record is a record, not an error …
    assert_eq!(read_stream("1 2 0 1\n3 4 7 2".as_bytes()).unwrap().len(), 2);
    assert_eq!(
        gstream::read_queries("1 2\n3 4".as_bytes()).unwrap().len(),
        2
    );
    // … and a malformed one is reported at its line start.
    let err = read_stream("1 2 0 1\nbogus".as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 8"), "{msg}");
    let err = gstream::read_queries("1 2\nbogus".as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 4"), "{msg}");
}

#[test]
fn windowed_workload_degenerate_rows_rejected_with_position() {
    use gstream::read_workload;
    // A regressing interval is malformed, reported at its line start.
    let err = read_workload("1 2 0 9\n3 4 9 0\n".as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
    assert!(msg.contains("byte 8"), "{msg}");
    assert!(msg.contains("empty interval"), "{msg}");
    // Three fields: neither row shape.
    let err = read_workload("1 2 5\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("t_end"), "{err}");
    // Interval bounds past u64 are parse errors, not wraps.
    let err = read_workload("1 2 0 99999999999999999999999\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("t_end"), "{err}");
    // The full u64 range is legal (open-ended queries).
    let wl = read_workload("1 2 0 18446744073709551615\n".as_bytes()).unwrap();
    assert_eq!(wl[0].window, Some((0, u64::MAX)));
    // A single instant is legal.
    let wl = read_workload("1 2 7 7\n".as_bytes()).unwrap();
    assert_eq!(wl[0].window, Some((7, 7)));
}

// -------------------------------------------------- adversarial shapes

#[test]
fn all_distinct_edges_uniform_stream() {
    // The worst case for partitioning: no skew, no repeats. gSketch must
    // not be (much) worse than global — the ablation claim of §3.3.
    let stream: Vec<StreamEdge> =
        ErdosRenyiGenerator::new(ErdosRenyiConfig::new(2_000, 100_000, 3)).collect();
    let truth = ExactCounter::from_stream(&stream);
    let mut gs = GSketch::builder()
        .memory_bytes(64 << 10)
        .depth(1)
        .min_width(64)
        .sample_rate(0.05)
        .build_from_sample(&stream[..5_000])
        .expect("build");
    gs.ingest(&stream);
    let mut gl = GSketch::global(64 << 10, 1, 9).unwrap();
    gl.ingest(&stream);
    let mut err_gs = 0.0f64;
    let mut err_gl = 0.0f64;
    let mut n = 0;
    for (edge, f) in truth.iter().take(4_000) {
        err_gs += (gs.estimate(edge) - f) as f64 / f as f64;
        err_gl += (gl.estimate(edge) - f) as f64 / f as f64;
        n += 1;
    }
    let (err_gs, err_gl) = (err_gs / n as f64, err_gl / n as f64);
    assert!(
        err_gs <= err_gl * 1.6 + 1.0,
        "gSketch degraded too much on structureless input: {err_gs:.2} vs {err_gl:.2}"
    );
}

#[test]
fn triangle_estimator_tiny_p_on_triangle_free_graph() {
    // A bipartite (triangle-free) graph: every estimate must be 0
    // regardless of sparsification randomness.
    let mut est = TriangleEstimator::new(0.05, 123);
    for u in 0..100u32 {
        for v in 0..20u32 {
            est.observe(Edge::new(u, 1_000 + v));
        }
    }
    assert_eq!(est.estimate(), 0.0);
}

#[test]
fn adaptive_with_warmup_longer_than_stream() {
    // The stream ends before warm-up: queries must still be served from
    // the warm-up sketch alone.
    let mut a = AdaptiveGSketch::new(AdaptiveConfig {
        memory_bytes: 32 << 10,
        warmup_arrivals: 1_000_000,
        ..AdaptiveConfig::default()
    })
    .unwrap();
    let stream: Vec<StreamEdge> = (0..2_000u64).map(|t| unit((t % 9) as u32, 1, t)).collect();
    a.ingest(&stream);
    assert_eq!(a.num_partitions(), 0);
    for v in 0..9u32 {
        assert!(a.estimate(Edge::new(v, 1u32)) >= 222);
    }
}

#[test]
fn countmin_width_one_degenerates_to_total() {
    // A single cell per row counts everything; the estimate equals the
    // stream total — the documented worst case, not an error.
    let mut cm = CmArena::new(1, 3, 1).unwrap();
    for k in 0..100u64 {
        cm.update_slot(0, k, 2);
    }
    assert_eq!(cm.estimate_slot(0, 0), 200);
}

#[test]
fn vertex_id_domain_boundaries() {
    let hi = u32::MAX;
    let stream = vec![unit(hi, 0, 0), unit(0, hi, 1), unit(hi, hi, 2)];
    let mut gs = GSketch::builder()
        .memory_bytes(8 << 10)
        .min_width(4)
        .build_from_sample(&stream)
        .expect("build");
    gs.ingest(&stream);
    assert!(gs.estimate(Edge::new(hi, 0u32)) >= 1);
    assert!(gs.estimate(Edge::new(hi, hi)) >= 1);
}
