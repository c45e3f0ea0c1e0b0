//! End-to-end integration tests spanning the sketch, gstream and gsketch
//! crates: generate a stream, sample it, partition, ingest, query, and
//! check the paper's invariants hold.

use gsketch::{
    evaluate_edge_queries, evaluate_subgraph_queries, Aggregator, EdgeSink, GSketch, SketchId,
    DEFAULT_G0,
};
use gstream::gen::{dblp, ipattack, DblpConfig, IpAttackConfig, RmatConfig, RmatGenerator};
use gstream::sample::sample_iter;
use gstream::workload::{
    bfs_subgraph_queries, uniform_distinct_queries, ZipfEdgeSampler, ZipfRank,
};
use gstream::{Edge, ExactCounter, StreamEdge};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dblp_stream() -> Vec<StreamEdge> {
    dblp::generate(DblpConfig {
        authors: 3_000,
        papers: 12_000,
        seed: 42,
        ..DblpConfig::default()
    })
}

fn build_pair(
    stream: &[StreamEdge],
    memory: usize,
    depth: usize,
) -> (GSketch, GSketch, ExactCounter) {
    let mut rng = StdRng::seed_from_u64(9);
    let sample = sample_iter(stream.iter().copied(), stream.len() / 20, &mut rng);
    let rate = sample.len() as f64 / stream.len() as f64;
    let mut gs = GSketch::builder()
        .memory_bytes(memory)
        .depth(depth)
        .min_width(32)
        .sample_rate(rate)
        .build_from_sample_calibrated(&sample, stream)
        .expect("build");
    gs.ingest(stream);
    let mut gl = GSketch::global(memory, depth, 9).expect("build");
    gl.ingest(stream);
    let truth = ExactCounter::from_stream(stream);
    (gs, gl, truth)
}

#[test]
fn gsketch_never_underestimates_any_stream_edge() {
    let stream = dblp_stream();
    let (gs, gl, truth) = build_pair(&stream, 64 << 10, 3);
    for (edge, f) in truth.iter() {
        assert!(gs.estimate(edge) >= f, "gSketch underestimated {edge}");
        assert!(gl.estimate(edge) >= f, "Global underestimated {edge}");
    }
}

#[test]
fn total_weight_is_conserved_across_partitions() {
    let stream = dblp_stream();
    let (gs, _, truth) = build_pair(&stream, 64 << 10, 3);
    assert_eq!(gs.total_weight(), truth.total_weight());
    let partition_sum: u64 = gs.partition_loads().iter().map(|&(_, n)| n).sum();
    assert_eq!(partition_sum + gs.outlier_weight(), gs.total_weight());
}

#[test]
fn memory_budget_holds_at_every_sweep_point() {
    let stream = dblp_stream();
    for memory in [32 << 10, 128 << 10, 1 << 20] {
        let (gs, gl, _) = build_pair(&stream, memory, 3);
        assert!(gs.bytes() <= memory, "gSketch overflowed {memory}");
        assert!(gl.bytes() <= memory, "Global overflowed {memory}");
        assert!(gs.bytes() * 2 >= memory, "gSketch wasted most of {memory}");
    }
}

#[test]
fn gsketch_beats_global_on_skewed_stream_single_row() {
    // The paper's headline claim in its own regime (d = 1): on a stream
    // with strong role separation, gSketch's average relative error over
    // distinct-uniform queries is clearly lower.
    let stream = ipattack::generate(IpAttackConfig {
        hosts: 8_000,
        arrivals: 400_000,
        scanners: 16,
        attackers: 120,
        scan_subnet: 600,
        seed: 4,
        ..IpAttackConfig::default()
    });
    let (gs, gl, truth) = build_pair(&stream, 128 << 10, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let queries = uniform_distinct_queries(&truth, 4_000, &mut rng);
    let a = evaluate_edge_queries(&gs, &queries, &truth, DEFAULT_G0);
    let b = evaluate_edge_queries(&gl, &queries, &truth, DEFAULT_G0);
    assert!(
        a.avg_relative_error < b.avg_relative_error * 0.8,
        "expected a clear gSketch win: {:.2} vs {:.2}",
        a.avg_relative_error,
        b.avg_relative_error
    );
}

#[test]
fn subgraph_queries_agree_with_sum_of_edges() {
    let stream = dblp_stream();
    let (gs, _, truth) = build_pair(&stream, 256 << 10, 3);
    let mut rng = StdRng::seed_from_u64(6);
    let qs = bfs_subgraph_queries(&truth, 50, 6, &mut rng);
    for q in &qs {
        let direct: u64 = q.edges.iter().map(|&e| gs.estimate(e)).sum();
        let via_gamma = gsketch::estimate_subgraph(&gs, q, Aggregator::Sum);
        assert_eq!(direct as f64, via_gamma);
    }
    let acc = evaluate_subgraph_queries(&gs, &qs, &truth, Aggregator::Sum, DEFAULT_G0);
    assert!(acc.avg_relative_error >= 0.0);
}

#[test]
fn workload_scenario_builds_and_answers() {
    let stream = dblp_stream();
    let truth = ExactCounter::from_stream(&stream);
    let mut rng = StdRng::seed_from_u64(7);
    let sampler = ZipfEdgeSampler::new(&truth, 1.5, ZipfRank::Random, &mut rng);
    let workload = sampler.draw(20_000, &mut rng);
    let queries = sampler.draw(2_000, &mut rng);
    let sample = sample_iter(stream.iter().copied(), stream.len() / 20, &mut rng);
    let rate = sample.len() as f64 / stream.len() as f64;
    let mut gs = GSketch::builder()
        .memory_bytes(128 << 10)
        .min_width(32)
        .sample_rate(rate)
        .build_with_workload(&sample, &workload)
        .expect("build");
    gs.ingest(&stream);
    for &q in &queries {
        assert!(gs.estimate(q) >= truth.frequency(q));
    }
}

#[test]
fn rmat_stream_routes_unsampled_vertices_to_outlier() {
    let stream: Vec<StreamEdge> = RmatGenerator::new(RmatConfig::gtgraph(12, 100_000, 8)).collect();
    let (gs, _, truth) = build_pair(&stream, 128 << 10, 3);
    let mut outlier = 0usize;
    let mut checked = 0usize;
    for (edge, f) in truth.iter().take(5_000) {
        checked += 1;
        if gs.route(edge) == SketchId::Outlier {
            outlier += 1;
        }
        assert!(gs.estimate(edge) >= f);
    }
    // An R-MAT stream with a 5% sample must send a nontrivial share of
    // vertices to the outlier sketch, and all must still be answerable.
    assert!(outlier > 0, "no outlier routing in {checked} queries");
}

#[test]
fn deterministic_end_to_end() {
    let stream = dblp_stream();
    let (a, _, _) = build_pair(&stream, 64 << 10, 3);
    let (b, _, _) = build_pair(&stream, 64 << 10, 3);
    for se in stream.iter().take(2_000) {
        assert_eq!(a.estimate(se.edge), b.estimate(se.edge));
    }
    assert_eq!(a.num_partitions(), b.num_partitions());
}

#[test]
fn zero_frequency_edges_get_small_estimates_at_large_memory() {
    let stream = dblp_stream();
    let (gs, _, truth) = build_pair(&stream, 4 << 20, 3);
    // Edges that never occurred: estimates must be bounded by collisions
    // only, which at 4MB for this small stream are near zero.
    let mut fps = 0;
    for i in 0..1_000u32 {
        let e = Edge::new(50_000 + i, 60_000 + i);
        assert_eq!(truth.frequency(e), 0);
        if gs.estimate(e) > 5 {
            fps += 1;
        }
    }
    assert!(fps < 50, "too many confident false positives: {fps}");
}
