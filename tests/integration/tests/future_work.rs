//! Integration tests for the §7 future-work features, spanning crates:
//! adaptive (sample-free) sketching, persistence, windowed deployments,
//! structural queries, and the stream-file pipeline the CLI uses.

use gsketch::adaptive::Phase;
use gsketch::{
    estimate_subgraph_with, load_gsketch, save_gsketch, AdaptiveConfig, AdaptiveGSketch, EdgeSink,
    GSketch,
};
use gstream::gen::{
    RmatTrafficConfig, RmatTrafficGenerator, SmallWorldConfig, SmallWorldGenerator,
};
use gstream::sample::sample_iter;
use gstream::workload::SubgraphQuery;
use gstream::{read_stream, write_stream, Edge, ExactCounter, StreamEdge};
use rand::rngs::StdRng;
use rand::SeedableRng;
use structural::{ExactTriangleCounter, HeavyVertexTracker, PathAggregator, PathSketch};

fn traffic_stream(arrivals: usize, seed: u64) -> Vec<StreamEdge> {
    let mut cfg = RmatTrafficConfig::gtgraph(11, arrivals / 4, arrivals, seed);
    cfg.activity_alpha = 1.2;
    RmatTrafficGenerator::new(cfg).generate()
}

#[test]
fn adaptive_pipeline_matches_sample_built_shape() {
    // The sample-free sketch should behave like a scenario-1 gSketch fed
    // the same prefix as its sample: both one-sided, both partitioned.
    let stream = traffic_stream(120_000, 5);
    let warmup = 12_000usize;

    let mut adaptive = AdaptiveGSketch::new(AdaptiveConfig {
        memory_bytes: 128 << 10,
        warmup_arrivals: warmup as u64,
        depth: 1,
        min_width: 64,
        expected_growth: 10.0,
        ..AdaptiveConfig::default()
    })
    .expect("valid config");
    adaptive.ingest(&stream);
    assert_eq!(adaptive.phase(), Phase::Partitioned);
    assert!(adaptive.num_partitions() >= 1);

    let mut sampled = GSketch::builder()
        .memory_bytes(128 << 10)
        .depth(1)
        .min_width(64)
        .sample_rate(warmup as f64 / stream.len() as f64)
        .build_from_sample(&stream[..warmup])
        .expect("valid build");
    sampled.ingest(&stream);

    let truth = ExactCounter::from_stream(&stream);
    for (edge, f) in truth.iter() {
        assert!(
            adaptive.estimate(edge) >= f,
            "adaptive underestimated {edge}"
        );
        assert!(sampled.estimate(edge) >= f, "sampled underestimated {edge}");
    }
}

#[test]
fn snapshot_survives_full_pipeline() {
    // stream file → sample → build → ingest half → snapshot → restore →
    // ingest rest → identical estimates to the uninterrupted sketch.
    let stream = traffic_stream(60_000, 9);
    let mut buf = Vec::new();
    write_stream(&mut buf, &stream).expect("serialize stream");
    let replayed = read_stream(&buf[..]).expect("parse stream");
    assert_eq!(replayed, stream);

    let mut rng = StdRng::seed_from_u64(3);
    let sample = sample_iter(replayed.iter().copied(), 5_000, &mut rng);
    let build = || {
        GSketch::builder()
            .memory_bytes(64 << 10)
            .min_width(32)
            .sample_rate(5_000.0 / replayed.len() as f64)
            .build_from_sample(&sample)
            .expect("valid build")
    };
    let mid = replayed.len() / 2;

    let mut uninterrupted = build();
    uninterrupted.ingest(&replayed);

    let mut first_half = build();
    first_half.ingest(&replayed[..mid]);
    let dir = std::env::temp_dir().join("gsketch_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pipeline.json");
    save_gsketch(&path, &first_half).expect("snapshot");
    let mut restored = load_gsketch(&path).expect("restore");
    restored.ingest(&replayed[mid..]);
    std::fs::remove_file(&path).ok();

    for se in replayed.iter().step_by(101) {
        assert_eq!(restored.estimate(se.edge), uninterrupted.estimate(se.edge));
    }
}

#[test]
fn structural_queries_on_generated_workloads() {
    let stream: Vec<StreamEdge> =
        SmallWorldGenerator::new(SmallWorldConfig::new(400, 40_000, 17)).collect();

    // Triangles and hubs agree across exact and sketched pipelines.
    let mut tri = ExactTriangleCounter::new();
    tri.ingest(&stream);
    assert!(tri.triangles() > 0, "small-world graphs are clustered");

    let mut exact_paths = PathAggregator::new();
    exact_paths.ingest(&stream);
    let mut sk_paths = PathSketch::new(2048, 5, 7).expect("valid sketch");
    sk_paths.ingest(&stream);
    let truth_total = exact_paths.total_paths() as f64;
    let est_total = sk_paths.total_paths();
    assert!(
        (est_total - truth_total).abs() / truth_total < 0.25,
        "sketched 2-path total {est_total} too far from {truth_total}"
    );

    // The heaviest exact hub must be detected by the heavy tracker too.
    let top = exact_paths.top_hubs(1)[0].0;
    let mut heavy = HeavyVertexTracker::new(128).expect("valid tracker");
    heavy.ingest(&stream);
    assert!(
        heavy.source_weight(top) > 0 || heavy.destination_weight(top) > 0,
        "top hub invisible to the heavy tracker"
    );
}

#[test]
fn custom_gamma_over_partitioned_sketch() {
    // §7's "complex functions of edge frequencies" evaluated against the
    // real partitioned estimator, not just ground truth.
    let stream = traffic_stream(50_000, 21);
    let truth = ExactCounter::from_stream(&stream);
    let mut rng = StdRng::seed_from_u64(2);
    let sample = sample_iter(stream.iter().copied(), 5_000, &mut rng);
    let mut gs = GSketch::builder()
        .memory_bytes(256 << 10)
        .min_width(32)
        .sample_rate(0.1)
        .build_from_sample(&sample)
        .expect("valid build");
    gs.ingest(&stream);

    let edges: Vec<Edge> = truth.iter().take(8).map(|(e, _)| e).collect();
    let q = SubgraphQuery { edges };
    // Range (max − min) of the estimates: a legitimate custom Γ. The
    // closure receives the batched estimates in native precision.
    let range = estimate_subgraph_with(&gs, &q, |vals| {
        vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().copied().fold(f64::INFINITY, f64::min)
    });
    assert!(range >= 0.0);
    // Sanity: SUM via closure equals SUM via the enum.
    let sum_closure = estimate_subgraph_with(&gs, &q, |vals| vals.iter().sum());
    let sum_enum = gsketch::estimate_subgraph(&gs, &q, gsketch::Aggregator::Sum);
    assert_eq!(sum_closure, sum_enum);
}

#[test]
fn cli_dispatch_runs_inside_integration() {
    // The CLI is a library; drive a generate→stats→build→query loop
    // through its dispatcher the way the binary does.
    let dir = std::env::temp_dir().join("gsketch_integration_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let stream_path = dir.join("s.txt").to_string_lossy().into_owned();
    let snap_path = dir.join("s.json").to_string_lossy().into_owned();
    let run = |args: &[&str]| -> String {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        gsketch_cli::dispatch(&owned, &mut out).expect("command ok");
        String::from_utf8(out).unwrap()
    };
    run(&[
        "generate",
        "rmat-traffic",
        "--out",
        &stream_path,
        "--arrivals",
        "20000",
        "--vertices",
        "512",
    ]);
    let stats = run(&["stats", &stream_path]);
    assert!(stats.contains("arrivals:        20000"));
    run(&[
        "build",
        &stream_path,
        "--memory",
        "64K",
        "--out",
        &snap_path,
        "--sample-frac",
        "0.1",
    ]);
    let q = run(&["query", &snap_path, "1", "2", "--stream", &stream_path]);
    assert!(q.contains("estimate"));
    std::fs::remove_file(&stream_path).ok();
    std::fs::remove_file(&snap_path).ok();
}
