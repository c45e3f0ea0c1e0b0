//! Social-network scenario (paper §1, application 1): estimate
//! communication frequencies between friends and within communities on a
//! DBLP-like co-authorship stream, comparing gSketch with the Global
//! Sketch baseline at a tight memory budget.
//!
//! Run with: `cargo run --release -p gsketch-core --example social_network`

use gsketch::{
    evaluate_edge_queries, evaluate_subgraph_queries, Aggregator, EdgeSink, GSketch, DEFAULT_G0,
};
use gstream::gen::{dblp, DblpConfig};
use gstream::workload::{bfs_subgraph_queries, uniform_distinct_queries};
use gstream::ExactCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A co-authorship stream with stable labs and one-off collaborations.
    let stream = dblp::generate(DblpConfig {
        authors: 20_000,
        papers: 80_000,
        seed: 7,
        ..DblpConfig::default()
    });
    let truth = ExactCounter::from_stream(&stream);
    println!(
        "stream: {} interactions over {} distinct pairs",
        truth.arrivals(),
        truth.distinct_edges()
    );

    // 5% reservoir data sample; queries are uniform over distinct pairs.
    let mut rng = StdRng::seed_from_u64(1);
    let sample = gstream::sample::sample_iter(stream.iter().copied(), stream.len() / 20, &mut rng);
    let rate = sample.len() as f64 / stream.len() as f64;
    let queries = uniform_distinct_queries(&truth, 5_000, &mut rng);
    let communities = bfs_subgraph_queries(&truth, 500, 10, &mut rng);

    let memory = 128 * 1024;
    let mut gs = GSketch::builder()
        .memory_bytes(memory)
        .depth(1)
        .min_width(64)
        .sample_rate(rate)
        .build_from_sample_calibrated(&sample, &stream)
        .expect("valid configuration");
    gs.ingest(&stream);
    let mut global = GSketch::global(memory, 1, 9).expect("valid configuration");
    global.ingest(&stream);

    println!("\n-- edge queries: 'how often do these two interact?' --");
    let a = evaluate_edge_queries(&gs, &queries, &truth, DEFAULT_G0);
    let b = evaluate_edge_queries(&global, &queries, &truth, DEFAULT_G0);
    println!(
        "gSketch: avg rel err {:.2}, effective {}/{}",
        a.avg_relative_error, a.effective_queries, a.total_queries
    );
    println!(
        "Global : avg rel err {:.2}, effective {}/{}",
        b.avg_relative_error, b.effective_queries, b.total_queries
    );

    println!("\n-- community queries: 'how chatty is this group?' (Γ=SUM) --");
    let a = evaluate_subgraph_queries(&gs, &communities, &truth, Aggregator::Sum, DEFAULT_G0);
    let b = evaluate_subgraph_queries(&global, &communities, &truth, Aggregator::Sum, DEFAULT_G0);
    println!(
        "gSketch: avg rel err {:.3}, effective {}/{}",
        a.avg_relative_error, a.effective_queries, a.total_queries
    );
    println!(
        "Global : avg rel err {:.3}, effective {}/{}",
        b.avg_relative_error, b.effective_queries, b.total_queries
    );
    println!(
        "\ngSketch used {} partitions + outlier in {} bytes",
        gs.num_partitions(),
        gs.bytes()
    );
}
