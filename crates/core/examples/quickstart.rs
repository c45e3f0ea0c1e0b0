//! Quickstart: build a gSketch from a data sample, stream edges through
//! it, and answer edge + subgraph queries.
//!
//! Run with: `cargo run --release -p gsketch-core --example quickstart`

use gsketch::{estimate_subgraph, Aggregator, EdgeSink, GSketch};
use gstream::workload::SubgraphQuery;
use gstream::{Edge, ExactCounter, Interner, StreamEdge};

fn main() {
    // Vertices carry string labels in the paper's model; the interner
    // maps them to dense ids once.
    let mut names = Interner::new();
    let alice = names.intern("alice");
    let bob = names.intern("bob");
    let carol = names.intern("carol");
    let dave = names.intern("dave");

    // A toy graph stream: alice↔bob chat constantly, the rest is sparse.
    let mut stream = Vec::new();
    for t in 0..10_000u64 {
        stream.push(StreamEdge::unit(Edge::new(alice, bob), t));
        if t % 50 == 0 {
            stream.push(StreamEdge::unit(Edge::new(bob, carol), t));
        }
        if t % 200 == 0 {
            stream.push(StreamEdge::unit(Edge::new(carol, dave), t));
        }
    }

    // Scenario 1: a data sample (here the stream prefix) drives the
    // sketch partitioning; then the full stream is ingested.
    let sample = &stream[..500];
    let mut gs = GSketch::builder()
        .memory_bytes(64 * 1024)
        .min_width(16)
        .build_from_sample(sample)
        .expect("valid configuration");
    gs.ingest(&stream);

    // The Global Sketch baseline gets the same memory.
    let mut global = GSketch::global(64 * 1024, 3, 42).expect("valid configuration");
    global.ingest(&stream);

    // Ground truth for comparison (only possible on toy data!).
    let truth = ExactCounter::from_stream(&stream);

    println!("edge query                     truth   gSketch   Global");
    for (a, b) in [(alice, bob), (bob, carol), (carol, dave)] {
        let e = Edge::new(a, b);
        println!(
            "{:>6} -> {:<10} {:>12} {:>9} {:>8}",
            names.label(a).unwrap(),
            names.label(b).unwrap(),
            truth.frequency(e),
            gs.estimate(e),
            global.estimate(e),
        );
    }

    // An aggregate subgraph query: total traffic of the path.
    let community = SubgraphQuery {
        edges: vec![
            Edge::new(alice, bob),
            Edge::new(bob, carol),
            Edge::new(carol, dave),
        ],
    };
    println!(
        "\ncommunity SUM: truth {} | gSketch {} | Global {}",
        estimate_subgraph(&truth, &community, Aggregator::Sum),
        estimate_subgraph(&gs, &community, Aggregator::Sum),
        estimate_subgraph(&global, &community, Aggregator::Sum),
    );

    // Per-query confidence comes from the answering partition.
    let detail = gs.estimate_detailed(Edge::new(alice, bob));
    println!(
        "\nalice->bob: estimate {} (±{:.1} with confidence {:.3}, answered by {:?})",
        detail.value, detail.error_bound, detail.confidence, detail.sketch
    );
    println!(
        "gSketch built {} partitions in {} bytes",
        gs.num_partitions(),
        gs.bytes()
    );
}
