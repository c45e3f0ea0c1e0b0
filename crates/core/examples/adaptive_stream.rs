//! Sample-free deployment: the adaptive gSketch partitions itself from
//! the stream prefix — no pre-collected data sample required (the §7
//! future-work scenario).
//!
//! Run with: `cargo run --release -p gsketch-core --example adaptive_stream`

use gsketch::adaptive::Phase;
use gsketch::{AdaptiveConfig, AdaptiveGSketch, EdgeSink, GSketch};
use gstream::gen::{RmatTrafficConfig, RmatTrafficGenerator};
use gstream::ExactCounter;

fn main() {
    // An R-MAT topology replayed under per-source activity — the
    // GTGraph-substitute traffic model with the §3.3 properties that
    // make partitioning worthwhile.
    let mut cfg = RmatTrafficConfig::gtgraph(14, 100_000, 1_200_000, 7);
    cfg.activity_alpha = 1.2;
    let stream: Vec<_> = RmatTrafficGenerator::new(cfg).generate();
    let truth = ExactCounter::from_stream(&stream);

    let budget = 256 * 1024;
    let mut adaptive = AdaptiveGSketch::new(AdaptiveConfig {
        memory_bytes: budget,
        warmup_arrivals: 20_000, // the stream prefix is the "sample"
        warmup_memory_fraction: 0.15,
        depth: 1,
        min_width: 128,
        ..AdaptiveConfig::default()
    })
    .expect("valid configuration");

    // Ingest; the switchover happens automatically mid-stream.
    let mut switched_at = None;
    for (i, se) in stream.iter().enumerate() {
        adaptive.update(*se);
        if switched_at.is_none() && adaptive.phase() == Phase::Partitioned {
            switched_at = Some(i + 1);
        }
    }
    println!(
        "switched from warm-up to {} partitions after {} arrivals",
        adaptive.num_partitions(),
        switched_at.unwrap_or(0),
    );

    // Same memory for the baseline.
    let mut global = GSketch::global(budget, 1, 99).expect("valid configuration");
    global.ingest(&stream);

    // Compare average relative error over all distinct edges.
    let mut adaptive_err = 0.0f64;
    let mut global_err = 0.0f64;
    let mut n = 0usize;
    for (edge, f) in truth.iter() {
        adaptive_err += (adaptive.estimate(edge) - f) as f64 / f as f64;
        global_err += (global.estimate(edge) - f) as f64 / f as f64;
        n += 1;
    }
    println!(
        "avg relative error over {n} edges: adaptive {:.3} vs global {:.3}",
        adaptive_err / n as f64,
        global_err / n as f64,
    );
    println!(
        "memory: adaptive {} bytes (warm-up + partitions), global {} bytes",
        adaptive.bytes(),
        global.bytes(),
    );
}
