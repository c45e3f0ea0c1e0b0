//! Ablation: the sample-free adaptive gSketch (§7 future work) against
//! the sample-built gSketch and the Global Sketch baseline, at equal
//! memory, across the GTGraph memory sweep.
//!
//! The adaptive sketch never sees a pre-collected sample: its warm-up
//! phase (first 5% of the stream, 15% of the memory) plays that role.
//! The question this table answers is how much accuracy that convenience
//! costs relative to scenario 1, and how both compare to no partitioning
//! at all.

use gsketch::{
    evaluate_edge_queries, AdaptiveConfig, AdaptiveGSketch, EdgeSink, GSketch, DEFAULT_G0,
};
use gsketch_bench::harness::{EXPERIMENT_DEPTH, EXPERIMENT_MIN_WIDTH, EXPERIMENT_SEED};
use gsketch_bench::*;

fn main() {
    let ds = Dataset::GtGraph;
    let bundle = load(ds);
    let sets = make_query_sets(&bundle, Scenario::DataOnly, EXPERIMENT_SEED);
    let sample = ds.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let rate = sample.len() as f64 / bundle.stream.len() as f64;
    let warmup = (bundle.stream.len() / 20).max(1) as u64;

    let mut t = Table::new(
        "Ablation — sample-free adaptive gSketch vs sample-built vs Global (GTGraph)",
        &[
            "memory",
            "Global",
            "gSketch (sampled)",
            "adaptive (no sample)",
            "adaptive parts",
        ],
    );
    for mem in ds.memory_sweep() {
        let mut gl = GSketch::global(mem, EXPERIMENT_DEPTH, EXPERIMENT_SEED).expect("global");
        gl.ingest(&bundle.stream);
        let acc_gl = evaluate_edge_queries(&gl, &sets.edges, &bundle.truth, DEFAULT_G0);

        let mut gs = GSketch::builder()
            .memory_bytes(mem)
            .depth(EXPERIMENT_DEPTH)
            .min_width(EXPERIMENT_MIN_WIDTH)
            .sample_rate(rate)
            .seed(EXPERIMENT_SEED)
            .build_from_sample(&sample)
            .expect("valid build");
        gs.ingest(&bundle.stream);
        let acc_gs = evaluate_edge_queries(&gs, &sets.edges, &bundle.truth, DEFAULT_G0);

        let mut ad = AdaptiveGSketch::new(AdaptiveConfig {
            memory_bytes: mem,
            warmup_arrivals: warmup,
            warmup_memory_fraction: 0.15,
            depth: EXPERIMENT_DEPTH,
            min_width: EXPERIMENT_MIN_WIDTH,
            seed: EXPERIMENT_SEED,
            ..AdaptiveConfig::default()
        })
        .expect("valid adaptive config");
        ad.ingest(&bundle.stream);
        let acc_ad = evaluate_edge_queries(&ad, &sets.edges, &bundle.truth, DEFAULT_G0);

        t.row(vec![
            fmt_bytes(mem),
            fmt_f(acc_gl.avg_relative_error),
            fmt_f(acc_gs.avg_relative_error),
            fmt_f(acc_ad.avg_relative_error),
            ad.num_partitions().to_string(),
        ]);
    }
    t.print();
}
