//! Ingest engine benchmark (DESIGN.md §11): the combining
//! [`ShardedIngest`] engine (the `sharded/1t` row) vs. the slot-grouped
//! counting-sort `ingest_batch` of the flat write (the
//! `cm-arena/batched` row), on an R-MAT (GTGraph) traffic stream.
//!
//! The engine's gain is duplicate coalescing: each distinct key in a
//! combiner residency costs `d` hash evaluations once, however often it
//! arrived. These two rows are the evidence for keeping the counting
//! sort on the flat write (DESIGN.md §11).
//!
//! A print-only dev tool: `perfbench` is the recorded measurement.

use gsketch::{EdgeSink, GSketch, ShardedIngest};
use gsketch_bench::{experiment_scale, rate_of, Bundle, Dataset, EXPERIMENT_SEED};
use std::hint::black_box;

const MEMORY_BYTES: usize = 2 << 20;
const DEPTH: usize = 3;
const ESTIMATE_QUERIES: usize = 1_000_000;

fn main() {
    let scale = experiment_scale() * 0.25; // ~2M arrivals at full scale
    let bundle = Bundle::load(Dataset::GtGraph, scale.clamp(0.001, 1.0), EXPERIMENT_SEED);
    let sample = bundle.dataset.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let rate = (sample.len() as f64 / bundle.stream.len() as f64).clamp(1e-6, 1.0);
    let builder = GSketch::builder()
        .memory_bytes(MEMORY_BYTES)
        .depth(DEPTH)
        .min_width(64)
        .sample_rate(rate)
        .seed(EXPERIMENT_SEED);
    let base = builder
        .build_from_sample(&sample)
        .expect("valid bench configuration");

    println!(
        "parallel_ingest: {} arrivals (R-MAT traffic), {} B budget, depth {}",
        bundle.stream.len(),
        MEMORY_BYTES,
        DEPTH
    );

    let queries: Vec<_> = bundle
        .stream
        .iter()
        .take(ESTIMATE_QUERIES)
        .map(|se| se.edge)
        .collect();
    let rounds = ESTIMATE_QUERIES / queries.len().max(1);
    let measure_estimates = |g: &GSketch| -> f64 {
        rate_of((queries.len() * rounds) as u64, || {
            for _ in 0..rounds {
                for &e in &queries {
                    black_box(g.estimate(black_box(e)));
                }
            }
        })
    };

    /// Single-run noise on a busy host is well over 10%, so every row is
    /// the median of `RUNS` full-stream passes (each on a fresh sketch,
    /// after one untimed warm-up pass has faulted in the allocations).
    const RUNS: usize = 3;
    let median = |mut rates: Vec<f64>| -> f64 {
        rates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        rates[rates.len() / 2]
    };

    // Single-thread sequential baseline: the slot-grouped batched path,
    // measured in the same run so the sharded rows below are compared
    // apples-to-apples.
    let baseline = {
        let mut last = base.clone();
        let mut rates = Vec::new();
        for pass in 0..=RUNS {
            let mut gs = base.clone();
            let rate = rate_of(bundle.stream.len() as u64, || {
                for chunk in bundle.stream.chunks(1 << 16) {
                    gs.ingest_batch(chunk);
                }
            });
            if pass > 0 {
                rates.push(rate);
            }
            last = gs;
        }
        let updates = median(rates);
        println!(
            "{:<18} {updates:>14.0} updates/s {:>14.0} estimates/s",
            "cm-arena/batched",
            measure_estimates(&last)
        );
        updates
    };

    // The combining engine over the same stream.
    let mut rates = Vec::new();
    let mut last = base.clone();
    for pass in 0..=RUNS {
        let mut sketch = base.clone();
        let rate = rate_of(bundle.stream.len() as u64, || {
            ShardedIngest::new(&mut sketch, 1).run_slice(&bundle.stream);
        });
        if pass > 0 {
            rates.push(rate);
        }
        last = sketch;
    }
    let updates = median(rates);
    println!(
        "{:<18} {updates:>14.0} updates/s {:>14.0} estimates/s",
        "sharded/1t",
        measure_estimates(&last)
    );
    println!(
        "combining engine over counting-sort batched baseline: {:.2}x",
        updates / baseline
    );
}
