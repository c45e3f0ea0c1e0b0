//! Owner-sharded ingest benchmark (DESIGN.md §11): the
//! [`ShardedIngest`] engine over per-owner arena slices vs. the
//! single-threaded slot-grouped `ingest_batch` baseline (the
//! `cm-arena/batched` row), on an R-MAT (GTGraph) traffic stream.
//!
//! The engine's win has two independent components: owner parallelism
//! (scatter by router slot, plain-store commits into exclusively-owned
//! arena slices) and duplicate coalescing (each distinct key in a
//! combiner residency costs `d` hash evaluations once, however often it
//! arrived). The owner sweep below separates them — `sharded/1t` (the
//! fused no-spawn path) isolates the coalescing gain, `sharded/{2,4,8}t`
//! add core scaling on top. Each sweep row prints its throughput
//! relative to the 1-owner row; a request the host clamps to fewer
//! workers is skipped, so no row claims core scaling that did not run.
//!
//! A print-only dev tool: `perfbench` is the recorded measurement, and
//! it times only the 1-owner engine (a 2-owner run needs a third thread
//! for scatter, more than its 2-vCPU host has). This bench keeps the
//! `sharded/2t` row for hosts that can run it.

use gsketch::{EdgeSink, GSketch, ShardedIngest};
use gsketch_bench::{experiment_scale, rate_of, Bundle, Dataset, EXPERIMENT_SEED};
use std::hint::black_box;

const MEMORY_BYTES: usize = 2 << 20;
const DEPTH: usize = 3;
const CHUNK: usize = 1 << 17;
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
        "parallel_ingest: {} arrivals (R-MAT traffic), {} B budget, depth {}, chunk {}",
        bundle.stream.len(),
        MEMORY_BYTES,
        DEPTH,
        CHUNK
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
            "{:<18} workers=1 {updates:>14.0} updates/s {:>14.0} estimates/s",
            "cm-arena/batched",
            measure_estimates(&last)
        );
        updates
    };

    // Owner-sharded engine sweep (DESIGN.md §11): scatter by router
    // slot, bounded-channel handoff, plain-store commits into owned arena slices.
    // A request the host would clamp to fewer workers measures nothing
    // the row name claims, so it is not printed.
    let mut sharded_1t = f64::NAN;
    let mut best = 0f64;
    for threads in [1usize, 2, 4, 8] {
        let mut probe = base.clone();
        let workers = ShardedIngest::new(&mut probe, threads).effective_owners();
        if workers < threads {
            println!("sharded/{threads}t: skipped (clamped to {workers} worker(s))");
            continue;
        }
        let mut rates = Vec::new();
        let mut last = None;
        for pass in 0..=RUNS {
            let mut sketch = base.clone();
            let rate = rate_of(bundle.stream.len() as u64, || {
                ShardedIngest::new(&mut sketch, threads)
                    .chunk_capacity(CHUNK)
                    .run_slice(&bundle.stream);
            });
            if pass > 0 {
                rates.push(rate);
            }
            last = Some(sketch);
        }
        let estimates = measure_estimates(&last.expect("at least one pass ran"));
        let updates = median(rates);
        if threads == 1 {
            sharded_1t = updates;
        }
        best = best.max(updates);
        let name = format!("sharded/{threads}t");
        println!(
            "{name:<18} workers={workers} {updates:>14.0} updates/s {estimates:>14.0} estimates/s \
             x{:.2} vs 1t",
            updates / sharded_1t
        );
    }
    println!(
        "owner-sharded speedup over single-thread batched baseline: {:.2}x",
        best / baseline
    );
}
