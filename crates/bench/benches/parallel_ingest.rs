//! Owner-sharded ingest benchmark (DESIGN.md §11): the
//! [`ShardedIngest`] engine over per-owner arena slices vs. the
//! single-threaded slot-grouped `ingest_batch` baseline, on the same
//! R-MAT (GTGraph) traffic stream and build parameters as
//! `backend_micro`.
//!
//! The engine's win has two independent components: owner parallelism
//! (scatter by router slot, plain-store commits into exclusively-owned
//! arena slices) and duplicate coalescing (each distinct key in a
//! combiner residency costs `d` hash evaluations once, however often it
//! arrived). The owner sweep below separates them — `sharded/1t` (the
//! fused no-spawn path) isolates the coalescing gain, `sharded/{2,4,8}t`
//! add core scaling on top. Each sweep row carries a `scaling_ratio`
//! (throughput relative to the 1-owner row); a request the host clamps
//! to fewer workers is skipped, so the trajectory never records core
//! scaling that did not run. Results are appended to
//! `BENCH_ingest.json`.

use gsketch::{EdgeSink, GSketch, ShardedIngest};
use gsketch_bench::trajectory::{rate_of, record_section, Throughput};
use gsketch_bench::{experiment_scale, Bundle, Dataset, EXPERIMENT_SEED};
use serde::Value;
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

    let mut results: Vec<Throughput> = Vec::new();

    /// Single-run noise on a busy host is well over 10%, so every row is
    /// the median of `RUNS` full-stream passes (each on a fresh sketch,
    /// after one untimed warm-up pass has faulted in the allocations).
    const RUNS: usize = 3;
    let median = |mut rates: Vec<f64>| -> f64 {
        rates.sort_unstable_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        rates[rates.len() / 2]
    };

    // Single-thread sequential baseline: the slot-grouped batched path
    // the previous trajectory tracked, re-measured on this machine so
    // the sharded rows below are compared apples-to-apples.
    {
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
        let estimates = measure_estimates(&last);
        results.push(Throughput::sequential(
            "cm-arena/batched",
            median(rates),
            estimates,
        ));
    }

    // Owner-sharded engine sweep (DESIGN.md §11): scatter by router
    // slot, SPSC handoff, plain-store commits into owned arena slices.
    // A request the host would clamp to fewer workers measures nothing
    // the row name claims, so it is not recorded.
    let mut sharded_1t = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let mut probe = base.clone();
        let workers = ShardedIngest::new(&mut probe, threads).effective_owners();
        if workers < threads {
            println!("sharded/{threads}t: not recorded (clamped to {workers} worker(s))");
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
        results.push(Throughput {
            name: format!("sharded/{threads}t"),
            threads: workers,
            updates_per_sec: updates,
            estimates_per_sec: estimates,
            scaling_ratio: Some(updates / sharded_1t),
        });
    }

    for t in &results {
        let ratio = t
            .scaling_ratio
            .map(|r| format!(" x{r:.2} vs 1t"))
            .unwrap_or_default();
        println!(
            "{:<18} workers={} {:>14.0} updates/s {:>14.0} estimates/s{}",
            t.name, t.threads, t.updates_per_sec, t.estimates_per_sec, ratio
        );
    }
    let baseline = results[0].updates_per_sec;
    let best = results
        .iter()
        .filter(|t| t.name.starts_with("sharded/"))
        .map(|t| t.updates_per_sec)
        .fold(0.0, f64::max);
    println!(
        "owner-sharded speedup over single-thread batched baseline: {:.2}x",
        best / baseline
    );

    record_section(
        "parallel_ingest",
        &[
            ("dataset", Value::Str("GTGraph (R-MAT traffic)".into())),
            ("arrivals", Value::U64(bundle.stream.len() as u64)),
            ("memory_bytes", Value::U64(MEMORY_BYTES as u64)),
            ("depth", Value::U64(DEPTH as u64)),
            ("chunk", Value::U64(CHUNK as u64)),
        ],
        &results,
    );
    println!(
        "recorded to {}",
        gsketch_bench::trajectory::bench_file().display()
    );
}
