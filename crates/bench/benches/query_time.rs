//! Criterion companion to Figure 14: per-query estimation latency of
//! gSketch vs Global Sketch, aggregate subgraph queries, and the
//! batched query engine (DESIGN.md §8) against the scalar loop. After
//! the Criterion pass, a direct timing pass appends
//! scalar/batched/parallel workload-replay rates to the `query_time`
//! section of `BENCH_ingest.json` (with the `threads` column recording
//! the workers that actually ran after the core clamp).

use criterion::{black_box, criterion_group, Criterion};
use gsketch::{
    estimate_subgraph, Aggregator, EdgeEstimator, EdgeSink, GSketch, GlobalSketch, ParallelQuery,
};
use gsketch_bench::*;
use gstream::Edge;

fn bench_query(c: &mut Criterion) {
    let bundle = Bundle::load(Dataset::Dblp, 0.05, EXPERIMENT_SEED);
    let sets = make_query_sets(&bundle, Scenario::DataOnly, EXPERIMENT_SEED);
    let sample = bundle.dataset.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let mut gs = GSketch::builder()
        .memory_bytes(2 << 20)
        .build_from_sample(&sample)
        .unwrap();
    gs.ingest(&bundle.stream);
    let mut gl = GlobalSketch::new(2 << 20, 3, EXPERIMENT_SEED).unwrap();
    gl.ingest(&bundle.stream);

    let mut g = c.benchmark_group("query_time");
    let mut i = 0usize;
    g.bench_function("gsketch_edge_query", |b| {
        b.iter(|| {
            i = (i + 1) % sets.edges.len();
            black_box(gs.estimate(black_box(sets.edges[i])))
        })
    });
    g.bench_function("global_edge_query", |b| {
        b.iter(|| {
            i = (i + 1) % sets.edges.len();
            black_box(gl.estimate(black_box(sets.edges[i])))
        })
    });
    // The batched engine, amortized per query: one in-order batch
    // over the whole query set per iteration.
    let mut out = Vec::with_capacity(sets.edges.len());
    g.bench_function("gsketch_edge_query_batched", |b| {
        b.iter(|| {
            gs.estimate_edges(black_box(&sets.edges), &mut out);
            black_box(out.last().copied())
        })
    });
    let mut j = 0usize;
    g.bench_function("gsketch_subgraph_query", |b| {
        b.iter(|| {
            j = (j + 1) % sets.subgraphs.len();
            black_box(estimate_subgraph(&gs, &sets.subgraphs[j], Aggregator::Sum))
        })
    });
    g.bench_function("global_subgraph_query", |b| {
        b.iter(|| {
            j = (j + 1) % sets.subgraphs.len();
            black_box(estimate_subgraph(&gl, &sets.subgraphs[j], Aggregator::Sum))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_query);

/// Direct (non-Criterion) timing pass: replay one large query workload
/// through the scalar loop, the batched engine, and the parallel
/// fan-out, and record the rates (`estimates_per_sec`; the ingest-side
/// `updates_per_sec` column is 0 for query rows).
///
/// Three deliberate choices make this the regime the engine is *for*:
/// the R-MAT dataset at a scale with a large distinct-edge set (DBLP's
/// ~14k distinct edges all stay cache-warm, which benchmarks the cache,
/// not the engine), a production-scale 64 MiB synopsis (far beyond any
/// per-core L2, so point reads are memory-bound — the paper's 2 MiB
/// figures are served fine by either path), and the §6.3
/// uniform-over-distinct-edges query set (cold cells; an
/// arrival-proportional workload is Zipf-headed and largely
/// cache-resident either way). Scalar reads then hop randomly across
/// the slab, while the batched path overlaps a block of prefetched
/// cell loads at a time.
fn record_trajectory() {
    use gsketch_bench::trajectory::{rate_of, record_section, Throughput as Rates};
    use serde::Value;

    const PASSES: u64 = 4;
    const QUERIES: usize = 1 << 20;
    let bundle = Bundle::load(Dataset::GtGraph, 0.25, EXPERIMENT_SEED);
    let sample = bundle.dataset.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let mut gs = GSketch::builder()
        .memory_bytes(64 << 20)
        .min_width(64)
        .build_from_sample(&sample)
        .unwrap();
    gs.ingest(&bundle.stream);
    let queries: Vec<Edge> = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(EXPERIMENT_SEED);
        gstream::workload::uniform_distinct_queries(&bundle.truth, QUERIES, &mut rng)
    };
    let n = PASSES * queries.len() as u64;

    let mut sink = 0u64;
    let scalar = rate_of(n, || {
        for _ in 0..PASSES {
            for &q in &queries {
                sink = sink.wrapping_add(black_box(gs.estimate_edge(black_box(q))));
            }
        }
    });
    let mut out = Vec::with_capacity(queries.len());
    let batched = rate_of(n, || {
        for _ in 0..PASSES {
            gs.estimate_edges(black_box(&queries), &mut out);
            sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
        }
    });
    let pq = ParallelQuery::new(&gs, 8);
    let workers = pq.effective_threads();
    let parallel = rate_of(n, || {
        for _ in 0..PASSES {
            pq.estimate_edges(black_box(&queries), &mut out);
            sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
        }
    });

    let query_row = |name: &str, threads: usize, rate: f64| Rates {
        threads,
        ..Rates::sequential(name, 0.0, rate)
    };
    record_section(
        "query_time",
        &[
            ("dataset", Value::Str(bundle.dataset.name().to_owned())),
            ("queries_timed", Value::U64(n)),
        ],
        &[
            query_row("gsketch/cm-arena/scalar", 1, scalar),
            query_row("gsketch/cm-arena/batched", 1, batched),
            query_row("gsketch/cm-arena/parallel", workers, parallel),
        ],
    );
    println!(
        "trajectory: scalar {scalar:.0} q/s, batched {batched:.0} q/s ({:.2}x), parallel {parallel:.0} q/s ({workers} workers) → {} [sink {sink}]",
        batched / scalar,
        gsketch_bench::trajectory::bench_file().display()
    );
}

fn main() {
    let _ = std::env::args();
    benches();
    record_trajectory();
}
