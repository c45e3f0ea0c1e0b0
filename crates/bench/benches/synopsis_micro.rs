//! Criterion micro-benchmarks for the extended synopsis substrate:
//! CountSketch, Space-Saving, and the structural estimators' per-arrival
//! costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gstream::edge::Edge;
use sketch::{CountSketch, SpaceSaving};
use structural::{ExactTriangleCounter, HeavyVertexTracker, PathSketch, TriangleEstimator};

fn bench_countsketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("countsketch");
    g.throughput(Throughput::Elements(1));
    let mut cs = CountSketch::new(1 << 16, 5, 7).unwrap();
    let mut i = 0u64;
    g.bench_function("update", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            cs.update(black_box(i), 1);
        })
    });
    g.bench_function("estimate", |b| {
        b.iter(|| black_box(cs.estimate(black_box(i))))
    });
    g.finish();
}

fn bench_spacesaving(c: &mut Criterion) {
    let mut g = c.benchmark_group("spacesaving");
    g.throughput(Throughput::Elements(1));
    let mut ss = SpaceSaving::new(1024).unwrap();
    let mut i = 0u64;
    g.bench_function("update_churn", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            // Zipf-ish mix: frequent keys plus constant churn.
            let key = if i.is_multiple_of(4) { i } else { i % 100 };
            ss.update(black_box(key), 1);
        })
    });
    g.bench_function("estimate", |b| {
        b.iter(|| black_box(ss.estimate(black_box(i % 100))))
    });
    g.finish();
}

fn bench_structural(c: &mut Criterion) {
    let mut g = c.benchmark_group("structural");
    g.throughput(Throughput::Elements(1));
    let mut tri_exact = ExactTriangleCounter::new();
    let mut tri_sparse = TriangleEstimator::new(0.1, 7);
    let mut paths = PathSketch::new(4096, 5, 7).unwrap();
    let mut heavy = HeavyVertexTracker::new(256).unwrap();
    let mut i = 0u32;
    let next_edge = |i: &mut u32| {
        *i = i.wrapping_add(1);
        // A drifting window of vertices keeps adjacency sets bounded-ish.
        Edge::new(*i % 5_000, (*i * 7 + 1) % 5_000)
    };
    g.bench_function("triangle_exact_observe", |b| {
        b.iter(|| tri_exact.observe(black_box(next_edge(&mut i))))
    });
    g.bench_function("triangle_doulion_observe", |b| {
        b.iter(|| tri_sparse.observe(black_box(next_edge(&mut i))))
    });
    g.bench_function("path_sketch_observe", |b| {
        b.iter(|| paths.observe(black_box(next_edge(&mut i)), 1))
    });
    g.bench_function("heavy_vertex_observe", |b| {
        b.iter(|| heavy.observe(black_box(next_edge(&mut i)), 1))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_countsketch, bench_spacesaving, bench_structural
}
criterion_main!(benches);
