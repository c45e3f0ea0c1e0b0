//! Criterion micro-benchmarks of the synopsis substrate: update and
//! point-estimate throughput for CountMin and the assembled gSketch.
//! After the Criterion pass, a direct timing pass appends the headline
//! rates to `BENCH_ingest.json` (DESIGN.md §3).

use criterion::{black_box, criterion_group, Criterion, Throughput};
use gsketch::{EdgeSink, GSketch, GlobalSketch};
use gsketch_bench::*;
use sketch::CountMinSketch;

fn bench_countmin(c: &mut Criterion) {
    let mut g = c.benchmark_group("countmin");
    g.throughput(Throughput::Elements(1));
    let mut cm = CountMinSketch::new(1 << 16, 3, 7).unwrap();
    let mut i = 0u64;
    g.bench_function("update", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            cm.update(black_box(i), 1);
        })
    });
    g.bench_function("estimate", |b| {
        b.iter(|| black_box(cm.estimate(black_box(i))))
    });
    g.finish();
}

fn bench_gsketch(c: &mut Criterion) {
    let bundle = Bundle::load(Dataset::Dblp, 0.02, EXPERIMENT_SEED);
    let sample = bundle.dataset.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let mut gs = GSketch::builder()
        .memory_bytes(1 << 20)
        .build_from_sample(&sample)
        .unwrap();
    let mut gl = GlobalSketch::new(1 << 20, 3, 7).unwrap();
    let edges: Vec<_> = bundle.stream.iter().map(|se| se.edge).collect();
    let mut g = c.benchmark_group("ingest+query");
    g.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    g.bench_function("gsketch_update", |b| {
        b.iter(|| {
            i = (i + 1) % edges.len();
            gs.update(black_box(gstream::StreamEdge::unit(edges[i], 0)));
        })
    });
    g.bench_function("global_update", |b| {
        b.iter(|| {
            i = (i + 1) % edges.len();
            gl.update(black_box(gstream::StreamEdge::unit(edges[i], 0)));
        })
    });
    g.bench_function("gsketch_estimate", |b| {
        b.iter(|| {
            i = (i + 1) % edges.len();
            black_box(gs.estimate(black_box(edges[i])))
        })
    });
    g.bench_function("global_estimate", |b| {
        b.iter(|| {
            i = (i + 1) % edges.len();
            black_box(gl.estimate(black_box(edges[i])))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_countmin, bench_gsketch
}

/// Direct (non-Criterion) timing pass feeding the perf-trajectory file.
fn record_trajectory() {
    use gsketch_bench::trajectory::{rate_of, record_section, Throughput as Rates};
    use serde::Value;

    const N: u64 = 2_000_000;
    let mut cm = CountMinSketch::new(1 << 16, 3, 7).unwrap();
    let cm_updates = rate_of(N, || {
        let mut i = 0u64;
        for _ in 0..N {
            i = i.wrapping_add(0x9E37_79B9);
            cm.update(black_box(i), 1);
        }
    });
    let cm_estimates = rate_of(N, || {
        let mut i = 0u64;
        for _ in 0..N {
            i = i.wrapping_add(0x9E37_79B9);
            black_box(cm.estimate(black_box(i)));
        }
    });

    let bundle = Bundle::load(Dataset::Dblp, 0.02, EXPERIMENT_SEED);
    let sample = bundle.dataset.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let mut gs = GSketch::builder()
        .memory_bytes(1 << 20)
        .build_from_sample(&sample)
        .unwrap();
    let edges: Vec<_> = bundle.stream.iter().map(|se| se.edge).collect();
    let gs_updates = rate_of(N, || {
        for k in 0..N as usize {
            gs.update(black_box(gstream::StreamEdge::unit(
                edges[k % edges.len()],
                0,
            )));
        }
    });
    let gs_estimates = rate_of(N, || {
        for k in 0..N as usize {
            black_box(gs.estimate(black_box(edges[k % edges.len()])));
        }
    });
    // Isolate the arena's batched read kernel (DESIGN.md §8) in its
    // memory-bound regime: a 64 MiB slab (well past any per-core L2)
    // probed with unique pseudo-random keys, scalar loop vs
    // `estimate_batch_slot` over the identical key sequence. Small,
    // L2-resident slabs don't need (and don't reward) batching — the
    // point of these rows is the regime where reads pay memory latency.
    const READ_KEYS: usize = 1 << 20;
    let big_width = (64 << 20) / 8 / 3;
    let mut big = sketch::CmArena::with_slots(&[big_width], 3, 7).unwrap();
    let mut x = 1u64;
    for _ in 0..big_width {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        big.update_slot(0, x, 3);
    }
    let keys: Vec<u64> = (0..READ_KEYS as u64)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x ^ i
        })
        .collect();
    let arena_scalar = rate_of(READ_KEYS as u64, || {
        let mut sink = 0u64;
        for &k in &keys {
            sink = sink.wrapping_add(big.estimate_slot(0, black_box(k)));
        }
        black_box(sink);
    });
    let mut out = Vec::with_capacity(keys.len());
    let arena_batched = rate_of(READ_KEYS as u64, || {
        big.estimate_batch_slot(0, black_box(&keys), &mut out);
        black_box(out.last().copied());
    });

    // The blocked Bloom pre-filter kernel (DESIGN.md §12) at the size
    // the 64 MiB configuration carves for it (1/16 → 4 MiB): one
    // cache-line block per membership probe, scalar loop vs
    // `contains_batch` over the identical key sequence. Half the probe
    // keys are inserted so both branch outcomes are exercised.
    let mut bloom = sketch::BlockedBloom::with_blocks(&[(4 << 20) / 64], 7).unwrap();
    for &k in keys.iter().step_by(2) {
        bloom.insert(0, k);
    }
    let bloom_scalar = rate_of(READ_KEYS as u64, || {
        let mut hits = 0u64;
        for &k in &keys {
            hits = hits.wrapping_add(u64::from(bloom.contains(0, black_box(k))));
        }
        black_box(hits);
    });
    let mut mask = Vec::with_capacity(keys.len());
    let bloom_batched = rate_of(READ_KEYS as u64, || {
        bloom.contains_batch(0, black_box(&keys), &mut mask);
        black_box(mask.last().copied());
    });

    // The tiering merge kernel (DESIGN.md §13): the owned `merge_assign`
    // (the no-wrap proof from the slot totals drops the per-cell
    // saturation branch) over the same 64 MiB slab. The clone feeding it
    // is made outside the timed region; the rate is counter cells per
    // second.
    let cells = (big_width * 3) as u64;
    let spare = big.clone();
    let merge_owned = rate_of(cells, || {
        big.merge_assign(black_box(spare)).unwrap();
        black_box(big.estimate_slot(0, 1));
    });

    let read_row = |name: &str, rate: f64| Rates::sequential(name, 0.0, rate);
    record_section(
        "sketch_micro",
        &[("updates_timed", Value::U64(N))],
        &[
            Rates::sequential("countmin/65536x3", cm_updates, cm_estimates),
            Rates::sequential("gsketch/cm-arena/1MiB", gs_updates, gs_estimates),
            read_row("cm-arena/64MiB/scalar-reads", arena_scalar),
            read_row("cm-arena/64MiB/batched-reads", arena_batched),
            read_row("cm-arena/64MiB/merge-assign-owned", merge_owned),
            read_row("prefilter/4MiB/scalar-probes", bloom_scalar),
            read_row("prefilter/4MiB/batched-probes", bloom_batched),
        ],
    );
    println!(
        "trajectory: countmin {cm_updates:.0} u/s, gsketch {gs_updates:.0} u/s, arena reads scalar {arena_scalar:.0} vs batched {arena_batched:.0} q/s ({:.2}x), merge owned {merge_owned:.0} cells/s, prefilter probes scalar {bloom_scalar:.0} vs batched {bloom_batched:.0} q/s ({:.2}x) → {}",
        arena_batched / arena_scalar,
        bloom_batched / bloom_scalar,
        gsketch_bench::trajectory::bench_file().display()
    );
}

fn main() {
    let _ = std::env::args();
    benches();
    record_trajectory();
}
