//! Replay-engine dev bench (DESIGN.md §9): dedup front vs bare
//! workload replay on a memory-bound configuration. It prints its rows
//! and writes no file; `perfbench` is the recorded measurement.
//!
//! The synopsis is a 64 MiB arena over the R-MAT stream, far beyond any
//! per-core cache, so an uncached point read is memory-bound. The
//! workload is the one the replay engine exists for: **Zipf(1.1) by
//! frequency rank** over the distinct edges (the paper's §6.4
//! skewed-workload model, s = 1.1 — a fat head that repeats
//! constantly). Two rows:
//!
//! * `uncached` — every batch answered by the bare batched engine;
//! * `dedup` — every batch through [`ReplayEngine`]: each distinct edge
//!   answered once, repeats copied.
//!
//! A second pass sweeps the **pre-filter** (DESIGN.md §12), which
//! `perfbench` cannot: it runs one filter setting per build. The same
//! memory-bound synopsis answers workloads with a growing share of
//! absent keys, blocked Bloom filter on vs off over identical state.
//! Absent probes keep real sources (so routing lands on real
//! partitions) with destinations above the stream's id range. The
//! batched read path probes the counters for absent keys too (DESIGN.md
//! §12), so the filter adds its gather to every row; this sweep is the
//! data for choosing the filter's default. Read the ratios against the
//! host: on a machine whose last-level cache holds the whole 64 MiB
//! synopsis, counter probes cost ~L3 latency, not DRAM, and the spread
//! compresses.
//!
//! A third pass times the **windowed snapshot store** (DESIGN.md §13)
//! over a 2M-arrival windowed history: time-to-queryable for a cold
//! stream rebuild vs a `load_windowed` of the same state (the
//! acceptance ratio, target ≥ 5× — the load decodes sealed windows
//! instead of replaying arrivals), then interval workload replay
//! uncached vs through a `WindowedReplay` dedup front, all answers
//! bit-compared along the way.

use gsketch::{
    load_windowed, save_windowed, EdgeEstimator, EdgeSink, GSketch, IntervalEstimate, ReplayEngine,
    WindowConfig, WindowedGSketch, WindowedReplay,
};
use gsketch_bench::*;
use gstream::workload::{inject_absent_queries, zipf_edge_queries, ZipfRank};
use gstream::Edge;
use std::hint::black_box;

const QUERIES: usize = 1 << 20;
const PASSES: u64 = 4;
const ZIPF_S: f64 = 1.1;

fn main() {
    let _ = std::env::args();
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
        zipf_edge_queries(
            &bundle.truth,
            QUERIES,
            ZIPF_S,
            ZipfRank::Frequency,
            &mut rng,
        )
    };
    let n = PASSES * queries.len() as u64;
    println!(
        "replay: {} ({} arrivals), 64 MiB synopsis, {n} Zipf({ZIPF_S}) queries timed per row",
        bundle.dataset.name(),
        bundle.stream.len(),
    );

    // Uncached baseline: the batched engine per pass.
    let mut out = Vec::with_capacity(queries.len());
    let mut sink = 0u64;
    let uncached = rate_of(n, || {
        for _ in 0..PASSES {
            gs.estimate_edges(black_box(&queries), &mut out);
            sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
        }
    });

    // Dedup front: every pass deduplicates the batch and answers each
    // distinct edge once.
    let mut engine = ReplayEngine::new(&gs);
    let dedup = rate_of(n, || {
        for _ in 0..PASSES {
            engine.estimate_edges(black_box(&queries), &mut out);
            sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
        }
    });
    let stats = engine.stats();

    // Sanity: deduplicated answers are bit-identical to the bare batch.
    let mut bare = Vec::new();
    gs.estimate_edges(&queries, &mut bare);
    let mut deduped = Vec::new();
    engine.estimate_edges(&queries, &mut deduped);
    assert_eq!(
        deduped, bare,
        "dedup replay diverged from the batched engine"
    );

    println!(
        "replay: uncached {uncached:.0} q/s, dedup {dedup:.0} q/s \
         ({:.2}x uncached, {:.1}% repeats) [sink {sink}]",
        dedup / uncached,
        stats.hits as f64 * 100.0 / (stats.hits + stats.misses).max(1) as f64,
    );

    // Pre-filter sweep (DESIGN.md §12): filter on vs off over identical
    // state at absent-key fractions 0/25/50/90 %.
    let mut unfiltered = gs.clone();
    unfiltered.set_prefilter(false);
    // One untimed pass so the clone's fresh pages are faulted in before
    // its first timed row.
    unfiltered.estimate_edges(&queries, &mut out);
    let mut summary = String::new();
    for pct in [0u64, 25, 50, 90] {
        let mut qs = queries.clone();
        let n_absent = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(EXPERIMENT_SEED ^ pct);
            inject_absent_queries(&bundle.truth, &mut qs, pct as f64 / 100.0, &mut rng)
        };
        assert_eq!(n_absent, qs.len() * pct as usize / 100, "sweep mis-sized");
        // Alternate on/off repetitions and keep each side's best pass:
        // single-shot rows on a shared host confound the ratio with
        // whatever else the machine was doing during that one pass.
        let mut filtered = 0f64;
        let mut plain = 0f64;
        for _ in 0..3 {
            filtered = filtered.max(rate_of(n, || {
                for _ in 0..PASSES {
                    gs.estimate_edges(black_box(&qs), &mut out);
                    sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
                }
            }));
            plain = plain.max(rate_of(n, || {
                for _ in 0..PASSES {
                    unfiltered.estimate_edges(black_box(&qs), &mut out);
                    sink = sink.wrapping_add(out.last().copied().unwrap_or(0));
                }
            }));
        }
        println!("prefilter/absent-{pct}: on {filtered:.0} q/s, off {plain:.0} q/s");
        summary.push_str(&format!(" {pct}%:{:.2}x", filtered / plain));
    }
    println!(
        "prefilter: filtered/unfiltered by absent fraction —{summary} \
         ({} filter bytes) [sink {sink}]",
        gs.prefilter_bytes(),
    );

    // Windowed snapshot section (DESIGN.md §13): time-to-queryable for
    // a cold rebuild vs a snapshot load of the same windowed history,
    // then interval replay uncached vs through the dedup front.
    const W_ARRIVALS: usize = 2_000_000;
    const W_QUERIES: usize = 1 << 16;
    let mut wgen = {
        use gstream::gen::{RmatTrafficConfig, RmatTrafficGenerator};
        let mut cfg = RmatTrafficConfig::gtgraph(12, W_ARRIVALS / 4, W_ARRIVALS, 37);
        cfg.activity_alpha = 1.2;
        RmatTrafficGenerator::new(cfg).generate()
    };
    for (t, se) in wgen.iter_mut().enumerate() {
        se.ts = t as u64;
    }
    let span = (W_ARRIVALS as u64 / 32).max(1);
    let wc = WindowConfig {
        span,
        memory_bytes_per_window: 256 << 10,
        sample_capacity: 512,
        seed: 37,
    };
    // Cold rebuild vs snapshot load, each the best of three passes —
    // the same single-shot-on-a-shared-host hedge the prefilter sweep
    // uses above. Every rebuild is deterministic (fixed seeds), so
    // keeping the last instance is keeping any of them.
    let mut rebuilt_opt = None;
    let mut rebuild = 0f64;
    for _ in 0..3 {
        let mut fresh =
            WindowedGSketch::new(wc, GSketch::builder().min_width(64).seed(37)).unwrap();
        rebuild = rebuild.max(rate_of(W_ARRIVALS as u64, || {
            fresh.ingest(black_box(&wgen));
        }));
        rebuilt_opt = Some(fresh);
    }
    let rebuilt = rebuilt_opt.unwrap();
    let snap =
        std::env::temp_dir().join(format!("gsketch_replay_bench_{}.wsnap", std::process::id()));
    save_windowed(&snap, &rebuilt).unwrap();
    let snap_bytes = std::fs::metadata(&snap).unwrap().len();
    // Snapshot load: decode sealed windows, skip the stream entirely.
    let mut loaded_opt = None;
    let mut load = 0f64;
    for _ in 0..3 {
        load = load.max(rate_of(W_ARRIVALS as u64, || {
            loaded_opt = Some(load_windowed(&snap).unwrap());
        }));
    }
    std::fs::remove_file(&snap).ok();
    let loaded = loaded_opt.unwrap();

    let wqueries: Vec<Edge> = {
        use rand::SeedableRng;
        let wtruth = gstream::exact::ExactCounter::from_stream(&wgen);
        let mut rng = rand::rngs::StdRng::seed_from_u64(EXPERIMENT_SEED ^ 0x13);
        zipf_edge_queries(&wtruth, W_QUERIES, ZIPF_S, ZipfRank::Frequency, &mut rng)
    };
    let horizon = wgen.len() as u64 - 1;
    let intervals = [
        (0u64, horizon),
        (span * 3, span * 9),
        (horizon / 2, u64::MAX),
        (span, span * 2 - 1),
    ];
    let wn = PASSES * (wqueries.len() * intervals.len()) as u64;
    let mut wrows: Vec<IntervalEstimate> = Vec::new();
    let mut wsink = 0f64;
    // Sanity: the reload answers bit-identically to the rebuilt state.
    let mut rrows: Vec<IntervalEstimate> = Vec::new();
    for (ts, te) in intervals {
        rebuilt.estimate_interval_detailed_batch(&wqueries, ts, te, &mut rrows);
        loaded.estimate_interval_detailed_batch(&wqueries, ts, te, &mut wrows);
        assert_eq!(rrows, wrows, "snapshot reload diverged on [{ts}, {te}]");
    }
    let wuncached = rate_of(wn, || {
        for _ in 0..PASSES {
            for (ts, te) in intervals {
                loaded.estimate_interval_detailed_batch(black_box(&wqueries), ts, te, &mut wrows);
                wsink += wrows.last().map_or(0.0, |r| r.value);
            }
        }
    });
    let mut wreplay = WindowedReplay::new(loaded);
    let wdedup = rate_of(wn, || {
        for _ in 0..PASSES {
            for (ts, te) in intervals {
                wreplay.estimate_interval_detailed_batch(black_box(&wqueries), ts, te, &mut wrows);
                wsink += wrows.last().map_or(0.0, |r| r.value);
            }
        }
    });
    for (ts, te) in intervals {
        rebuilt.estimate_interval_detailed_batch(&wqueries, ts, te, &mut rrows);
        wreplay.estimate_interval_detailed_batch(&wqueries, ts, te, &mut wrows);
        assert_eq!(
            rrows, wrows,
            "dedup interval replay diverged on [{ts}, {te}]"
        );
    }
    let wstats = wreplay.stats();
    println!(
        "windowed snapshot: rebuild {rebuild:.0} vs load {load:.0} arrivals-covered/s \
         ({:.1}x, {snap_bytes}B file, {} windows sealed), intervals uncached {wuncached:.0} \
         vs dedup {wdedup:.0} q/s ({:.1}x, {:.1}% hit rate) [sink {wsink}]",
        load / rebuild,
        rebuilt.sealed_windows(),
        wdedup / wuncached,
        wstats.hits as f64 * 100.0 / (wstats.hits + wstats.misses).max(1) as f64,
    );
}
