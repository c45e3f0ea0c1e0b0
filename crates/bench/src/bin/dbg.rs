//! Quick-look diagnostic binary.
//!
//! * `dbg [scale]` — accuracy sweep of gSketch vs. the global baseline
//!   over the three datasets (the historical behaviour).
//! * `dbg --shard-smoke [--arrivals M]` — combining-engine smoke: drive
//!   the stream through `ShardedIngest` and bit-compare against an
//!   `update` loop; then replay the windowed deployment through epoch
//!   handoff — one `try_ingest_batch` call, and uneven chunks through
//!   `WindowedReplay::ingest_batch` — and bit-compare its interval
//!   answers (DESIGN.md §11). Exits non-zero on any mismatch — the
//!   ingest-engine CI smoke step.
//! * `dbg --snapshot-smoke [--arrivals M]` — durable windowed snapshot
//!   smoke: build windowed deployments (plain and tiered), save a fresh
//!   snapshot mid-stream, append the rest, reload (full and
//!   horizon-bounded), and bit-compare interval answers against the
//!   live instance; replay the intervals through a
//!   [`gsketch::WindowedReplay`] dedup front over the reload and
//!   bit-compare it and its hit/miss counters; then sweep every
//!   truncation point of a small snapshot and require a clean `Err`
//!   (never a panic) from the decoder (DESIGN.md §13). Exits non-zero
//!   on any mismatch — the persistence CI smoke step.
//! * `dbg --sample-smoke` — data-sample smoke: draw the 5% reservoir
//!   sample of the full-scale GTGraph stream (8M arrivals) through the
//!   blocked `sample_iter` and through a per-item `Reservoir::offer`
//!   loop, and bit-compare the two samples, their `seen` counts and the
//!   two final RNG states (DESIGN.md §15). Exits non-zero on any
//!   difference — the data-sample CI smoke step.
//! * `dbg --query-smoke [--arrivals M] [--queries K] [--memory-kb B]`
//!   — batched-query smoke: build a sketch, draw a shuffled
//!   duplicate-heavy workload of at least [`FANOUT_MIN`] queries, and
//!   compare the scalar loop with the batched engine (which fans the
//!   batch out over the host's cores) answer by answer, printing the
//!   worker count the host gives; then bit-compare a [`ReplayEngine`]
//!   dedup-front replay against the bare engine under interleaved
//!   ingest batches, and replay windowed intervals through the batched
//!   detailed surface against the scalar interval path. Exits non-zero on any mismatch — the
//!   query-path CI smoke step.

use gsketch::{
    evaluate_edge_queries, EdgeEstimator, EdgeSink, GSketch, ReplayEngine, SketchId, DEFAULT_G0,
    FANOUT_MIN,
};
use gsketch_bench::harness::calibration_probe;
use gsketch_bench::*;
use gstream::gen::{RmatTrafficConfig, RmatTrafficGenerator};

const DEPTH: usize = 1;

/// Combining-engine smoke (DESIGN.md §11): drive the same stream
/// through [`gsketch::ShardedIngest`] and bit-compare against an
/// `update` loop; then replay the windowed deployment through epoch
/// handoff (one `try_ingest_batch` call, and uneven `ingest_batch`
/// chunks) and bit-compare its interval answers. Exits non-zero on any
/// mismatch.
fn smoke_sharded(arrivals: usize) {
    use gsketch::{IntervalEstimate, ShardedIngest, WindowConfig, WindowedGSketch, WindowedReplay};
    let mut cfg = RmatTrafficConfig::gtgraph(10, (arrivals / 4).max(100), arrivals, 17);
    cfg.activity_alpha = 1.2;
    let stream: Vec<_> = RmatTrafficGenerator::new(cfg).generate();
    let sample = &stream[..stream.len() / 20];
    let builder = GSketch::builder()
        .memory_bytes(256 << 10)
        .depth(3)
        .min_width(64)
        .sample_rate(0.05)
        .seed(7);

    let mut serial = builder.build_from_sample(sample).expect("valid build");
    serial.ingest(&stream);

    let mut sharded = builder.build_from_sample(sample).expect("valid build");
    let report = ShardedIngest::new(&mut sharded, 1).run_slice(&stream);
    println!(
        "sharded smoke: {} arrivals, {} chunks",
        report.arrivals, report.chunks
    );
    assert_eq!(report.arrivals as usize, stream.len(), "arrivals lost");
    for se in &stream {
        assert_eq!(
            sharded.estimate(se.edge),
            serial.estimate(se.edge),
            "sharded estimate mismatch on {}",
            se.edge
        );
    }
    assert_eq!(
        sharded.total_weight(),
        serial.total_weight(),
        "weight not conserved"
    );
    println!("sharded smoke: estimates bit-identical to sequential ingest — OK");

    // Windowed leg: epoch handoff must seal the same windows and answer
    // every interval bit-identically.
    let mut wstream = stream.clone();
    for (t, se) in wstream.iter_mut().enumerate() {
        se.ts = t as u64;
    }
    let span = (wstream.len() as u64 / 8).max(1);
    let wcfg = WindowConfig {
        span,
        memory_bytes_per_window: 32 << 10,
        sample_capacity: 256,
        seed: 29,
    };
    let wbuilder = || GSketch::builder().min_width(64).seed(29);
    let mut wserial = WindowedGSketch::new(wcfg, wbuilder()).expect("valid windowed build");
    wserial.ingest(&wstream);
    let mut wsharded = WindowedGSketch::new(wcfg, wbuilder()).expect("valid windowed build");
    wsharded
        .try_ingest_batch(&wstream)
        .expect("monotone timestamps");
    // The chunked leg: `WindowedReplay::ingest_batch` runs the same
    // epoch path; uneven chunks cut inside a window and across its
    // boundary.
    let mut wbatched =
        WindowedReplay::new(WindowedGSketch::new(wcfg, wbuilder()).expect("valid windowed build"));
    let mut rest = wstream.as_slice();
    for len in [1, span as usize - 1, span as usize + 1, usize::MAX] {
        let (chunk, tail) = rest.split_at(len.min(rest.len()));
        wbatched.ingest_batch(chunk);
        rest = tail;
    }
    let horizon = wstream.len() as u64 - 1;
    let edges: Vec<gstream::Edge> = wstream.iter().step_by(97).map(|se| se.edge).collect();
    let mut a: Vec<IntervalEstimate> = Vec::new();
    let mut b: Vec<IntervalEstimate> = Vec::new();
    for (leg, w) in [("one-call", &wsharded), ("chunked", wbatched.inner())] {
        assert_eq!(
            w.sealed_windows(),
            wserial.sealed_windows(),
            "{leg} window rotation diverged"
        );
        let mut checked = 0usize;
        for (ts, te) in [
            (0u64, horizon),
            (span / 2, span * 3 + 7),
            (span, span),
            (horizon / 3, u64::MAX),
        ] {
            w.estimate_interval_detailed_batch(&edges, ts, te, &mut a);
            wserial.estimate_interval_detailed_batch(&edges, ts, te, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "windowed {leg} replay diverged on [{ts}, {te}]"
                );
                checked += 1;
            }
        }
        println!(
            "sharded smoke: {checked} windowed interval answers bit-identical \
             through {leg} epoch handoff — OK"
        );
    }
}

/// Data-sample smoke (DESIGN.md §15): the blocked kernel behind
/// `sample_iter` must draw the per-item reference's sample, in the same
/// order, and leave the RNG where the reference leaves it, on the
/// full-scale GTGraph stream with k = 5%. Exits non-zero on any
/// difference.
fn smoke_sample() {
    use gstream::sample::{sample_iter, Reservoir};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let stream = Dataset::GtGraph.stream(1.0, EXPERIMENT_SEED);
    let k = stream.len() / 20;
    let mut blocked_rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let blocked = sample_iter(stream.iter().copied(), k, &mut blocked_rng);
    let mut counted_rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let mut counted = Reservoir::new(k);
    counted.offer_all(stream.iter().copied(), &mut counted_rng);
    let mut reference_rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let mut reference = Reservoir::new(k);
    for se in &stream {
        reference.offer(*se, &mut reference_rng);
    }
    assert_eq!(
        blocked.len(),
        reference.sample().len(),
        "sample sizes differ"
    );
    if let Some(i) = blocked
        .iter()
        .zip(reference.sample())
        .position(|(a, b)| a != b)
    {
        panic!("blocked sample diverged from the reference at slot {i}");
    }
    assert_eq!(counted.seen(), reference.seen(), "seen counts differ");
    for rng in [&blocked_rng, &counted_rng] {
        assert_eq!(
            rng.state(),
            reference_rng.state(),
            "final RNG state diverged"
        );
    }
    println!(
        "sample smoke: {k} of {} arrivals; blocked and per-item samples, seen \
         counts and final RNG states bit-identical — OK",
        stream.len()
    );
}

/// Batched-query smoke: the scalar loop and the batched engine must
/// agree answer for answer on a shuffled, duplicate-heavy workload over
/// the partitioned sketch (the global baseline is the same engine with
/// zero partitions). The workload is one batch long enough to fan out.
fn smoke_query(arrivals: usize, n_queries: usize, memory_kb: usize) {
    use std::time::Instant;
    assert!(
        n_queries >= FANOUT_MIN,
        "--queries {n_queries} is below the fan-out threshold {FANOUT_MIN}"
    );
    let mut cfg = RmatTrafficConfig::gtgraph(16, (arrivals / 4).max(100), arrivals, 23);
    cfg.activity_alpha = 1.2;
    let stream: Vec<_> = RmatTrafficGenerator::new(cfg).generate();
    let sample = &stream[..stream.len() / 20];
    let mut gs = GSketch::builder()
        .memory_bytes(memory_kb << 10)
        .depth(3)
        .min_width(64)
        .sample_rate(0.05)
        .seed(7)
        .build_from_sample(sample)
        .expect("valid build");
    gs.ingest(&stream);

    // A workload with duplicates (arrival-proportional draws repeat hot
    // edges) plus absent probes, in a deterministic shuffled order.
    let mut x = 0x5EEDu64;
    let mut queries = Vec::with_capacity(n_queries);
    for i in 0..n_queries {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        queries.push(if i % 17 == 0 {
            gstream::Edge::new(1_000_000 + (x >> 40) as u32, 9u32)
        } else {
            stream[(x >> 16) as usize % stream.len()].edge
        });
    }

    let t0 = Instant::now();
    let scalar: Vec<u64> = queries.iter().map(|&q| gs.estimate_edge(q)).collect();
    let scalar_t = t0.elapsed();
    let mut batched = Vec::new();
    let t1 = Instant::now();
    gs.estimate_edges(&queries, &mut batched);
    let batched_t = t1.elapsed();
    assert_eq!(scalar, batched, "batched answers diverged from scalar");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "query smoke: {} queries over {} arrivals; scalar {:.1}ms vs batched {:.1}ms ({:.2}x) over the host's {} worker(s) — all answers bit-identical — OK",
        queries.len(),
        stream.len(),
        scalar_t.as_secs_f64() * 1e3,
        batched_t.as_secs_f64() * 1e3,
        scalar_t.as_secs_f64() / batched_t.as_secs_f64().max(1e-12),
        workers,
    );

    smoke_prefilter(&stream, n_queries);
    smoke_replay_dedup(&stream, &queries);
    smoke_windowed_replay(&stream);
}

/// Pre-filter leg (DESIGN.md §12): with the blocked Bloom filter on,
/// absent keys must short-circuit to exactly 0 (or fall through to the
/// identical unfiltered answer on a false positive) and present keys
/// must answer bit-identically to the unfiltered read path, across a
/// sweep of absent-key fractions. Uses a dedicated build whose filter
/// is sized for the stream's distinct-key count so the short-circuit
/// actually engages; absent probes keep real sources (so they route to
/// real partitions) with destinations above the stream's id range.
/// Prints the filtered/unfiltered timing ratio per fraction so a
/// filter regression is visible in the CI log.
fn smoke_prefilter(stream: &[gstream::StreamEdge], n_queries: usize) {
    use std::time::Instant;
    let sample = &stream[..stream.len() / 20];
    let mut gs = GSketch::builder()
        .memory_bytes(8 << 20)
        .depth(3)
        .min_width(64)
        .sample_rate(0.05)
        .seed(7)
        .build_from_sample(sample)
        .expect("valid build");
    gs.ingest(stream);
    assert!(gs.prefilter_enabled(), "smoke build lost its pre-filter");
    let mut unfiltered = gs.clone();
    unfiltered.set_prefilter(false);
    let mut x = 0xFACEu64;
    let mut on = Vec::new();
    let mut off = Vec::new();
    // Warm both read paths once so the timed passes compare steady
    // state rather than cold caches.
    let warmup: Vec<gstream::Edge> = stream.iter().step_by(3).map(|se| se.edge).collect();
    gs.estimate_edges(&warmup, &mut on);
    unfiltered.estimate_edges(&warmup, &mut off);
    for frac in [0usize, 50, 90] {
        let mut queries = Vec::with_capacity(n_queries);
        for i in 0..n_queries {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let present = stream[(x >> 16) as usize % stream.len()].edge;
            // The first `frac`% of the batch reuses a real source (so
            // routing lands on a real partition) with a destination far
            // above the stream's id range — provably never ingested.
            queries.push(if i * 100 < frac * n_queries {
                gstream::Edge::new(present.src, 2_000_000 + (x >> 40) as u32)
            } else {
                present
            });
        }
        let t0 = Instant::now();
        gs.estimate_edges(&queries, &mut on);
        let on_t = t0.elapsed();
        let t1 = Instant::now();
        unfiltered.estimate_edges(&queries, &mut off);
        let off_t = t1.elapsed();
        let mut absent = 0usize;
        let mut zeroed = 0usize;
        for (i, (&a, &b)) in on.iter().zip(&off).enumerate() {
            if i * 100 < frac * n_queries {
                // A false positive falls through to the counters and
                // must then answer exactly like the unfiltered path.
                assert!(
                    a == 0 || a == b,
                    "absent key answered {a} with the filter on vs {b} off"
                );
                absent += 1;
                zeroed += usize::from(a == 0);
            } else {
                assert_eq!(a, b, "present key diverged with the filter on");
            }
        }
        // On a filter sized for the stream, false positives are rare:
        // the short circuit must catch the overwhelming majority.
        assert!(
            zeroed * 10 >= absent * 9,
            "short circuit engaged on only {zeroed} of {absent} absent keys"
        );
        println!(
            "prefilter smoke: {frac}% absent — filtered {:.1}ms vs unfiltered {:.1}ms ({:.2}x), {zeroed}/{absent} absent keys short-circuited — OK",
            on_t.as_secs_f64() * 1e3,
            off_t.as_secs_f64() * 1e3,
            off_t.as_secs_f64() / on_t.as_secs_f64().max(1e-12),
        );
    }
}

/// Assert a [`ReplayEngine`]'s counters after `passes` batches of
/// `queries`: every query is counted once, each batch sends every
/// distinct edge to the synopsis once, and every repeat is a hit.
fn check_replay_counters(stats: gsketch::ReplayStats, queries: &[gstream::Edge], passes: u64) {
    let distinct = queries
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len() as u64;
    let repeats = queries.len() as u64 - distinct;
    assert_eq!(
        stats.hits + stats.misses,
        passes * queries.len() as u64,
        "replay counters lost a query: {stats:?}"
    );
    assert_eq!(
        stats.misses,
        passes * distinct,
        "distinct edges miscounted: {stats:?}"
    );
    assert_eq!(
        stats.hits,
        passes * repeats,
        "repeats miscounted: {stats:?}"
    );
}

/// Dedup-vs-bare replay bit-compare under interleaved writes: a
/// `ReplayEngine` front must answer exactly like the bare batched
/// engine across repeated query passes with ingest batches between
/// them, and its counters must match the repeats in the query list.
fn smoke_replay_dedup(stream: &[gstream::StreamEdge], queries: &[gstream::Edge]) {
    let sample = &stream[..stream.len() / 20];
    let build = || {
        GSketch::builder()
            .memory_bytes(64 << 10)
            .depth(3)
            .min_width(64)
            .sample_rate(0.05)
            .seed(13)
            .build_from_sample(sample)
            .expect("valid build")
    };
    let mut bare = build();
    let mut engine = ReplayEngine::new(build());
    let mut bare_out = Vec::new();
    let mut deduped_out = Vec::new();
    let mut passes = 0u64;
    for chunk in stream.chunks(stream.len() / 4 + 1) {
        bare.ingest_batch(chunk);
        engine.ingest_batch(chunk);
        for _ in 0..2 {
            bare.estimate_edges(queries, &mut bare_out);
            engine.estimate_edges(queries, &mut deduped_out);
            assert_eq!(
                deduped_out, bare_out,
                "dedup replay diverged from the bare engine under interleaved writes"
            );
            passes += 1;
        }
    }
    let stats = engine.stats();
    check_replay_counters(stats, queries, passes);
    println!(
        "replay smoke: dedup replay bit-identical under interleaved writes \
         ({} repeats answered / {} distinct sent) — OK",
        stats.hits, stats.misses
    );
}

/// Windowed workload replay: the batched detailed interval surface must
/// answer value-identically to the scalar interval path over a mix of
/// window-straddling, single-window, and open-ended intervals.
fn smoke_windowed_replay(stream: &[gstream::StreamEdge]) {
    use gsketch::{IntervalEstimate, WindowConfig, WindowedGSketch};
    let mut wstream = stream.to_vec();
    for (t, se) in wstream.iter_mut().enumerate() {
        se.ts = t as u64;
    }
    let span = (wstream.len() as u64 / 8).max(1);
    let mut windowed = WindowedGSketch::new(
        WindowConfig {
            span,
            memory_bytes_per_window: 32 << 10,
            sample_capacity: 256,
            seed: 29,
        },
        GSketch::builder().min_width(64).seed(29),
    )
    .expect("valid windowed build");
    windowed.ingest(&wstream);

    let horizon = wstream.len() as u64 - 1;
    let edges: Vec<gstream::Edge> = wstream.iter().step_by(97).map(|se| se.edge).collect();
    let mut rows: Vec<IntervalEstimate> = Vec::new();
    let mut checked = 0usize;
    for (ts, te) in [
        (0u64, horizon),
        (span / 2, span * 3 + 7),
        (span, span),
        (horizon / 3, u64::MAX),
    ] {
        windowed.estimate_interval_detailed_batch(&edges, ts, te, &mut rows);
        for (&e, row) in edges.iter().zip(&rows) {
            let scalar = windowed.estimate_interval(e, ts, te);
            assert_eq!(
                row.value.to_bits(),
                scalar.to_bits(),
                "windowed batched replay diverged from scalar on {e} [{ts}, {te}]"
            );
            assert!((0.0..=1.0).contains(&row.confidence));
            checked += 1;
        }
    }
    println!(
        "windowed smoke: {checked} interval answers bit-identical to scalar, \
         confidence attached — OK"
    );
}

/// Durable windowed snapshot smoke (DESIGN.md §13): fresh save +
/// incremental append must restore bit-identical interval answers
/// (plain and tiered builds), horizon-bounded loads must answer
/// identically inside the resident span, a [`gsketch::WindowedReplay`]
/// dedup front over the reload must bit-match uncached answers and
/// count each batch's distinct edges as misses and its repeats as hits,
/// and truncating the snapshot at EVERY byte boundary must yield a
/// clean `Err` — never a panic — from the decoder. Exits non-zero on
/// any mismatch.
fn smoke_snapshot(arrivals: usize) {
    use gsketch::{
        load_windowed, load_windowed_horizon, save_windowed, IntervalEstimate, WindowConfig,
        WindowedGSketch, WindowedReplay,
    };
    let mut cfg = RmatTrafficConfig::gtgraph(10, (arrivals / 4).max(100), arrivals, 31);
    cfg.activity_alpha = 1.2;
    let mut stream: Vec<_> = RmatTrafficGenerator::new(cfg).generate();
    for (t, se) in stream.iter_mut().enumerate() {
        se.ts = t as u64;
    }
    let span = (stream.len() as u64 / 12).max(1);
    let wcfg = WindowConfig {
        span,
        memory_bytes_per_window: 32 << 10,
        sample_capacity: 256,
        seed: 41,
    };
    let builder = || GSketch::builder().min_width(64).seed(41);
    let dir = std::env::temp_dir().join(format!("gsketch_snapshot_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let horizon = stream.len() as u64 - 1;
    let edges: Vec<gstream::Edge> = stream.iter().step_by(97).map(|se| se.edge).collect();
    let intervals = [
        (0u64, horizon),
        (span / 2, span * 3 + 7),
        (span, span),
        (horizon / 3, u64::MAX),
    ];
    let mut a: Vec<IntervalEstimate> = Vec::new();
    let mut b: Vec<IntervalEstimate> = Vec::new();

    for keep in [None, Some(3usize)] {
        let tag = if keep.is_some() { "tiered" } else { "plain" };
        let path = dir.join(format!("{tag}.wsnap"));
        let mut live = match keep {
            Some(k) => WindowedGSketch::with_horizon(wcfg, builder(), k),
            None => WindowedGSketch::new(wcfg, builder()),
        }
        .expect("valid windowed build");
        let half = stream.len() / 2;
        live.ingest(&stream[..half]);
        save_windowed(&path, &live).expect("fresh save");
        let fresh_len = std::fs::metadata(&path).expect("snapshot metadata").len();
        live.ingest(&stream[half..]);
        save_windowed(&path, &live).expect("incremental append");
        let full_len = std::fs::metadata(&path).expect("snapshot metadata").len();
        assert!(full_len > fresh_len, "append did not extend the snapshot");

        let loaded = load_windowed(&path).expect("reload");
        assert_eq!(loaded.sealed_windows(), live.sealed_windows());
        assert_eq!(loaded.coarsenings(), live.coarsenings());
        let mut checked = 0usize;
        for (ts, te) in intervals {
            live.estimate_interval_detailed_batch(&edges, ts, te, &mut a);
            loaded.estimate_interval_detailed_batch(&edges, ts, te, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "{tag} reload diverged on [{ts}, {te}]"
                );
                checked += 1;
            }
        }
        println!(
            "snapshot smoke ({tag}): fresh {fresh_len}B + append to {full_len}B, \
             {checked} reloaded interval answers bit-identical — OK"
        );

        // Horizon-bounded load: answers inside the resident span must
        // be bit-identical to the full reload's.
        let (lo, hi) = (span * 2, span * 5);
        let partial = load_windowed_horizon(&path, lo, hi).expect("horizon load");
        live.estimate_interval_detailed_batch(&edges, lo, hi, &mut a);
        partial.estimate_interval_detailed_batch(&edges, lo, hi, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.value.to_bits(),
                y.value.to_bits(),
                "{tag} horizon load diverged inside [{lo}, {hi}]"
            );
        }

        // Dedup replay over the reload: two passes, answers
        // bit-identical to the live instance, and every interval batch
        // answers its distinct edges once with nothing carried over.
        let mut replay = WindowedReplay::new(loaded);
        let mut batches = 0u64;
        for _ in 0..2 {
            for (ts, te) in intervals {
                live.estimate_interval_detailed_batch(&edges, ts, te, &mut a);
                replay.estimate_interval_detailed_batch(&edges, ts, te, &mut b);
                assert_eq!(a, b, "{tag} dedup replay diverged on [{ts}, {te}]");
                batches += 1;
                check_replay_counters(replay.stats(), &edges, batches);
            }
        }
        let stats = replay.stats();
        println!(
            "snapshot smoke ({tag}): dedup replay bit-identical \
             ({} hits / {} misses) — OK",
            stats.hits, stats.misses
        );
    }

    // Truncation sweep: a decoder fed any prefix of a valid snapshot
    // must return Err, never panic. A small instance keeps the
    // byte-by-byte sweep fast.
    let mut small = WindowedGSketch::with_horizon(
        WindowConfig {
            span: 8,
            memory_bytes_per_window: 4 << 10,
            sample_capacity: 16,
            seed: 43,
        },
        GSketch::builder().min_width(8).seed(43),
        2,
    )
    .expect("valid windowed build");
    small.ingest(&stream[..stream.len().min(200)]);
    let small_path = dir.join("truncation.wsnap");
    save_windowed(&small_path, &small).expect("truncation fixture save");
    let bytes = std::fs::read(&small_path).expect("truncation fixture read");
    let cut_path = dir.join("truncated.wsnap");
    let mut swept = 0usize;
    // Every cut below len−1 severs the footer line; len−1 would only
    // drop the trailing newline, which is legitimately loadable.
    for cut in 0..bytes.len() - 1 {
        std::fs::write(&cut_path, &bytes[..cut]).expect("truncated write");
        assert!(
            load_windowed(&cut_path).is_err(),
            "decoder accepted a snapshot truncated to {cut} of {} bytes",
            bytes.len()
        );
        swept += 1;
    }
    println!(
        "snapshot smoke: decoder returned Err on all {swept} truncation \
         points of a {}B snapshot — OK",
        bytes.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    if args.iter().any(|a| a == "--query-smoke") {
        smoke_query(
            flag("--arrivals").unwrap_or(200_000),
            flag("--queries").unwrap_or(100_000),
            flag("--memory-kb").unwrap_or(256),
        );
        return;
    }
    if args.iter().any(|a| a == "--snapshot-smoke") {
        smoke_snapshot(flag("--arrivals").unwrap_or(100_000));
        return;
    }
    if args.iter().any(|a| a == "--sample-smoke") {
        smoke_sample();
        return;
    }
    if args.iter().any(|a| a == "--shard-smoke") {
        smoke_sharded(flag("--arrivals").unwrap_or(200_000));
        return;
    }

    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.25);
    for ds in [Dataset::Dblp, Dataset::IpAttack, Dataset::GtGraph] {
        let b = Bundle::load(ds, scale, EXPERIMENT_SEED);
        println!(
            "{}: stream={} distinct={} N={}",
            ds.name(),
            b.stream.len(),
            b.truth.distinct_edges(),
            b.truth.total_weight()
        );
        let sets = {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(EXPERIMENT_SEED);
            gstream::workload::uniform_edge_queries(&b.stream, 10_000, &mut rng)
        };
        let sets = QuerySets {
            edges: sets,
            subgraphs: vec![],
            workload: vec![],
        };
        let sample = b.dataset.data_sample(&b.stream, EXPERIMENT_SEED);
        let rate = sample.len() as f64 / b.stream.len() as f64;
        let probe = calibration_probe(&b.stream);
        for mem in [512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20] {
            let mut gs = GSketch::builder()
                .memory_bytes(mem)
                .sample_rate(rate)
                .seed(1)
                .depth(DEPTH)
                .min_width(64)
                .build_from_sample_calibrated(&sample, &probe)
                .unwrap();
            gs.ingest(&b.stream);
            let mut gl = GSketch::global(mem, DEPTH, 1).unwrap();
            gl.ingest(&b.stream);
            let ga = evaluate_edge_queries(&gs, &sets.edges, &b.truth, DEFAULT_G0);
            let la = evaluate_edge_queries(&gl, &sets.edges, &b.truth, DEFAULT_G0);
            let out_q = sets
                .edges
                .iter()
                .filter(|e| matches!(gs.route(**e), SketchId::Outlier))
                .count();
            println!("mem={:>6} parts={:>3} outW={:>5.3} outQ={:>5} gs: err={:>8.2} eff={:>5}  gl: err={:>8.2} eff={:>5}",
                fmt_bytes(mem), gs.num_partitions(),
                gs.outlier_weight() as f64 / gs.total_weight() as f64, out_q,
                ga.avg_relative_error, ga.effective_queries,
                la.avg_relative_error, la.effective_queries);
        }
    }
}
