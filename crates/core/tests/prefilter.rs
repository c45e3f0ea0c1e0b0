//! Tests pinning the zero-frequency pre-filter contract (DESIGN.md §12):
//! present-key answers are bit-identical with the filter on or off, no
//! ingested key is ever answered below its CountMin estimate (Bloom
//! filters have no false negatives), absent keys only ever move *down*
//! (toward the exact answer `0`), the filter's bytes are charged against
//! the same `--memory` budget as the counters, and windowed rotation
//! starts each window with empty membership.

use gsketch::{
    persist, EdgeEstimator, EdgeSink, GSketch, GSketchBuilder, ReplayEngine, ShardedIngest,
    WindowConfig, WindowedGSketch,
};
use gstream::edge::{Edge, StreamEdge};
use gstream::exact::ExactCounter;
use proptest::collection::vec;
use proptest::prelude::*;

type Arrival = (u32, u32, u8);

fn stream_of(arrivals: &[Arrival]) -> Vec<StreamEdge> {
    arrivals
        .iter()
        .enumerate()
        .map(|(t, &(s, d, w))| StreamEdge::weighted(Edge::new(s, d), t as u64, u64::from(w) + 1))
        .collect()
}

fn builder(memory: usize, seed: u64) -> GSketchBuilder {
    GSketch::builder()
        .memory_bytes(memory)
        .depth(3)
        .min_width(16)
        .seed(seed)
}

/// Keys guaranteed absent: destination vertices far outside the range
/// any generated stream uses.
fn absent_probes(n: u32) -> Vec<Edge> {
    (0..n).map(|v| Edge::new(v, 1_000_000u32 + v)).collect()
}

/// The pinning test for the memory-accounting satellite: the filter's
/// bytes are real, show up in `bytes()`, and the combined budget split
/// (counter cells + filter blocks) never exceeds the requested
/// `memory_bytes` — with the filter on or off.
#[test]
fn filter_bytes_charged_against_budget() {
    let sample = stream_of(&[(1, 2, 1), (3, 4, 1), (5, 6, 1)]);
    for memory in [16usize << 10, 64 << 10, 1 << 20] {
        let on = builder(memory, 7).build_from_sample(&sample).unwrap();
        let off = builder(memory, 7)
            .prefilter(false)
            .build_from_sample(&sample)
            .unwrap();
        assert!(on.prefilter_bytes() > 0, "filter should materialize");
        assert!(on.prefilter_enabled());
        assert_eq!(off.prefilter_bytes(), 0);
        assert!(!off.prefilter_enabled());
        // The whole synopsis — counters plus filter — fits the budget.
        assert!(on.bytes() <= memory, "{} > {}", on.bytes(), memory);
        assert!(off.bytes() <= memory);
        // The filter is a bounded slice of the budget, not a second
        // budget: it never exceeds the 1/16 carve (rounded up to the
        // one-block-per-slot floor).
        assert!(
            on.prefilter_bytes() <= memory / 16 + 64 * on.num_partitions(),
            "filter {} too large for budget {}",
            on.prefilter_bytes(),
            memory
        );
        // Disabling the filter hands the carve back to the counters.
        assert!(off.bytes() >= on.bytes() - on.prefilter_bytes());
    }
}

/// Snapshot round-trip carries membership: a reloaded sketch answers
/// every query — present and absent — bit-identically, and keeps the
/// filter's memory accounting.
#[test]
fn snapshot_round_trip_preserves_filter() {
    let stream = stream_of(&[(1, 2, 3), (3, 4, 5), (5, 6, 7), (1, 2, 1)]);
    let mut gs = builder(32 << 10, 11).build_from_sample(&stream).unwrap();
    gs.ingest(&stream);
    let mut buf = Vec::new();
    persist::write_gsketch(&mut buf, &gs).unwrap();
    let back: GSketch = persist::read_gsketch(&buf[..]).unwrap();
    assert_eq!(back.prefilter_bytes(), gs.prefilter_bytes());
    let queries: Vec<Edge> = stream
        .iter()
        .map(|se| se.edge)
        .chain(absent_probes(32))
        .collect();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    gs.estimate_edges(&queries, &mut a);
    back.estimate_edges(&queries, &mut b);
    assert_eq!(a, b);
    for p in absent_probes(32) {
        assert_eq!(back.estimate(p), 0, "absent key must stay exactly 0");
    }
}

/// Old snapshots (no `filter` field) still load, as a filterless sketch.
#[test]
fn snapshot_without_filter_field_loads_filterless() {
    let stream = stream_of(&[(1, 2, 3), (3, 4, 5)]);
    let mut gs = builder(16 << 10, 3)
        .prefilter(false)
        .build_from_sample(&stream)
        .unwrap();
    gs.ingest(&stream);
    let mut buf = Vec::new();
    persist::write_gsketch(&mut buf, &gs).unwrap();
    let back: GSketch = persist::read_gsketch(&buf[..]).unwrap();
    assert_eq!(back.prefilter_bytes(), 0);
    for se in &stream {
        assert_eq!(back.estimate(se.edge), gs.estimate(se.edge));
    }
}

/// Windowed rotation clears membership: each window's sketch is built
/// fresh, so a key ingested only in window 1 is *provably absent* from
/// window 2's filter and an interval query confined to window 2 answers
/// exactly zero — no collision noise from a key that never arrived
/// there. (Deterministic seed; the probe key is not a false positive.)
#[test]
fn windowed_rotation_clears_membership() {
    let cfg = WindowConfig {
        span: 10,
        memory_bytes_per_window: 1 << 13,
        sample_capacity: 32,
        seed: 5,
    };
    let mut w = WindowedGSketch::new(cfg, GSketch::builder().min_width(16).depth(3)).unwrap();
    let hot = Edge::new(1u32, 2u32);
    // Window 1: hammer one edge.
    let w1: Vec<StreamEdge> = (0..9u64)
        .map(|t| StreamEdge::weighted(hot, t, 50))
        .collect();
    w.ingest(&w1);
    // Window 2: unrelated traffic only (rotates the sketch).
    let w2: Vec<StreamEdge> = (10..19u64)
        .map(|t| StreamEdge::unit(Edge::new(7u32, 8u32), t))
        .collect();
    w.ingest(&w2);
    assert_eq!(w.sealed_windows(), 1);
    // Confined to window 2, the window-1 edge answers exactly 0.
    assert_eq!(w.estimate_interval(hot, 10, 19), 0.0);
    // And it is still fully visible in its own window.
    assert!(w.estimate_interval(hot, 0, 9) >= 450.0);
}

/// Multi-owner sharded ingest maintains membership — each owner sets
/// the filter bits of its own slot range — and the read-side toggle
/// works on the result: absent keys answer 0 with the filter on and at
/// least that with it off (collision noise only ever raises a CountMin
/// answer).
#[test]
fn concurrent_ingest_maintains_membership() {
    let stream = stream_of(&[(1, 2, 3), (3, 4, 5), (5, 6, 7)]);
    let mut g = builder(16 << 10, 13).build_from_sample(&stream).unwrap();
    let report = ShardedIngest::new(&mut g, 4)
        .oversubscribe(true)
        .run_slice(&stream);
    assert!(report.workers >= 2, "owners clamped to one");
    for se in &stream {
        assert!(g.estimate(se.edge) >= se.weight);
    }
    for p in absent_probes(16) {
        assert_eq!(g.estimate(p), 0);
        g.set_prefilter(false);
        let unfiltered = g.estimate(p);
        g.set_prefilter(true);
        assert!(unfiltered >= g.estimate(p));
    }
}

/// The ARE satellite's acceptance check in test form: on a sparse
/// workload (many never-ingested keys), the filtered sketch's average
/// relative error is no worse than the unfiltered one's — absent keys
/// go from collision overestimates to the exact answer, present keys
/// are untouched.
#[test]
fn sparse_workload_are_no_worse_with_filter() {
    let arrivals: Vec<Arrival> = (0..300u32).map(|i| (i % 40, (i * 7) % 40, 2)).collect();
    let stream = stream_of(&arrivals);
    // Small budget so collisions actually hurt the unfiltered answers.
    let mut gs = builder(4 << 10, 21).build_from_sample(&stream).unwrap();
    gs.ingest(&stream);
    let truth = ExactCounter::from_stream(&stream);
    let queries: Vec<Edge> = stream
        .iter()
        .map(|se| se.edge)
        .chain(absent_probes(900))
        .collect();
    let are = |gs: &GSketch| -> f64 {
        let mut out = Vec::new();
        gs.estimate_edges(&queries, &mut out);
        let sum: f64 = queries
            .iter()
            .zip(&out)
            .map(|(&q, &est)| {
                let t = truth.frequency(q);
                (est.abs_diff(t)) as f64 / (t.max(1)) as f64
            })
            .sum();
        sum / queries.len() as f64
    };
    let filtered = are(&gs);
    gs.set_prefilter(false);
    let unfiltered = are(&gs);
    assert!(
        filtered <= unfiltered,
        "filtered ARE {filtered} worse than unfiltered {unfiltered}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accuracy contract, for any stream and seed:
    /// present-key answers are bit-identical with the filter on or off
    /// (positives fall through to the same counters), absent keys only
    /// ever decrease (to 0 on a true negative, unchanged on a false
    /// positive), and no ingested key is ever answered below its exact
    /// count — Bloom membership has no false negatives, so the CountMin
    /// one-sided guarantee survives the short-circuit.
    #[test]
    fn filter_preserves_present_answers(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..100),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 0..150),
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let stream: Vec<StreamEdge> =
            sample.iter().chain(&stream_of(&tail)).copied().collect();

        let mut on = GSketch::builder()
            .memory_bytes(1 << 13)
            .depth(3)
            .min_width(16)
            .seed(seed)
            .build_from_sample(&sample)
            .unwrap();
        on.ingest(&stream);
        // The read-side toggle on identical state — the CLI's
        // `--prefilter off` — so counters and layout are shared and
        // any divergence is the filter's doing.
        let mut off = on.clone();
        off.set_prefilter(false);
        let truth = ExactCounter::from_stream(&stream);

        // Present keys: scalar and batched answers bit-identical,
        // and never below the exact count.
        let present: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        on.estimate_edges(&present, &mut a);
        off.estimate_edges(&present, &mut b);
        assert_eq!(a, b, "present-key batch diverged with filter on");
        for (edge, f) in truth.iter() {
            assert_eq!(on.estimate(edge), off.estimate(edge));
            assert!(on.estimate(edge) >= f, "false negative on {edge}");
        }

        // Absent keys: filtered answer is 0 or the unfiltered
        // answer (false positives fall through untouched).
        for p in absent_probes(64) {
            let filtered = on.estimate(p);
            let unfiltered = off.estimate(p);
            assert!(filtered == 0 || filtered == unfiltered,
                "absent {p}: filtered {filtered} vs unfiltered {unfiltered}");
        }
    }

    /// The replay engine's dedup front inherits the short-circuit: for
    /// any interleaving of ingest and replay, the engine over a filtered
    /// sketch answers bit-identically to the bare filtered sketch —
    /// zeros for absent keys included — and counts every query once.
    #[test]
    fn replay_engine_inherits_short_circuit(
        sample in vec((0u32..40, 0u32..40, 0u8..8), 1..80),
        tail in vec((0u32..60, 0u32..60, 0u8..8), 4..100),
        seed in any::<u64>(),
    ) {
        let sample = stream_of(&sample);
        let tail = stream_of(&tail);
        let empty = GSketch::builder()
            .memory_bytes(1 << 13)
            .depth(3)
            .min_width(16)
            .seed(seed)
            .build_from_sample(&sample)
            .unwrap();
        let mut bare = empty.clone();
        let mut engine = ReplayEngine::new(empty);
        let queries: Vec<Edge> = tail
            .iter()
            .map(|se| se.edge)
            .chain(absent_probes(32))
            .collect();
        let distinct = queries.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        let (mut cached, mut plain) = (Vec::new(), Vec::new());
        let mid = tail.len() / 2;
        let mut batches = 0u64;
        for chunk in [&tail[..mid], &tail[mid..]] {
            engine.ingest_batch(chunk);
            bare.ingest_batch(chunk);
            for _ in 0..2 {
                engine.estimate_edges(&queries, &mut cached);
                bare.estimate_edges(&queries, &mut plain);
                prop_assert_eq!(&cached, &plain);
                batches += 1;
                let stats = engine.stats();
                prop_assert_eq!(stats.hits + stats.misses, batches * queries.len() as u64);
                prop_assert_eq!(stats.misses, batches * distinct);
            }
        }
    }
}
