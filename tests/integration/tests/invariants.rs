//! Cross-crate property tests: end-to-end invariants that must hold for
//! *any* stream, sample, and budget — not just the curated datasets.

use gsketch::{EdgeSink, GSketch, SketchId};
use gstream::{Edge, ExactCounter, StreamEdge};
use proptest::collection::vec;
use proptest::prelude::*;
use structural::PathAggregator;

fn to_stream(edges: &[(u16, u16, u8)]) -> Vec<StreamEdge> {
    edges
        .iter()
        .enumerate()
        .map(|(t, &(s, d, w))| {
            StreamEdge::weighted(Edge::new(s as u32, d as u32), t as u64, w as u64 + 1)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every stream and every sample prefix, gSketch never
    /// underestimates any edge, and its total weight is conserved.
    #[test]
    fn one_sided_and_conservation(
        edges in vec((0u16..64, 0u16..64, 0u8..4), 1..400),
        sample_len in 1usize..100,
        mem_kb in 2usize..64,
    ) {
        let stream = to_stream(&edges);
        let sample = &stream[..sample_len.min(stream.len())];
        let mut gs = GSketch::builder()
            .memory_bytes(mem_kb << 10)
            .min_width(4)
            .build_from_sample(sample)
            .expect("build");
        gs.ingest(&stream);
        let truth = ExactCounter::from_stream(&stream);
        prop_assert_eq!(gs.total_weight(), truth.total_weight());
        for (edge, f) in truth.iter() {
            prop_assert!(gs.estimate(edge) >= f, "underestimated {}", edge);
        }
    }

    /// Routing is a function: the same source always reaches the same
    /// sketch, and queries route identically to updates.
    #[test]
    fn routing_is_stable(
        edges in vec((0u16..64, 0u16..64, 0u8..2), 1..200),
    ) {
        let stream = to_stream(&edges);
        let gs = GSketch::builder()
            .memory_bytes(32 << 10)
            .min_width(4)
            .build_from_sample(&stream)
            .expect("build");
        for se in &stream {
            let r1 = gs.route(se.edge);
            let r2 = gs.route(se.edge);
            prop_assert_eq!(r1, r2);
            // Same source, different destination: same sketch (routing is
            // by source vertex, §4).
            let other = Edge::new(se.edge.src, 9999u32);
            prop_assert_eq!(gs.route(other), r1);
        }
    }

    /// Sampled vertices route to partitions; never-seen sources route to
    /// the outlier sketch.
    #[test]
    fn outlier_routing_partition(
        edges in vec((0u16..32, 0u16..32, 0u8..2), 1..150),
    ) {
        let stream = to_stream(&edges);
        let gs = GSketch::builder()
            .memory_bytes(32 << 10)
            .min_width(4)
            .build_from_sample(&stream)
            .expect("build");
        // Vertices ≥ 1000 were never in the sample.
        prop_assert_eq!(gs.route(Edge::new(1_000u32, 0u32)), SketchId::Outlier);
        if gs.num_partitions() > 0 {
            for se in &stream {
                prop_assert!(matches!(gs.route(se.edge), SketchId::Partition(_)));
            }
        }
    }

    /// gSketch and the Global baseline agree with ground truth when memory is
    /// plentiful relative to the stream (both converge, §6: "given
    /// infinitely large memory both methods estimate accurately").
    #[test]
    fn convergence_at_large_memory(
        edges in vec((0u16..16, 0u16..16, 0u8..3), 1..100),
    ) {
        let stream = to_stream(&edges);
        let truth = ExactCounter::from_stream(&stream);
        let mut gs = GSketch::builder()
            .memory_bytes(1 << 20)
            .min_width(64)
            .build_from_sample(&stream)
            .expect("build");
        gs.ingest(&stream);
        let mut gl = GSketch::global(1 << 20, 3, 5).unwrap();
        gl.ingest(&stream);
        for (edge, f) in truth.iter() {
            prop_assert_eq!(gs.estimate(edge), f);
            prop_assert_eq!(gl.estimate(edge), f);
        }
    }

    /// The path aggregator's total equals the truth computed from the
    /// exact counter's vertex profile (two independent code paths).
    #[test]
    fn path_totals_cross_check(
        edges in vec((0u16..32, 0u16..32, 0u8..3), 0..200),
    ) {
        let stream = to_stream(&edges);
        let mut paths = PathAggregator::new();
        paths.ingest(&stream);
        // Independent reconstruction from first principles.
        let mut inw = std::collections::HashMap::new();
        let mut outw = std::collections::HashMap::new();
        for se in &stream {
            *outw.entry(se.edge.src).or_insert(0u128) += se.weight as u128;
            *inw.entry(se.edge.dst).or_insert(0u128) += se.weight as u128;
        }
        let expect: u128 = inw
            .iter()
            .map(|(v, &i)| i * outw.get(v).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(paths.total_paths(), expect);
    }
}
