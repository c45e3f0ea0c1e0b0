//! Query-set and workload-sample generation (§6.2–§6.4 of the paper).
//!
//! * Edge query sets `Qe` — uniform samples of stream arrivals (§6.3) or
//!   Zipf-rank samples over the distinct edges (§6.4).
//! * Aggregate subgraph query sets `Qg` — BFS explorations of 10 edges
//!   from uniformly sampled seed vertices (§6.3).
//! * Query workload samples `W` — Zipf-rank edge samples whose vertex
//!   weights steer the partitioner in scenario 2.

use crate::edge::{Edge, StreamEdge};
use crate::exact::ExactCounter;
use crate::fxhash::FxHashSet;
use crate::sample::zipf::Zipf;
use crate::vertex::VertexId;
use rand::seq::SliceRandom;
use rand::Rng;

/// How distinct edges are ranked before Zipf sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZipfRank {
    /// Random permutation (decouples query popularity from stream
    /// frequency; the default, and the harder case for a sketch since
    /// rare edges are queried often).
    #[default]
    Random,
    /// Rank by descending true frequency (query popularity follows
    /// stream popularity).
    Frequency,
}

/// Draw `k` edge queries uniformly over stream *arrivals* (frequency-
/// proportional, the paper's §6.3 setup: every query has f ≥ 1).
pub fn uniform_edge_queries<R: Rng + ?Sized>(
    stream: &[StreamEdge],
    k: usize,
    rng: &mut R,
) -> Vec<Edge> {
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(
        !stream.is_empty(),
        "cannot sample queries from an empty stream"
    );
    (0..k)
        .map(|_| stream[rng.gen_range(0..stream.len())].edge)
        .collect()
}

/// Draw `k` edge queries uniformly (with replacement) over the
/// *distinct* edges of the stream.
pub fn uniform_distinct_queries<R: Rng + ?Sized>(
    counts: &ExactCounter,
    k: usize,
    rng: &mut R,
) -> Vec<Edge> {
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(counts.distinct_edges() > 0, "no distinct edges to sample");
    let mut all: Vec<Edge> = counts.iter().map(|(e, _)| e).collect();
    all.sort_unstable(); // deterministic order for reproducibility
    (0..k).map(|_| all[rng.gen_range(0..all.len())]).collect()
}

/// Rank the distinct edges of a stream for Zipf sampling.
fn ranked_edges<R: Rng + ?Sized>(counts: &ExactCounter, rank: ZipfRank, rng: &mut R) -> Vec<Edge> {
    let mut edges: Vec<(Edge, u64)> = counts.iter().collect();
    match rank {
        ZipfRank::Frequency => {
            edges.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        ZipfRank::Random => {
            // Deterministic order first so the shuffle is reproducible.
            edges.sort_unstable_by_key(|a| a.0);
            edges.shuffle(rng);
        }
    }
    edges.into_iter().map(|(e, _)| e).collect()
}

/// Convert a 1-based Zipf rank into an index of the ranked list,
/// clamped into range. [`Zipf::sample`] already guarantees ranks in
/// `1..=n`; the clamp here is belt-and-braces so no float pathology in
/// the sampler can ever turn into an index panic (or a silent wrap to
/// the wrong edge) in workload generation — the support may be far
/// smaller than the requested query count, and every draw must land on
/// a real edge.
#[inline]
fn rank_index(rank: u64, len: usize) -> usize {
    // cast: u64 -> usize; rank is clamped into [1, len], so the result
    // is a valid index below len.
    (rank.clamp(1, len as u64) - 1) as usize
}

/// Draw `k` edges by Zipf(α) rank over the distinct edges — used both for
/// query sets and for workload samples in scenario 2 (§6.4). Draws are
/// with replacement: when the distinct-edge support is smaller than
/// `k`, queries legitimately repeat (that is what a skewed workload
/// *is*), but every draw is clamped onto the real support.
pub fn zipf_edge_queries<R: Rng + ?Sized>(
    counts: &ExactCounter,
    k: usize,
    alpha: f64,
    rank: ZipfRank,
    rng: &mut R,
) -> Vec<Edge> {
    let ranked = ranked_edges(counts, rank, rng);
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(!ranked.is_empty(), "no distinct edges to sample");
    let zipf = Zipf::new(ranked.len() as u64, alpha);
    (0..k)
        .map(|_| ranked[rank_index(zipf.sample(rng), ranked.len())])
        .collect()
}

/// A reusable Zipf edge sampler with a *fixed* rank order, so that a
/// workload sample and the query sets drawn later share popularity: the
/// paper's scenario 2 assumes the workload sample is predictive of the
/// actual queries (§6.4).
#[derive(Debug, Clone)]
pub struct ZipfEdgeSampler {
    ranked: Vec<Edge>,
    zipf: Zipf,
}

impl ZipfEdgeSampler {
    /// Fix a rank order over the distinct edges of `counts` and prepare a
    /// Zipf(α) sampler over it. `rng` only drives the (one-off) ranking.
    pub fn new<R: Rng + ?Sized>(
        counts: &ExactCounter,
        alpha: f64,
        rank: ZipfRank,
        rng: &mut R,
    ) -> Self {
        let ranked = ranked_edges(counts, rank, rng);
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(!ranked.is_empty(), "no distinct edges to sample");
        let zipf = Zipf::new(ranked.len() as u64, alpha);
        Self { ranked, zipf }
    }

    /// Draw `k` edges (with replacement) under the fixed popularity.
    pub fn draw<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<Edge> {
        (0..k)
            .map(|_| self.ranked[rank_index(self.zipf.sample(rng), self.ranked.len())])
            .collect()
    }

    /// Draw `k` *source vertices* under the fixed popularity — used to
    /// seed Zipf-skewed subgraph queries.
    pub fn draw_sources<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<VertexId> {
        (0..k)
            .map(|_| self.ranked[rank_index(self.zipf.sample(rng), self.ranked.len())].src)
            .collect()
    }

    /// Number of ranked distinct edges.
    pub fn support(&self) -> usize {
        self.ranked.len()
    }
}

/// Replace a controlled fraction of `queries` with **never-ingested**
/// pairs, then shuffle so present and absent keys interleave. Returns
/// how many queries were replaced (`round(frac * len)`).
///
/// Each absent query keeps a real stream source vertex — so it routes
/// to the same partitions real queries hit, not uniformly to the
/// outlier — and takes a destination the stream provably never paired
/// with anything (above every vertex the stream mentions, verified
/// against the exact counts). This is the sparse-workload generator
/// behind `workload --absent`: a zero-frequency short-circuit is only
/// measurable on queries whose true answer is zero.
pub fn inject_absent_queries<R: Rng + ?Sized>(
    counts: &ExactCounter,
    queries: &mut [Edge],
    frac: f64,
    rng: &mut R,
) -> usize {
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(
        (0.0..1.0).contains(&frac),
        "absent fraction must be in [0, 1)"
    );
    // cast: f64 -> usize; frac < 1.0 so the product is below len.
    let n = ((queries.len() as f64) * frac).round() as usize;
    if n == 0 {
        return 0;
    }
    let mut srcs: Vec<VertexId> = counts.iter().map(|(e, _)| e.src).collect();
    srcs.sort_unstable();
    srcs.dedup();
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(!srcs.is_empty(), "no stream vertices to draw sources from");
    let ceiling = counts
        .iter()
        .flat_map(|(e, _)| [e.src.0, e.dst.0])
        .max()
        .unwrap_or(0);
    for q in queries.iter_mut().take(n) {
        let src = srcs[rng.gen_range(0..srcs.len())];
        // Destinations above the ceiling cannot have been ingested; the
        // rejection loop only runs in the pathological case where the
        // stream touches the top of the u32 vertex space and the
        // saturating offset lands on a real pair.
        let mut dst = ceiling
            .saturating_add(1)
            .saturating_add(rng.gen_range(0..1024));
        let mut candidate = Edge::new(src, dst);
        while counts.frequency(candidate) > 0 {
            dst = rng.gen();
            candidate = Edge::new(src, dst);
        }
        *q = candidate;
    }
    queries.shuffle(rng);
    n
}

/// Generate subgraph queries of (up to) `edges_per_query` edges, one per
/// seed vertex, BFS-exploring from each seed (Zipf-skewed scenario-2
/// variant of [`bfs_subgraph_queries`]).
pub fn bfs_subgraph_queries_from_seeds<R: Rng + ?Sized>(
    counts: &ExactCounter,
    seeds: &[VertexId],
    edges_per_query: usize,
    rng: &mut R,
) -> Vec<SubgraphQuery> {
    let adjacency = counts.adjacency();
    let mut out = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut edges: Vec<Edge> = Vec::with_capacity(edges_per_query);
        let mut visited: FxHashSet<VertexId> = FxHashSet::default();
        let mut frontier: Vec<VertexId> = vec![seed];
        visited.insert(seed);
        while edges.len() < edges_per_query && !frontier.is_empty() {
            let idx = rng.gen_range(0..frontier.len());
            let node = frontier.swap_remove(idx);
            let Some(targets) = adjacency.get(&node) else {
                continue;
            };
            let mut order: Vec<usize> = (0..targets.len()).collect();
            order.shuffle(rng);
            for ti in order {
                if edges.len() >= edges_per_query {
                    break;
                }
                let (dst, _) = targets[ti];
                edges.push(Edge::new(node, dst));
                if visited.insert(dst) {
                    frontier.push(dst);
                }
            }
        }
        if !edges.is_empty() {
            out.push(SubgraphQuery { edges });
        }
    }
    out
}

/// One replayable workload query: an edge, optionally restricted to an
/// inclusive time interval `[t_start, t_end]` — the on-disk row of the
/// windowed workload format (`src dst [t_start t_end]`; see
/// [`crate::io`]). A query without a window asks over the whole
/// observed lifetime; a windowed query is answered by the windowed
/// deployment's interval extrapolation (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadQuery {
    /// The queried edge.
    pub edge: Edge,
    /// Inclusive `[t_start, t_end]` restriction, if any (invariant:
    /// `t_start <= t_end`, enforced by the file parser and the
    /// constructor).
    pub window: Option<(u64, u64)>,
}

impl WorkloadQuery {
    /// A lifetime (unwindowed) query.
    pub fn lifetime(edge: Edge) -> Self {
        Self { edge, window: None }
    }

    /// A query over the inclusive interval `[t_start, t_end]`.
    ///
    /// # Panics
    /// Panics if `t_start > t_end`.
    pub fn windowed(edge: Edge, t_start: u64, t_end: u64) -> Self {
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(t_start <= t_end, "empty interval");
        Self {
            edge,
            window: Some((t_start, t_end)),
        }
    }
}

/// An aggregate subgraph query: a bag of constituent edges (§3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphQuery {
    /// The constituent edges.
    pub edges: Vec<Edge>,
}

impl SubgraphQuery {
    /// Number of constituent edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the query has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Generate `count` subgraph queries of (up to) `edges_per_query` edges by
/// seeding a uniform vertex and BFS-exploring its neighborhood, picking
/// the next edge at random at each frontier node (§6.3).
pub fn bfs_subgraph_queries<R: Rng + ?Sized>(
    counts: &ExactCounter,
    count: usize,
    edges_per_query: usize,
    rng: &mut R,
) -> Vec<SubgraphQuery> {
    let adjacency = counts.adjacency();
    let sources: Vec<VertexId> = {
        let mut v: Vec<VertexId> = adjacency.keys().copied().collect();
        v.sort_unstable();
        v
    };
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(!sources.is_empty(), "stream has no edges to explore");
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let seed = sources[rng.gen_range(0..sources.len())];
        let mut edges: Vec<Edge> = Vec::with_capacity(edges_per_query);
        let mut visited: FxHashSet<VertexId> = FxHashSet::default();
        let mut frontier: Vec<VertexId> = vec![seed];
        visited.insert(seed);
        while edges.len() < edges_per_query && !frontier.is_empty() {
            let idx = rng.gen_range(0..frontier.len());
            let node = frontier.swap_remove(idx);
            let Some(targets) = adjacency.get(&node) else {
                continue;
            };
            // Explore out-edges in random order until the budget is hit.
            let mut order: Vec<usize> = (0..targets.len()).collect();
            order.shuffle(rng);
            for ti in order {
                if edges.len() >= edges_per_query {
                    break;
                }
                let (dst, _) = targets[ti];
                edges.push(Edge::new(node, dst));
                if visited.insert(dst) {
                    frontier.push(dst);
                }
            }
        }
        if !edges.is_empty() {
            out.push(SubgraphQuery { edges });
        }
    }
    out
}

/// Per-vertex relative weights `w̃(n)` from a workload sample: the
/// fraction of workload edges emanating from each vertex (§4.2).
/// Smoothing is applied by the consumer (`gsketch::vstats`), which knows
/// the vertex support of the data sample.
pub fn workload_vertex_counts(workload: &[Edge]) -> crate::fxhash::FxHashMap<VertexId, u64> {
    let mut counts = crate::fxhash::FxHashMap::default();
    for e in workload {
        *counts.entry(e.src).or_insert(0) += 1;
    }
    counts
}

/// Attach a fixed-span inclusive query window to every edge query: each
/// window covers `span` timestamps, its start drawn uniformly over the
/// multiples of `align` in `[0, t_max]` (so `align == span` tiles the
/// stream's lifetime, smaller alignments overlap). The windowed rows are
/// what `WindowedGSketch` deployments replay — and because the start
/// domain is small and discrete, workloads repeat intervals, so each
/// interval's batch is large and repeats its hot edges.
///
/// # Panics
/// Panics if `span` or `align` is zero (CLI callers validate first).
pub fn windowed_interval_queries<R: Rng + ?Sized>(
    queries: &[Edge],
    span: u64,
    align: u64,
    t_max: u64,
    rng: &mut R,
) -> Vec<WorkloadQuery> {
    // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
    assert!(span > 0, "interval span must be positive");
    assert!(align > 0, "interval alignment must be positive");
    let last_start = t_max.saturating_sub(span - 1);
    let starts = last_start / align + 1;
    queries
        .iter()
        .map(|&edge| {
            let t_start = rng.gen_range(0..starts) * align;
            WorkloadQuery::windowed(edge, t_start, t_start.saturating_add(span - 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_stream() -> Vec<StreamEdge> {
        let mut s = Vec::new();
        let mut ts = 0;
        // Heavy edge (1,2) x50; medium (2,3) x10; singles.
        for _ in 0..50 {
            s.push(StreamEdge::unit(Edge::new(1u32, 2u32), ts));
            ts += 1;
        }
        for _ in 0..10 {
            s.push(StreamEdge::unit(Edge::new(2u32, 3u32), ts));
            ts += 1;
        }
        for d in 4..20u32 {
            s.push(StreamEdge::unit(Edge::new(3u32, d), ts));
            ts += 1;
        }
        s
    }

    #[test]
    fn interval_windows_are_aligned_and_in_range() {
        let queries: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, i + 1)).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let (span, align, t_max) = (100u64, 25u64, 1_000u64);
        let windowed = windowed_interval_queries(&queries, span, align, t_max, &mut rng);
        assert_eq!(windowed.len(), queries.len());
        let mut distinct = FxHashSet::default();
        for (q, w) in queries.iter().zip(&windowed) {
            assert_eq!(w.edge, *q, "edges pass through in order");
            let (ts, te) = w.window.expect("every row is windowed");
            assert_eq!(ts % align, 0, "start {ts} not aligned to {align}");
            assert_eq!(te - ts + 1, span, "window length");
            assert!(ts <= t_max);
            distinct.insert(ts);
        }
        assert!(distinct.len() > 1, "starts must vary");
        // align == span tiles the lifetime: starts are span multiples.
        let tiled = windowed_interval_queries(&queries, span, span, t_max, &mut rng);
        assert!(tiled
            .iter()
            .all(|w| w.window.is_some_and(|(ts, _)| ts % span == 0)));
    }

    #[test]
    fn uniform_queries_are_frequency_biased() {
        let stream = toy_stream();
        let mut rng = StdRng::seed_from_u64(0);
        let q = uniform_edge_queries(&stream, 2000, &mut rng);
        let heavy = q.iter().filter(|e| **e == Edge::new(1u32, 2u32)).count();
        // Heavy edge is 50/76 of arrivals ≈ 66%.
        assert!(heavy > 1000, "heavy edge should dominate: {heavy}");
    }

    #[test]
    fn uniform_distinct_queries_cover_support() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(1);
        let q = uniform_distinct_queries(&counts, 10, &mut rng);
        assert_eq!(q.len(), 10);
        for e in &q {
            assert!(counts.frequency(*e) > 0);
        }
    }

    #[test]
    fn zipf_frequency_rank_prefers_heavy_edges() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(2);
        let q = zipf_edge_queries(&counts, 1000, 1.8, ZipfRank::Frequency, &mut rng);
        let heavy = q.iter().filter(|e| **e == Edge::new(1u32, 2u32)).count();
        assert!(
            heavy > 400,
            "rank-1 edge should receive most Zipf mass: {heavy}"
        );
    }

    #[test]
    fn zipf_random_rank_is_reproducible() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let a = zipf_edge_queries(
            &counts,
            50,
            1.5,
            ZipfRank::Random,
            &mut StdRng::seed_from_u64(3),
        );
        let b = zipf_edge_queries(
            &counts,
            50,
            1.5,
            ZipfRank::Random,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn subgraph_queries_have_requested_size() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(4);
        let qs = bfs_subgraph_queries(&counts, 20, 5, &mut rng);
        assert_eq!(qs.len(), 20);
        for q in &qs {
            assert!(!q.is_empty());
            assert!(q.len() <= 5);
            // Every edge must exist in the underlying graph.
            for e in &q.edges {
                assert!(counts.frequency(*e) > 0, "BFS produced unknown edge {e}");
            }
        }
    }

    #[test]
    fn subgraph_edges_are_connected_to_seed_region() {
        // With vertex 3 fanning out, BFS from 3 should pick its edges.
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(5);
        let qs = bfs_subgraph_queries(&counts, 50, 10, &mut rng);
        assert!(qs.iter().any(|q| q.len() >= 2));
    }

    #[test]
    fn workload_vertex_counts_aggregate_sources() {
        let w = vec![
            Edge::new(1u32, 2u32),
            Edge::new(1u32, 3u32),
            Edge::new(2u32, 3u32),
        ];
        let counts = workload_vertex_counts(&w);
        assert_eq!(counts[&VertexId(1)], 2);
        assert_eq!(counts[&VertexId(2)], 1);
        assert!(!counts.contains_key(&VertexId(3)));
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        uniform_edge_queries(&[], 5, &mut rng);
    }

    /// Rank handling at the edges of the support: a single-edge support
    /// with far more queries than edges must neither panic nor wander
    /// off the ranked list, for tame and extreme skews alike — every
    /// drawn query is the one real edge.
    #[test]
    fn zipf_rank_handling_survives_tiny_support_and_extreme_alpha() {
        let stream = vec![StreamEdge::unit(Edge::new(1u32, 2u32), 0)];
        let counts = ExactCounter::from_stream(&stream);
        for alpha in [1e-6, 0.5, 1.0, 1.1, 2.0, 50.0, 500.0] {
            let mut rng = StdRng::seed_from_u64(7);
            let q = zipf_edge_queries(&counts, 200, alpha, ZipfRank::Frequency, &mut rng);
            assert_eq!(q.len(), 200, "alpha {alpha}");
            assert!(q.iter().all(|e| *e == Edge::new(1u32, 2u32)));
            let sampler = ZipfEdgeSampler::new(&counts, alpha, ZipfRank::Random, &mut rng);
            assert!(sampler
                .draw(50, &mut rng)
                .iter()
                .all(|e| counts.frequency(*e) > 0));
            assert!(sampler
                .draw_sources(50, &mut rng)
                .iter()
                .all(|v| *v == VertexId(1)));
        }
    }

    /// More queries than distinct edges: draws repeat (with
    /// replacement — the definition of a skewed workload) but every
    /// draw is a real edge of the stream.
    #[test]
    fn zipf_queries_exceeding_support_stay_on_support() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(9);
        let k = counts.distinct_edges() * 13;
        let q = zipf_edge_queries(&counts, k, 1.1, ZipfRank::Frequency, &mut rng);
        assert_eq!(q.len(), k);
        for e in &q {
            assert!(counts.frequency(*e) > 0, "drew unknown edge {e}");
        }
    }

    /// The rank→index conversion is total: any u64 rank lands inside
    /// the list.
    #[test]
    fn rank_index_is_total() {
        for (rank, len, expect) in [
            (0u64, 5usize, 0usize), // defensive: rank 0 clamps to first
            (1, 5, 0),
            (5, 5, 4),
            (6, 5, 4),
            (u64::MAX, 5, 4),
            (1, 1, 0),
            (u64::MAX, 1, 0),
        ] {
            assert_eq!(rank_index(rank, len), expect, "rank {rank} len {len}");
        }
    }

    #[test]
    fn zipf_sampler_shares_popularity_across_draws() {
        // Two draws from the SAME sampler concentrate on the same edges;
        // that is the property scenario 2 relies on.
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(11);
        let sampler = ZipfEdgeSampler::new(&counts, 1.8, ZipfRank::Random, &mut rng);
        let workload = sampler.draw(500, &mut rng);
        let queries = sampler.draw(500, &mut rng);
        let top = |edges: &[Edge]| {
            let mut c: FxHashSet<Edge> = FxHashSet::default();
            let mut counts = std::collections::HashMap::new();
            for e in edges {
                *counts.entry(*e).or_insert(0usize) += 1;
            }
            let mut v: Vec<(Edge, usize)> = counts.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            c.extend(v.into_iter().take(3).map(|(e, _)| e));
            c
        };
        let shared = top(&workload).intersection(&top(&queries)).count();
        assert!(shared >= 2, "popular edges should coincide: {shared}");
        assert_eq!(sampler.support(), counts.distinct_edges());
    }

    #[test]
    fn seeded_subgraph_queries_start_at_seeds() {
        let stream = toy_stream();
        let counts = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(12);
        let seeds = vec![VertexId(3), VertexId(1)];
        let qs = bfs_subgraph_queries_from_seeds(&counts, &seeds, 4, &mut rng);
        assert_eq!(qs.len(), 2);
        for (q, seed) in qs.iter().zip(&seeds) {
            assert_eq!(q.edges[0].src, *seed);
        }
    }
}
