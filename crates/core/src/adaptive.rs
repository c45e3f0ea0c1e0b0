//! Sample-free adaptive gSketch — the paper's final future-work item
//! (§7: "we will investigate how such sketch-based methods can be
//! potentially designed for dynamic analysis, which may not require any
//! samples for constructing the underlying synopsis").
//!
//! The adaptive sketch removes the pre-collected data sample by treating
//! the *stream prefix itself* as the sample:
//!
//! 1. **Warm-up phase.** Arrivals are absorbed by a global CountMin
//!    sketch (a one-slot [`CmArena`] sized at a configurable fraction of
//!    the budget) while exact per-source vertex statistics — `f̃v(m)` and
//!    `d̃(m)`, the same quantities §4 estimates from the sample — are
//!    accumulated online in a bounded side table.
//! 2. **Switchover.** After `warmup_arrivals` arrivals the collected
//!    statistics feed the ordinary partitioning tree (Eq. 9 objective),
//!    the remaining budget is materialized as localized sketches, and the
//!    side table is dropped.
//! 3. **Steady state.** Subsequent arrivals route through `H: V → S_i`
//!    exactly as in a sample-built gSketch.
//!
//! A query is answered by *summing* the warm-up sketch's estimate and the
//! post-switchover estimate. Both components are one-sided CountMin
//! estimates, so the sum never underestimates and Equation (1) applies
//! with `N` split across the two phases — strictly better than a single
//! global sketch of the warm-up's size, and approaching a sample-built
//! gSketch once the stream is long relative to the warm-up.
//!
//! The side table is the only extra memory, it is bounded by
//! `max_tracked_sources`, and it lives only during warm-up. Sources that
//! overflow the table during an adversarially wide warm-up are simply
//! left to the outlier sketch, mirroring §5's treatment of unsampled
//! vertices.
//!
//! **Sizing the warm-up.** The warm-up sketch's additive error,
//! `≈ N_warm / w_warm`, is baked into every lifetime estimate, so the
//! warm-up must stay *short relative to its width*: keep
//! `warmup_arrivals / warmup_memory_fraction` well below the expected
//! stream length, i.e. absorb proportionally less mass during warm-up
//! than the fraction of memory the warm-up sketch holds. The warm-up
//! sketch also uses conservative update (Estan & Varghese,
//! [`CmArena::update_slot_conservative`]) — point queries are all it
//! ever answers, and conservative update strictly reduces their
//! overestimation at no accuracy cost.

use crate::gsketch::{GSketch, GSketchBuilder};
use crate::router::SketchId;
use crate::sink::EdgeSink;
use crate::vstats::{SampleStats, VertexStat};
use gstream::edge::{Edge, StreamEdge};
use gstream::fxhash::{FxHashMap, FxHashSet};
use gstream::vertex::VertexId;
use sketch::{CmArena, SketchError};

/// Configuration of the adaptive (sample-free) gSketch.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Total memory budget in bytes, shared by the warm-up sketch and the
    /// partitioned phase.
    pub memory_bytes: usize,
    /// Fraction of the budget given to the warm-up global sketch.
    pub warmup_memory_fraction: f64,
    /// Arrivals to absorb before partitioning.
    pub warmup_arrivals: u64,
    /// Upper bound on the number of sources tracked in the warm-up side
    /// table; overflow sources fall to the outlier sketch at switchover.
    pub max_tracked_sources: usize,
    /// Sketch depth `d` for both phases.
    pub depth: usize,
    /// Minimum partition width `w0` (termination criterion 1).
    pub min_width: usize,
    /// Expected ratio of full-stream length to warm-up length, used to
    /// extrapolate the warm-up vertex statistics before partitioning
    /// (the [`sample_rate`](crate::GSketchBuilder::sample_rate)
    /// mechanism). A warm-up of 5% of the expected stream corresponds to
    /// `20.0`. Underestimating it makes Theorem 1 terminate partitioning
    /// too early at large budgets; overestimating merely deepens the
    /// tree.
    pub expected_growth: f64,
    /// Hash seed.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            memory_bytes: 1 << 20,
            warmup_memory_fraction: 0.2,
            warmup_arrivals: 50_000,
            max_tracked_sources: 1 << 20,
            depth: 3,
            min_width: 512,
            expected_growth: 20.0,
            seed: 0xADA_975,
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> Result<(), SketchError> {
        if !(self.warmup_memory_fraction > 0.0 && self.warmup_memory_fraction < 1.0) {
            return Err(SketchError::InvalidAccuracy {
                what: "warmup_memory_fraction",
                value: self.warmup_memory_fraction,
            });
        }
        if self.warmup_arrivals == 0 {
            return Err(SketchError::InvalidDimension {
                what: "warmup_arrivals",
                value: 0,
            });
        }
        if self.expected_growth < 1.0 || self.expected_growth.is_nan() {
            return Err(SketchError::InvalidAccuracy {
                what: "expected_growth",
                value: self.expected_growth,
            });
        }
        if self.max_tracked_sources == 0 {
            return Err(SketchError::InvalidDimension {
                what: "max_tracked_sources",
                value: 0,
            });
        }
        // A budget or growth the switchover's build would refuse fails
        // here, not mid-stream.
        self.partition_builder().validate()?;
        Ok(())
    }

    /// The builder of the partitioned phase, over the budget the warm-up
    /// sketch leaves. Call only once the warm-up fraction is validated.
    fn partition_builder(&self) -> GSketchBuilder {
        let partition_bytes = self.memory_bytes
            // cast: f64 -> usize truncation; fraction in (0, 1) (validated), so
            // the warm-up share stays below memory_bytes and the subtraction holds.
            - (self.memory_bytes as f64 * self.warmup_memory_fraction) as usize;
        GSketchBuilder::default()
            .memory_bytes(partition_bytes.max(256))
            .depth(self.depth)
            .min_width(self.min_width)
            .sample_rate(1.0 / self.expected_growth)
            .seed(self.seed.wrapping_add(0x5117C4))
    }
}

/// Online per-source statistics gathered during warm-up.
#[derive(Debug, Default)]
struct WarmupStats {
    /// src → (freq mass, distinct out-edge count).
    table: FxHashMap<VertexId, (u64, u64)>,
    /// Distinct edges seen (for exact degree counting).
    seen_edges: FxHashSet<Edge>,
    /// Sources dropped because the table was full.
    overflowed: u64,
}

impl WarmupStats {
    fn observe(&mut self, edge: Edge, weight: u64, cap: usize) {
        use std::collections::hash_map::Entry;
        let is_new_edge = self.seen_edges.insert(edge);
        let at_cap = self.table.len() >= cap;
        match self.table.entry(edge.src) {
            Entry::Occupied(mut o) => {
                let (f, d) = o.get_mut();
                *f += weight;
                *d += u64::from(is_new_edge);
            }
            Entry::Vacant(v) => {
                if at_cap {
                    self.overflowed += 1;
                } else {
                    v.insert((weight, u64::from(is_new_edge)));
                }
            }
        }
    }

    fn into_sample_stats(self) -> SampleStats {
        SampleStats::from_vertex_stats(self.table.into_iter().map(|(v, (freq, degree))| {
            (
                v,
                VertexStat {
                    freq,
                    degree,
                    workload: 1.0,
                },
            )
        }))
    }
}

/// Which phase the adaptive sketch is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Still absorbing into the warm-up global sketch.
    Warmup,
    /// Partitioned and routing through `H`.
    Partitioned,
}

enum State {
    Warmup(Box<WarmupStats>),
    Partitioned(Box<GSketch>),
}

/// A gSketch that builds its own partitioning from the stream prefix —
/// no data sample required.
pub struct AdaptiveGSketch {
    cfg: AdaptiveConfig,
    /// The warm-up global sketch, a one-slot arena written with
    /// conservative update; after switchover it is frozen and only
    /// consulted at query time.
    warmup: CmArena,
    state: State,
    arrivals: u64,
}

impl std::fmt::Debug for AdaptiveGSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveGSketch")
            .field("phase", &self.phase())
            .field("arrivals", &self.arrivals)
            .finish_non_exhaustive()
    }
}

impl AdaptiveGSketch {
    /// Create an adaptive sketch in the warm-up phase.
    pub fn new(cfg: AdaptiveConfig) -> Result<Self, SketchError> {
        cfg.validate()?;
        // cast: f64 -> usize truncation; the fraction is validated in (0, 1)
        // so the product is below memory_bytes, which fits usize.
        let warmup_bytes = (cfg.memory_bytes as f64 * cfg.warmup_memory_fraction) as usize;
        let cells = CmArena::cells_for_bytes(warmup_bytes);
        let width = (cells / cfg.depth.max(1)).max(4);
        let warmup = CmArena::new(width, cfg.depth, cfg.seed)?;
        Ok(Self {
            cfg,
            warmup,
            state: State::Warmup(Box::default()),
            arrivals: 0,
        })
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        match self.state {
            State::Warmup(_) => Phase::Warmup,
            State::Partitioned(_) => Phase::Partitioned,
        }
    }

    /// Total arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Force the switchover before `warmup_arrivals` is reached (useful
    /// when the caller knows the prefix is already representative).
    pub fn partition_now(&mut self) {
        if matches!(self.state, State::Warmup(_)) {
            self.switch_over();
        }
    }

    fn switch_over(&mut self) {
        // Temporarily park an empty warm-up state while we consume the
        // real one; it is overwritten below in every path.
        let prev = std::mem::replace(&mut self.state, State::Warmup(Box::default()));
        let stats = match prev {
            State::Warmup(stats) => *stats,
            State::Partitioned(gs) => {
                // Unreachable by construction; restore and bail.
                self.state = State::Partitioned(gs);
                return;
            }
        };
        let gs = self
            .cfg
            .partition_builder()
            .build_from_stats(stats.into_sample_stats())
            // lint: allow(no-panics) — the builder `cfg.validate()` checked at
            // construction; a checked builder cannot fail.
            .expect("partitioned-phase budget validated at construction");
        self.state = State::Partitioned(Box::new(gs));
    }

    /// Estimate the lifetime frequency of `edge`: warm-up estimate plus
    /// post-switchover estimate. One-sided, like its components.
    pub fn estimate(&self, edge: Edge) -> u64 {
        let tail = match &self.state {
            State::Warmup(_) => 0,
            State::Partitioned(gs) => gs.estimate(edge),
        };
        self.warmup
            .estimate_slot(0, edge.key())
            .saturating_add(tail)
    }

    /// Batched [`estimate`](Self::estimate): the warm-up component is
    /// answered by the arena's batched slot read and (after switchover)
    /// the partitioned component as one batch, then the two are summed
    /// per query. `out` is overwritten with one estimate per edge, in
    /// query order; bit-identical to the scalar path.
    pub fn estimate_batch(&self, edges: &[Edge], out: &mut Vec<u64>) {
        let keys: Vec<u64> = edges.iter().map(|e| e.key()).collect();
        self.warmup.estimate_batch_slot(0, &keys, out);
        if let State::Partitioned(gs) = &self.state {
            let mut tail = Vec::with_capacity(edges.len());
            gs.estimate_batch(edges, &mut tail);
            for (head, t) in out.iter_mut().zip(&tail) {
                *head = head.saturating_add(*t);
            }
        }
    }

    /// Which sketch serves `edge` in the current phase (`None` during
    /// warm-up, when everything lives in the global warm-up sketch).
    pub fn route(&self, edge: Edge) -> Option<SketchId> {
        match &self.state {
            State::Warmup(_) => None,
            State::Partitioned(gs) => Some(gs.route(edge)),
        }
    }

    /// Number of localized partitions (0 during warm-up).
    pub fn num_partitions(&self) -> usize {
        match &self.state {
            State::Warmup(_) => 0,
            State::Partitioned(gs) => gs.num_partitions(),
        }
    }

    /// Total counter memory in bytes across both phases.
    pub fn bytes(&self) -> usize {
        let tail = match &self.state {
            State::Warmup(_) => 0,
            State::Partitioned(gs) => gs.bytes(),
        };
        self.warmup.byte_size() + tail
    }

    /// The inner partitioned sketch, once built.
    pub fn partitioned(&self) -> Option<&GSketch> {
        match &self.state {
            State::Warmup(_) => None,
            State::Partitioned(gs) => Some(gs),
        }
    }

    /// Ingest a materialized stream through the **owner-sharded engine**
    /// (DESIGN.md §11): the warm-up prefix replays sequentially, the
    /// switchover happens at its usual arrival boundary, and everything
    /// after it is committed by up to `owners` exclusive slice owners —
    /// the epoch handoff that lifts the adaptive deployment onto the
    /// parallel path.
    ///
    /// The warm-up phase is inherently order-dependent (conservative
    /// update and the online vertex statistics both depend on arrival
    /// order), so exactly the arrivals `update` would absorb before the
    /// boundary go through `update`, switchover and all. The
    /// post-switchover remainder only touches the partitioned sketch —
    /// the warm-up sketch is frozen from the switchover on — and
    /// saturating counter commits commute, so one
    /// [`crate::ShardedIngest`] run over the remainder is bit-identical
    /// to the sequential loop (pinned by the `backend_parity`
    /// proptests). `oversubscribe` forces the requested owner count past
    /// the host's parallelism (correctness tests).
    pub fn ingest_sharded(
        &mut self,
        stream: &[StreamEdge],
        owners: usize,
        oversubscribe: bool,
    ) -> crate::IngestReport {
        let mut report = crate::IngestReport {
            arrivals: 0,
            chunks: 0,
            workers: 1,
        };
        // Warm-up arrivals go through `update` one by one, until the
        // arrival that triggers the switchover.
        let mut rest = stream;
        while let (State::Warmup(_), Some((se, tail))) = (&self.state, rest.split_first()) {
            self.update(*se);
            report.arrivals += 1;
            rest = tail;
        }
        let State::Partitioned(gs) = &mut self.state else {
            return report;
        };
        if rest.is_empty() {
            return report;
        }
        let r = crate::ShardedIngest::new(gs, owners)
            .oversubscribe(oversubscribe)
            .run_slice(rest);
        self.arrivals += rest.len() as u64;
        report.arrivals += r.arrivals;
        report.chunks = r.chunks;
        report.workers = r.workers;
        report
    }
}

impl EdgeSink for AdaptiveGSketch {
    fn update(&mut self, se: StreamEdge) {
        self.arrivals += 1;
        match &mut self.state {
            State::Warmup(stats) => {
                self.warmup
                    .update_slot_conservative(0, se.edge.key(), se.weight);
                stats.observe(se.edge, se.weight, self.cfg.max_tracked_sources);
                if self.arrivals >= self.cfg.warmup_arrivals {
                    self.switch_over();
                }
            }
            State::Partitioned(gs) => gs.update(se),
        }
    }

    /// [`ingest_sharded`](AdaptiveGSketch::ingest_sharded) with one
    /// owner: warm-up arrivals replay through [`update`](Self::update),
    /// the partitioned remainder runs the fused engine. Bit-identical to
    /// an `update` loop.
    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        self.ingest_sharded(batch, 1, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::gen::{RmatConfig, RmatGenerator};
    use gstream::ExactCounter;

    fn cfg(memory: usize, warmup: u64) -> AdaptiveConfig {
        AdaptiveConfig {
            memory_bytes: memory,
            warmup_arrivals: warmup,
            min_width: 64,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        let mut c = cfg(1 << 16, 100);
        c.warmup_memory_fraction = 0.0;
        assert!(AdaptiveGSketch::new(c).is_err());
        let mut c = cfg(1 << 16, 100);
        c.warmup_arrivals = 0;
        assert!(AdaptiveGSketch::new(c).is_err());
        let mut c = cfg(1 << 16, 100);
        c.max_tracked_sources = 0;
        assert!(AdaptiveGSketch::new(c).is_err());
        // Configs the switchover's build would refuse fail here.
        let mut c = cfg(1 << 16, 100);
        c.expected_growth = f64::INFINITY;
        assert!(AdaptiveGSketch::new(c).is_err());
        let mut c = cfg(300, 100);
        c.depth = 10;
        assert!(AdaptiveGSketch::new(c).is_err());
    }

    #[test]
    fn phases_transition_at_warmup_boundary() {
        let mut a = AdaptiveGSketch::new(cfg(1 << 16, 10)).unwrap();
        assert_eq!(a.phase(), Phase::Warmup);
        for t in 0..9u32 {
            a.update(StreamEdge::unit(Edge::new(t, t + 1), 0));
            assert_eq!(a.phase(), Phase::Warmup);
        }
        a.update(StreamEdge::unit(Edge::new(100u32, 101u32), 0));
        assert_eq!(a.phase(), Phase::Partitioned);
        assert!(a.num_partitions() >= 1);
    }

    #[test]
    fn estimates_never_underestimate_across_phases() {
        let stream: Vec<_> = RmatGenerator::new(RmatConfig::gtgraph(8, 20_000, 5)).collect();
        let truth = ExactCounter::from_stream(&stream);
        let mut a = AdaptiveGSketch::new(cfg(1 << 18, 5_000)).unwrap();
        a.ingest(&stream);
        assert_eq!(a.phase(), Phase::Partitioned);
        for (edge, f) in truth.iter() {
            assert!(
                a.estimate(edge) >= f,
                "edge {edge} underestimated: {} < {f}",
                a.estimate(edge)
            );
        }
    }

    #[test]
    fn partition_now_is_idempotent() {
        let mut a = AdaptiveGSketch::new(cfg(1 << 16, 1_000_000)).unwrap();
        for t in 0..100u32 {
            a.update(StreamEdge::unit(Edge::new(t % 10, t), 0));
        }
        assert_eq!(a.phase(), Phase::Warmup);
        a.partition_now();
        assert_eq!(a.phase(), Phase::Partitioned);
        let parts = a.num_partitions();
        a.partition_now(); // no-op
        assert_eq!(a.num_partitions(), parts);
    }

    #[test]
    fn warmup_only_queries_work() {
        let mut a = AdaptiveGSketch::new(cfg(1 << 16, 1_000)).unwrap();
        a.update(StreamEdge::weighted(Edge::new(1u32, 2u32), 0, 7));
        assert_eq!(a.phase(), Phase::Warmup);
        assert!(a.estimate(Edge::new(1u32, 2u32)) >= 7);
        assert!(a.route(Edge::new(1u32, 2u32)).is_none());
    }

    #[test]
    fn memory_budget_respected() {
        let stream: Vec<_> = RmatGenerator::new(RmatConfig::gtgraph(8, 10_000, 5)).collect();
        for budget in [1 << 15, 1 << 17, 1 << 19] {
            let mut a = AdaptiveGSketch::new(cfg(budget, 2_000)).unwrap();
            a.ingest(&stream);
            assert!(
                a.bytes() <= budget,
                "adaptive sketch uses {} of {budget}",
                a.bytes()
            );
        }
    }

    #[test]
    fn beats_global_sketch_at_equal_memory() {
        // The point of adapting: after switchover, light sources stop
        // colliding with heavy ones. Needs a stream with the §3.3
        // properties (per-source frequency homogeneity + cross-source
        // skew) — the R-MAT *traffic* model, not raw R-MAT arrivals —
        // and the d = 1 depth the paper's objective is derived for.
        use gstream::gen::{RmatTrafficConfig, RmatTrafficGenerator};
        let mut traffic = RmatTrafficConfig::gtgraph(12, 50_000, 600_000, 11);
        traffic.activity_alpha = 1.2;
        let stream: Vec<_> = RmatTrafficGenerator::new(traffic).collect();
        let truth = ExactCounter::from_stream(&stream);
        let budget = 1 << 15; // tight, but enough for partitioning to express

        // Warm-up absorbs 5% of the stream with 15% of the memory — the
        // sizing rule from the module docs.
        let mut config = cfg(budget, 10_000);
        config.depth = 1;
        config.warmup_memory_fraction = 0.15;
        let mut adaptive = AdaptiveGSketch::new(config).unwrap();
        adaptive.ingest(&stream);

        let mut global = GSketch::global(budget, 1, 99).unwrap();
        global.ingest(&stream);

        let queries: Vec<_> = truth.iter().take(2_000).collect();
        let rel = |est: u64, f: u64| (est as f64 - f as f64) / f as f64;
        let adaptive_err: f64 = queries
            .iter()
            .map(|&(e, f)| rel(adaptive.estimate(e), f))
            .sum::<f64>()
            / queries.len() as f64;
        let global_err: f64 = queries
            .iter()
            .map(|&(e, f)| rel(global.estimate(e), f))
            .sum::<f64>()
            / queries.len() as f64;
        assert!(
            adaptive_err < global_err,
            "adaptive {adaptive_err:.2} should beat global {global_err:.2}"
        );
    }

    #[test]
    fn overflow_sources_fall_to_outlier() {
        let mut c = cfg(1 << 16, 50);
        c.max_tracked_sources = 4;
        let mut a = AdaptiveGSketch::new(c).unwrap();
        // 50 distinct sources, but only 4 tracked.
        for t in 0..50u32 {
            a.update(StreamEdge::unit(Edge::new(t, 1000), 0));
        }
        assert_eq!(a.phase(), Phase::Partitioned);
        // Everything still answerable (via warm-up + outlier).
        for t in 0..50u32 {
            assert!(a.estimate(Edge::new(t, 1000)) >= 1);
        }
    }

    /// The sharded ingest path — sequential warm-up prefix, switchover
    /// at the usual boundary, owner-sharded remainder — must answer
    /// bit-identically to the sequential `update` loop for any owner
    /// count, including calls split around the warm-up boundary.
    #[test]
    fn sharded_ingest_matches_sequential() {
        let stream: Vec<_> = RmatGenerator::new(RmatConfig::gtgraph(8, 20_000, 5)).collect();
        let edges: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        let mut seq = AdaptiveGSketch::new(cfg(1 << 18, 5_000)).unwrap();
        seq.ingest(&stream);
        let mut want = Vec::new();
        seq.estimate_batch(&edges, &mut want);
        for owners in [1usize, 4] {
            let mut par = AdaptiveGSketch::new(cfg(1 << 18, 5_000)).unwrap();
            // First call ends mid-warm-up; the second crosses the
            // switchover with a sharded remainder.
            let r1 = par.ingest_sharded(&stream[..3_000], owners, true);
            assert_eq!(r1.arrivals, 3_000);
            assert_eq!(par.phase(), Phase::Warmup);
            let r2 = par.ingest_sharded(&stream[3_000..], owners, true);
            assert_eq!(r2.arrivals, stream.len() as u64 - 3_000);
            assert_eq!(par.phase(), Phase::Partitioned);
            assert_eq!(par.arrivals(), stream.len() as u64);
            assert_eq!(par.num_partitions(), seq.num_partitions());
            let mut got = Vec::new();
            par.estimate_batch(&edges, &mut got);
            assert_eq!(got, want, "{owners} owners");
        }
    }

    /// `ingest_batch` (the fused one-owner path after the switchover)
    /// answers bit-identically to an `update` loop for chunkings that
    /// end before, on and after the warm-up boundary, or straddle it.
    #[test]
    fn ingest_batch_matches_update_across_switchover() {
        let stream: Vec<_> = RmatGenerator::new(RmatConfig::gtgraph(8, 12_000, 9)).collect();
        let edges: Vec<Edge> = stream.iter().map(|se| se.edge).collect();
        let warmup = 3_000usize;
        let mut seq = AdaptiveGSketch::new(cfg(1 << 18, warmup as u64)).unwrap();
        for se in &stream {
            seq.update(*se);
        }
        let mut want = Vec::new();
        seq.estimate_batch(&edges, &mut want);
        for cuts in [
            vec![1, warmup - 1, 1, 7_000],
            vec![warmup, 1],
            vec![warmup - 1, 2, 500],
            vec![warmup + 1],
            vec![stream.len()],
        ] {
            let mut batched = AdaptiveGSketch::new(cfg(1 << 18, warmup as u64)).unwrap();
            let mut rest = stream.as_slice();
            for cut in cuts.iter().copied().chain(std::iter::once(usize::MAX)) {
                let (chunk, tail) = rest.split_at(cut.min(rest.len()));
                batched.ingest_batch(chunk);
                rest = tail;
            }
            assert_eq!(batched.arrivals(), stream.len() as u64);
            assert_eq!(batched.phase(), Phase::Partitioned);
            assert_eq!(batched.num_partitions(), seq.num_partitions());
            let mut got = Vec::new();
            batched.estimate_batch(&edges, &mut got);
            assert_eq!(got, want, "chunking {cuts:?}");
        }
    }

    #[test]
    fn debug_format_shows_phase() {
        let a = AdaptiveGSketch::new(cfg(1 << 16, 10)).unwrap();
        let s = format!("{a:?}");
        assert!(s.contains("Warmup"));
    }
}
