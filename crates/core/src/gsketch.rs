//! The gSketch structure: a set of localized frequency sketches plus an
//! outlier sketch, built by sample-driven partitioning (§4–§5).
//!
//! Every slot lives in one [`CmArena`] (DESIGN.md §2): each partition's
//! CountMin counters plus the outlier's in one contiguous slab with a
//! single shared per-row hash family. The arena answers bit-identically
//! to one standalone CountMin sketch per slot of the same widths and
//! seed (the `backend_parity` proptests pin this against such a model),
//! so every estimate keeps CountMin's one-sided `e·N_i/w_i` bound.

use crate::partition::{partition, Objective, PartitionConfig, PartitionPlan, WidthAllocation};
use crate::pipeline::OwnerShare;
use crate::query::{fan_out, host_workers};
use crate::router::{OwnerMap, Router, SketchId};
use crate::vstats::SampleStats;
use gstream::edge::{Edge, StreamEdge};
use serde::{Deserialize, Serialize};
use sketch::{BlockedBloom, CmArena, SketchError};

/// Fraction of the memory budget carved out for the zero-frequency
/// pre-filter (DESIGN.md §12): `1/PREFILTER_SHARE` of `memory_bytes`.
/// The carve happens *before* counter cells are sized, so filter bytes
/// are charged against the same `--memory` budget as the counters.
const PREFILTER_SHARE: usize = 16;

/// Fraction of the counter width reserved for the outlier sketch (§5),
/// the slot of every source vertex the partitioning did not place.
const OUTLIER_FRACTION: f64 = 0.1;

/// Edges per chunk of the batched read path: routing, counter gather
/// and filter gather each run over one chunk at a time, so the scratch
/// stays a few tens of KiB however long the batch is.
pub(crate) const READ_CHUNK: usize = 2048;

/// Reused per-chunk scratch of the batched read path: each edge's slot
/// and key, its answer, and whether the pre-filter admitted it.
#[derive(Default)]
struct ReadChunk {
    slots: Vec<u32>,
    keys: Vec<u64>,
    vals: Vec<u64>,
    present: Vec<bool>,
}

/// Builder-style configuration for a [`GSketch`].
///
/// Serializable so deployments that must rebuild *identical* sketches
/// after a restart — the windowed snapshot store persists the builder in
/// its header and replays rotations with it — can round-trip the full
/// build configuration (the build is deterministic given the fields).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GSketchBuilder {
    memory_bytes: usize,
    depth: usize,
    min_width: usize,
    redistribute: bool,
    sample_rate: f64,
    allocation: WidthAllocation,
    prefilter: bool,
    seed: u64,
    width_quantum: usize,
}

impl Default for GSketchBuilder {
    fn default() -> Self {
        Self {
            memory_bytes: 1 << 20,
            depth: 3, // d = ⌈ln 1/δ⌉ with δ = 0.05
            min_width: 512,
            redistribute: true,
            sample_rate: 1.0,
            allocation: WidthAllocation::Optimal,
            prefilter: true,
            seed: 0x6_5EED,
            width_quantum: 1,
        }
    }
}

impl GSketchBuilder {
    /// Total memory budget for all sketch counters, in bytes. This is the
    /// quantity on the x-axis of the paper's Figures 4–9 and 13–14.
    #[must_use]
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Sketch depth `d` shared by every partition (§4.1 keeps the global
    /// depth so the per-partition probabilistic guarantee is unchanged).
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Minimum partition width `w0` (termination criterion 1).
    #[must_use]
    pub fn min_width(mut self, w0: usize) -> Self {
        self.min_width = w0;
        self
    }

    /// Whether Theorem-1 width savings are redistributed (DESIGN.md §5).
    #[must_use]
    pub fn redistribute(mut self, on: bool) -> Self {
        self.redistribute = on;
        self
    }

    /// Seed for the shared hash family (estimates are deterministic given
    /// the seed and the stream).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether to build the zero-frequency pre-filter (DESIGN.md §12):
    /// a blocked Bloom filter carved from the same memory budget that
    /// short-circuits never-ingested keys to an exact `0` before any
    /// counter row is read. On by default; turning it off returns the
    /// whole budget to the counters (the ablation/bench configuration).
    #[must_use]
    pub fn prefilter(mut self, on: bool) -> Self {
        self.prefilter = on;
        self
    }

    /// Final width assignment policy
    /// ([`WidthAllocation::Optimal`] by default; `EqualSplit` is the
    /// paper's literal halving scheme, kept for the ablation bench).
    #[must_use]
    pub fn allocation(mut self, allocation: WidthAllocation) -> Self {
        self.allocation = allocation;
        self
    }

    /// Round every slot width to a multiple of `quantum` (default 1 =
    /// no rounding). The windowed deployment's tiering path sets this:
    /// a CountMin bucket is `h(key) mod w`, so when `quantum | w` the
    /// congruence `(h mod w) mod quantum = h mod quantum` lets any
    /// slot's counters be *folded* down to a width-`quantum` sketch
    /// (cell `j` into cell `j mod quantum`) that is a valid sketch of
    /// the same stream — the basis for merging windows built with
    /// different sample-driven layouts (DESIGN.md §13). Rounding is
    /// downward (`(w / q).max(1) · q`), so the memory budget stays an
    /// upper bound except for slots narrower than one quantum.
    #[must_use]
    pub fn width_quantum(mut self, quantum: usize) -> Self {
        self.width_quantum = quantum.max(1);
        self
    }

    /// The fold quantum the windowed tiering path pairs with this
    /// builder: the configured minimum partition width (floored at 2 so
    /// it is always a legal sketch width). Coarsened tiers are
    /// width-`fold_quantum` sketches.
    pub(crate) fn fold_quantum(&self) -> usize {
        self.min_width.max(2)
    }

    /// Fraction of the stream the data sample represents (e.g. `0.05` for
    /// a 5% reservoir sample). Vertex statistics are extrapolated by
    /// `1/rate` before partitioning — see
    /// [`SampleStats::extrapolate`](crate::SampleStats::extrapolate).
    /// Defaults to 1.0 (no extrapolation, the paper's literal reading).
    #[must_use]
    pub fn sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Scenario 1 (§4.1): partition using a data sample only.
    pub fn build_from_sample(self, data_sample: &[StreamEdge]) -> Result<GSketch, SketchError> {
        let stats = SampleStats::from_data_sample(data_sample);
        self.build(stats, Objective::DataOnly, None)
    }

    /// Build from pre-computed vertex statistics instead of a sample.
    /// This is the entry point of the sample-free adaptive path
    /// ([`crate::adaptive`]), whose warm-up phase accumulates the
    /// statistics online; it uses the scenario-1 objective (Eq. 9).
    pub fn build_from_stats(self, stats: SampleStats) -> Result<GSketch, SketchError> {
        self.build(stats, Objective::DataOnly, None)
    }

    /// Scenario 2 (§4.2): partition using both a data sample and a query
    /// workload sample.
    pub fn build_with_workload(
        self,
        data_sample: &[StreamEdge],
        workload_sample: &[Edge],
    ) -> Result<GSketch, SketchError> {
        let stats = SampleStats::from_samples(data_sample, workload_sample);
        self.build(stats, Objective::DataWorkload, None)
    }

    /// Scenario 1 with a *calibration probe*: after the partitioning tree
    /// fixes the vertex grouping, a routed pass over `probe` (any
    /// unbiased subsample of the stream, e.g. strided arrivals) measures
    /// each leaf's distinct-edge count directly, and widths are assigned
    /// proportionally to those counts. Under within-leaf frequency
    /// homogeneity — which the E′-driven grouping strives for — the
    /// `√(F̃·A)` optimum reduces exactly to width ∝ distinct edges, and
    /// the probe measurement avoids the sample-conditioning bias of the
    /// per-vertex statistics. The outlier sketch participates on the
    /// same footing.
    pub fn build_from_sample_calibrated(
        self,
        data_sample: &[StreamEdge],
        probe: &[StreamEdge],
    ) -> Result<GSketch, SketchError> {
        let stats = SampleStats::from_data_sample(data_sample);
        self.build(stats, Objective::DataOnly, Some(probe))
    }

    fn build(
        self,
        mut stats: SampleStats,
        objective: Objective,
        probe: Option<&[StreamEdge]>,
    ) -> Result<GSketch, SketchError> {
        let total_width = self.validate()?;
        stats.extrapolate(self.sample_rate);
        // Calibrated path: fix the grouping from the sample, then
        // measure per-leaf distinct edges on the probe and allocate
        // width ∝ distinct edges (leaves and outlier alike).
        if let Some(probe) = probe {
            if self.allocation == WidthAllocation::Optimal {
                return self.build_calibrated(stats, objective, probe, total_width);
            }
        }

        // cast: f64 -> usize truncation; OUTLIER_FRACTION is below 1, so
        // the product is below total_width.
        let outlier_width = ((total_width as f64 * OUTLIER_FRACTION) as usize).max(2);
        let partition_width = total_width - outlier_width;
        let mut pcfg = PartitionConfig::new(partition_width.max(2));
        pcfg.min_width = self.min_width.min(partition_width.max(2)).max(2);
        pcfg.objective = objective;
        pcfg.redistribute = self.redistribute;
        pcfg.allocation = self.allocation;
        let plan = partition(&stats, &pcfg);
        // Width the partitions did not claim (all-leaves-shrunk case, or
        // rounding) flows to the outlier sketch: unsampled vertices get
        // the benefit and the byte budget is never silently wasted.
        let unclaimed = partition_width.saturating_sub(plan.total_width());
        let outlier_width = if plan.is_empty() {
            total_width
        } else {
            outlier_width + unclaimed
        };

        self.materialize(plan, outlier_width, None)
    }

    /// Check the fields every build path relies on, and return the
    /// total counter width the budget buys at this depth.
    pub(crate) fn validate(&self) -> Result<usize, SketchError> {
        if !(self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(SketchError::InvalidAccuracy {
                what: "sample_rate",
                value: self.sample_rate,
            });
        }
        // The pre-filter is paid for out of the same budget, so the
        // counter cells are sized over what the filter leaves behind —
        // `--memory` stays an honest bound on counters + filter.
        let total_cells = CmArena::cells_for_bytes(self.counter_bytes());
        let total_width = total_cells / self.depth.max(1);
        if total_width < 4 {
            return Err(SketchError::InvalidDimension {
                what: "memory_bytes (too small for depth)",
                value: self.memory_bytes,
            });
        }
        Ok(total_width)
    }

    /// Bytes reserved for the pre-filter (0 when disabled).
    fn filter_budget(&self) -> usize {
        if self.prefilter {
            self.memory_bytes / PREFILTER_SHARE
        } else {
            0
        }
    }

    /// Bytes left for counter cells after the filter carve.
    fn counter_bytes(&self) -> usize {
        self.memory_bytes - self.filter_budget()
    }

    /// Materialize the synopsis bank from a finished plan: partition
    /// slots first (in leaf order), the outlier slot last, everything
    /// sharing one hash family seeded from the builder seed. If the
    /// sample was empty the outlier absorbs the whole budget. A router
    /// already built from this plan's vertex grouping may be passed in
    /// to avoid rebuilding it (leaf *widths* do not affect routing).
    ///
    /// This is the single funnel every build path ends in, so the
    /// pre-filter is constructed here: blocks distributed over the same
    /// slot layout, proportionally to slot widths, within the reserved
    /// byte carve. A budget too small to give every slot its one-block
    /// floor skips the filter rather than overshooting `memory_bytes`.
    fn materialize(
        self,
        plan: PartitionPlan,
        outlier_width: usize,
        router: Option<Router>,
    ) -> Result<GSketch, SketchError> {
        let q = self.width_quantum.max(1);
        let widths: Vec<usize> = plan
            .leaves
            .iter()
            .map(|l| l.width)
            .chain(std::iter::once(outlier_width))
            // Quantized widths stay foldable to width `q` (see
            // `width_quantum`); `q == 1` is the identity.
            .map(|w| (w / q).max(1) * q)
            .collect();
        let bank = CmArena::with_slots(&widths, self.depth, self.seed)?;
        let router = router.unwrap_or_else(|| Router::from_plan(&plan));
        let filter = if self.prefilter {
            BlockedBloom::for_widths(&widths, self.filter_budget(), self.seed)
        } else {
            None
        };
        Ok(GSketch {
            bank,
            router,
            plan,
            depth: self.depth,
            filter,
            filter_reads: true,
        })
    }
}

impl GSketchBuilder {
    fn build_calibrated(
        self,
        stats: SampleStats,
        objective: Objective,
        probe: &[StreamEdge],
        total_width: usize,
    ) -> Result<GSketch, SketchError> {
        use gstream::fxhash::FxHashSet;

        let mut pcfg = PartitionConfig::new(total_width);
        pcfg.min_width = self.min_width.min(total_width).max(2);
        pcfg.objective = objective;
        pcfg.redistribute = self.redistribute;
        pcfg.allocation = WidthAllocation::Optimal;
        let mut plan = partition(&stats, &pcfg);
        let router = Router::from_plan(&plan);

        // Route the probe, counting distinct edges per sketch. Relative
        // shares are what matter, so the probe's undercount of the full
        // stream's distinct set cancels (it is uniform across leaves for
        // an unbiased probe). The outlier is the last slot, so one flat
        // vector covers leaves and outlier alike.
        let mut slot_edges: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); plan.len() + 1];
        for se in probe {
            let slot = router.slot(se.edge.src);
            slot_edges[slot as usize].insert(se.edge.key());
        }
        let counts: Vec<usize> = slot_edges.iter().map(FxHashSet::len).collect();
        let d_out = counts[plan.len()];
        let total_d: usize = counts.iter().sum();

        // Guarantee a floor of 2 cells everywhere, distribute the rest
        // proportionally to distinct-edge counts.
        let n_sketches = plan.len() + 1;
        let floors = 2 * n_sketches;
        let spare = total_width.saturating_sub(floors);
        let share = move |d: usize| -> usize {
            if total_d == 0 {
                spare / n_sketches.max(1)
            } else {
                // cast: f64 -> usize truncation; d <= total_d, so the proportional
                // share never exceeds `spare`.
                (spare as f64 * d as f64 / total_d as f64) as usize
            }
        };
        for (leaf, &d) in plan.leaves.iter_mut().zip(&counts) {
            leaf.width = 2 + share(d);
        }
        let outlier_width = 2 + share(d_out);

        self.materialize(plan, outlier_width, Some(router))
    }
}

/// An edge-frequency estimate with its per-sketch quality attributes
/// (§5: "the confidence intervals of different queries are likely to be
/// different depending upon the sketches that they are assigned to").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimated frequency: never below the true frequency, and
    /// within `error_bound` of it w.h.p. (Equation 1).
    pub value: u64,
    /// Additive error bound `e·N_i/w_i` of the answering sketch.
    pub error_bound: f64,
    /// Probability the bound holds: `1 − e^{−d}`.
    pub confidence: f64,
    /// Which sketch answered.
    pub sketch: SketchId,
}

/// The gSketch synopsis: partitioned localized sketches plus an outlier
/// sketch in one [`CmArena`], with a vertex router deciding placement.
#[derive(Debug, Clone)]
pub struct GSketch {
    /// Slot `i < num_partitions` is partition `i`; the last slot is the
    /// outlier sketch (the router uses the same convention).
    bank: CmArena,
    router: Router,
    plan: PartitionPlan,
    depth: usize,
    /// The zero-frequency pre-filter (DESIGN.md §12), slot-partitioned
    /// like the bank; `None` when disabled or the budget was too small.
    filter: Option<BlockedBloom>,
    /// Read-side toggle: membership is always *maintained* while the
    /// filter exists, but reads only consult it when this is set — the
    /// CLI's `--prefilter off` compares answers on identical state.
    filter_reads: bool,
}

// Written out instead of derived: the filter key is optional, and a
// decode checks that the independently decoded fields agree in shape.
impl serde::Serialize for GSketch {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("bank".to_owned(), self.bank.to_value()),
            ("router".to_owned(), self.router.to_value()),
            ("plan".to_owned(), self.plan.to_value()),
            ("depth".to_owned(), self.depth.to_value()),
        ];
        // The filter key is present exactly when the filter is: older
        // snapshots (and filter-less builds) simply omit it, so the
        // format version is unchanged.
        if let Some(f) = &self.filter {
            fields.push(("filter".to_owned(), f.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl serde::Deserialize for GSketch {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let filter = match serde::value_field(v, "filter") {
            Ok(fv) => Some(serde::Deserialize::from_value(fv)?),
            Err(_) => None,
        };
        let g = Self {
            bank: serde::Deserialize::from_value(serde::value_field(v, "bank")?)?,
            router: serde::Deserialize::from_value(serde::value_field(v, "router")?)?,
            plan: serde::Deserialize::from_value(serde::value_field(v, "plan")?)?,
            depth: serde::Deserialize::from_value(serde::value_field(v, "depth")?)?,
            filter,
            filter_reads: true,
        };
        // The fields decode independently, so a corrupted or hand-edited
        // snapshot could pair a router with a bank of a different slot
        // count — which would panic on first use instead of erroring
        // here, where malformed input is supposed to be reported.
        if g.router.num_slots() != g.bank.num_slots() {
            return Err(serde::Error(format!(
                "router addresses {} slots but the synopsis bank has {}",
                g.router.num_slots(),
                g.bank.num_slots()
            )));
        }
        if g.bank.depth() != g.depth {
            return Err(serde::Error(format!(
                "declared depth {} but the synopsis bank has depth {}",
                g.depth,
                g.bank.depth()
            )));
        }
        if let Some(f) = &g.filter {
            if f.num_slots() != g.bank.num_slots() {
                return Err(serde::Error(format!(
                    "pre-filter covers {} slots but the synopsis bank has {}",
                    f.num_slots(),
                    g.bank.num_slots()
                )));
            }
        }
        Ok(g)
    }
}

impl GSketch {
    /// Start building a gSketch.
    pub fn builder() -> GSketchBuilder {
        GSketchBuilder::default()
    }

    /// The Global Sketch baseline (§3.2) every experiment compares
    /// against: one CountMin sketch over the whole budget, blind to graph
    /// structure. It is a gSketch with zero partitions — built without a
    /// pre-filter from an empty sample, its outlier slot is the full
    /// `(memory_bytes / 8 / depth) × depth` counter matrix.
    pub fn global(memory_bytes: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        Self::builder()
            .memory_bytes(memory_bytes)
            .depth(depth)
            .seed(seed)
            .prefilter(false)
            .build_from_sample(&[])
    }
}

/// The unified ingest surface: routing one arrival is a single
/// unconditioned bank update (outlier = last slot), and
/// [`ingest_batch`](crate::EdgeSink::ingest_batch) groups a batch by
/// destination slot so the counter traffic walks one slot's block at a
/// time instead of hopping across the whole synopsis (the arena's
/// contiguous layout turns that into cache-line reuse). Estimates are
/// identical either way — counters are commutative. A zero-weight
/// arrival is an identity on every path, the owner-sharded engine's
/// included: it adds nothing and makes its key no filter member.
impl crate::EdgeSink for GSketch {
    #[inline]
    fn update(&mut self, se: StreamEdge) {
        if se.weight == 0 {
            return;
        }
        let slot = self.router.slot(se.edge.src);
        let key = se.edge.key();
        if let Some(f) = &mut self.filter {
            f.insert(slot, key);
        }
        self.bank.update_slot(slot, key, se.weight);
    }

    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        let n_slots = self.bank.num_slots();
        let mut counts = vec![0usize; n_slots];
        let slots: Vec<u32> = batch
            .iter()
            .map(|se| self.router.slot(se.edge.src))
            .collect();
        for (se, &s) in batch.iter().zip(&slots) {
            counts[s as usize] += usize::from(se.weight != 0);
        }
        // Counting-sort the (key, weight) pairs by slot.
        let mut cursors = Vec::with_capacity(n_slots);
        let mut acc = 0usize;
        for &c in &counts {
            cursors.push(acc);
            acc += c;
        }
        let starts = cursors.clone();
        let mut grouped: Vec<(u64, u64)> = vec![(0, 0); acc];
        for (se, &s) in batch.iter().zip(&slots) {
            if se.weight == 0 {
                continue;
            }
            let at = &mut cursors[s as usize];
            grouped[*at] = (se.edge.key(), se.weight);
            *at += 1;
        }
        for (slot, (&start, &count)) in starts.iter().zip(&counts).enumerate() {
            if count > 0 {
                let run = &grouped[start..start + count];
                // cast: usize -> u32; slot counts come from the router,
                // which addresses slots as u32.
                if let Some(f) = &mut self.filter {
                    f.insert_run(slot as u32, run);
                }
                self.bank.add_batch_saturating(slot as u32, run);
            }
        }
    }
}

impl GSketch {
    /// The active read-side filter, if any.
    #[inline]
    fn read_filter(&self) -> Option<&BlockedBloom> {
        if self.filter_reads {
            self.filter.as_ref()
        } else {
            None
        }
    }

    /// Estimate the aggregate frequency `f̃(x, y)` of an edge. A key the
    /// pre-filter proves was never ingested answers exactly `0` without
    /// reading a counter row (DESIGN.md §12); present keys answer
    /// exactly as they would without the filter.
    #[inline]
    pub fn estimate(&self, edge: Edge) -> u64 {
        let slot = self.router.slot(edge.src);
        let key = edge.key();
        if let Some(f) = self.read_filter() {
            if !f.contains(slot, key) {
                return 0;
            }
        }
        self.bank.estimate_slot(slot, key)
    }

    /// Answer a whole query batch in query order. The batch is walked in
    /// chunks of `READ_CHUNK` (2048) edges: each chunk is routed into reused
    /// slot and key buffers, then the bank answers it through one
    /// in-order gather (the arena's kernel computes and prefetches every
    /// row cell of a block of queries before reading any), and with the
    /// pre-filter active one membership gather zeroes the answers of
    /// keys proven absent with a branch-free mask multiply. A batch of at
    /// least `FANOUT_MIN` edges is split into contiguous spans answered on
    /// the host's cores (DESIGN.md §8). `out` is overwritten with one
    /// estimate per edge; answers are bit-identical to
    /// [`estimate`](Self::estimate) per edge (pinned by the
    /// `backend_parity` proptests), because a per-key estimate never
    /// depends on what else is in the batch.
    pub fn estimate_batch(&self, edges: &[Edge], out: &mut Vec<u64>) {
        self.estimate_batch_over(edges, out, host_workers());
    }

    /// [`estimate_batch`](Self::estimate_batch) over at most `workers`
    /// threads.
    pub(crate) fn estimate_batch_over(&self, edges: &[Edge], out: &mut Vec<u64>, workers: usize) {
        // Every cell is overwritten, so only a longer batch writes
        // filler (and only into the new tail).
        out.resize(edges.len(), 0);
        fan_out(edges, out, workers, |edges, out| {
            self.estimate_span(edges, out)
        });
    }

    /// The sequential body of [`estimate_batch`](Self::estimate_batch)
    /// for one span: `out` holds one slot per edge. Kept out of line so
    /// the audit sees it apart from the fan-out, whose thread spawn and
    /// join carry the standard library's panic paths.
    // audit: kernel(bounds-free)
    #[inline(never)]
    fn estimate_span(&self, edges: &[Edge], out: &mut [u64]) {
        let mut chunk = ReadChunk::default();
        for (edges, out) in edges.chunks(READ_CHUNK).zip(out.chunks_mut(READ_CHUNK)) {
            self.read_chunk(edges, &mut chunk);
            for (o, &v) in out.iter_mut().zip(&chunk.vals) {
                *o = v;
            }
        }
    }

    /// The body of the batched read path for one chunk of edges: fill
    /// `chunk` with every edge's slot, key, answer and filter verdict
    /// (all `true` when the filter is not read). Absent answers are
    /// already zeroed.
    fn read_chunk(&self, edges: &[Edge], chunk: &mut ReadChunk) {
        chunk.slots.clear();
        chunk
            .slots
            .extend(edges.iter().map(|e| self.router.slot(e.src)));
        chunk.keys.clear();
        chunk.keys.extend(edges.iter().map(|e| e.key()));
        self.bank
            .estimate_gather(&chunk.slots, &chunk.keys, &mut chunk.vals);
        match self.read_filter() {
            Some(f) => {
                f.contains_gather(&chunk.slots, &chunk.keys, &mut chunk.present);
                for (v, &p) in chunk.vals.iter_mut().zip(&chunk.present) {
                    // cast: bool -> u64, exactly 0 or 1; zeroes absent answers.
                    *v *= p as u64;
                }
            }
            None => {
                chunk.present.clear();
                chunk.present.resize(edges.len(), true);
            }
        }
    }

    /// Estimate with the answering sketch's error bound and confidence
    /// (the CountMin attributes of Equation 1).
    /// A key the pre-filter proves absent reports value `0` with error
    /// bound `0.0` — the answer is exact, not a one-sided estimate —
    /// while keeping the answering slot's confidence and identity.
    pub fn estimate_detailed(&self, edge: Edge) -> Estimate {
        let slot = self.router.slot(edge.src);
        let key = edge.key();
        if let Some(f) = self.read_filter() {
            if !f.contains(slot, key) {
                return Estimate {
                    value: 0,
                    error_bound: 0.0,
                    confidence: self.bank.confidence(),
                    sketch: self.router.id_of_slot(slot),
                };
            }
        }
        Estimate {
            value: self.bank.estimate_slot(slot, key),
            error_bound: self.bank.slot_error_bound(slot),
            confidence: self.bank.confidence(),
            sketch: self.router.id_of_slot(slot),
        }
    }

    /// Batched [`estimate_detailed`](Self::estimate_detailed): `out` is
    /// overwritten with one [`Estimate`] per edge, in query order. It
    /// walks the same chunks (and spans) as
    /// [`estimate_batch`](Self::estimate_batch) and takes each edge's
    /// slot and filter verdict from the chunk scratch, so no edge is
    /// routed or filter-probed twice. The quality attributes — per-slot
    /// error bound, bank-wide confidence, answering [`SketchId`] — are
    /// constants of the routing, computed once per slot instead of once
    /// per query. One pass answers values *and* confidence intervals, so
    /// workload replay reports both without re-probing the synopsis.
    /// Rows are bit-identical to the scalar
    /// [`estimate_detailed`](Self::estimate_detailed) per edge.
    #[inline]
    pub fn estimate_detailed_batch(&self, edges: &[Edge], out: &mut Vec<Estimate>) {
        self.estimate_detailed_batch_over(edges, out, host_workers());
    }

    /// [`estimate_detailed_batch`](Self::estimate_detailed_batch) over at
    /// most `workers` threads.
    pub(crate) fn estimate_detailed_batch_over(
        &self,
        edges: &[Edge],
        out: &mut Vec<Estimate>,
        workers: usize,
    ) {
        let confidence = self.bank.confidence();
        let bounds: Vec<f64> = (0..self.bank.num_slots())
            .map(|s| self.bank.slot_error_bound(s as u32))
            .collect();
        let filler = Estimate {
            value: 0,
            error_bound: 0.0,
            confidence,
            sketch: SketchId::Outlier,
        };
        out.resize(edges.len(), filler);
        fan_out(edges, out, workers, |edges, out| {
            let mut chunk = ReadChunk::default();
            for (edges, out) in edges.chunks(READ_CHUNK).zip(out.chunks_mut(READ_CHUNK)) {
                self.read_chunk(edges, &mut chunk);
                let rows = chunk.slots.iter().zip(&chunk.vals).zip(&chunk.present);
                for (o, ((&slot, &value), &present)) in out.iter_mut().zip(rows) {
                    *o = Estimate {
                        value,
                        // Filter-proven absence is exact (see
                        // `estimate_detailed`); the slot's confidence
                        // still describes the answering synopsis.
                        error_bound: if present { bounds[slot as usize] } else { 0.0 },
                        confidence,
                        sketch: self.router.id_of_slot(slot),
                    };
                }
            }
        });
    }

    /// Which sketch would answer a query on `edge`.
    pub fn route(&self, edge: Edge) -> SketchId {
        self.router.route(edge.src)
    }

    /// Number of partitioned (non-outlier) sketches.
    pub fn num_partitions(&self) -> usize {
        self.bank.num_slots() - 1
    }

    /// Shared sketch depth `d`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total synopsis memory — counter cells plus the pre-filter's bit
    /// array — in bytes. Both are carved from the same builder budget,
    /// so this never exceeds the `memory_bytes` the sketch was built
    /// with (pinned by the budget regression tests).
    pub fn bytes(&self) -> usize {
        self.bank.byte_size() + self.prefilter_bytes()
    }

    /// Memory held by the zero-frequency pre-filter, in bytes (`0` when
    /// the filter is disabled).
    pub fn prefilter_bytes(&self) -> usize {
        self.filter.as_ref().map_or(0, BlockedBloom::byte_size)
    }

    /// Whether reads currently consult the pre-filter.
    pub fn prefilter_enabled(&self) -> bool {
        self.filter_reads && self.filter.is_some()
    }

    /// Toggle read-side use of the pre-filter. Membership keeps being
    /// maintained on writes either way, so flipping this back on later
    /// loses nothing; with `false` every read behaves exactly as a
    /// filter-less sketch (the CLI's `--prefilter off`).
    pub fn set_prefilter(&mut self, on: bool) {
        self.filter_reads = on;
    }

    /// Router memory overhead, in bytes (§5 calls it marginal; exposed so
    /// experiments can verify that).
    pub fn router_bytes(&self) -> usize {
        self.router.approx_bytes()
    }

    /// Total stream weight absorbed so far (saturating, like every
    /// per-slot total).
    pub fn total_weight(&self) -> u64 {
        (0..self.bank.num_slots())
            .map(|s| self.bank.slot_total(s as u32))
            .fold(0, u64::saturating_add)
    }

    /// Stream weight absorbed by the outlier sketch alone (§6.6 studies
    /// this split).
    pub fn outlier_weight(&self) -> u64 {
        self.bank.slot_total(self.router.outlier_slot())
    }

    /// The partition plan the sketch was built from (read-only).
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Per-partition `(width, absorbed weight)` diagnostics.
    pub fn partition_loads(&self) -> Vec<(usize, u64)> {
        (0..self.num_partitions())
            .map(|s| {
                (
                    self.bank.slot_width(s as u32),
                    self.bank.slot_total(s as u32),
                )
            })
            .collect()
    }

    /// Fold the whole synopsis — every partition slot plus the outlier —
    /// into one standalone width-`quantum` one-slot arena summarizing
    /// the union of everything this sketch absorbed. Requires every slot
    /// width to be a multiple of `quantum` (build with
    /// [`GSketchBuilder::width_quantum`]); the fold is exact in the
    /// sense that the result is a valid width-`quantum` sketch of the
    /// same stream, with the correspondingly wider `e·N/quantum` bound.
    /// This is the windowed deployment's coarsening kernel (DESIGN.md
    /// §13): expired windows fold to tiers, and tiers built from the
    /// same seed and depth merge with each other.
    pub fn fold(&self, quantum: usize) -> Result<CmArena, SketchError> {
        self.bank.fold_slots(quantum)
    }

    /// The counter arena holding every slot (read-only): partition `i`
    /// is slot `i` and the outlier is the last slot.
    pub fn arena(&self) -> &CmArena {
        &self.bank
    }

    /// Split the synopsis for the owner-sharded engine (DESIGN.md §11):
    /// one exclusive [`OwnerShare`] per owner range of `map` — that
    /// range's counter cells, totals and filter words, cut with
    /// `split_at_mut` — plus the shared read-only router.
    pub(crate) fn split_owners(&mut self, map: &OwnerMap) -> (&Router, Vec<OwnerShare<'_>>) {
        let ranges: Vec<(u32, u32)> = (0..map.owners())
            // cast: usize -> u32; owner ids are < owners <= slot count,
            // which fits u32 (slot ids are u32).
            .map(|w| map.slot_range(w as u32))
            .collect();
        let mut filters = self
            .filter
            .as_mut()
            .map(|f| f.split_slots(&ranges).into_iter());
        let shares = self
            .bank
            .split_slots(&ranges)
            .into_iter()
            .map(|cells| OwnerShare {
                cells,
                filter: filters.as_mut().and_then(Iterator::next),
            })
            .collect();
        (&self.router, shares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeSink;
    use gstream::vertex::VertexId;

    fn se(s: u32, d: u32, w: u64) -> StreamEdge {
        StreamEdge::weighted(Edge::new(s, d), 0, w)
    }

    /// A stream with a light community (vertices 0..50) and a heavy one
    /// (vertices 100..110).
    fn skewed_stream() -> Vec<StreamEdge> {
        let mut out = Vec::new();
        for v in 0..50u32 {
            for t in 0..8u32 {
                out.push(se(v, 200 + t, 1));
            }
        }
        for v in 100..110u32 {
            for t in 0..8u32 {
                out.push(se(v, 300 + t, 250));
            }
        }
        out
    }

    #[test]
    fn build_rejects_tiny_memory() {
        let r = GSketch::builder().memory_bytes(8).build_from_sample(&[]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_sample_degenerates_to_outlier_only() {
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .build_from_sample(&[])
            .unwrap();
        assert_eq!(g.num_partitions(), 0);
        let e = Edge::new(1u32, 2u32);
        g.update(StreamEdge::weighted(e, 0, 5));
        assert!(g.estimate(e) >= 5);
        assert_eq!(g.route(e), SketchId::Outlier);
    }

    #[test]
    fn estimates_never_underestimate() {
        let stream = skewed_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_from_sample(&stream)
            .unwrap();
        g.ingest(&stream);
        for sev in &stream {
            assert!(
                g.estimate(sev.edge) >= sev.weight,
                "edge {} underestimated",
                sev.edge
            );
        }
    }

    #[test]
    fn sampled_vertices_route_to_partitions() {
        let stream = skewed_stream();
        let g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_from_sample(&stream)
            .unwrap();
        assert!(g.num_partitions() >= 1);
        assert!(matches!(
            g.route(Edge::new(0u32, 200u32)),
            SketchId::Partition(_)
        ));
        assert_eq!(g.route(Edge::new(9999u32, 1u32)), SketchId::Outlier);
    }

    #[test]
    fn unsampled_vertices_served_by_outlier() {
        let stream = skewed_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_from_sample(&stream)
            .unwrap();
        let novel = Edge::new(7777u32, 1u32);
        g.update(StreamEdge::weighted(novel, 0, 42));
        assert!(g.estimate(novel) >= 42);
        assert_eq!(g.outlier_weight(), 42);
    }

    #[test]
    fn memory_budget_respected() {
        let stream = skewed_stream();
        for bytes in [1 << 14, 1 << 16, 1 << 20] {
            let g = GSketch::builder()
                .memory_bytes(bytes)
                .min_width(64)
                .build_from_sample(&stream)
                .unwrap();
            assert!(
                g.bytes() <= bytes,
                "sketch uses {} of {} budget",
                g.bytes(),
                bytes
            );
            // And not pathologically under-used either (>50%).
            assert!(g.bytes() * 2 >= bytes, "budget underused: {}", g.bytes());
        }
    }

    #[test]
    fn estimate_detailed_reports_local_bounds() {
        let stream = skewed_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_from_sample(&stream)
            .unwrap();
        g.ingest(&stream);
        let light = g.estimate_detailed(Edge::new(0u32, 200u32));
        assert!(light.value >= 1);
        assert!(light.confidence > 0.9);
        assert!(light.error_bound >= 0.0);
        // A partitioned sketch's bound depends only on ITS load, which
        // must be below the global bound of an equally-sized single
        // sketch fed the whole stream.
        let total: u64 = stream.iter().map(|s| s.weight).sum();
        let global_bound = std::f64::consts::E * total as f64 / (g.bytes() as f64 / 8.0 / 3.0);
        assert!(light.error_bound <= global_bound * 10.0);
    }

    /// The batched detailed path answers row for row like the scalar
    /// `estimate_detailed` — value, error bound, confidence and sketch —
    /// with the filter read, with reads switched off, and on a build
    /// without a filter, at batch lengths around the read chunk. Absent
    /// probes ride along, and every key the filter proves absent reports
    /// an exact zero bound.
    #[test]
    fn detailed_batch_matches_scalar_rows() {
        let stream = skewed_stream();
        let build = |prefilter: bool| {
            let mut g = GSketch::builder()
                .memory_bytes(1 << 16)
                .min_width(64)
                .prefilter(prefilter)
                .build_from_sample(&stream[..200])
                .unwrap();
            g.ingest(&stream);
            g
        };
        // Present edges interleaved with never-ingested ones.
        let batch: Vec<Edge> = stream
            .iter()
            .cycle()
            .enumerate()
            .map(|(i, se)| {
                if i % 4 == 3 {
                    Edge::new(se.edge.src, 1_000_000u32 + i as u32)
                } else {
                    se.edge
                }
            })
            .take(READ_CHUNK + 1)
            .collect();
        let filtered = build(true);
        let mut unread = filtered.clone();
        unread.set_prefilter(false);
        let mut proven_absent = 0usize;
        for g in [&filtered, &unread, &build(false)] {
            for len in [READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1] {
                let mut rows = Vec::new();
                g.estimate_detailed_batch(&batch[..len], &mut rows);
                assert_eq!(rows.len(), len);
                for (&e, row) in batch.iter().zip(&rows) {
                    assert_eq!(*row, g.estimate_detailed(e), "edge {e:?}");
                    if let Some(f) = g.read_filter() {
                        if !f.contains(g.router.slot(e.src), e.key()) {
                            assert_eq!(row.value, 0);
                            assert_eq!(row.error_bound, 0.0);
                            proven_absent += 1;
                        }
                    }
                }
            }
        }
        assert!(filtered.prefilter_enabled() && !unread.prefilter_enabled());
        assert!(proven_absent > 0, "no probe was proven absent");
    }

    #[test]
    fn deterministic_given_seed() {
        let stream = skewed_stream();
        let build = || {
            let mut g = GSketch::builder()
                .memory_bytes(1 << 15)
                .min_width(64)
                .seed(7)
                .build_from_sample(&stream)
                .unwrap();
            g.ingest(&stream);
            g
        };
        let a = build();
        let b = build();
        for sev in &stream {
            assert_eq!(a.estimate(sev.edge), b.estimate(sev.edge));
        }
    }

    #[test]
    fn workload_build_runs() {
        let stream = skewed_stream();
        let workload: Vec<Edge> = stream.iter().take(50).map(|s| s.edge).collect();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_with_workload(&stream, &workload)
            .unwrap();
        g.ingest(&stream);
        for e in &workload {
            assert!(g.estimate(*e) >= 1);
        }
    }

    #[test]
    fn partition_loads_sum_to_routed_weight() {
        let stream = skewed_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(64)
            .build_from_sample(&stream)
            .unwrap();
        g.ingest(&stream);
        let loads: u64 = g.partition_loads().iter().map(|&(_, n)| n).sum();
        assert_eq!(loads + g.outlier_weight(), g.total_weight());
        let stream_weight: u64 = stream.iter().map(|s| s.weight).sum();
        assert_eq!(g.total_weight(), stream_weight);
    }

    #[test]
    fn ingest_batch_matches_streaming_ingest() {
        let stream = skewed_stream();
        let build = || {
            GSketch::builder()
                .memory_bytes(1 << 15)
                .min_width(64)
                .seed(5)
                .build_from_sample(&stream)
                .unwrap()
        };
        let mut streaming = build();
        streaming.ingest(&stream);
        let mut batched = build();
        batched.ingest_batch(&stream);
        for sev in &stream {
            assert_eq!(batched.estimate(sev.edge), streaming.estimate(sev.edge));
        }
        assert_eq!(batched.total_weight(), streaming.total_weight());
        assert_eq!(batched.outlier_weight(), streaming.outlier_weight());
    }

    #[test]
    fn heavy_and_light_separated_improves_light_estimates() {
        // The headline effect: light edges must not absorb heavy noise.
        let stream = skewed_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 13) // deliberately tight
            .min_width(16)
            .build_from_sample(&stream)
            .unwrap();
        g.ingest(&stream);
        // All light edges have true frequency 1·8 = 8 per (v, t) pair?
        // No: each (v, 200+t) appears once with weight 1 → truth 1.
        let mut total_rel_err = 0.0;
        let mut n = 0;
        for v in 0..50u32 {
            for t in 0..8u32 {
                let est = g.estimate(Edge::new(v, 200 + t));
                total_rel_err += (est as f64 - 1.0) / 1.0;
                n += 1;
            }
        }
        let avg = total_rel_err / n as f64;
        // With heavy edges (weight 250) quarantined in their own sketch,
        // light-edge error must stay moderate even at this tiny budget.
        assert!(avg < 30.0, "light-edge avg rel err too high: {avg}");
        let _ = VertexId(0); // silence unused import in some cfgs
    }
}
