//! Time-windowed gSketch (§5): "divide the time line into temporal
//! intervals and store the sketch statistics separately for each window.
//! The partitioning in any particular window is performed by using a
//! sample constructed by reservoir sampling from the previous window."
//!
//! Interval queries extrapolate from the stored windows that overlap the
//! requested `[t_start, t_end]`, scaling a partially-covered window's
//! estimate by the covered fraction.
//!
//! Two growth controls ride on top of the paper's scheme (DESIGN.md §13):
//!
//! * **Durable snapshots** — the full deployment state (sealed windows,
//!   the live window, the reservoir and its RNG, rotation bookkeeping)
//!   serializes through [`crate::persist::save_windowed`] and loads back
//!   bit-identically, including mid-window;
//! * **Exponential tiering** — with a horizon
//!   ([`WindowedGSketch::with_horizon`]), sealed windows older than the
//!   `keep` most recent are *coarsened*: each expiring window's synopsis
//!   is folded down to one width-`quantum` one-slot arena
//!   ([`GSketch::fold`]), and adjacent tiers holding equally many
//!   windows merge pairwise, so `n` expired windows occupy `O(log n)`
//!   tiers. Tier answers carry the correspondingly widened
//!   `e·N_tier/quantum` bound — coarse history is cheap, and honest
//!   about it.

use crate::gsketch::{GSketch, GSketchBuilder};
use crate::sink::EdgeSink;
use gstream::edge::{Edge, StreamEdge};
use gstream::sample::Reservoir;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sketch::{CmArena, SketchError};

/// Configuration of the windowed synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Length of each window in timestamp units.
    pub span: u64,
    /// Sketch memory per window, in bytes.
    pub memory_bytes_per_window: usize,
    /// Capacity of the reservoir sample handed to the next window.
    pub sample_capacity: usize,
    /// RNG seed (reservoir + sketch hashes).
    pub seed: u64,
}

impl WindowConfig {
    fn validate(&self) -> Result<(), SketchError> {
        if self.span == 0 {
            return Err(SketchError::InvalidDimension {
                what: "window span",
                value: 0,
            });
        }
        if self.sample_capacity == 0 {
            return Err(SketchError::InvalidDimension {
                what: "window sample capacity",
                value: 0,
            });
        }
        Ok(())
    }
}

/// An interval estimate with the quality attributes of the windows that
/// answered it (the windowed counterpart of [`crate::Estimate`]): the
/// fractional value, the fraction-scaled sum of the answering slots'
/// additive bounds, and the union-bound probability that every
/// contributing per-window bound held.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalEstimate {
    /// The fractional interval estimate (unrounded; see
    /// [`WindowedGSketch::estimate_interval_batch`] for the rounding
    /// contract).
    pub value: f64,
    /// Additive error bound on `value`: `Σ_w fraction_w · bound_w`.
    pub error_bound: f64,
    /// Probability the bound holds: `max(0, 1 − Σ_w (1 − c_w))`.
    pub confidence: f64,
}

/// One sealed (read-only) window.
#[derive(Debug, Clone)]
struct SealedWindow {
    start: u64,
    /// Exclusive end.
    end: u64,
    sketch: GSketch,
}

/// One coarsened tier: `windows` consecutive expired windows folded and
/// merged into a single width-`quantum` one-slot arena summarizing their
/// union. Tiers are kept oldest-first and never overlap.
#[derive(Debug, Clone)]
struct Tier {
    start: u64,
    /// Exclusive end.
    end: u64,
    /// How many full-fidelity windows this tier absorbed.
    windows: u64,
    sketch: CmArena,
}

/// Tiering parameters fixed at construction (see
/// [`WindowedGSketch::with_horizon`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HorizonCfg {
    /// Number of most-recent sealed windows kept at full fidelity.
    keep: usize,
    /// Width of every coarsened tier sketch (and the quantum every
    /// window's slot widths are rounded to, so folding is legal).
    quantum: usize,
}

/// The synopsis answering one time span: a full-fidelity window or a
/// coarsened tier.
enum SpanSketch<'a> {
    Window(&'a GSketch),
    Tier(&'a CmArena),
}

/// A time-windowed gSketch: one [`GSketch`] per window, plus coarsened
/// tiers when a horizon is set.
#[derive(Debug)]
pub struct WindowedGSketch {
    cfg: WindowConfig,
    builder: GSketchBuilder,
    horizon: Option<HorizonCfg>,
    /// Coarsened history, oldest first, entirely before every sealed
    /// window.
    tiers: Vec<Tier>,
    sealed: Vec<SealedWindow>,
    current: GSketch,
    current_start: u64,
    /// Sample of the current window, used to partition the NEXT window.
    reservoir: Reservoir<StreamEdge>,
    rng: StdRng,
    windows_sealed: u64,
    /// Total windows folded into tiers so far. Monotone, and persisted
    /// in the snapshot tail so a reload reports the same history; the
    /// CLI's `snapshot` command prints it. Coarsening is the *only*
    /// mutation of sealed history, so sealed-interval answers change
    /// only when this moves.
    coarsenings: u64,
    /// Set by a horizon-limited snapshot load: sealed windows outside
    /// the requested span were skipped, so answers are only valid
    /// inside it and re-saving is refused.
    partial: bool,
}

impl WindowedGSketch {
    /// Create a windowed synopsis starting at timestamp 0. The first
    /// window has no predecessor sample, so its sketch is outlier-only —
    /// exactly the §5 bootstrap situation.
    pub fn new(cfg: WindowConfig, builder: GSketchBuilder) -> Result<Self, SketchError> {
        Self::build(cfg, builder, None)
    }

    /// [`Self::new`] with exponential tiering: keep the `keep` most
    /// recent sealed windows at full fidelity and coarsen older ones
    /// into exponentially-merged tiers.
    ///
    /// Tiering constrains the build two ways, both applied here once:
    /// every window's slot widths are rounded to multiples of the fold
    /// quantum (so expiring windows fold legally), and every window
    /// shares one hash-family seed (`cfg.seed`) instead of the default
    /// per-window reseed — folded tiers can only merge when their hash
    /// families agree. Estimates therefore differ from an un-tiered
    /// instance even over recent windows; what tiering preserves is the
    /// snapshot contract (save/load/append stay bit-identical to a
    /// rebuild under the *same* configuration).
    pub fn with_horizon(
        cfg: WindowConfig,
        builder: GSketchBuilder,
        keep: usize,
    ) -> Result<Self, SketchError> {
        let quantum = builder.fold_quantum();
        let builder = builder.width_quantum(quantum).seed(cfg.seed);
        Self::build(cfg, builder, Some(HorizonCfg { keep, quantum }))
    }

    /// Ingest a materialized stream through the **combining engine**
    /// (DESIGN.md §11), one run per window epoch, with window rotation
    /// between runs.
    ///
    /// Windows are natural epochs: the stream is segmented at window
    /// boundaries, each segment is committed by one
    /// [`crate::ShardedIngest`] run into the open window, and a rotation
    /// only happens *between* runs, once the run has committed
    /// everything it absorbed. Reservoir offers are replayed per epoch in
    /// arrival order with the same RNG, so the sample handed to the next
    /// window's partitioner — and therefore every later window's layout —
    /// is bit-identical to a sequential [`try_insert`](Self::try_insert)
    /// loop; counter parity holds because saturating addition commutes
    /// (pinned by the `backend_parity` proptests). This is the windowed
    /// [`EdgeSink::ingest_batch`]. Timestamps must be non-decreasing,
    /// exactly as for `try_insert`: an arrival before the open window
    /// returns [`SketchError::OutOfOrder`]. Epochs are cut at such an
    /// arrival and each is checked before its run, so an `Err` leaves
    /// every earlier epoch committed (and its rotations done) and the
    /// rejected arrival and everything after it unwritten — the state a
    /// `try_insert` loop stops in.
    pub fn try_ingest_batch(
        &mut self,
        stream: &[StreamEdge],
    ) -> Result<crate::IngestReport, SketchError> {
        let mut report = crate::IngestReport {
            arrivals: 0,
            chunks: 0,
        };
        let mut rest = stream;
        while let Some(first) = rest.first() {
            // A window abutting u64::MAX never rotates again.
            let boundary = self.current_start.checked_add(self.cfg.span);
            if boundary.is_some_and(|b| first.ts >= b) {
                // The next arrival starts at or past the boundary: rotate
                // once, then jump over fully-empty gap windows (the same
                // once-then-jump rule as `try_insert`).
                self.rotate()?;
                let target = first.ts - first.ts % self.cfg.span;
                if target > self.current_start {
                    self.current_start = target;
                }
                continue;
            }
            // Epoch = the longest prefix inside the open window. It ends
            // at the first arrival of a later window or, out of order,
            // of an earlier one; the latter is rejected once it leads.
            let (start, last) = (
                self.current_start,
                self.current_start.saturating_add(self.cfg.span - 1),
            );
            if first.ts < start {
                return Err(SketchError::OutOfOrder {
                    ts: first.ts,
                    window_start: start,
                });
            }
            let epoch_len = rest
                .iter()
                .position(|se| se.ts < start || se.ts > last)
                .unwrap_or(rest.len());
            let (epoch, tail) = rest.split_at(epoch_len);
            rest = tail;
            // Counters: one combining run into the open window, borrowed
            // in place; it has committed everything when it returns.
            let r = crate::ShardedIngest::new(&mut self.current, 1).run_slice(epoch);
            report.arrivals += r.arrivals;
            report.chunks += r.chunks;
            // Sample: reservoir offers stay sequential — offer order
            // drives the RNG, so this is what keeps later windows'
            // partitionings bit-identical to the sequential path.
            // `offer_all` equals an `offer` loop and reads only the
            // arrivals it keeps.
            self.reservoir
                .offer_all(epoch.iter().copied(), &mut self.rng);
        }
        Ok(report)
    }

    fn build(
        cfg: WindowConfig,
        builder: GSketchBuilder,
        horizon: Option<HorizonCfg>,
    ) -> Result<Self, SketchError> {
        cfg.validate()?;
        let current = builder
            .memory_bytes(cfg.memory_bytes_per_window)
            .build_from_sample(&[])?;
        Ok(Self {
            cfg,
            builder,
            horizon,
            tiers: Vec::new(),
            sealed: Vec::new(),
            current,
            current_start: 0,
            reservoir: Reservoir::new(cfg.sample_capacity),
            rng: StdRng::seed_from_u64(cfg.seed),
            windows_sealed: 0,
            coarsenings: 0,
            partial: false,
        })
    }

    /// Ingest one arrival, surfacing window-rotation failures as a
    /// `Result`. Arrivals must have non-decreasing timestamps. This is
    /// the fallible form of [`EdgeSink::update`]; rotation can only fail
    /// if the per-window build configuration is invalid, which the
    /// constructor already vetted, so the trait method simply expects it.
    ///
    /// A timestamp gap wider than one window rotates **once** (sealing
    /// the window that was open when the gap started) and then jumps
    /// straight to the window containing `se.ts`: the skipped windows
    /// absorbed nothing, contribute exactly 0 to every interval, and
    /// are never materialized — so epoch-style timestamps (first
    /// arrival at t ≈ 10⁹ with a span of 10³) cost O(1), not millions
    /// of sealed windows. A window abutting `u64::MAX` simply never
    /// rotates again (its exclusive end does not fit in the timestamp
    /// domain).
    #[inline]
    pub fn try_insert(&mut self, se: StreamEdge) -> Result<(), SketchError> {
        if se.ts < self.current_start {
            return Err(SketchError::OutOfOrder {
                ts: se.ts,
                window_start: self.current_start,
            });
        }
        if let Some(boundary) = self.current_start.checked_add(self.cfg.span) {
            if se.ts >= boundary {
                self.rotate()?;
                // Skip fully-empty gap windows without materializing
                // them (window boundaries are the multiples of `span`).
                let target = se.ts - se.ts % self.cfg.span;
                if target > self.current_start {
                    self.current_start = target;
                }
            }
        }
        self.current.update(se);
        self.reservoir.offer(se, &mut self.rng);
        Ok(())
    }

    /// Seal the current window and open the next, partitioned from the
    /// just-collected reservoir sample. Only called when the current
    /// window's exclusive end fits in the timestamp domain (the caller
    /// checked `current_start + span`). With a horizon, sealing may
    /// coarsen the oldest full-fidelity windows into the tier cascade.
    fn rotate(&mut self) -> Result<(), SketchError> {
        let sample = std::mem::replace(
            &mut self.reservoir,
            Reservoir::new(self.cfg.sample_capacity),
        )
        .into_sample();
        let mut b = self.builder.memory_bytes(self.cfg.memory_bytes_per_window);
        if self.horizon.is_none() {
            // Per-window reseed (the historical default). Tiered
            // instances keep one family — see `with_horizon`.
            b = b.seed(self.cfg.seed.wrapping_add(self.windows_sealed + 1));
        }
        let next = b.build_from_sample(&sample)?;
        let finished = std::mem::replace(&mut self.current, next);
        self.sealed.push(SealedWindow {
            start: self.current_start,
            end: self.current_start + self.cfg.span,
            sketch: finished,
        });
        self.current_start += self.cfg.span;
        self.windows_sealed += 1;
        self.coarsen()
    }

    /// Fold sealed windows beyond the horizon into the tier cascade:
    /// each expiring window folds to one width-`quantum` sketch, and
    /// adjacent tiers holding equally many windows merge pairwise (a
    /// binary counter over tier populations), so `n` expired windows
    /// occupy at most `log₂ n + 1` tiers per contiguous stretch.
    fn coarsen(&mut self) -> Result<(), SketchError> {
        let Some(h) = self.horizon else {
            return Ok(());
        };
        while self.sealed.len() > h.keep {
            let w = self.sealed.remove(0);
            let folded = w.sketch.fold(h.quantum)?;
            self.tiers.push(Tier {
                start: w.start,
                end: w.end,
                windows: 1,
                sketch: folded,
            });
            self.coarsenings += 1;
            loop {
                let n = self.tiers.len();
                if n < 2 {
                    break;
                }
                // Only adjacent, equally-populated tiers merge: a
                // timestamp gap keeps its neighbours apart, so the gap
                // keeps answering exactly 0.
                if self.tiers[n - 2].windows != self.tiers[n - 1].windows
                    || self.tiers[n - 2].end != self.tiers[n - 1].start
                {
                    break;
                }
                let Some(young) = self.tiers.pop() else {
                    break;
                };
                // lint: allow(no-panics) — n ≥ 2 and one pop leaves n−1 ≥ 1
                // elements, so n−2 is in bounds.
                let old = &mut self.tiers[n - 2];
                old.sketch.merge_assign(young.sketch)?;
                old.end = young.end;
                old.windows += young.windows;
            }
        }
        Ok(())
    }

    /// The stored synopses (tiers, then sealed windows, then the current
    /// window) with their time spans, oldest first. The current window's
    /// exclusive end saturates: a window abutting `u64::MAX` covers the
    /// rest of the timestamp domain.
    fn spans(&self) -> impl Iterator<Item = (u64, u64, SpanSketch<'_>)> {
        self.tiers
            .iter()
            .map(|t| (t.start, t.end, SpanSketch::Tier(&t.sketch)))
            .chain(
                self.sealed
                    .iter()
                    .map(|s| (s.start, s.end, SpanSketch::Window(&s.sketch))),
            )
            .chain(std::iter::once((
                self.current_start,
                self.current_start.saturating_add(self.cfg.span),
                SpanSketch::Window(&self.current),
            )))
    }

    /// Estimate the frequency of `edge` over `[t_start, t_end]`
    /// (inclusive), extrapolating proportionally over partially covered
    /// windows (§5). `t_end = u64::MAX` is the open-ended "until now"
    /// query: the inclusive→exclusive conversion saturates instead of
    /// wrapping, so it covers every stored window (it used to overflow —
    /// a panic in debug builds and a silent zero in release builds).
    /// A coarsened tier answers with the same uniform extrapolation
    /// over its (merged) span.
    pub fn estimate_interval(&self, edge: Edge, t_start: u64, t_end: u64) -> f64 {
        // lint: allow(no-panics) — documented precondition: the caller's interval is non-empty (`t_start <= t_end`); misuse must fail fast, release builds included.
        assert!(t_start <= t_end, "empty interval");
        let key = edge.key();
        let mut total = 0.0f64;
        for (ws, we, syn) in self.spans() {
            // Overlap of [t_start, t_end] with [ws, we).
            let lo = t_start.max(ws);
            let hi = t_end.saturating_add(1).min(we);
            if lo >= hi {
                continue;
            }
            let fraction = (hi - lo) as f64 / (we - ws) as f64;
            let v = match syn {
                SpanSketch::Window(g) => g.estimate(edge),
                SpanSketch::Tier(t) => t.estimate_slot(0, key),
            };
            total += v as f64 * fraction;
        }
        total
    }

    /// Batched [`estimate_interval`](Self::estimate_interval): each
    /// overlapping window answers the whole batch through its sketch's
    /// in-order [`estimate_batch`](GSketch::estimate_batch) (tiers
    /// through the arena's batched read kernel), and the per-edge
    /// fractional contributions are accumulated across spans in span
    /// order — the same additions in the same order as the scalar path,
    /// so the sums are bit-identical. `out` is overwritten with one
    /// **unrounded** fractional estimate per edge: rounding is the
    /// caller's, once, at its aggregation boundary.
    #[inline]
    pub fn estimate_interval_batch(
        &self,
        edges: &[Edge],
        t_start: u64,
        t_end: u64,
        out: &mut Vec<f64>,
    ) {
        // lint: allow(no-panics) — documented precondition: the caller's interval is non-empty (`t_start <= t_end`); misuse must fail fast, release builds included.
        assert!(t_start <= t_end, "empty interval");
        out.clear();
        out.resize(edges.len(), 0.0);
        let mut window_vals = Vec::new();
        let mut keys: Option<Vec<u64>> = None;
        for (ws, we, syn) in self.spans() {
            let lo = t_start.max(ws);
            let hi = t_end.saturating_add(1).min(we);
            if lo >= hi {
                continue;
            }
            let fraction = (hi - lo) as f64 / (we - ws) as f64;
            match syn {
                SpanSketch::Window(g) => g.estimate_batch(edges, &mut window_vals),
                SpanSketch::Tier(t) => {
                    let keys = keys.get_or_insert_with(|| edges.iter().map(|e| e.key()).collect());
                    t.estimate_batch_slot(0, keys, &mut window_vals);
                }
            }
            for (acc, &v) in out.iter_mut().zip(&window_vals) {
                *acc += v as f64 * fraction;
            }
        }
    }

    /// Batched interval estimation **with confidence intervals**: `out`
    /// is overwritten with one [`IntervalEstimate`] per edge, in query
    /// order. Each overlapping window answers the whole batch through
    /// its sketch's [`estimate_detailed_batch`](GSketch::estimate_detailed_batch)
    /// (one batched kernel pass per window, per-slot bounds attached at
    /// no extra probe cost); per-edge values *and* error bounds are
    /// accumulated scaled by the window's covered fraction, and the
    /// confidence of the combined bound is the union bound over the
    /// contributing windows: `max(0, 1 − Σ(1 − c_w))` — the probability
    /// that *every* per-window bound held. Values are bit-identical to
    /// [`estimate_interval_batch`](Self::estimate_interval_batch).
    ///
    /// A coarsened tier contributes the **widened** `e·N_tier/quantum`
    /// bound of its folded sketch — `N_tier` is the union mass of every
    /// window the tier absorbed and `quantum` is far below a window's
    /// total width, so coarse history honestly reports its coarseness.
    #[inline]
    pub fn estimate_interval_detailed_batch(
        &self,
        edges: &[Edge],
        t_start: u64,
        t_end: u64,
        out: &mut Vec<IntervalEstimate>,
    ) {
        // lint: allow(no-panics) — documented precondition: the caller's interval is non-empty (`t_start <= t_end`); misuse must fail fast, release builds included.
        assert!(t_start <= t_end, "empty interval");
        out.clear();
        out.resize(edges.len(), IntervalEstimate::default());
        let mut window_rows = Vec::new();
        let mut tier_vals = Vec::new();
        let mut keys: Option<Vec<u64>> = None;
        let mut miss_probability = 0.0f64;
        let mut covered = false;
        for (ws, we, syn) in self.spans() {
            let lo = t_start.max(ws);
            let hi = t_end.saturating_add(1).min(we);
            if lo >= hi {
                continue;
            }
            let fraction = (hi - lo) as f64 / (we - ws) as f64;
            let span_confidence = match syn {
                SpanSketch::Window(g) => {
                    g.estimate_detailed_batch(edges, &mut window_rows);
                    for (acc, row) in out.iter_mut().zip(&window_rows) {
                        acc.value += row.value as f64 * fraction;
                        acc.error_bound += row.error_bound * fraction;
                    }
                    window_rows.first().map(|r| r.confidence)
                }
                SpanSketch::Tier(t) => {
                    let keys = keys.get_or_insert_with(|| edges.iter().map(|e| e.key()).collect());
                    t.estimate_batch_slot(0, keys, &mut tier_vals);
                    let bound = t.slot_error_bound(0);
                    for (acc, &v) in out.iter_mut().zip(&tier_vals) {
                        acc.value += v as f64 * fraction;
                        acc.error_bound += bound * fraction;
                    }
                    Some(t.confidence())
                }
            };
            // All rows of one span share the span's confidence.
            if let Some(c) = span_confidence {
                miss_probability += 1.0 - c;
                covered = true;
            }
        }
        let confidence = if covered {
            (1.0 - miss_probability).max(0.0)
        } else {
            // No stored window overlaps: the zero answer is certain.
            1.0
        };
        for acc in out.iter_mut() {
            acc.confidence = confidence;
        }
    }

    /// Estimate over the whole lifetime observed so far.
    pub fn estimate_lifetime(&self, edge: Edge) -> f64 {
        self.estimate_interval(edge, 0, self.lifetime_end())
    }

    /// Batched [`estimate_lifetime`](Self::estimate_lifetime) (see
    /// [`estimate_interval_batch`](Self::estimate_interval_batch) for
    /// the rounding contract).
    pub fn estimate_lifetime_batch(&self, edges: &[Edge], out: &mut Vec<f64>) {
        self.estimate_interval_batch(edges, 0, self.lifetime_end(), out);
    }

    /// Last timestamp covered by the stored windows (the inclusive end
    /// of a lifetime query; saturating so a window abutting `u64::MAX`
    /// cannot wrap).
    pub fn lifetime_end(&self) -> u64 {
        self.current_start.saturating_add(self.cfg.span - 1)
    }

    /// Number of sealed full-fidelity windows currently stored.
    pub fn sealed_windows(&self) -> usize {
        self.sealed.len()
    }

    /// Number of coarsened tiers currently stored (0 without a horizon).
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total windows folded into tiers so far (monotone): answers over
    /// sealed intervals can only change when it moves.
    pub fn coarsenings(&self) -> u64 {
        self.coarsenings
    }

    /// The configured full-fidelity horizon, if tiering is enabled.
    pub fn horizon_keep(&self) -> Option<usize> {
        self.horizon.map(|h| h.keep)
    }

    /// Whether this instance came from a horizon-limited snapshot load:
    /// answers are only valid inside the loaded span and
    /// [`crate::persist::save_windowed`] refuses to re-save it.
    pub fn is_partial(&self) -> bool {
        self.partial
    }

    /// Start timestamp of the currently open window.
    pub fn current_window_start(&self) -> u64 {
        self.current_start
    }

    /// Total counter memory across tiers and windows.
    pub fn bytes(&self) -> usize {
        self.tiers
            .iter()
            .map(|t| t.sketch.byte_size())
            .sum::<usize>()
            + self.sealed.iter().map(|s| s.sketch.bytes()).sum::<usize>()
            + self.current.bytes()
    }
}

// ---------------------------------------------------------------------------
// Snapshot parts (DESIGN.md §13): the window store serializes as a
// header + one record per sealed window + one mutable tail, so the
// persistence layer can append new windows without re-encoding old ones
// and skip records outside a queried horizon. The encode/decode pair
// lives here (it needs field access); framing, the footer index, and
// file I/O live in `crate::persist`.
// ---------------------------------------------------------------------------

impl WindowedGSketch {
    /// The immutable snapshot header body: everything needed to verify
    /// that an append targets the same deployment and to resume
    /// rotations identically (config, builder, tiering parameters).
    pub(crate) fn encode_header(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("config".to_owned(), self.cfg.to_value()),
            ("builder".to_owned(), self.builder.to_value()),
            (
                "horizon".to_owned(),
                self.horizon.map(|h| (h.keep, h.quantum)).to_value(),
            ),
        ])
    }

    /// `(start, end)` of every sealed full-fidelity window, oldest
    /// first. The persistence layer uses this to decide which records a
    /// snapshot file already holds.
    pub(crate) fn sealed_spans(&self) -> Vec<(u64, u64)> {
        self.sealed.iter().map(|s| (s.start, s.end)).collect()
    }

    /// Exclusive end of the coarsened span (0 with no tiers): sealed
    /// records at or before this point have been absorbed into tiers.
    pub(crate) fn tiers_end(&self) -> u64 {
        self.tiers.last().map_or(0, |t| t.end)
    }

    /// Encode sealed window `i` as one append-only snapshot record.
    pub(crate) fn encode_sealed(&self, i: usize) -> Option<serde::Value> {
        let w = self.sealed.get(i)?;
        Some(serde::Value::Map(vec![
            ("start".to_owned(), w.start.to_value()),
            ("end".to_owned(), w.end.to_value()),
            ("sketch".to_owned(), w.sketch.to_value()),
        ]))
    }

    /// Encode the mutable tail: tiers, the live window, and every piece
    /// of rotation state (reservoir, RNG, counters) needed to continue
    /// ingesting bit-identically after a load.
    pub(crate) fn encode_tail(&self) -> serde::Value {
        let tiers: Vec<serde::Value> = self
            .tiers
            .iter()
            .map(|t| {
                serde::Value::Map(vec![
                    ("start".to_owned(), t.start.to_value()),
                    ("end".to_owned(), t.end.to_value()),
                    ("windows".to_owned(), t.windows.to_value()),
                    ("sketch".to_owned(), t.sketch.to_value()),
                ])
            })
            .collect();
        serde::Value::Map(vec![
            ("tiers".to_owned(), serde::Value::Seq(tiers)),
            ("current".to_owned(), self.current.to_value()),
            ("current_start".to_owned(), self.current_start.to_value()),
            (
                "reservoir".to_owned(),
                serde::Value::Map(vec![
                    ("capacity".to_owned(), self.reservoir.capacity().to_value()),
                    ("seen".to_owned(), self.reservoir.seen().to_value()),
                    ("items".to_owned(), self.reservoir.sample().to_value()),
                ]),
            ),
            ("rng".to_owned(), self.rng.state().to_value()),
            ("windows_sealed".to_owned(), self.windows_sealed.to_value()),
            ("coarsenings".to_owned(), self.coarsenings.to_value()),
        ])
    }

    /// Rebuild an instance from decoded snapshot parts. `windows` holds
    /// the sealed-window records the caller chose to decode (all of
    /// them for a full load; only the overlapping ones for a
    /// horizon-limited load, which passes `partial = true`). Records
    /// whose span is covered by the tail's tiers are skipped: their
    /// full-fidelity bytes stay in the file as history, but the tiers
    /// answer for that span now.
    pub(crate) fn from_snapshot(
        header: &serde::Value,
        windows: &[serde::Value],
        tail: &serde::Value,
        partial: bool,
    ) -> Result<Self, serde::Error> {
        let cfg = WindowConfig::from_value(serde::value_field(header, "config")?)?;
        cfg.validate()
            .map_err(|e| serde::Error(format!("snapshot window config: {e}")))?;
        let builder = GSketchBuilder::from_value(serde::value_field(header, "builder")?)?;
        let horizon = Option::<(usize, usize)>::from_value(serde::value_field(header, "horizon")?)?
            .map(|(keep, quantum)| HorizonCfg { keep, quantum });

        let mut tiers = Vec::new();
        for tv in match serde::value_field(tail, "tiers")? {
            serde::Value::Seq(items) => items.as_slice(),
            other => return Err(serde::Error::expected("tier sequence", other)),
        } {
            let start = u64::from_value(serde::value_field(tv, "start")?)?;
            let end = u64::from_value(serde::value_field(tv, "end")?)?;
            let windows = u64::from_value(serde::value_field(tv, "windows")?)?;
            if start >= end || windows == 0 {
                return Err(serde::Error(format!(
                    "snapshot tier [{start}, {end}) with {windows} windows is malformed"
                )));
            }
            if let Some(prev_end) = tiers.last().map(|t: &Tier| t.end) {
                if start < prev_end {
                    return Err(serde::Error(format!(
                        "snapshot tiers out of order at [{start}, {end})"
                    )));
                }
            }
            let sketch = CmArena::from_value(serde::value_field(tv, "sketch")?)?;
            tiers.push(Tier {
                start,
                end,
                windows,
                sketch,
            });
        }
        let tiers_end = tiers.last().map_or(0, |t| t.end);

        let mut sealed: Vec<SealedWindow> = Vec::new();
        for wv in windows {
            let start = u64::from_value(serde::value_field(wv, "start")?)?;
            let end = u64::from_value(serde::value_field(wv, "end")?)?;
            if end <= tiers_end {
                // Superseded by a coarsened tier; the record stays in
                // the file but the tier answers for this span now.
                continue;
            }
            if start >= end {
                return Err(serde::Error(format!(
                    "snapshot window [{start}, {end}) is empty or inverted"
                )));
            }
            if let Some(prev) = sealed.last() {
                if start < prev.end {
                    return Err(serde::Error(format!(
                        "snapshot windows out of order: [{start}, {end}) after [{}, {})",
                        prev.start, prev.end
                    )));
                }
            }
            let sketch = GSketch::from_value(serde::value_field(wv, "sketch")?)?;
            sealed.push(SealedWindow { start, end, sketch });
        }

        let current = GSketch::from_value(serde::value_field(tail, "current")?)?;
        let current_start = u64::from_value(serde::value_field(tail, "current_start")?)?;
        if let Some(last) = sealed.last() {
            if current_start < last.end {
                return Err(serde::Error(format!(
                    "snapshot live window starts at {current_start}, inside sealed window \
                     [{}, {})",
                    last.start, last.end
                )));
            }
        }
        let rv = serde::value_field(tail, "reservoir")?;
        let capacity = usize::from_value(serde::value_field(rv, "capacity")?)?;
        let seen = u64::from_value(serde::value_field(rv, "seen")?)?;
        let items = Vec::<StreamEdge>::from_value(serde::value_field(rv, "items")?)?;
        let reservoir = Reservoir::from_parts(capacity, seen, items)
            .ok_or_else(|| serde::Error("snapshot reservoir state is inconsistent".to_owned()))?;
        let rng = StdRng::from_state(<[u64; 4]>::from_value(serde::value_field(tail, "rng")?)?);
        let windows_sealed = u64::from_value(serde::value_field(tail, "windows_sealed")?)?;
        let coarsenings = u64::from_value(serde::value_field(tail, "coarsenings")?)?;

        Ok(Self {
            cfg,
            builder,
            horizon,
            tiers,
            sealed,
            current,
            current_start,
            reservoir,
            rng,
            windows_sealed,
            coarsenings,
            partial,
        })
    }
}

impl EdgeSink for WindowedGSketch {
    #[inline]
    fn update(&mut self, se: StreamEdge) {
        self.try_insert(se)
            // lint: allow(no-panics) — errors only on an out-of-order timestamp (rotation
            // cannot fail after the constructor's validation); the sink has no error channel.
            .expect("timestamps must be non-decreasing");
    }

    /// One combining run per window epoch
    /// ([`try_ingest_batch`](WindowedGSketch::try_ingest_batch)):
    /// bit-identical to an [`update`](Self::update) loop.
    fn ingest_batch(&mut self, batch: &[StreamEdge]) {
        self.try_ingest_batch(batch)
            // lint: allow(no-panics) — errors only on an out-of-order
            // timestamp, as in `update`; the sink has no error channel.
            .expect("timestamps must be non-decreasing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WindowConfig {
        WindowConfig {
            span: 100,
            memory_bytes_per_window: 1 << 14,
            sample_capacity: 200,
            seed: 9,
        }
    }

    fn builder() -> GSketchBuilder {
        GSketch::builder().min_width(16)
    }

    fn wedge(s: u32, d: u32, ts: u64) -> StreamEdge {
        StreamEdge::unit(Edge::new(s, d), ts)
    }

    #[test]
    fn windows_rotate_on_time() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        for ts in 0..350u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        assert_eq!(w.sealed_windows(), 3);
        assert_eq!(w.current_window_start(), 300);
    }

    /// A zero span or sample capacity is a typed construction error,
    /// not a panic, on both constructors and on snapshot decode.
    #[test]
    fn zero_span_or_sample_capacity_rejected() {
        let mut zero_capacity = cfg();
        zero_capacity.sample_capacity = 0;
        for (bad, what) in [
            (WindowConfig { span: 0, ..cfg() }, "window span"),
            (zero_capacity, "window sample capacity"),
        ] {
            let flat = WindowedGSketch::new(bad, builder()).err();
            let tiered = WindowedGSketch::with_horizon(bad, builder(), 2).err();
            for err in [flat, tiered] {
                assert_eq!(err, Some(SketchError::InvalidDimension { what, value: 0 }));
            }
            // A snapshot header carrying the config is a decode error.
            let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
            w.cfg = bad;
            let (header, tail) = (w.encode_header(), w.encode_tail());
            assert!(WindowedGSketch::from_snapshot(&header, &[], &tail, false).is_err());
        }
    }

    #[test]
    fn out_of_order_timestamps_rejected() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        w.try_insert(wedge(1, 2, 500)).unwrap();
        let start = w.current_window_start();
        assert_eq!(
            w.try_insert(wedge(1, 2, 10)),
            Err(SketchError::OutOfOrder {
                ts: 10,
                window_start: start,
            })
        );
        assert_eq!(w.estimate_lifetime(Edge::new(1u32, 2u32)), 1.0);
    }

    /// An arrival past the window followed by one inside it must be
    /// rejected like `try_insert` rejects it, instead of landing `ts = 9`
    /// in the window `[0, 5)`. Epochs are checked before they run, so an
    /// `Err` leaves exactly what a `try_insert` loop leaves: every earlier
    /// arrival committed, the rejected one and the rest unwritten.
    #[test]
    fn epoch_ingest_rejects_out_of_order_timestamps() {
        let c = WindowConfig { span: 5, ..cfg() };
        let e = Edge::new(1u32, 2u32);
        for (ts, rejected, first_window) in
            [(&[3, 9, 4, 4][..], 4, 1.0), (&[1, 2, 6, 9, 3], 3, 2.0)]
        {
            let stream: Vec<_> = ts.iter().map(|&ts| wedge(1, 2, ts)).collect();
            let mut serial = WindowedGSketch::new(c, builder()).unwrap();
            let serial_err = stream
                .iter()
                .find_map(|&se| serial.try_insert(se).err())
                .unwrap();
            let mut batched = WindowedGSketch::new(c, builder()).unwrap();
            let err = batched.try_ingest_batch(&stream).unwrap_err();
            assert_eq!(
                err,
                SketchError::OutOfOrder {
                    ts: rejected,
                    window_start: 5,
                }
            );
            assert_eq!(err, serial_err);
            assert_eq!(batched.current_window_start(), 5);
            assert_eq!(batched.estimate_interval(e, 0, 4), first_window);
            for (lo, hi) in [(0, 4), (5, 9)] {
                assert_eq!(
                    batched.estimate_interval(e, lo, hi).to_bits(),
                    serial.estimate_interval(e, lo, hi).to_bits()
                );
            }
        }
    }

    /// Disorder *inside* the open window is legal for `try_insert` (it
    /// only checks against the window start), so the epoch path accepts
    /// it too and lands every arrival in the same window.
    #[test]
    fn epoch_ingest_accepts_disorder_inside_a_window() {
        let stream = [3, 1, 4, 0, 7, 5, 9].map(|ts| wedge(1, 2, ts));
        let c = WindowConfig { span: 5, ..cfg() };
        let mut serial = WindowedGSketch::new(c, builder()).unwrap();
        for se in stream {
            serial.try_insert(se).unwrap();
        }
        let mut batched = WindowedGSketch::new(c, builder()).unwrap();
        batched.ingest_batch(&stream);
        assert_eq!(batched.sealed_windows(), 1);
        assert_eq!(batched.current_window_start(), 5);
        let e = Edge::new(1u32, 2u32);
        for (ts, te) in [(0, 4), (5, 9)] {
            assert_eq!(
                batched.estimate_interval(e, ts, te).to_bits(),
                serial.estimate_interval(e, ts, te).to_bits()
            );
        }
        assert_eq!(batched.estimate_interval(e, 0, 4), 4.0);
    }

    #[test]
    fn lifetime_estimate_covers_all_windows() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        // Edge appears once per timestamp over 4 windows: truth 400.
        for ts in 0..400u64 {
            w.try_insert(wedge(7, 8, ts)).unwrap();
        }
        let est = w.estimate_lifetime(Edge::new(7u32, 8u32));
        assert!(est >= 400.0, "lifetime estimate too low: {est}");
        assert!(est <= 500.0, "lifetime estimate inflated: {est}");
    }

    #[test]
    fn interval_query_isolates_windows() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        // Edge (1,2) only in window 0; edge (3,4) only in window 1.
        for ts in 0..100u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        for ts in 100..200u64 {
            w.try_insert(wedge(3, 4, ts)).unwrap();
        }
        w.try_insert(wedge(9, 9, 250)).unwrap(); // open window 2
        let e12 = Edge::new(1u32, 2u32);
        let e34 = Edge::new(3u32, 4u32);
        // Window-0 interval sees (1,2) but not (3,4).
        assert!(w.estimate_interval(e12, 0, 99) >= 100.0);
        assert_eq!(w.estimate_interval(e34, 0, 99), 0.0);
        // Window-1 interval sees (3,4) but not (1,2).
        assert!(w.estimate_interval(e34, 100, 199) >= 100.0);
        assert_eq!(w.estimate_interval(e12, 100, 199), 0.0);
    }

    #[test]
    fn partial_overlap_extrapolates_proportionally() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        for ts in 0..100u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        w.try_insert(wedge(9, 9, 150)).unwrap();
        let e = Edge::new(1u32, 2u32);
        // Asking for half of window 0 → about half the mass.
        let half = w.estimate_interval(e, 0, 49);
        let full = w.estimate_interval(e, 0, 99);
        assert!((half - full / 2.0).abs() < full * 0.05 + 1.0);
    }

    /// A timestamp gap wider than one window must not materialize the
    /// empty windows it skips: epoch-style timestamps are O(1) per
    /// arrival, and queries over the gap answer 0.
    #[test]
    fn timestamp_gaps_skip_empty_windows() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        for ts in 0..150u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        // Jump ~17 million windows forward: must be instant and must
        // not allocate a sealed window per skipped span.
        w.try_insert(wedge(3, 4, 1_700_000_000)).unwrap();
        assert!(
            w.sealed_windows() <= 3,
            "gap materialized {} windows",
            w.sealed_windows()
        );
        assert_eq!(w.current_window_start(), 1_700_000_000);
        // Pre-gap mass is intact, the gap answers 0, the post-gap
        // window answers its own mass.
        let e12 = Edge::new(1u32, 2u32);
        let e34 = Edge::new(3u32, 4u32);
        // [0, 149] fully covers window [0,100) and half of [100,200):
        // 100 + 0.5·50 under the uniform-extrapolation semantics.
        assert!(w.estimate_interval(e12, 0, 149) >= 125.0);
        assert!(w.estimate_interval(e12, 0, 199) >= 150.0);
        assert_eq!(w.estimate_interval(e12, 1_000, 999_999), 0.0);
        assert_eq!(w.estimate_interval(e34, 1_000, 999_999), 0.0);
        assert!(w.estimate_interval(e34, 1_700_000_000, u64::MAX) >= 1.0);
        assert!(w.estimate_lifetime(e12) >= 150.0);
    }

    /// Timestamps at the top of the u64 domain must neither overflow
    /// the rotation boundary nor wedge the insert loop.
    #[test]
    fn timestamps_near_u64_max_are_legal() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        w.try_insert(wedge(1, 2, 5)).unwrap();
        w.try_insert(wedge(1, 2, u64::MAX - 7)).unwrap();
        w.try_insert(wedge(1, 2, u64::MAX)).unwrap(); // same final window
        let e = Edge::new(1u32, 2u32);
        assert!(w.estimate_interval(e, 0, u64::MAX) >= 3.0);
        assert!(w.estimate_lifetime(e) >= 3.0);
        let mut batch = Vec::new();
        w.estimate_interval_batch(&[e], u64::MAX - 100, u64::MAX, &mut batch);
        assert!(batch[0] >= 2.0);
    }

    /// The inclusive interval end must saturate, not wrap: an
    /// open-ended `[0, u64::MAX]` query covers the whole lifetime
    /// (this used to overflow `t_end + 1` — panicking in debug builds
    /// and silently answering 0 in release builds).
    #[test]
    fn open_ended_interval_covers_everything() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        for ts in 0..250u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        let e = Edge::new(1u32, 2u32);
        let open = w.estimate_interval(e, 0, u64::MAX);
        let lifetime = w.estimate_lifetime(e);
        assert_eq!(open.to_bits(), lifetime.to_bits());
        assert!(open >= 250.0, "open-ended interval lost coverage: {open}");
        let mut batch = Vec::new();
        w.estimate_interval_batch(&[e], 0, u64::MAX, &mut batch);
        assert_eq!(batch[0].to_bits(), open.to_bits());
    }

    /// Detailed interval rows: values bit-identical to the plain batch,
    /// bounds positive where windows contribute, confidence the union
    /// bound over contributing windows (and exactly 1 when no window
    /// overlaps — the zero answer is certain).
    #[test]
    fn detailed_interval_batch_matches_plain_batch() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        for ts in 0..320u64 {
            w.try_insert(wedge((ts % 5) as u32, 8, ts)).unwrap();
        }
        let edges: Vec<Edge> = (0..5u32).map(|v| Edge::new(v, 8u32)).collect();
        let mut plain = Vec::new();
        let mut rows = Vec::new();
        for (ts, te) in [(0u64, 319u64), (37, 211), (150, 150), (0, u64::MAX)] {
            w.estimate_interval_batch(&edges, ts, te, &mut plain);
            w.estimate_interval_detailed_batch(&edges, ts, te, &mut rows);
            assert_eq!(rows.len(), edges.len());
            for (row, &v) in rows.iter().zip(&plain) {
                assert_eq!(row.value.to_bits(), v.to_bits());
                assert!(row.error_bound >= 0.0);
                assert!((0.0..=1.0).contains(&row.confidence));
            }
        }
        // An interval past every stored window: zero, with certainty.
        let horizon = w.lifetime_end();
        w.estimate_interval_detailed_batch(&edges, horizon + 1, horizon + 10, &mut rows);
        for row in &rows {
            assert_eq!(row.value, 0.0);
            assert_eq!(row.error_bound, 0.0);
            assert_eq!(row.confidence, 1.0);
        }
    }

    /// The epoch-handoff path — counters committed by the combining
    /// engine, rotations between runs — must be bit-identical to a
    /// sequential `try_insert` loop: same sealed windows, same lifetime
    /// and interval answers (including the fractional parts), across
    /// window rotations mid-stream, timestamp gaps, and calls split
    /// mid-window.
    #[test]
    fn sharded_ingest_matches_sequential() {
        let stream: Vec<StreamEdge> = (0..650u64)
            .map(|ts| {
                let src = if ts % 3 == 0 { 1 } else { (ts % 23) as u32 };
                StreamEdge::weighted(Edge::new(src, (ts % 7) as u32 + 50), ts, ts % 4 + 1)
            })
            // A gap wider than a window, then a far tail window.
            .chain((0..40u64).map(|i| StreamEdge::unit(Edge::new(3u32, 4u32), 2_000 + i)))
            .collect();
        let edges: Vec<Edge> = stream.iter().map(|se| se.edge).collect();

        let mut seq = WindowedGSketch::new(cfg(), builder()).unwrap();
        for se in &stream {
            seq.try_insert(*se).unwrap();
        }
        let mut par = WindowedGSketch::new(cfg(), builder()).unwrap();
        // Split mid-window: engine state must carry across calls.
        let report = par.try_ingest_batch(&stream[..350]).unwrap();
        assert_eq!(report.arrivals, 350);
        par.try_ingest_batch(&stream[350..]).unwrap();
        assert_eq!(par.sealed_windows(), seq.sealed_windows());
        assert_eq!(par.current_window_start(), seq.current_window_start());
        let mut a = Vec::new();
        let mut b = Vec::new();
        par.estimate_lifetime_batch(&edges, &mut a);
        seq.estimate_lifetime_batch(&edges, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        par.estimate_interval_batch(&edges, 120, 410, &mut a);
        seq.estimate_interval_batch(&edges, 120, 410, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn later_windows_are_partitioned_from_samples() {
        let mut w = WindowedGSketch::new(cfg(), builder()).unwrap();
        // Two windows of traffic from a small vertex set: the second
        // window's sketch must have partitions (sample was non-empty).
        for ts in 0..200u64 {
            w.try_insert(wedge((ts % 10) as u32, 100, ts)).unwrap();
        }
        assert_eq!(w.sealed_windows(), 1); // window 1 currently open
        assert!(w.current_window_start() == 100);
        // The open window was partitioned from window 0's sample.
        assert!(w.bytes() > 0);
    }

    // -- tiering ----------------------------------------------------------

    /// Ingest `n_windows` windows of a fixed per-window pattern into a
    /// horizon-`keep` instance.
    fn tiered(keep: usize, n_windows: u64) -> WindowedGSketch {
        let mut w = WindowedGSketch::with_horizon(cfg(), builder(), keep).unwrap();
        for ts in 0..n_windows * 100 {
            w.try_insert(wedge((ts % 5) as u32, 8, ts)).unwrap();
        }
        w
    }

    /// Beyond the horizon, sealed windows coarsen into tiers, and the
    /// binary-counter cascade keeps the tier count logarithmic.
    #[test]
    fn horizon_coarsens_old_windows_into_log_tiers() {
        let keep = 3usize;
        let w = tiered(keep, 20); // 19 sealed so far; 16 coarsened
        assert_eq!(w.sealed_windows(), keep);
        assert_eq!(w.coarsenings(), 19 - keep as u64);
        // 16 expired windows → binary-counter population ≤ log2+1 tiers.
        assert!(
            w.num_tiers() <= 5,
            "expected logarithmic tier count, got {}",
            w.num_tiers()
        );
        assert_eq!(w.horizon_keep(), Some(keep));
        // Tiers answer for the coarsened span: CountMin never
        // underestimates and folding only adds collisions, so the
        // full-lifetime answer still dominates the truth (each of the
        // 5 sources appears 20 times per window × 20 windows = 400).
        for v in 0..5u32 {
            let e = Edge::new(v, 8u32);
            assert!(
                w.estimate_lifetime(e) >= 400.0,
                "coarsened lifetime underestimates edge {v}"
            );
        }
    }

    /// Without enough sealed windows to exceed the horizon, a tiered
    /// instance holds no tiers and behaves like a plain windowed sketch.
    #[test]
    fn horizon_keeps_recent_windows_full_fidelity() {
        let w = tiered(5, 4);
        assert_eq!(w.num_tiers(), 0);
        assert_eq!(w.coarsenings(), 0);
        assert_eq!(w.sealed_windows(), 3);
    }

    /// Coarsened intervals report the widened tier bound: a query
    /// answered by a tier must carry a strictly larger error bound than
    /// the same query pattern answered by a full-fidelity window,
    /// because the tier packs several windows' mass into `quantum`
    /// cells.
    #[test]
    fn coarsened_intervals_widen_error_bounds() {
        let w = tiered(2, 20);
        let edges: Vec<Edge> = (0..5u32).map(|v| Edge::new(v, 8u32)).collect();
        let mut old_rows = Vec::new();
        let mut new_rows = Vec::new();
        // [0, 99] is deep inside the coarsened span; the most recent
        // sealed window is full fidelity.
        w.estimate_interval_detailed_batch(&edges, 0, 99, &mut old_rows);
        let recent = w.current_window_start() - 100;
        w.estimate_interval_detailed_batch(&edges, recent, recent + 99, &mut new_rows);
        for (old, new) in old_rows.iter().zip(&new_rows) {
            assert!(
                old.error_bound > new.error_bound,
                "tier bound {} not wider than window bound {}",
                old.error_bound,
                new.error_bound
            );
            // Still a one-sided CountMin answer: per-window truth is 20
            // per edge, and the tier never underestimates its span.
            assert!(old.value >= 20.0);
        }
    }

    /// Tier spans never overlap sealed windows, and the gap rule holds:
    /// tiers separated by a timestamp gap do not merge, and the gap
    /// still answers exactly zero.
    #[test]
    fn tiers_respect_gaps() {
        let mut w = WindowedGSketch::with_horizon(cfg(), builder(), 1).unwrap();
        for ts in 0..300u64 {
            w.try_insert(wedge(1, 2, ts)).unwrap();
        }
        // Jump far ahead, then seal a few more windows.
        for ts in 10_000..10_300u64 {
            w.try_insert(wedge(3, 4, ts)).unwrap();
        }
        assert!(w.num_tiers() >= 2, "gap should split the tier cascade");
        assert_eq!(
            w.estimate_interval(Edge::new(1u32, 2u32), 1_000, 9_000),
            0.0
        );
        assert_eq!(
            w.estimate_interval(Edge::new(3u32, 4u32), 1_000, 9_000),
            0.0
        );
        assert!(w.estimate_interval(Edge::new(1u32, 2u32), 0, 299) >= 300.0);
    }

    /// Scalar and batched interval estimates stay bit-identical when
    /// tiers participate in the answer.
    #[test]
    fn tiered_batch_matches_scalar() {
        let w = tiered(2, 12);
        let edges: Vec<Edge> = (0..5u32).map(|v| Edge::new(v, 8u32)).collect();
        let mut batch = Vec::new();
        for (ts, te) in [(0u64, 1_199u64), (50, 450), (0, u64::MAX)] {
            w.estimate_interval_batch(&edges, ts, te, &mut batch);
            for (e, &b) in edges.iter().zip(&batch) {
                let scalar = w.estimate_interval(*e, ts, te);
                assert_eq!(scalar.to_bits(), b.to_bits());
            }
        }
    }

    /// With tiers participating, the detailed rows carry exactly the
    /// plain batch's values, and every interval reaching into coarsened
    /// history reports a positive error bound.
    #[test]
    fn tiered_detailed_rows_match_plain_batch() {
        let w = tiered(2, 12);
        assert!(w.num_tiers() >= 1);
        let edges: Vec<Edge> = (0..5u32).map(|v| Edge::new(v, 8u32)).collect();
        let (mut plain, mut rows) = (Vec::new(), Vec::new());
        for (ts, te) in [(0u64, 1_199u64), (50, 450), (0, u64::MAX)] {
            w.estimate_interval_batch(&edges, ts, te, &mut plain);
            w.estimate_interval_detailed_batch(&edges, ts, te, &mut rows);
            for (&p, r) in plain.iter().zip(&rows) {
                assert_eq!(p.to_bits(), r.value.to_bits());
                assert!(r.error_bound > 0.0, "[{ts}, {te}]");
                assert!(r.confidence > 0.0 && r.confidence <= 1.0);
            }
        }
    }
}
