//! `CmArena`: all of a gSketch's CountMin counters in **one contiguous
//! slab** (DESIGN.md §2) — the synopsis every `GSketch` builds over.
//!
//! gSketch carves one memory budget into many localized sketches. The
//! arena keeps that budget one array: a single `Vec<u64>` holding every
//! slot's `depth × width` block back-to-back, per-slot [`SlotSpan`]s
//! saying where each block starts, and **one** shared per-row
//! Carter–Wegman family. Within a block the cells are row-major,
//! exactly like the reference [`CountMinSketch`](crate::CountMinSketch),
//! which is why a one-slot arena *is* a CountMin sketch (the core
//! crate's Global baseline and the adaptive warm-up are one-slot
//! arenas), and why an arena is cell-for-cell identical to one
//! reference sketch per slot built from the same seed (the core crate's
//! `backend_parity` proptests pin this against such a model).
//!
//! **Shared hash families.** Every slot derives its rows from the same
//! seed. The paper's §4.1 shared-depth property makes this sound:
//! partitions keep the global depth `d`, the key sets routed to
//! different partitions are disjoint, and the per-partition collision
//! bound only depends on the family being pairwise independent *within*
//! a slot.

use crate::error::SketchError;
use crate::hash::PairwiseHash;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Where one logical sketch's `depth × width` block lives in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSpan {
    /// Index of the block's first cell in the slab.
    pub offset: usize,
    /// Cells per row of this slot.
    pub width: usize,
}

/// A bank of CountMin sketches in one contiguous row-major counter slab.
#[derive(Debug, Clone)]
pub struct CmArena {
    spans: Vec<SlotSpan>,
    depth: usize,
    /// The slab: slot blocks back-to-back, each block row-major.
    cells: Vec<u64>,
    /// One hash function per row, shared by every slot.
    hashes: Vec<PairwiseHash>,
    /// Per-slot absorbed weight.
    totals: Vec<u64>,
    /// Per-slot width reducers (derived from `spans`, never serialized).
    rems: Vec<FastRem>,
}

impl CmArena {
    /// Build an arena with one slot per entry of `widths` (every width
    /// and the depth must be positive).
    pub fn with_slots(widths: &[usize], depth: usize, seed: u64) -> Result<Self, SketchError> {
        if depth == 0 {
            return Err(SketchError::InvalidDimension {
                what: "depth",
                value: depth,
            });
        }
        let mut spans = Vec::with_capacity(widths.len());
        let mut offset = 0usize;
        for &width in widths {
            if width == 0 {
                return Err(SketchError::InvalidDimension {
                    what: "width",
                    value: width,
                });
            }
            spans.push(SlotSpan { offset, width });
            offset += width * depth;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let hashes = (0..depth).map(|_| PairwiseHash::random(&mut rng)).collect();
        Ok(Self {
            rems: rems_of(&spans),
            spans,
            depth,
            cells: vec![0; offset],
            hashes,
            totals: vec![0; widths.len()],
        })
    }

    /// A single-slot arena — a plain CountMin sketch in arena clothing.
    pub fn new(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        Self::with_slots(&[width], depth, seed)
    }

    /// How many counter cells `bytes` bytes of slab hold in total.
    #[inline]
    pub fn cells_for_bytes(bytes: usize) -> usize {
        bytes / std::mem::size_of::<u64>()
    }

    /// Record `weight` occurrences of `key` in `slot`.
    #[inline]
    pub fn update_slot(&mut self, slot: u32, key: u64, weight: u64) {
        let span = self.spans[slot as usize];
        let mut idx = span.offset;
        for h in &self.hashes {
            let cell = idx + h.bucket(key, span.width);
            self.cells[cell] = self.cells[cell].saturating_add(weight);
            idx += span.width;
        }
        self.totals[slot as usize] = self.totals[slot as usize].saturating_add(weight);
    }

    /// Record `weight` occurrences of `key` in `slot` with conservative
    /// update (Estan & Varghese): the target is the slot's current
    /// estimate plus `weight` (saturating), and only the row cells below
    /// it are raised to it. Point estimates stay one-sided and never
    /// exceed what [`update_slot`](Self::update_slot) would give. The
    /// slot total adds `weight`, saturating.
    pub fn update_slot_conservative(&mut self, slot: u32, key: u64, weight: u64) {
        let target = self.estimate_slot(slot, key).saturating_add(weight);
        let span = self.spans[slot as usize];
        let mut idx = span.offset;
        for h in &self.hashes {
            let cell = &mut self.cells[idx + h.bucket(key, span.width)];
            *cell = (*cell).max(target);
            idx += span.width;
        }
        self.totals[slot as usize] = self.totals[slot as usize].saturating_add(weight);
    }

    /// Point query in `slot`: the minimum cell over all rows.
    #[inline]
    pub fn estimate_slot(&self, slot: u32, key: u64) -> u64 {
        let span = self.spans[slot as usize];
        let mut best = u64::MAX;
        let mut idx = span.offset;
        for h in &self.hashes {
            best = best.min(self.cells[idx + h.bucket(key, span.width)]);
            idx += span.width;
        }
        best
    }

    /// Answer a whole slot run of point queries in one pass — the read
    /// mirror of [`add_batch_saturating`](Self::add_batch_saturating),
    /// with the same tricks: adjacent duplicate keys are answered once
    /// (one `d`-row probe per distinct key per run of equals), the
    /// per-key field fold is hoisted out of the row loop, range
    /// reduction uses a fastmod constant instead of a hardware divide,
    /// and the run is walked in small blocks that first compute and
    /// prefetch every target cell, then take the row minima out of
    /// now-resident lines. `out` is cleared and receives one estimate
    /// per entry of `keys`, in order; answers are bit-identical to
    /// [`estimate_slot`](Self::estimate_slot) per key.
    ///
    /// An out-of-range `slot` (impossible through the router) answers
    /// `u64::MAX` for every key — the "no information" value that keeps
    /// CM's one-sided bound — instead of panicking; the kernel is audited
    /// panic-free from the compiled artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn estimate_batch_slot(&self, slot: u32, keys: &[u64], out: &mut Vec<u64>) {
        let (Some(&span), Some(&rem)) =
            (self.spans.get(slot as usize), self.rems.get(slot as usize))
        else {
            out.clear();
            out.extend(std::iter::repeat_n(u64::MAX, keys.len()));
            return;
        };
        batch_read(&self.hashes, &self.cells, span, rem, keys, out);
    }

    /// Answer point queries that each carry their own slot: `out` is
    /// cleared and receives the estimate of `keys[i]` in `slots[i]` for
    /// every pair, in order (the two slices are zipped, so the shorter
    /// one sets the length). The kernel is the blocked structure of
    /// [`estimate_batch_slot`](Self::estimate_batch_slot) — each block of
    /// pairs first computes and prefetches every row cell, then takes the
    /// row minima out of now-resident lines — except that the span and
    /// width reducer are looked up per pair, so a batch in arrival order
    /// needs no grouping by slot. Answers are bit-identical to
    /// [`estimate_slot`](Self::estimate_slot) per pair.
    ///
    /// A pair with an out-of-range slot (impossible through the router)
    /// answers `u64::MAX`, as in `estimate_batch_slot`, instead of
    /// panicking; the kernel is audited panic-free from the compiled
    /// artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn estimate_gather(&self, slots: &[u32], keys: &[u64], out: &mut Vec<u64>) {
        let load = |cell: usize| self.cells.get(cell).copied().unwrap_or(u64::MAX);
        // Cell indices of one pair's rows; an out-of-range slot keeps the
        // past-the-slab sentinel, which `load` answers `u64::MAX`.
        let cells_of = |slot: u32, key: u64, row_cells: &mut [usize; 8]| {
            *row_cells = [usize::MAX; 8];
            let (Some(&span), Some(&rem)) =
                (self.spans.get(slot as usize), self.rems.get(slot as usize))
            else {
                return;
            };
            let folded = PairwiseHash::fold(key);
            let mut idx = span.offset;
            for (cell, h) in row_cells.iter_mut().zip(&self.hashes) {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                *cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                if let Some(c) = self.cells.get(*cell) {
                    crate::prefetch(c);
                }
                idx += span.width;
            }
        };
        let depth = self.hashes.len();
        out.clear();
        out.resize(slots.len().min(keys.len()), u64::MAX);
        if depth > 8 {
            // Unblocked fallback for depths past the scratch budget.
            for ((answer, &slot), &key) in out.iter_mut().zip(slots).zip(keys) {
                let (Some(&span), Some(&rem)) =
                    (self.spans.get(slot as usize), self.rems.get(slot as usize))
                else {
                    continue;
                };
                let folded = PairwiseHash::fold(key);
                let mut idx = span.offset;
                for h in &self.hashes {
                    // cast: u64 -> usize; `rem.rem` reduces the hash below the
                    // slot width, which is a usize-sized cell count.
                    *answer = (*answer).min(load(idx + rem.rem(h.eval_folded(folded)) as usize));
                    idx += span.width;
                }
            }
            return;
        }
        // Blocked path (depth ≤ 8): `targets[pair][row]`, both bounds
        // discharged statically by the zips.
        let mut targets: [[usize; 8]; READ_BLOCK] = [[0; 8]; READ_BLOCK];
        for ((answers, slot_block), key_block) in out
            .chunks_mut(READ_BLOCK)
            .zip(slots.chunks(READ_BLOCK))
            .zip(keys.chunks(READ_BLOCK))
        {
            // Phase 1: compute and prefetch every row cell of the block.
            for ((row_cells, &slot), &key) in targets.iter_mut().zip(slot_block).zip(key_block) {
                cells_of(slot, key, row_cells);
            }
            // Phase 2: row minima out of now-resident lines.
            for (answer, row_cells) in answers.iter_mut().zip(&targets) {
                for &cell in row_cells.iter().take(depth) {
                    *answer = (*answer).min(load(cell));
                }
            }
        }
    }

    /// Commit a whole slot run in one pass. Consecutive entries with the
    /// same key are coalesced before touching the slab, so a key whose
    /// occurrences are adjacent (e.g. a key-sorted or deduplicated run)
    /// costs one write per cell per *batch* instead of per arrival, and
    /// the slot total is bumped once at the end. Any entry order is
    /// correct — coalescing is an optimization, not a requirement — and
    /// saturating semantics are preserved up to the usual coalescing
    /// caveat: `saturating_add(w₁ + w₂)` equals two saturating adds
    /// except when the *sum of weights* itself would wrap, which cannot
    /// make a counter exceed `u64::MAX` either way.
    ///
    /// The run is walked in prefetch blocks (see `commit_run`), range
    /// reduction uses a per-batch fastmod constant (bit-identical to
    /// `% width`), and an out-of-range `slot` is a no-op instead of a
    /// panic — the kernel is audited panic-free from the compiled
    /// artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn add_batch_saturating(&mut self, slot: u32, run: &[(u64, u64)]) {
        let (Some(&span), Some(&rem)) =
            (self.spans.get(slot as usize), self.rems.get(slot as usize))
        else {
            return;
        };
        let total = commit_run(&self.hashes, &mut self.cells, span, rem, run);
        if let Some(t) = self.totals.get_mut(slot as usize) {
            *t = t.saturating_add(total);
        }
    }

    /// Per-slot spans (read-only).
    pub fn spans(&self) -> &[SlotSpan] {
        &self.spans
    }

    /// Reset every counter, keeping spans and the hash family.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.totals.fill(0);
    }

    fn check_merge(&self, other: &Self) -> Result<(), SketchError> {
        if self.spans != other.spans || self.depth != other.depth {
            return Err(SketchError::IncompatibleMerge {
                reason: "arena layouts differ (different builds)".into(),
            });
        }
        if self.hashes != other.hashes {
            return Err(SketchError::IncompatibleMerge {
                reason: "hash families differ (different seeds)".into(),
            });
        }
        Ok(())
    }

    /// Fold the whole arena — every slot — down to a **one-slot** arena
    /// of width `quantum` over the union of all slot streams.
    ///
    /// All slots share one per-row hash family and bucket at
    /// `h_r(key) mod w_s`, so when `quantum` divides every slot width,
    /// summing cell `j` of a slot row into folded cell `j mod quantum`
    /// lands each key's counts exactly where a width-`quantum` CountMin
    /// built from the same family would put them. The result is a valid
    /// synopsis of the concatenated slot streams with the error bound
    /// widened to `e·N_total/quantum` — the coarse-tier form the windowed
    /// horizon keeps for expired windows.
    pub fn fold_slots(&self, quantum: usize) -> Result<Self, SketchError> {
        if quantum == 0 {
            return Err(SketchError::InvalidDimension {
                what: "fold quantum",
                value: quantum,
            });
        }
        if let Some(span) = self.spans.iter().find(|s| s.width % quantum != 0) {
            return Err(SketchError::IncompatibleMerge {
                reason: format!(
                    "slot width {} is not a multiple of fold quantum {quantum}",
                    span.width
                ),
            });
        }
        let mut cells = vec![0u64; quantum * self.depth];
        for span in &self.spans {
            for row in 0..self.depth {
                let base = span.offset + row * span.width;
                let dst = &mut cells[row * quantum..(row + 1) * quantum];
                for j in 0..span.width {
                    dst[j % quantum] = dst[j % quantum].saturating_add(self.cells[base + j]);
                }
            }
        }
        let total = self.totals.iter().fold(0u64, |a, &t| a.saturating_add(t));
        let spans = vec![SlotSpan {
            offset: 0,
            width: quantum,
        }];
        Ok(Self {
            rems: rems_of(&spans),
            spans,
            depth: self.depth,
            cells,
            hashes: self.hashes.clone(),
            totals: vec![total],
        })
    }
}

impl CmArena {
    /// Total weight absorbed by `slot`.
    #[inline]
    pub fn slot_total(&self, slot: u32) -> u64 {
        self.totals[slot as usize]
    }

    /// Width (cells per row) of `slot`.
    #[inline]
    pub fn slot_width(&self, slot: u32) -> usize {
        self.spans[slot as usize].width
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Shared depth `d`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total counter memory across all slots, in bytes.
    pub fn byte_size(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u64>()
    }

    /// Additive error bound `e·N_i/w_i` of `slot`'s estimates (Equation 1
    /// of the paper); it agrees with the reference
    /// [`CountMinSketch::error_bound`](crate::CountMinSketch::error_bound)
    /// of the same width and load.
    #[inline]
    pub fn slot_error_bound(&self, slot: u32) -> f64 {
        std::f64::consts::E * self.slot_total(slot) as f64 / self.slot_width(slot) as f64
    }

    /// Probability the per-slot bound holds: `1 − e^{−d}`.
    #[inline]
    pub fn confidence(&self) -> f64 {
        1.0 - (-(self.depth as f64)).exp()
    }

    /// Merge an **owned** arena of the identical build (same spans,
    /// depth and hash family) into this one, cell-wise; mismatches are
    /// rejected before any cell is touched. The windowed tiering layer
    /// drives this when it collapses coarsened windows into exponential
    /// tiers. When the combined per-slot totals prove no counter can
    /// wrap (every cell is bounded by its slot total, so
    /// `total_a + total_b < u64::MAX` rules out per-cell overflow — and
    /// a previously saturated counter forces its total to saturate too,
    /// which fails the same check), the slab is summed with plain adds
    /// that vectorize cleanly instead of one saturation branch per cell.
    pub fn merge_assign(&mut self, other: Self) -> Result<(), SketchError> {
        self.check_merge(&other)?;
        let no_wrap = self
            .totals
            .iter()
            .zip(&other.totals)
            .all(|(a, b)| a.checked_add(*b).is_some());
        if no_wrap {
            for (c, o) in self.cells.iter_mut().zip(&other.cells) {
                *c += *o;
            }
            for (t, o) in self.totals.iter_mut().zip(&other.totals) {
                *t += *o;
            }
        } else {
            for (c, o) in self.cells.iter_mut().zip(&other.cells) {
                *c = c.saturating_add(*o);
            }
            for (t, o) in self.totals.iter_mut().zip(&other.totals) {
                *t = t.saturating_add(*o);
            }
        }
        Ok(())
    }
}

// Written out instead of derived so the slab rides the compact
// nibble-stream codec (one string, no per-cell `Value`) and a decoded
// layout is validated before any indexing trusts it.
impl Serialize for CmArena {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("spans".to_owned(), self.spans.to_value()),
            ("depth".to_owned(), self.depth.to_value()),
            (
                "cells".to_owned(),
                crate::slab::u64_cells_to_value(&self.cells),
            ),
            ("hashes".to_owned(), self.hashes.to_value()),
            ("totals".to_owned(), self.totals.to_value()),
        ])
    }
}

impl Deserialize for CmArena {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let spans: Vec<SlotSpan> = Deserialize::from_value(serde::value_field(v, "spans")?)?;
        let depth: usize = Deserialize::from_value(serde::value_field(v, "depth")?)?;
        let bad = |msg: String| serde::Error(msg);
        if depth == 0 {
            return Err(bad("arena depth must be positive".to_owned()));
        }
        let mut expect = 0usize;
        for s in &spans {
            if s.offset != expect || s.width == 0 {
                return Err(bad(format!(
                    "arena span at cell {} expected offset {expect} with nonzero width",
                    s.offset
                )));
            }
            expect = s
                .width
                .checked_mul(depth)
                .and_then(|block| expect.checked_add(block))
                .ok_or_else(|| bad("arena layout overflows usize".to_owned()))?;
        }
        let cells = crate::slab::u64_cells_from_value(serde::value_field(v, "cells")?, expect)?;
        let hashes: Vec<PairwiseHash> = Deserialize::from_value(serde::value_field(v, "hashes")?)?;
        if hashes.len() != depth {
            return Err(bad(format!(
                "arena depth {depth} but {} row hashes",
                hashes.len()
            )));
        }
        let totals: Vec<u64> = Deserialize::from_value(serde::value_field(v, "totals")?)?;
        if totals.len() != spans.len() {
            return Err(bad(format!(
                "arena has {} slots but {} totals",
                spans.len(),
                totals.len()
            )));
        }
        Ok(Self {
            rems: rems_of(&spans),
            spans,
            depth,
            cells,
            hashes,
            totals,
        })
    }
}

/// One width reducer per slot span.
fn rems_of(spans: &[SlotSpan]) -> Vec<FastRem> {
    spans.iter().map(|s| FastRem::new(s.width as u64)).collect()
}

/// Keys per prefetch block of the read kernels (`batch_read`,
/// [`CmArena::estimate_gather`] and the filter's membership tests).
/// Wider than the write side's block (16): reads are pure loads with no
/// store traffic competing for fill buffers, so more overlapped misses
/// keep paying — 48 keys × depth ≤ 8 cells stays within a ~4 KiB stack
/// stash, and the 64 MiB-slab read bench plateaus here.
pub(crate) const READ_BLOCK: usize = 48;

/// Exact remainder by a runtime-invariant divisor via Lemire's fastmod
/// (Lemire, Kaser & Kurz, 2019): `rem(x) == x % d` for every `x: u64`,
/// computed with three wide multiplies instead of a hardware divide. The
/// batch-commit hot loop reduces one hash value per row per distinct key;
/// the divide is its single most expensive instruction, and the slot
/// widths never change after construction — the textbook case for
/// division by invariant multiplication.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastRem {
    d: u64,
    /// `ceil(2^128 / d)`.
    m: u128,
}

impl FastRem {
    pub(crate) fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        // Constructors reject zero widths, so d == 0 is unreachable; fold
        // it to the d == 1 behaviour (rem == 0) anyway so the release
        // artifact carries no divide-by-zero panic edge (`xtask audit`).
        let d = d.max(1);
        Self {
            d,
            // ceil(2^128 / d); for d == 1 that value does not fit in a
            // u128, but m = 0 makes `rem` return the correct x % 1 == 0.
            m: if d == 1 {
                0
            } else {
                (u128::MAX / d as u128) + 1
            },
        }
    }

    /// `x % d`, exactly.
    #[inline]
    pub(crate) fn rem(&self, x: u64) -> u64 {
        let low = self.m.wrapping_mul(x as u128);
        // mulhi128(low, d): ((lo·d) >> 64 + hi·d) >> 64.
        let lo = low as u64 as u128;
        let hi = low >> 64;
        let t = ((lo * self.d as u128) >> 64) + hi * self.d as u128;
        (t >> 64) as u64
    }
}

/// The body of [`CmArena::estimate_batch_slot`]: coalesce adjacent
/// duplicate keys and fold each distinct key into the hash field once
/// for all `d` rows, with fastmod range reduction instead of a hardware
/// divide per row. The run is walked in small blocks — each block first
/// computes (and prefetches) every target cell, then reduces the row
/// minima out of now-resident lines, so the random counter loads of one
/// block overlap instead of serializing on memory latency. The
/// read-side mirror of `commit_run`. A cell index past the slab reads
/// `u64::MAX`, the "no information" answer.
#[inline]
fn batch_read(
    hashes: &[PairwiseHash],
    cells: &[u64],
    span: SlotSpan,
    rem: FastRem,
    keys: &[u64],
    out: &mut Vec<u64>,
) {
    let load = |cell: usize| cells.get(cell).copied().unwrap_or(u64::MAX);
    let depth = hashes.len();
    out.clear();
    out.reserve(keys.len());
    if depth > 8 {
        // Unblocked fallback for depths past the scratch budget: the row
        // minima are taken directly, still with coalescing and one fold
        // per distinct key.
        let mut i = 0;
        while i < keys.len() {
            let key = keys[i];
            let mut n = 0usize;
            while i < keys.len() && keys[i] == key {
                n += 1;
                i += 1;
            }
            let folded = PairwiseHash::fold(key);
            let mut best = u64::MAX;
            let mut idx = span.offset;
            for h in hashes {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                best = best.min(load(idx + rem.rem(h.eval_folded(folded)) as usize));
                idx += span.width;
            }
            out.extend(std::iter::repeat_n(best, n));
        }
        return;
    }
    // Blocked path (depth ≤ 8). The scratch is indexed as
    // `targets[block][row]` with `block < READ_BLOCK` from the fill-loop guard
    // and `row < 8` from `take(8)`, so the compiler can discharge every
    // scratch bound statically — no residual checks in the artifact.
    let mut targets: [[usize; 8]; READ_BLOCK] = [[0; 8]; READ_BLOCK];
    let mut reps: [usize; READ_BLOCK] = [0; READ_BLOCK];
    let mut i = 0;
    while i < keys.len() {
        // Phase 1: coalesce the next `READ_BLOCK` distinct keys (one probe
        // per run of adjacent equal keys), then compute and prefetch
        // their cells.
        let mut filled = 0usize;
        while filled < READ_BLOCK && i < keys.len() {
            let key = keys[i];
            let mut n = 0usize;
            while i < keys.len() && keys[i] == key {
                n += 1;
                i += 1;
            }
            let folded = PairwiseHash::fold(key);
            let mut idx = span.offset;
            for (row, h) in hashes.iter().take(8).enumerate() {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                targets[filled][row] = cell;
                if let Some(c) = cells.get(cell) {
                    crate::prefetch(c);
                }
                idx += span.width;
            }
            reps[filled] = n;
            filled += 1;
        }
        // Phase 2: take the row minima out of now-resident lines,
        // emitting one copy of each distinct key's answer per coalesced
        // occurrence.
        for (block, &n) in targets.iter().zip(reps.iter()).take(filled) {
            let mut best = u64::MAX;
            for &cell in block.iter().take(depth) {
                best = best.min(load(cell));
            }
            out.extend(std::iter::repeat_n(best, n));
        }
    }
}

/// The write kernel of [`CmArena::add_batch_saturating`]: coalesce
/// adjacent duplicate keys, fold each distinct key into the hash field
/// once for all `d` rows, then walk the run in small blocks — each block
/// first computes (and prefetches) every target cell, then applies the
/// saturating adds — so the random cell loads of one block overlap
/// instead of serializing on memory latency. Returns the run's total
/// weight. The write-side mirror of `batch_read`.
#[inline]
fn commit_run(
    hashes: &[PairwiseHash],
    cells: &mut [u64],
    span: SlotSpan,
    rem: FastRem,
    run: &[(u64, u64)],
) -> u64 {
    /// Distinct keys per prefetch block (`BLOCK × 8` cell slots of
    /// on-stack index scratch).
    const BLOCK: usize = 16;
    let depth = hashes.len();
    let mut total = 0u64;
    let mut i = 0;
    if depth > 8 {
        // Unblocked fallback for depths past the scratch budget: the
        // adds are applied directly, still with coalescing and one fold
        // per distinct key.
        while i < run.len() {
            let key = run[i].0;
            let mut weight = 0u64;
            while i < run.len() && run[i].0 == key {
                weight = weight.saturating_add(run[i].1);
                i += 1;
            }
            let folded = PairwiseHash::fold(key);
            let mut idx = span.offset;
            for h in hashes {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                if let Some(c) = cells.get_mut(cell) {
                    *c = c.saturating_add(weight);
                }
                idx += span.width;
            }
            total = total.saturating_add(weight);
        }
        return total;
    }
    // Blocked path (depth ≤ 8). Scratch indexing is `targets[block][row]`
    // with `block < BLOCK` from the fill-loop guard and `row < 8` from
    // `take(8)`, so every scratch bound is discharged statically — no
    // residual checks in the artifact.
    let mut targets: [[usize; 8]; BLOCK] = [[0; 8]; BLOCK];
    let mut weights: [u64; BLOCK] = [0; BLOCK];
    while i < run.len() {
        // Phase 1: coalesce the next `BLOCK` distinct keys and compute +
        // prefetch their cells.
        let mut filled = 0usize;
        while filled < BLOCK && i < run.len() {
            let key = run[i].0;
            let mut weight = 0u64;
            while i < run.len() && run[i].0 == key {
                weight = weight.saturating_add(run[i].1);
                i += 1;
            }
            // One field fold per distinct key, shared by all d rows.
            let folded = PairwiseHash::fold(key);
            let mut idx = span.offset;
            for (row, h) in hashes.iter().take(8).enumerate() {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                targets[filled][row] = cell;
                if let Some(c) = cells.get(cell) {
                    crate::prefetch(c);
                }
                idx += span.width;
            }
            weights[filled] = weight;
            total = total.saturating_add(weight);
            filled += 1;
        }
        // Phase 2: apply the adds into now-resident lines.
        for (block, &weight) in targets.iter().zip(weights.iter()).take(filled) {
            for &cell in block.iter().take(depth) {
                if let Some(c) = cells.get_mut(cell) {
                    *c = c.saturating_add(weight);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countmin::CountMinSketch;

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CmArena::with_slots(&[16, 0], 3, 1).is_err());
        assert!(CmArena::with_slots(&[16], 0, 1).is_err());
    }

    #[test]
    fn one_slot_arena_matches_countmin_exactly() {
        let mut arena = CmArena::new(97, 4, 0xABCD).unwrap();
        let mut cm = CountMinSketch::new(97, 4, 0xABCD).unwrap();
        for k in 0..2_000u64 {
            let w = k % 5 + 1;
            arena.update_slot(0, k * 31, w);
            cm.update(k * 31, w);
        }
        for k in 0..2_000u64 {
            assert_eq!(arena.estimate_slot(0, k * 31), cm.estimate(k * 31));
        }
        assert_eq!(arena.slot_total(0), cm.total());
        assert_eq!(arena.byte_size(), cm.bytes());
    }

    #[test]
    fn slots_never_underestimate() {
        let mut arena = CmArena::with_slots(&[64, 32, 128], 3, 9).unwrap();
        for slot in 0..3u32 {
            for k in 0..300u64 {
                arena.update_slot(slot, k, k % 3 + 1);
            }
        }
        for slot in 0..3u32 {
            for k in 0..300u64 {
                assert!(arena.estimate_slot(slot, k) > k % 3);
            }
        }
    }

    #[test]
    fn clear_resets_all_slots() {
        let mut arena = CmArena::with_slots(&[16, 16], 2, 1).unwrap();
        arena.update_slot(0, 7, 9);
        arena.update_slot(1, 7, 9);
        arena.clear();
        assert_eq!(arena.estimate_slot(0, 7), 0);
        assert_eq!(arena.slot_total(1), 0);
    }

    #[test]
    fn saturating_counters_do_not_wrap() {
        let mut arena = CmArena::new(4, 1, 3).unwrap();
        arena.update_slot(0, 1, u64::MAX);
        arena.update_slot(0, 1, u64::MAX);
        assert_eq!(arena.estimate_slot(0, 1), u64::MAX);
        assert_eq!(arena.slot_total(0), u64::MAX);
    }

    /// The owned-merge fast path must fall back to saturation when the
    /// combined totals could wrap — near-saturated inputs stay pinned at
    /// `u64::MAX` exactly like the by-reference merge.
    #[test]
    fn merge_assign_saturates_near_overflow() {
        let mut a = CmArena::new(4, 1, 3).unwrap();
        let b = {
            let mut b = CmArena::new(4, 1, 3).unwrap();
            b.update_slot(0, 1, u64::MAX - 5);
            b
        };
        a.update_slot(0, 1, 100);
        a.merge_assign(b).unwrap();
        assert_eq!(a.estimate_slot(0, 1), u64::MAX);
        assert_eq!(a.slot_total(0), u64::MAX);
    }

    /// `merge_assign` of an identical build adds the two arenas cell for
    /// cell (the result answers like one arena fed both streams) and
    /// rejects another seed or another layout.
    #[test]
    fn merge_assign_sums_identical_builds() {
        let widths = [128usize, 64];
        let mut a = CmArena::with_slots(&widths, 3, 5).unwrap();
        let mut b = CmArena::with_slots(&widths, 3, 5).unwrap();
        let mut both = CmArena::with_slots(&widths, 3, 5).unwrap();
        for k in 0..200u64 {
            let slot = (k % 2) as u32;
            a.update_slot(slot, k * 7, k % 9 + 1);
            b.update_slot(slot, k * 13, 2);
            both.update_slot(slot, k * 7, k % 9 + 1);
            both.update_slot(slot, k * 13, 2);
        }
        a.merge_assign(b).unwrap();
        assert_eq!(a.cells, both.cells);
        assert_eq!(a.totals, both.totals);
        let other_seed = CmArena::with_slots(&widths, 3, 6).unwrap();
        assert!(a.merge_assign(other_seed).is_err());
        let other_shape = CmArena::with_slots(&[128], 3, 5).unwrap();
        assert!(a.merge_assign(other_shape).is_err());
        assert_eq!(a.cells, both.cells, "a rejected merge must not mutate");
    }

    #[test]
    fn bank_contract() {
        let widths = [64usize, 128, 32];
        let mut bank = CmArena::with_slots(&widths, 3, 7).unwrap();
        assert_eq!(bank.num_slots(), 3);
        assert_eq!(bank.depth(), 3);
        assert_eq!(bank.slot_width(1), 128);
        assert_eq!(bank.byte_size(), (64 + 128 + 32) * 3 * 8);
        assert_eq!(CmArena::cells_for_bytes(1024), 128);
        for slot in 0..3u32 {
            for k in 0..50u64 {
                bank.update_slot(slot, k, u64::from(slot) + 1);
            }
            assert_eq!(bank.slot_total(slot), 50 * (u64::from(slot) + 1));
        }
        // Slots are independent: a key updated only in slot 2 does not
        // move slot 0's total.
        bank.update_slot(2, 999_999, 1_000_000);
        assert_eq!(bank.slot_total(0), 50);
        // A gather answers each (slot, key) pair like `estimate_slot`.
        let slots: Vec<u32> = (0..90u32).map(|i| i % 3).collect();
        let keys: Vec<u64> = (0..90u64).map(|k| k % 60).collect();
        let mut vals = Vec::new();
        bank.estimate_gather(&slots, &keys, &mut vals);
        assert_eq!(vals.len(), keys.len());
        for ((&s, &k), &v) in slots.iter().zip(&keys).zip(&vals) {
            assert_eq!(v, bank.estimate_slot(s, k));
        }
    }

    /// The per-slot bound formula agrees with the standalone CountMin
    /// definition of Equation 1 for a sketch of the slot's width and load.
    #[test]
    fn slot_error_bound_matches_countmin_definition() {
        let widths = [64usize, 128];
        let mut bank = CmArena::with_slots(&widths, 3, 9).unwrap();
        let mut standalone: Vec<CountMinSketch> = widths
            .iter()
            .map(|&w| CountMinSketch::new(w, 3, 9).unwrap())
            .collect();
        for k in 0..500u64 {
            let slot = (k % 2) as u32;
            bank.update_slot(slot, k, k % 7 + 1);
            standalone[slot as usize].update(k, k % 7 + 1);
        }
        for (slot, cm) in standalone.iter().enumerate() {
            assert_eq!(bank.slot_error_bound(slot as u32), cm.error_bound());
            assert_eq!(bank.confidence(), cm.confidence());
        }
    }

    /// An arena and one `CountMinSketch` per slot, built with the same
    /// widths, depth and seed, hold identical counters under the same
    /// update sequence.
    #[test]
    fn per_slot_countmin_and_arena_agree_cell_for_cell() {
        let widths = [32usize, 96, 16, 64];
        let mut per_slot: Vec<CountMinSketch> = widths
            .iter()
            .map(|&w| CountMinSketch::new(w, 4, 0xFEED).unwrap())
            .collect();
        let mut arena = CmArena::with_slots(&widths, 4, 0xFEED).unwrap();
        let mut x = 1u64;
        let mut keys = Vec::new();
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (i % widths.len() as u64) as u32;
            per_slot[slot as usize].update(x, 1 + i % 7);
            arena.update_slot(slot, x, 1 + i % 7);
            keys.push((slot, x));
        }
        for &(slot, key) in &keys {
            assert_eq!(
                per_slot[slot as usize].estimate(key),
                arena.estimate_slot(slot, key)
            );
        }
        for (slot, cm) in per_slot.iter().enumerate() {
            assert_eq!(cm.total(), arena.slot_total(slot as u32));
        }
    }

    /// `fold_slots` folds multi-slot state into the same one-slot arena a
    /// direct small build would produce, and rejects widths the quantum
    /// does not divide.
    #[test]
    fn fold_slots_matches_direct_small_arena() {
        let mut big = CmArena::with_slots(&[64, 32, 96], 3, 41).unwrap();
        let mut small = CmArena::new(32, 3, 41).unwrap();
        for i in 0..900u64 {
            let key = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            big.update_slot((i % 3) as u32, key, i % 7 + 1);
            small.update_slot(0, key, i % 7 + 1);
        }
        let folded = big.fold_slots(32).unwrap();
        assert_eq!(folded.spans().len(), 1);
        for i in 0..900u64 {
            let key = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(folded.estimate_slot(0, key), small.estimate_slot(0, key));
        }
        assert_eq!(folded.slot_total(0), small.slot_total(0));
        assert!(big.fold_slots(0).is_err());
        assert!(big.fold_slots(48).is_err());
    }

    #[test]
    fn fast_rem_matches_hardware_remainder() {
        let divisors = [
            1u64,
            2,
            3,
            7,
            97,
            1 << 10,
            (1 << 10) + 1,
            123_456_789,
            u32::MAX as u64,
            MERSENNE_PRIME_WIDTH,
        ];
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for &d in &divisors {
            let f = FastRem::new(d);
            for probe in [0u64, 1, d - 1, d, d + 1, u64::MAX, u64::MAX - 1] {
                assert_eq!(f.rem(probe), probe % d, "x={probe} d={d}");
            }
            for _ in 0..10_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                assert_eq!(f.rem(x), x % d, "x={x} d={d}");
            }
        }
    }
    /// Widths are bounded by the hash field in practice; pin a width near
    /// the top of the realistic range.
    const MERSENNE_PRIME_WIDTH: u64 = (1 << 61) - 1;

    #[test]
    fn batch_commit_matches_per_update_path() {
        // Both depth regimes of the commit kernel: blocked (≤ 8) and not.
        for depth in [3usize, 9] {
            let mut a = CmArena::with_slots(&[64, 32], depth, 21).unwrap();
            let mut b = a.clone();
            // A run with duplicates, sorted by key.
            let mut run: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 40, k % 5 + 1)).collect();
            run.sort_unstable_by_key(|p| p.0);
            for &(k, w) in &run {
                a.update_slot(1, k, w);
            }
            b.add_batch_saturating(1, &run);
            assert_eq!(a.cells, b.cells, "depth {depth}");
            assert_eq!(a.slot_total(1), b.slot_total(1));
            // The untouched slot stays untouched.
            assert_eq!(b.slot_total(0), 0);
        }
    }

    #[test]
    fn batch_commit_empty_run_is_noop() {
        let mut a = CmArena::with_slots(&[16], 2, 1).unwrap();
        a.add_batch_saturating(0, &[]);
        assert_eq!(a.slot_total(0), 0);
    }

    #[test]
    fn batch_commit_saturates_like_per_update() {
        let mut a = CmArena::new(4, 1, 3).unwrap();
        a.add_batch_saturating(0, &[(1, u64::MAX), (1, u64::MAX)]);
        assert_eq!(a.estimate_slot(0, 1), u64::MAX);
        assert_eq!(a.slot_total(0), u64::MAX);
    }

    /// The batched read kernel answers exactly like the scalar path, for
    /// every depth regime (blocked and unblocked), with duplicates both
    /// adjacent and scattered.
    #[test]
    fn estimate_batch_matches_scalar_estimates() {
        for depth in [1usize, 3, 9] {
            let mut arena = CmArena::with_slots(&[64, 32], depth, 77).unwrap();
            let mut x = 9u64;
            for i in 0..3_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                arena.update_slot((i % 2) as u32, x % 200, i % 4 + 1);
            }
            // Adjacent duplicates, scattered duplicates, absent keys.
            let mut keys: Vec<u64> = (0..500u64).map(|k| k % 90).collect();
            keys.extend([7, 7, 7, 1_000_003, 42]);
            let mut out = Vec::new();
            for slot in 0..2u32 {
                arena.estimate_batch_slot(slot, &keys, &mut out);
                assert_eq!(out.len(), keys.len());
                for (&k, &v) in keys.iter().zip(&out) {
                    assert_eq!(v, arena.estimate_slot(slot, k), "depth {depth} key {k}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The gather kernels answer exactly like the scalar probes, pair
        /// by pair: `estimate_gather` like `estimate_slot` and
        /// `contains_gather` like `contains`. Slots run past the slot
        /// count (out-of-range pairs answer `u64::MAX` / `false`), keys
        /// repeat both adjacently and scattered, every blocked depth
        /// 1..=8 and the depth > 8 fallback are built, and batch lengths
        /// cover 0, 1 and one below, at and above the prefetch block.
        #[test]
        fn gather_kernels_match_scalar_probes(
            widths in proptest::collection::vec(1usize..200, 1..6),
            ingest in proptest::collection::vec((0u32..6, 0u64..64, 1u64..5), 0..300),
            pairs in proptest::collection::vec((0u32..8, 0u64..96), 3 * READ_BLOCK..3 * READ_BLOCK + 1),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::BlockedBloom;
            // A key divisible by 3 is asked twice in a row.
            let batch: Vec<(u32, u64)> = pairs
                .iter()
                .flat_map(|&p| std::iter::repeat_n(p, if p.1 % 3 == 0 { 2 } else { 1 }))
                .collect();
            let blocks: Vec<usize> = widths.iter().map(|w| w % 7 + 1).collect();
            for depth in 1..=9 {
                let mut arena = CmArena::with_slots(&widths, depth, seed).unwrap();
                let mut filter = BlockedBloom::with_blocks(&blocks, seed).unwrap();
                for &(slot, key, weight) in ingest.iter().filter(|i| (i.0 as usize) < widths.len()) {
                    arena.update_slot(slot, key, weight);
                    filter.insert(slot, key);
                }
                for len in [0, 1, READ_BLOCK - 1, READ_BLOCK, READ_BLOCK + 1, batch.len()] {
                    let (slots, keys): (Vec<u32>, Vec<u64>) = batch[..len].iter().copied().unzip();
                    let mut vals = vec![7u64];
                    arena.estimate_gather(&slots, &keys, &mut vals);
                    let mut hits = vec![true];
                    filter.contains_gather(&slots, &keys, &mut hits);
                    proptest::prop_assert_eq!(vals.len(), len);
                    proptest::prop_assert_eq!(hits.len(), len);
                    for (((&slot, &key), &v), &hit) in slots.iter().zip(&keys).zip(&vals).zip(&hits) {
                        if (slot as usize) < widths.len() {
                            proptest::prop_assert_eq!(v, arena.estimate_slot(slot, key));
                            proptest::prop_assert_eq!(hit, filter.contains(slot, key));
                        } else {
                            proptest::prop_assert_eq!(v, u64::MAX);
                            proptest::prop_assert!(!hit);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn estimate_batch_empty_keys_clears_out() {
        let arena = CmArena::new(16, 2, 1).unwrap();
        let mut out = vec![99u64];
        arena.estimate_batch_slot(0, &[], &mut out);
        assert!(out.is_empty());
    }
}
