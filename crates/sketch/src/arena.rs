//! `CmArena`: all of a gSketch's CountMin counters in **one contiguous
//! slab** (DESIGN.md §2).
//!
//! The per-partition layout allocates each localized sketch its own
//! `Vec<u64>` and its own hash family. That scatters a budget that is
//! logically one array across the heap and re-derives `d` hash functions
//! per partition. The arena restores the layout the partitioning already
//! implies: one `Vec<u64>` holding every slot's `depth × width` block
//! back-to-back, per-slot [`SlotSpan`]s saying where each block starts,
//! and **one** shared per-row Carter–Wegman family (sound by the paper's
//! §4.1 shared-depth property; see `backend.rs`). Within a block the
//! cells are row-major, exactly like a standalone
//! [`CountMinSketch`](crate::CountMinSketch) —
//! which is why a one-slot arena *is* a CountMin sketch and the arena
//! estimates are bit-identical to the per-partition layout at equal
//! seeds.
//!
//! [`AtomicCmArena`] is the same slab with `AtomicU64` cells: concurrent
//! writers touch disjoint cache lines whenever the router sends them to
//! different slots, so ingest scales without a lock per partition.

use crate::backend::{FrequencySketch, SketchBank};
use crate::error::SketchError;
use crate::hash::PairwiseHash;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
// Atomics come through the `sync` shim seam so `xtask check` can run
// this file's real commit/read paths under the deterministic scheduler
// (DESIGN.md §10). In normal builds these are exactly the std items.
use crate::sync::{AtomicU64, Ordering};

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
        let Some(&span) = self.spans.get(slot as usize) else {
            out.clear();
            out.extend(std::iter::repeat_n(u64::MAX, keys.len()));
            return;
        };
        let rem = FastRem::new(span.width as u64);
        batch_read(
            &self.hashes,
            span,
            rem,
            keys,
            out,
            #[inline(always)]
            |cell| self.cells.get(cell).copied().unwrap_or(u64::MAX),
            #[inline(always)]
            |cell| {
                if let Some(c) = self.cells.get(cell) {
                    crate::prefetch(c);
                }
            },
        );
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
    /// Range reduction uses a per-batch fastmod constant (bit-identical
    /// to `% width`), and an out-of-range `slot` is a no-op instead of a
    /// panic — the kernel is audited panic-free from the compiled
    /// artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn add_batch_saturating(&mut self, slot: u32, run: &[(u64, u64)]) {
        let Some(&span) = self.spans.get(slot as usize) else {
            return;
        };
        let rem = FastRem::new(span.width as u64);
        let mut total = 0u64;
        let mut i = 0;
        while i < run.len() {
            let key = run[i].0;
            let mut weight = 0u64;
            while i < run.len() && run[i].0 == key {
                weight = weight.saturating_add(run[i].1);
                i += 1;
            }
            // One field fold per distinct key, shared by all d rows.
            let folded = PairwiseHash::fold(key);
            let mut idx = span.offset;
            for h in &self.hashes {
                // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                // width, which is a usize-sized cell count.
                let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                if let Some(c) = self.cells.get_mut(cell) {
                    *c = c.saturating_add(weight);
                }
                idx += span.width;
            }
            total = total.saturating_add(weight);
        }
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
        Ok(Self {
            spans: vec![SlotSpan {
                offset: 0,
                width: quantum,
            }],
            depth: self.depth,
            cells,
            hashes: self.hashes.clone(),
            totals: vec![total],
        })
    }

    /// Freeze into the lock-free concurrent form.
    pub fn into_atomic(self) -> AtomicCmArena {
        let rems = self
            .spans
            .iter()
            .map(|s| FastRem::new(s.width as u64))
            .collect();
        AtomicCmArena {
            spans: self.spans,
            depth: self.depth,
            cells: self.cells.into_iter().map(AtomicU64::new).collect(),
            hashes: self.hashes,
            totals: self.totals.into_iter().map(AtomicU64::new).collect(),
            rems,
        }
    }
}

impl SketchBank for CmArena {
    fn build(widths: &[usize], depth: usize, seed: u64) -> Result<Self, SketchError> {
        Self::with_slots(widths, depth, seed)
    }

    #[inline]
    fn update(&mut self, slot: u32, key: u64, weight: u64) {
        self.update_slot(slot, key, weight);
    }

    #[inline]
    fn add_batch(&mut self, slot: u32, run: &[(u64, u64)]) {
        self.add_batch_saturating(slot, run);
    }

    #[inline]
    fn estimate(&self, slot: u32, key: u64) -> u64 {
        self.estimate_slot(slot, key)
    }

    #[inline]
    fn estimate_batch(&self, slot: u32, keys: &[u64], out: &mut Vec<u64>) {
        self.estimate_batch_slot(slot, keys, out);
    }

    fn slot_total(&self, slot: u32) -> u64 {
        self.totals[slot as usize]
    }

    fn slot_width(&self, slot: u32) -> usize {
        self.spans[slot as usize].width
    }

    fn num_slots(&self) -> usize {
        self.spans.len()
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn byte_size(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u64>()
    }

    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        self.check_merge(other)?;
        for (c, o) in self.cells.iter_mut().zip(&other.cells) {
            *c = c.saturating_add(*o);
        }
        for (t, o) in self.totals.iter_mut().zip(&other.totals) {
            *t = t.saturating_add(*o);
        }
        Ok(())
    }
}

/// A one-slot arena is interchangeable with a
/// [`CountMinSketch`](crate::CountMinSketch) of the same shape and seed —
/// same hash family, same row-major cells, same estimates.
impl FrequencySketch for CmArena {
    type Bank = CmArena;
    const KIND: &'static str = "cm-arena";

    fn with_shape(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        Self::new(width, depth, seed)
    }

    #[inline]
    fn update(&mut self, key: u64, weight: u64) {
        self.update_slot(0, key, weight);
    }

    #[inline]
    fn estimate(&self, key: u64) -> u64 {
        self.estimate_slot(0, key)
    }

    #[inline]
    fn estimate_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        self.estimate_batch_slot(0, keys, out);
    }

    fn total(&self) -> u64 {
        self.totals.iter().fold(0u64, |a, &t| a.saturating_add(t))
    }

    fn mergeable_with(&self, other: &Self) -> bool {
        self.check_merge(other).is_ok()
    }

    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        SketchBank::merge(self, other)
    }

    /// The owned-merge fast path: when the combined per-slot totals prove
    /// no counter can wrap (every cell is bounded by its slot total, so
    /// `total_a + total_b < u64::MAX` rules out per-cell overflow — and a
    /// previously saturated counter forces its total to saturate too,
    /// which fails the same check), the slab is summed with plain adds
    /// that vectorize cleanly instead of one saturation branch per cell.
    fn merge_assign(&mut self, other: Self) -> Result<(), SketchError> {
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

    fn fold_bank(bank: &Self::Bank, quantum: usize) -> Result<Self, SketchError> {
        bank.fold_slots(quantum)
    }

    fn byte_size(&self) -> usize {
        SketchBank::byte_size(self)
    }

    fn width(&self) -> usize {
        self.spans.first().map_or(0, |s| s.width)
    }

    fn depth(&self) -> usize {
        self.depth
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
            spans,
            depth,
            cells,
            hashes,
            totals,
        })
    }
}

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

/// The shared body of the batched point-query kernels (sequential and
/// atomic arenas differ only in how a cell is loaded): coalesce adjacent
/// duplicate keys and fold each distinct key into the hash field once
/// for all `d` rows, with fastmod range reduction instead of a hardware
/// divide per row. The run is walked in small blocks — each block first
/// computes (and prefetches) every target cell, then reduces the row
/// minima out of now-resident lines, so the random counter loads of one
/// block overlap instead of serializing on memory latency. The
/// read-side mirror of `AtomicCmArena::commit_batch`.
#[inline]
fn batch_read<L, P>(
    hashes: &[PairwiseHash],
    span: SlotSpan,
    rem: FastRem,
    keys: &[u64],
    out: &mut Vec<u64>,
    load: L,
    prefetch_cell: P,
) where
    L: Fn(usize) -> u64,
    P: Fn(usize),
{
    /// Distinct keys per prefetch block. Wider than the write side's
    /// block (16): reads are pure loads with no store traffic competing
    /// for fill buffers, so more overlapped misses keep paying — 48
    /// keys × depth ≤ 8 cells stays within a ~4 KiB stack stash, and
    /// the 64 MiB-slab read bench plateaus here.
    const BLOCK: usize = 48;
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
    // `cells[block][row]` with `block < BLOCK` from the fill-loop guard
    // and `row < 8` from `take(8)`, so the compiler can discharge every
    // scratch bound statically — no residual checks in the artifact.
    let mut cells: [[usize; 8]; BLOCK] = [[0; 8]; BLOCK];
    let mut reps: [usize; BLOCK] = [0; BLOCK];
    let mut i = 0;
    while i < keys.len() {
        // Phase 1: coalesce the next `BLOCK` distinct keys (one probe
        // per run of adjacent equal keys), then compute and prefetch
        // their cells.
        let mut filled = 0usize;
        while filled < BLOCK && i < keys.len() {
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
                cells[filled][row] = cell;
                prefetch_cell(cell);
                idx += span.width;
            }
            reps[filled] = n;
            filled += 1;
        }
        // Phase 2: take the row minima out of now-resident lines,
        // emitting one copy of each distinct key's answer per coalesced
        // occurrence.
        for (block, &n) in cells.iter().zip(reps.iter()).take(filled) {
            let mut best = u64::MAX;
            for &cell in block.iter().take(depth) {
                best = best.min(load(cell));
            }
            out.extend(std::iter::repeat_n(best, n));
        }
    }
}

/// The concurrent arena: the same slab with `AtomicU64` cells, shared by
/// reference across ingest threads. Counter updates are saturating CAS
/// loops (so the sequential saturation semantics survive concurrency);
/// per-slot totals are independent atomics, which stripes total-counter
/// contention across slots the same way the slab stripes cell contention.
#[derive(Debug)]
pub struct AtomicCmArena {
    spans: Vec<SlotSpan>,
    depth: usize,
    cells: Vec<AtomicU64>,
    hashes: Vec<PairwiseHash>,
    totals: Vec<AtomicU64>,
    /// Per-slot width reducers for the batch-commit hot loop (derived
    /// from `spans`, never serialized).
    rems: Vec<FastRem>,
}

/// Saturating atomic add (relaxed; counters are commutative and the
/// caller joins writer threads before reading).
///
/// Implemented as one `fetch_add` with a wrap fix-up instead of a CAS
/// loop: a single locked RMW never loses an increment, and the add only
/// wraps when a counter passes `u64::MAX` — in that (astronomically
/// rare) case the cell is pinned to `u64::MAX`, matching the sequential
/// saturating semantics. A reader racing the fix-up can transiently see
/// a wrapped value; a counter within 2^64 of saturation has long lost
/// numeric meaning, so this trade is taken for a shorter hot path.
#[inline]
fn saturating_fetch_add(cell: &AtomicU64, weight: u64) {
    // ordering: Relaxed — a single-location RMW never loses an
    // increment regardless of ordering; counters are commutative
    // monotone sums, no other location is published through them, and
    // readers either tolerate staleness (CM estimates are one-sided) or
    // read after a thread join that already gives happens-before.
    let old = cell.fetch_add(weight, Ordering::Relaxed);
    if old.checked_add(weight).is_none() {
        // ordering: Relaxed — same single-location argument; the
        // transient wrapped-value window is documented above.
        cell.store(u64::MAX, Ordering::Relaxed);
    }
}

impl AtomicCmArena {
    /// Record `weight` occurrences of `key` in `slot` (any thread).
    #[inline]
    pub fn update_slot(&self, slot: u32, key: u64, weight: u64) {
        let span = self.spans[slot as usize];
        let rem = self.rems[slot as usize];
        let mut idx = span.offset;
        for h in &self.hashes {
            // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
            // width, which is a usize-sized cell count.
            saturating_fetch_add(&self.cells[idx + rem.rem(h.eval(key)) as usize], weight);
            idx += span.width;
        }
        saturating_fetch_add(&self.totals[slot as usize], weight);
    }

    /// Commit a whole slot run from a caller that can guarantee it is
    /// the **only writer** of `slot` for the duration of the batch (an
    /// owner of the sharded ingest engine). This is the batched
    /// span-commit that engine drives: consecutive duplicates are
    /// coalesced so a key whose occurrences are adjacent costs `d` hash
    /// evaluations per *batch* instead of per arrival, the slot's total
    /// counter is written once per run rather than once per update, and
    /// the hash range reduction uses the precomputed per-slot `FastRem`
    /// instead of a hardware divide. Cells are updated with plain
    /// load/add/store cycles instead of lock-prefixed RMWs, which
    /// removes the serializing atomic from the hot loop. Any entry order
    /// is correct; see [`CmArena::add_batch_saturating`] for the
    /// coalescing/saturation semantics. With a *concurrent* writer this
    /// path could lose increments, which is exactly what the caller
    /// contract rules out. An out-of-range `slot` is a no-op instead of
    /// a panic — audited panic-free from the compiled artifact
    /// (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn add_batch_saturating_exclusive(&self, slot: u32, run: &[(u64, u64)]) {
        let total = self.commit_batch(slot, run, |cell, weight| {
            // ordering: Relaxed — plain load/add/store is only sound
            // under the sole-writer caller contract (checked by the
            // xtask exclusive-writer harness); no ordering fixes a torn
            // RMW against a second writer, so Relaxed is as strong as any.
            cell.store(
                cell.load(Ordering::Relaxed).saturating_add(weight),
                Ordering::Relaxed,
            );
        });
        if total > 0 {
            if let Some(t) = self.totals.get(slot as usize) {
                // ordering: Relaxed — same sole-writer contract as the
                // cell loop above.
                t.store(
                    t.load(Ordering::Relaxed).saturating_add(total),
                    Ordering::Relaxed,
                );
            }
        }
    }

    /// The shared body of the batch commits: coalesce adjacent duplicate
    /// keys, then walk the run in small blocks — each block first
    /// computes (and prefetches) every target cell, then applies `add` —
    /// so the random cell loads of one block overlap instead of
    /// serializing on memory latency. Returns the run's total weight.
    #[inline]
    fn commit_batch<F: Fn(&AtomicU64, u64)>(&self, slot: u32, run: &[(u64, u64)], add: F) -> u64 {
        /// Distinct keys per prefetch block (`BLOCK × 8` cell slots of
        /// on-stack index scratch).
        const BLOCK: usize = 16;
        let Some(&span) = self.spans.get(slot as usize) else {
            return 0;
        };
        let Some(&rem) = self.rems.get(slot as usize) else {
            return 0;
        };
        let depth = self.depth;
        let mut total = 0u64;
        let mut i = 0;
        if depth > 8 {
            // Unblocked fallback for depths past the scratch budget: the
            // adds are applied directly, still with coalescing and one
            // fold per distinct key.
            while i < run.len() {
                let key = run[i].0;
                let mut weight = 0u64;
                while i < run.len() && run[i].0 == key {
                    weight = weight.saturating_add(run[i].1);
                    i += 1;
                }
                let folded = PairwiseHash::fold(key);
                let mut idx = span.offset;
                for h in &self.hashes {
                    // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                    // width, which is a usize-sized cell count.
                    let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                    if let Some(c) = self.cells.get(cell) {
                        add(c, weight);
                    }
                    idx += span.width;
                }
                total = total.saturating_add(weight);
            }
            return total;
        }
        // Blocked path (depth ≤ 8). Scratch indexing is
        // `cells[block][row]` with `block < BLOCK` from the fill-loop
        // guard and `row < 8` from `take(8)`, so every scratch bound is
        // discharged statically — no residual checks in the artifact.
        let mut cells: [[usize; 8]; BLOCK] = [[0; 8]; BLOCK];
        let mut weights: [u64; BLOCK] = [0; BLOCK];
        while i < run.len() {
            // Phase 1: coalesce the next `BLOCK` distinct keys and
            // compute + prefetch their cells.
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
                for (row, h) in self.hashes.iter().take(8).enumerate() {
                    // cast: u64 -> usize; `rem.rem` reduces the hash below the slot
                    // width, which is a usize-sized cell count.
                    let cell = idx + rem.rem(h.eval_folded(folded)) as usize;
                    cells[filled][row] = cell;
                    if let Some(c) = self.cells.get(cell) {
                        crate::prefetch(c);
                    }
                    idx += span.width;
                }
                weights[filled] = weight;
                total = total.saturating_add(weight);
                filled += 1;
            }
            // Phase 2: apply the adds into now-resident lines.
            for (block, &weight) in cells.iter().zip(weights.iter()).take(filled) {
                for &cell in block.iter().take(depth) {
                    if let Some(c) = self.cells.get(cell) {
                        add(c, weight);
                    }
                }
            }
        }
        total
    }

    /// Point query in `slot` (any thread; sees all updates that
    /// happened-before the call).
    #[inline]
    pub fn estimate_slot(&self, slot: u32, key: u64) -> u64 {
        let span = self.spans[slot as usize];
        let mut best = u64::MAX;
        let mut idx = span.offset;
        for h in &self.hashes {
            // ordering: Relaxed — CM estimates are one-sided upper
            // bounds; a stale read only delays an increment's
            // visibility, it cannot break the bound. Callers needing
            // "all updates before X" read after joining the writers.
            best = best.min(self.cells[idx + h.bucket(key, span.width)].load(Ordering::Relaxed));
            idx += span.width;
        }
        best
    }

    /// Answer a whole slot run of point queries from any thread — the
    /// read mirror of
    /// [`add_batch_saturating_exclusive`](Self::add_batch_saturating_exclusive),
    /// using the precomputed per-slot fastmod constant and the same
    /// duplicate-coalescing / fold-hoisting / block-prefetch discipline
    /// as [`CmArena::estimate_batch_slot`]. `out` is cleared and receives
    /// one estimate per key, in order; each answer sees every update that
    /// happened-before the call. An out-of-range `slot` answers
    /// `u64::MAX` for every key instead of panicking — audited
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
        batch_read(
            &self.hashes,
            span,
            rem,
            keys,
            out,
            #[inline(always)]
            // ordering: Relaxed — same one-sided staleness argument as
            // `estimate_slot`.
            |cell| {
                self.cells
                    .get(cell)
                    .map_or(u64::MAX, |c| c.load(Ordering::Relaxed))
            },
            #[inline(always)]
            |cell| {
                if let Some(c) = self.cells.get(cell) {
                    crate::prefetch(c);
                }
            },
        );
    }

    /// Total weight absorbed by `slot`.
    pub fn slot_total(&self, slot: u32) -> u64 {
        // ordering: Relaxed — monotone counter; a concurrent snapshot
        // is allowed to lag, and post-join readers already have
        // happens-before from the join.
        self.totals[slot as usize].load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Shared depth `d`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total counter memory in bytes.
    pub fn byte_size(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u64>()
    }

    /// First-touch every cell and total of slots `lo..hi` (half-open)
    /// from the calling thread. Owner-sharded ingest has each owner call
    /// this for its contiguous slot range before absorbing arrivals: on
    /// a NUMA machine with a first-touch page policy the owner's slice
    /// then lands on the owner's node, and on any machine the pages are
    /// faulted in and warm before the hot loop starts. Each touch is a
    /// plain read-back store, so the counters' values are unchanged;
    /// the caller must be the sole writer of the range (the same
    /// contract as [`add_batch_saturating_exclusive`]), which owner
    /// sharding guarantees by construction.
    ///
    /// [`add_batch_saturating_exclusive`]: Self::add_batch_saturating_exclusive
    pub fn touch_slot_range(&self, lo: u32, hi: u32) {
        let (lo, hi) = (lo as usize, (hi as usize).min(self.spans.len()));
        if lo >= hi {
            return;
        }
        let start = self.spans[lo].offset;
        let end = self.spans[hi - 1].offset + self.spans[hi - 1].width * self.depth;
        for cell in &self.cells[start..end] {
            // ordering: Relaxed — a value-preserving read-back store by
            // the range's sole writer; nothing is published and no other
            // thread writes these cells (owner-sharding contract).
            cell.store(cell.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for t in &self.totals[lo..hi] {
            // ordering: Relaxed — same sole-writer read-back as above.
            t.store(t.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Thaw back into the sequential arena (requires exclusive ownership,
    /// so no updates can be in flight).
    pub fn into_arena(self) -> CmArena {
        CmArena {
            spans: self.spans,
            depth: self.depth,
            cells: self.cells.into_iter().map(AtomicU64::into_inner).collect(),
            hashes: self.hashes,
            totals: self.totals.into_iter().map(AtomicU64::into_inner).collect(),
        }
    }
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
            FrequencySketch::update(&mut arena, k * 31, w);
            cm.update(k * 31, w);
        }
        for k in 0..2_000u64 {
            assert_eq!(
                FrequencySketch::estimate(&arena, k * 31),
                cm.estimate(k * 31)
            );
        }
        assert_eq!(FrequencySketch::total(&arena), cm.total());
        assert_eq!(FrequencySketch::byte_size(&arena), cm.bytes());
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
        FrequencySketch::update(&mut arena, 1, u64::MAX);
        FrequencySketch::update(&mut arena, 1, u64::MAX);
        assert_eq!(FrequencySketch::estimate(&arena, 1), u64::MAX);
        assert_eq!(FrequencySketch::total(&arena), u64::MAX);
    }

    /// The owned-merge fast path must fall back to saturation when the
    /// combined totals could wrap — near-saturated inputs stay pinned at
    /// `u64::MAX` exactly like the by-reference merge.
    #[test]
    fn merge_assign_saturates_near_overflow() {
        let mut a = CmArena::new(4, 1, 3).unwrap();
        let b = {
            let mut b = CmArena::new(4, 1, 3).unwrap();
            FrequencySketch::update(&mut b, 1, u64::MAX - 5);
            b
        };
        FrequencySketch::update(&mut a, 1, 100);
        FrequencySketch::merge_assign(&mut a, b).unwrap();
        assert_eq!(FrequencySketch::estimate(&a, 1), u64::MAX);
        assert_eq!(FrequencySketch::total(&a), u64::MAX);
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
            FrequencySketch::update(&mut small, key, i % 7 + 1);
        }
        let folded = big.fold_slots(32).unwrap();
        assert_eq!(folded.spans().len(), 1);
        for i in 0..900u64 {
            let key = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(
                FrequencySketch::estimate(&folded, key),
                FrequencySketch::estimate(&small, key)
            );
        }
        assert_eq!(
            FrequencySketch::total(&folded),
            FrequencySketch::total(&small)
        );
        assert!(big.fold_slots(0).is_err());
        assert!(big.fold_slots(48).is_err());
    }

    #[test]
    fn atomic_round_trip_preserves_cells() {
        let mut arena = CmArena::with_slots(&[64, 32], 3, 5).unwrap();
        for k in 0..500u64 {
            arena.update_slot((k % 2) as u32, k, 2);
        }
        let expected: Vec<u64> = (0..500u64)
            .map(|k| arena.estimate_slot((k % 2) as u32, k))
            .collect();
        let atomic = arena.into_atomic();
        atomic.update_slot(0, 999_983, 7);
        let back = atomic.into_arena();
        for k in 0..500u64 {
            assert!(back.estimate_slot((k % 2) as u32, k) >= expected[k as usize]);
        }
        assert!(back.estimate_slot(0, 999_983) >= 7);
    }

    #[test]
    fn atomic_concurrent_ingest_loses_nothing() {
        use std::sync::Arc;
        let arena = Arc::new(
            CmArena::with_slots(&[256, 256], 3, 11)
                .unwrap()
                .into_atomic(),
        );
        let threads = 8u64;
        let per_thread = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let a = Arc::clone(&arena);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        a.update_slot((t % 2) as u32, t * 1_000_003 + i % 17, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = arena.slot_total(0) + arena.slot_total(1);
        assert_eq!(total, threads * per_thread);
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
        let mut a = CmArena::with_slots(&[64, 32], 3, 21).unwrap();
        let mut b = a.clone();
        // A run with duplicates, sorted by key.
        let mut run: Vec<(u64, u64)> = (0..200u64).map(|k| (k % 40, k % 5 + 1)).collect();
        run.sort_unstable_by_key(|p| p.0);
        for &(k, w) in &run {
            a.update_slot(1, k, w);
        }
        b.add_batch_saturating(1, &run);
        for k in 0..40u64 {
            assert_eq!(a.estimate_slot(1, k), b.estimate_slot(1, k));
        }
        assert_eq!(a.slot_total(1), b.slot_total(1));
        // The untouched slot stays untouched.
        assert_eq!(b.slot_total(0), 0);
    }

    #[test]
    fn atomic_batch_commit_matches_sequential_batch() {
        let mut seq = CmArena::with_slots(&[128, 64], 2, 33).unwrap();
        let exclusive = seq.clone().into_atomic();
        let mut run: Vec<(u64, u64)> = (0..500u64).map(|k| (k % 77, 1)).collect();
        run.sort_unstable_by_key(|p| p.0);
        seq.add_batch_saturating(0, &run);
        exclusive.add_batch_saturating_exclusive(0, &run);
        let back_ex = exclusive.into_arena();
        for k in 0..77u64 {
            assert_eq!(seq.estimate_slot(0, k), back_ex.estimate_slot(0, k));
        }
        assert_eq!(seq.slot_total(0), back_ex.slot_total(0));
    }

    #[test]
    fn touch_slot_range_preserves_every_counter() {
        let mut arena = CmArena::with_slots(&[32, 16, 8], 3, 5).unwrap();
        for k in 0..200u64 {
            arena.update_slot((k % 3) as u32, k, k % 7 + 1);
        }
        let expected: Vec<u64> = (0..200u64)
            .map(|k| arena.estimate_slot((k % 3) as u32, k))
            .collect();
        let totals: Vec<u64> = (0..3u32).map(|s| arena.slot_total(s)).collect();
        let atomic = arena.into_atomic();
        atomic.touch_slot_range(0, 2);
        atomic.touch_slot_range(2, 3);
        // Out-of-range and empty ranges are no-ops.
        atomic.touch_slot_range(2, 99);
        atomic.touch_slot_range(1, 1);
        let back = atomic.into_arena();
        for k in 0..200u64 {
            assert_eq!(back.estimate_slot((k % 3) as u32, k), expected[k as usize]);
        }
        for s in 0..3u32 {
            assert_eq!(back.slot_total(s), totals[s as usize]);
        }
    }

    #[test]
    fn batch_commit_empty_run_is_noop() {
        let mut a = CmArena::with_slots(&[16], 2, 1).unwrap();
        a.add_batch_saturating(0, &[]);
        assert_eq!(a.slot_total(0), 0);
        let at = a.into_atomic();
        at.add_batch_saturating_exclusive(0, &[]);
        assert_eq!(at.slot_total(0), 0);
    }

    #[test]
    fn batch_commit_saturates_like_per_update() {
        let mut a = CmArena::new(4, 1, 3).unwrap();
        a.add_batch_saturating(0, &[(1, u64::MAX), (1, u64::MAX)]);
        assert_eq!(a.estimate_slot(0, 1), u64::MAX);
        assert_eq!(a.slot_total(0), u64::MAX);
    }

    #[test]
    fn atomic_saturating_add_saturates() {
        let cell = AtomicU64::new(u64::MAX - 1);
        saturating_fetch_add(&cell, 10);
        // ordering: single-threaded test read.
        assert_eq!(cell.load(Ordering::Relaxed), u64::MAX);
    }

    /// The batched read kernel answers exactly like the scalar path, for
    /// every depth regime (blocked and unblocked), with duplicates both
    /// adjacent and scattered, on both arenas.
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
            let atomic = arena.clone().into_atomic();
            for slot in 0..2u32 {
                atomic.estimate_batch_slot(slot, &keys, &mut out);
                for (&k, &v) in keys.iter().zip(&out) {
                    assert_eq!(v, atomic.estimate_slot(slot, k), "depth {depth} key {k}");
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
