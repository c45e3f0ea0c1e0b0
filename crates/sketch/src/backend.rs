//! The synopsis-backend abstraction: [`FrequencySketch`] and
//! [`SketchBank`] (DESIGN.md §2).
//!
//! gSketch carves **one** memory budget into many localized sketches.
//! Which point-frequency synopsis fills those slots is an orthogonal
//! choice — classic CountMin, conservative-update CountMin, CountSketch —
//! and so is *how the slots are laid out in memory*: one heap allocation
//! per slot, or a single contiguous slab ([`crate::CmArena`]). The two
//! traits here split exactly along that seam:
//!
//! * [`FrequencySketch`] is the single-synopsis contract: update /
//!   estimate / total / merge / byte-size plus a seeded constructor. It
//!   is implemented by [`crate::CountMinSketch`], [`crate::CountSketch`]
//!   and [`crate::CmArena`] (a one-slot arena *is* a CountMin sketch).
//! * [`SketchBank`] is the slot-addressed collection a `GSketch` actually
//!   builds over: `S` logical sketches of per-slot widths sharing one
//!   depth and one seed. Each `FrequencySketch` names its bank via the
//!   [`FrequencySketch::Bank`] associated type — `CmArena` is its own
//!   bank (the contiguous slab), while per-allocation backends use
//!   [`SketchVec`].
//!
//! **Shared hash families.** A bank derives every slot's hash family from
//! the *same* seed, so all slots share one per-row Carter–Wegman family.
//! The paper's §4.1 shared-depth property makes this sound: partitions
//! keep the global depth `d`, the key sets routed to different partitions
//! are disjoint, and the per-partition collision bound only depends on
//! the family being pairwise independent *within* a slot. Sharing the
//! family is what lets the arena drop per-partition hash state — and it
//! makes a [`SketchVec`] of CountMin sketches cell-for-cell identical to
//! a [`crate::CmArena`] of the same shape (the estimate-parity invariant
//! the core crate's proptests pin).

use crate::countmin::CountMinSketch;
use crate::countsketch::CountSketch;
use crate::error::SketchError;
use serde::{Deserialize, Serialize};

/// One row of a detailed batched read: the point estimate together with
/// the answering synopsis's quality attributes (§5 of the paper — the
/// additive bound of Equation 1 and the probability it holds). For the
/// CountMin-family backends the bound is exact per Equation 1; for
/// `CountSketch` it is the conservative L1 form (documented on that
/// backend's impl), not the tighter L2 bound the backend actually obeys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedRow {
    /// The estimated frequency.
    pub estimate: u64,
    /// Additive error bound of the answering synopsis (`e·N/w`).
    pub error_bound: f64,
    /// Probability the bound holds: `1 − e^{−d}`.
    pub confidence: f64,
}

/// A point-frequency synopsis over `u64` keys with `u64` estimates.
///
/// The contract every gSketch backend satisfies: non-negative weighted
/// updates, point estimates, a running total, linear merge of
/// identically-built instances, and byte-accurate memory accounting.
/// CountMin-family implementors never underestimate; `CountSketch`'s
/// clamped median estimate is two-sided (documented on the impl).
pub trait FrequencySketch: Sized + Clone + std::fmt::Debug + Serialize + Deserialize {
    /// The slot-addressed bank [`GSketch`](../gsketch/index.html) builds
    /// over this backend: `CmArena` for the contiguous slab, otherwise a
    /// [`SketchVec`] of per-slot allocations.
    type Bank: SketchBank;

    /// Stable backend name, used to tag persisted snapshots and CLI
    /// `--backend` values.
    const KIND: &'static str;

    /// Construct a `width × depth` synopsis seeded from `seed`.
    fn with_shape(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError>;

    /// Record `weight` occurrences of `key`.
    fn update(&mut self, key: u64, weight: u64);

    /// Estimate the total weight recorded for `key`.
    fn estimate(&self, key: u64) -> u64;

    /// Estimate a whole batch of keys: `out` is cleared and receives one
    /// estimate per entry of `keys`, in order. Equivalent to calling
    /// [`estimate`](Self::estimate) per key; backends with a batched
    /// read kernel (the arena) override it so one pass shares per-key
    /// hash work across rows, reduces ranges without hardware divides,
    /// and overlaps the random counter loads instead of serializing on
    /// memory latency. Answers are bit-identical either way (pinned by
    /// the core crate's `backend_parity` proptests).
    fn estimate_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.estimate(k)));
    }

    /// Batched [`estimate`](Self::estimate) with quality attributes:
    /// `out` is cleared and receives one [`DetailedRow`] per entry of
    /// `keys`, in order. The bound and confidence are properties of the
    /// synopsis, not the key, so they are computed once and attached to
    /// every row; the estimates route through
    /// [`estimate_batch`](Self::estimate_batch), so backends with a
    /// batched read kernel (the arena) answer the whole batch in one
    /// kernel pass — this is what lets workload replay report
    /// confidence intervals without a second pass over the synopsis.
    fn estimate_detailed_batch(&self, keys: &[u64], out: &mut Vec<DetailedRow>) {
        let mut vals = Vec::with_capacity(keys.len());
        self.estimate_batch(keys, &mut vals);
        let error_bound = std::f64::consts::E * self.total() as f64 / self.width() as f64;
        let confidence = 1.0 - (-(self.depth() as f64)).exp();
        out.clear();
        out.extend(vals.into_iter().map(|estimate| DetailedRow {
            estimate,
            error_bound,
            confidence,
        }));
    }

    /// Total weight inserted so far (`N` in the error bounds).
    fn total(&self) -> u64;

    /// Whether `other` comes from an identical build (shape *and* hash
    /// families), i.e. [`merge`](Self::merge) would succeed. Banks use
    /// this to probe every slot before mutating any, keeping their merge
    /// all-or-nothing.
    fn mergeable_with(&self, other: &Self) -> bool;

    /// Merge another identically-built synopsis into this one
    /// (cell-wise; rejects shape or hash-family mismatches).
    fn merge(&mut self, other: &Self) -> Result<(), SketchError>;

    /// Merge an **owned** identically-built synopsis into this one. The
    /// contract is exactly [`merge`](Self::merge); taking ownership lets
    /// a backend run a faster kernel (the arena proves from the combined
    /// totals that no counter can wrap and then drops the per-cell
    /// saturation branch). The windowed tiering layer drives this when it
    /// collapses coarsened windows into exponential tiers.
    fn merge_assign(&mut self, other: Self) -> Result<(), SketchError> {
        self.merge(&other)
    }

    /// Fold a whole bank of this backend down to a **single** synopsis of
    /// width `quantum` over the union of every slot's stream.
    ///
    /// Sound by modular compatibility of the shared hash family: a bank
    /// buckets `key` in slot `s` at `h_r(key) mod w_s`, so when `quantum`
    /// divides every slot width, summing cell `j` into folded cell
    /// `j mod quantum` (per row, across all slots) lands each key's
    /// counts exactly where a width-`quantum` synopsis built from the
    /// same family would put them — the fold is a valid synopsis of the
    /// concatenated slot streams, with the error bound widened to
    /// `e·N_total/quantum`. Rejects a zero quantum or any slot width not
    /// a multiple of it (build banks with a matching width quantum).
    fn fold_bank(bank: &Self::Bank, quantum: usize) -> Result<Self, SketchError>;

    /// Memory consumed by the counter state, in bytes.
    fn byte_size(&self) -> usize;

    /// Cells per row.
    fn width(&self) -> usize;

    /// Number of rows / hash functions.
    fn depth(&self) -> usize;
}

/// A bank of `S` logical frequency sketches addressed by a flat slot id
/// `0..S`, sharing one depth and one hash-family seed (DESIGN.md §2).
///
/// This is the storage layer under a partitioned `GSketch`: slot `i < S-1`
/// holds partition `i`'s localized sketch and the last slot conventionally
/// holds the outlier sketch, so the router can hand the ingest path a
/// plain `u32` with no enum branch.
pub trait SketchBank: Sized + Clone + std::fmt::Debug + Serialize + Deserialize {
    /// Build a bank with one slot per entry of `widths`, all sharing
    /// `depth` rows and a hash family seeded from `seed`.
    fn build(widths: &[usize], depth: usize, seed: u64) -> Result<Self, SketchError>;

    /// Record `weight` occurrences of `key` in `slot`.
    fn update(&mut self, slot: u32, key: u64, weight: u64);

    /// Record a whole slot run of `(key, weight)` pairs. Equivalent to
    /// updating each pair in order; banks with a batched span-commit
    /// (the arena) override it so the run is applied in one pass with
    /// adjacent duplicates coalesced.
    fn add_batch(&mut self, slot: u32, run: &[(u64, u64)]) {
        for &(key, weight) in run {
            self.update(slot, key, weight);
        }
    }

    /// Estimate the total weight recorded for `key` in `slot`.
    fn estimate(&self, slot: u32, key: u64) -> u64;

    /// Answer point queries that each carry their own slot: `out` is
    /// cleared and receives the estimate of `keys[i]` in `slots[i]` for
    /// every pair, in order (the shorter slice sets the length). This
    /// provided default is the scalar loop; the arena overrides it with
    /// a blocked, prefetched gather, so a batch in query order needs no
    /// grouping by slot — the query-side counterpart of
    /// [`add_batch`](Self::add_batch). Answers are bit-identical either
    /// way.
    fn estimate_gather(&self, slots: &[u32], keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(slots.iter().zip(keys).map(|(&s, &k)| self.estimate(s, k)));
    }

    /// Total weight absorbed by `slot`.
    fn slot_total(&self, slot: u32) -> u64;

    /// Width (cells per row) of `slot`.
    fn slot_width(&self, slot: u32) -> usize;

    /// Number of slots.
    fn num_slots(&self) -> usize;

    /// Shared depth `d`.
    fn depth(&self) -> usize;

    /// Total counter memory across all slots, in bytes.
    fn byte_size(&self) -> usize;

    /// Merge another bank of the identical build into this one.
    /// All-or-nothing: shape mismatches are detected before any cell is
    /// touched.
    fn merge(&mut self, other: &Self) -> Result<(), SketchError>;

    /// Additive error bound `e·N_i/w_i` of `slot`'s estimates (Equation 1
    /// of the paper, for the CountMin-family backends). Defined once here
    /// so every consumer of per-slot bounds shares one formula — it must
    /// agree with [`CountMinSketch`]'s own
    /// [`error_bound`](CountMinSketch::error_bound).
    fn slot_error_bound(&self, slot: u32) -> f64 {
        std::f64::consts::E * self.slot_total(slot) as f64 / self.slot_width(slot) as f64
    }

    /// Probability the per-slot bound holds: `1 − e^{−d}`.
    fn confidence(&self) -> f64 {
        1.0 - (-(self.depth() as f64)).exp()
    }
}

/// The per-allocation bank: one independent [`FrequencySketch`] per slot,
/// every slot seeded identically so the whole bank shares one hash
/// family (see the module docs for why that is sound — and required for
/// arena parity).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchVec<S> {
    slots: Vec<S>,
}

impl<S> SketchVec<S> {
    /// Read-only view of the underlying slots.
    pub fn slots(&self) -> &[S] {
        &self.slots
    }
}

impl<S: FrequencySketch + Serialize + Deserialize> SketchBank for SketchVec<S> {
    fn build(widths: &[usize], depth: usize, seed: u64) -> Result<Self, SketchError> {
        let slots = widths
            .iter()
            .map(|&w| S::with_shape(w, depth, seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { slots })
    }

    #[inline]
    fn update(&mut self, slot: u32, key: u64, weight: u64) {
        self.slots[slot as usize].update(key, weight);
    }

    #[inline]
    fn estimate(&self, slot: u32, key: u64) -> u64 {
        self.slots[slot as usize].estimate(key)
    }

    fn slot_total(&self, slot: u32) -> u64 {
        self.slots[slot as usize].total()
    }

    fn slot_width(&self, slot: u32) -> usize {
        self.slots[slot as usize].width()
    }

    fn num_slots(&self) -> usize {
        self.slots.len()
    }

    fn depth(&self) -> usize {
        self.slots.first().map_or(0, FrequencySketch::depth)
    }

    fn byte_size(&self) -> usize {
        self.slots.iter().map(FrequencySketch::byte_size).sum()
    }

    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.slots.len() != other.slots.len() {
            return Err(SketchError::IncompatibleMerge {
                reason: format!("slot count {} vs {}", self.slots.len(), other.slots.len()),
            });
        }
        // Probe every slot — shape AND hash family — before mutating
        // any, so a failed merge cannot leave the bank half-updated.
        // (Build-constructed banks share one family across slots, but a
        // deserialized bank could disagree per slot.)
        if !self
            .slots
            .iter()
            .zip(&other.slots)
            .all(|(a, b)| a.mergeable_with(b))
        {
            return Err(SketchError::IncompatibleMerge {
                reason: "slot shapes or hash families differ (different builds)".into(),
            });
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            mine.merge(theirs)?;
        }
        Ok(())
    }
}

impl FrequencySketch for CountMinSketch {
    type Bank = SketchVec<CountMinSketch>;
    const KIND: &'static str = "countmin";

    fn with_shape(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        CountMinSketch::new(width, depth, seed)
    }

    #[inline]
    fn update(&mut self, key: u64, weight: u64) {
        CountMinSketch::update(self, key, weight);
    }

    #[inline]
    fn estimate(&self, key: u64) -> u64 {
        CountMinSketch::estimate(self, key)
    }

    fn total(&self) -> u64 {
        CountMinSketch::total(self)
    }

    fn mergeable_with(&self, other: &Self) -> bool {
        CountMinSketch::mergeable_with(self, other)
    }

    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        CountMinSketch::merge(self, other)
    }

    fn fold_bank(bank: &Self::Bank, quantum: usize) -> Result<Self, SketchError> {
        fold_sketchvec(bank, quantum, CountMinSketch::fold_width)
    }

    fn byte_size(&self) -> usize {
        self.bytes()
    }

    fn width(&self) -> usize {
        CountMinSketch::width(self)
    }

    fn depth(&self) -> usize {
        CountMinSketch::depth(self)
    }
}

/// Shared [`FrequencySketch::fold_bank`] body for the per-allocation
/// layout: fold every slot to width `quantum` (all slots share one hash
/// family, so the folds are mutually mergeable) and sum them.
fn fold_sketchvec<S, F>(bank: &SketchVec<S>, quantum: usize, fold: F) -> Result<S, SketchError>
where
    S: FrequencySketch,
    F: Fn(&S, usize) -> Result<S, SketchError>,
{
    let mut slots = bank.slots().iter();
    let first = slots.next().ok_or(SketchError::InvalidDimension {
        what: "bank slots",
        value: 0,
    })?;
    let mut acc = fold(first, quantum)?;
    for slot in slots {
        acc.merge_assign(fold(slot, quantum)?)?;
    }
    Ok(acc)
}

/// `CountSketch` as a gSketch backend (ablation use). Its point estimate
/// is the **clamped median** `max(median, 0)`: unbiased but two-sided, so
/// the "never underestimates" property of the CountMin backends does
/// *not* hold — the L2-error bound often more than compensates on skewed
/// streams, which is exactly what the ablation benches measure.
impl FrequencySketch for CountSketch {
    type Bank = SketchVec<CountSketch>;
    const KIND: &'static str = "countsketch";

    fn with_shape(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        CountSketch::new(width, depth, seed)
    }

    #[inline]
    fn update(&mut self, key: u64, weight: u64) {
        CountSketch::update(self, key, weight);
    }

    #[inline]
    fn estimate(&self, key: u64) -> u64 {
        self.estimate_non_negative(key)
    }

    fn total(&self) -> u64 {
        CountSketch::total(self)
    }

    fn mergeable_with(&self, other: &Self) -> bool {
        CountSketch::mergeable_with(self, other)
    }

    fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        CountSketch::merge(self, other)
    }

    fn fold_bank(bank: &Self::Bank, quantum: usize) -> Result<Self, SketchError> {
        fold_sketchvec(bank, quantum, CountSketch::fold_width)
    }

    fn byte_size(&self) -> usize {
        self.bytes()
    }

    fn width(&self) -> usize {
        CountSketch::width(self)
    }

    fn depth(&self) -> usize {
        CountSketch::depth(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_backend<S: FrequencySketch>() {
        let mut a = S::with_shape(256, 3, 42).unwrap();
        let mut b = S::with_shape(256, 3, 42).unwrap();
        for k in 0..100u64 {
            a.update(k, k + 1);
            b.update(k, 2);
        }
        assert_eq!(a.total(), (1..=100u64).sum::<u64>());
        assert_eq!(a.width(), 256);
        assert_eq!(a.depth(), 3);
        assert!(a.byte_size() >= 256 * 3 * 8);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), (1..=100u64).sum::<u64>() + 200);
        // Different seed → different family → merge rejected.
        let c = S::with_shape(256, 3, 43).unwrap();
        assert!(a.merge(&c).is_err());
        // Different shape → merge rejected.
        let d = S::with_shape(128, 3, 42).unwrap();
        assert!(a.merge(&d).is_err());
    }

    /// `merge_assign` is `merge` with ownership: bit-identical results,
    /// same mismatch rejections.
    fn exercise_merge_assign<S: FrequencySketch>() {
        let mut a = S::with_shape(128, 3, 5).unwrap();
        let mut b = S::with_shape(128, 3, 5).unwrap();
        for k in 0..200u64 {
            a.update(k * 7, k % 9 + 1);
            b.update(k * 13, 2);
        }
        let mut by_ref = a.clone();
        by_ref.merge(&b).unwrap();
        let mut by_move = a.clone();
        by_move.merge_assign(b.clone()).unwrap();
        assert_eq!(by_move.total(), by_ref.total());
        for k in 0..200u64 {
            assert_eq!(by_move.estimate(k * 7), by_ref.estimate(k * 7));
            assert_eq!(by_move.estimate(k * 13), by_ref.estimate(k * 13));
        }
        let other = S::with_shape(128, 3, 6).unwrap();
        assert!(by_move.merge_assign(other).is_err());
    }

    #[test]
    fn merge_assign_matches_merge() {
        exercise_merge_assign::<CountMinSketch>();
        exercise_merge_assign::<CountSketch>();
        exercise_merge_assign::<crate::CmArena>();
    }

    /// Folding a multi-slot bank to width `quantum` yields exactly the
    /// synopsis a direct width-`quantum` build of the same seed would
    /// have produced from the concatenated slot streams (the soundness
    /// claim in the `fold_bank` docs, pinned cell-for-cell).
    fn exercise_fold<S: FrequencySketch>() {
        let widths = [64usize, 128, 32];
        let mut bank = S::Bank::build(&widths, 3, 99).unwrap();
        let mut direct = S::with_shape(32, 3, 99).unwrap();
        for i in 0..600u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            bank.update((i % 3) as u32, key, i % 5 + 1);
            direct.update(key, i % 5 + 1);
        }
        let folded = S::fold_bank(&bank, 32).unwrap();
        assert_eq!(folded.width(), 32);
        assert_eq!(folded.depth(), 3);
        assert_eq!(folded.total(), direct.total());
        for i in 0..600u64 {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(folded.estimate(key), direct.estimate(key));
        }
        // Folds of the same bank share one family — mergeable.
        let mut twice = folded.clone();
        twice
            .merge_assign(S::fold_bank(&bank, 32).unwrap())
            .unwrap();
        assert_eq!(twice.total(), folded.total() * 2);
        // Invalid quanta are rejected before touching anything.
        assert!(S::fold_bank(&bank, 0).is_err());
        assert!(S::fold_bank(&bank, 33).is_err());
    }

    #[test]
    fn fold_bank_matches_direct_build() {
        exercise_fold::<CountMinSketch>();
        exercise_fold::<CountSketch>();
        exercise_fold::<crate::CmArena>();
    }

    #[test]
    fn countmin_backend_contract() {
        exercise_backend::<CountMinSketch>();
    }

    #[test]
    fn countsketch_backend_contract() {
        exercise_backend::<CountSketch>();
    }

    #[test]
    fn arena_backend_contract() {
        exercise_backend::<crate::CmArena>();
    }

    fn exercise_bank<B: SketchBank>() {
        let widths = [64usize, 128, 32];
        let mut bank = B::build(&widths, 3, 7).unwrap();
        assert_eq!(bank.num_slots(), 3);
        assert_eq!(bank.depth(), 3);
        assert_eq!(bank.slot_width(1), 128);
        for slot in 0..3u32 {
            for k in 0..50u64 {
                bank.update(slot, k, u64::from(slot) + 1);
            }
            assert_eq!(bank.slot_total(slot), 50 * (u64::from(slot) + 1));
        }
        // Slots are independent: a key updated only in slot 2 does not
        // raise slot 0 beyond its own collisions with slot-0 keys.
        bank.update(2, 999_999, 1_000_000);
        assert_eq!(bank.slot_total(0), 50);
        let mut twin = B::build(&widths, 3, 7).unwrap();
        twin.update(0, 1, 5);
        bank.merge(&twin).unwrap();
        assert!(bank.estimate(0, 1) >= 6); // 1 (slot 0) + 5 merged

        // A gather answers each (slot, key) pair like `estimate`.
        let slots: Vec<u32> = (0..90u32).map(|i| i % 3).collect();
        let keys: Vec<u64> = (0..90u64).map(|k| k % 60).collect();
        let mut vals = Vec::new();
        bank.estimate_gather(&slots, &keys, &mut vals);
        assert_eq!(vals.len(), keys.len());
        for ((&s, &k), &v) in slots.iter().zip(&keys).zip(&vals) {
            assert_eq!(v, bank.estimate(s, k));
        }
        let other_shape = B::build(&[64, 128], 3, 7).unwrap();
        assert!(bank.merge(&other_shape).is_err());
    }

    #[test]
    fn sketchvec_bank_contract() {
        exercise_bank::<SketchVec<CountMinSketch>>();
        exercise_bank::<SketchVec<CountSketch>>();
    }

    /// The bank-level bound formula must agree with the standalone
    /// CountMin definition of Equation 1 (single source of truth).
    #[test]
    fn slot_error_bound_matches_countmin_definition() {
        let mut bank = SketchVec::<CountMinSketch>::build(&[64, 128], 3, 9).unwrap();
        for k in 0..500u64 {
            bank.update((k % 2) as u32, k, k % 7 + 1);
        }
        for slot in 0..2u32 {
            let standalone = &bank.slots()[slot as usize];
            assert_eq!(bank.slot_error_bound(slot), standalone.error_bound());
            assert_eq!(bank.confidence(), standalone.confidence());
        }
    }

    #[test]
    fn arena_bank_contract() {
        exercise_bank::<crate::CmArena>();
    }

    /// The detailed batch is the plain batch plus the synopsis's
    /// constant attributes, row for row: bound = e·N/w, confidence =
    /// 1 − e^{−d}.
    #[test]
    fn detailed_batch_matches_plain_batch_plus_attributes() {
        let mut s = crate::CmArena::new(128, 3, 5).unwrap();
        for k in 0..200u64 {
            FrequencySketch::update(&mut s, k, 2);
        }
        let keys: Vec<u64> = (0..50u64).collect();
        let mut rows = Vec::new();
        FrequencySketch::estimate_detailed_batch(&s, &keys, &mut rows);
        for (row, &k) in rows.iter().zip(&keys) {
            assert_eq!(row.estimate, FrequencySketch::estimate(&s, k));
            let expect = std::f64::consts::E * 400.0 / 128.0;
            assert!((row.error_bound - expect).abs() < 1e-12);
            assert!((row.confidence - (1.0 - (-3.0f64).exp())).abs() < 1e-12);
        }
    }

    /// The parity cornerstone: a `SketchVec<CountMinSketch>` and a
    /// `CmArena` built with the same widths/depth/seed hold bit-identical
    /// counters under the same update sequence.
    #[test]
    fn sketchvec_and_arena_agree_cell_for_cell() {
        let widths = [32usize, 96, 16, 64];
        let mut vecs = SketchVec::<CountMinSketch>::build(&widths, 4, 0xFEED).unwrap();
        let mut arena = crate::CmArena::build(&widths, 4, 0xFEED).unwrap();
        let mut x = 1u64;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (i % widths.len() as u64) as u32;
            vecs.update(slot, x, 1 + i % 7);
            arena.update_slot(slot, x, 1 + i % 7);
        }
        x = 1;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (i % widths.len() as u64) as u32;
            assert_eq!(vecs.estimate(slot, x), arena.estimate_slot(slot, x));
        }
        for slot in 0..widths.len() as u32 {
            assert_eq!(vecs.slot_total(slot), arena.slot_total(slot));
        }
    }
}
