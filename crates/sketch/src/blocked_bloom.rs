//! Register-blocked Bloom filter in front of the synopsis (DESIGN.md §12).
//!
//! CountMin answers a point query by reading `d` counter rows — `d`
//! dependent cache misses on a memory-bound synopsis — and for a key
//! that was *never ingested* it still pays that full walk only to
//! return a collision overestimate. This module provides the membership
//! pre-filter that short-circuits that case: one **64-byte block per
//! key** (a single cache line), chosen by fastmod over the slot's block
//! range, with `K` bits set via plain `u64` lane ops inside the block.
//! A negative answer is definitive (Bloom filters have no false
//! negatives), so the caller can answer `0` without touching a counter
//! row; a positive answer falls through to the synopsis unchanged.
//!
//! The filter is **slot-partitioned** exactly like the
//! [`CmArena`](crate::CmArena) slab: each slot owns a contiguous run of
//! blocks ([`BlockSpan`], mirroring [`SlotSpan`](crate::SlotSpan)), so
//! it splits the same way —
//! [`split_slots`](BlockedBloom::split_slots) hands each owner of the
//! sharded ingest engine an exclusive [`BlockedBloomSlice`] of the
//! words its slot range owns.
//!
//! [`contains_batch`](BlockedBloom::contains_batch) mirrors the arena's
//! batched read kernel: adjacent duplicate keys are answered once, and
//! the run is walked in small blocks that first compute and prefetch
//! every target line, then test bits out of now-resident lines.

use crate::arena::{clip_ranges, split_ranges, FastRem, READ_BLOCK};
use crate::error::SketchError;
use crate::hash::mix64;
use serde::{Deserialize, Serialize};

/// `u64` lanes per block: 8 × 8 bytes = one 64-byte cache line.
const LANES: usize = 8;

/// Probes (bits set/tested) per key. One derived hash picks the block's
/// lane (3 bits) and then `K` bit positions inside that lane's `u64`
/// (6 bits each, 27 bits total), so a whole membership test is a single
/// word load and mask compare — the "register-blocked" part of the
/// design: after fastmod picks the cache-line block, the probe lives in
/// one register.
const K: usize = 4;

/// Where one slot's filter blocks live in the word array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSpan {
    /// Index of the slot's first block.
    pub offset: usize,
    /// Number of 64-byte blocks owned by the slot.
    pub blocks: usize,
}

/// Compute a key's probe: the word index of its block's selected lane
/// within `span`, and the `K`-bit membership mask for that word. The
/// whole test is `words[word] & mask == mask` — one load.
#[inline]
fn probe_of(seed: u64, rem: FastRem, span: BlockSpan, key: u64) -> (usize, u64) {
    let h = mix64(key ^ seed);
    // Block selection takes the hash's top 37 bits and the lane pick +
    // K bit selects spend the low 27 — disjoint regions, so one mix64
    // funds the whole probe. (`rem` is a true modulo: feeding it the
    // full hash would alias the low bits with the mask below whenever
    // the block count is a power of two.)
    // cast: u64 -> usize; `rem.rem` reduces the hash below the slot's
    // block count, which is a usize-sized array length.
    let base = (span.offset + rem.rem(h >> 27) as usize) * LANES;
    // cast: u64 -> usize; masked to 3 bits, always < LANES.
    let lane = (h & 7) as usize;
    let mut mask = 0u64;
    for i in 0..K {
        mask |= 1u64 << ((h >> (3 + 6 * i)) & 63);
    }
    (base + lane, mask)
}

/// A slot-partitioned blocked Bloom filter: one contiguous `u64` word
/// array holding every slot's blocks back-to-back.
///
/// Membership is deterministic given the seed, so two filters built with
/// the same layout and seed agree key-for-key — which is what keeps
/// filtered estimates reproducible across snapshot save/load.
#[derive(Debug, Clone)]
pub struct BlockedBloom {
    spans: Vec<BlockSpan>,
    /// The word array: `LANES` words per block, blocks back-to-back.
    words: Vec<u64>,
    seed: u64,
    /// Per-slot block-count reducers (derived from `spans`, never
    /// serialized).
    rems: Vec<FastRem>,
}

impl BlockedBloom {
    /// Build a filter with `blocks[i]` 64-byte blocks for slot `i`.
    /// Every slot needs at least one block.
    pub fn with_blocks(blocks: &[usize], seed: u64) -> Result<Self, SketchError> {
        let mut spans = Vec::with_capacity(blocks.len());
        let mut offset = 0usize;
        for &b in blocks {
            if b == 0 {
                return Err(SketchError::InvalidDimension {
                    what: "filter blocks",
                    value: b,
                });
            }
            spans.push(BlockSpan { offset, blocks: b });
            offset += b;
        }
        let rems = spans
            .iter()
            .map(|s| FastRem::new(s.blocks as u64))
            .collect();
        Ok(Self {
            spans,
            words: vec![0; offset * LANES],
            seed,
            rems,
        })
    }

    /// Build a filter for a synopsis of the given per-slot `widths`
    /// within a byte budget: blocks are distributed proportionally to
    /// slot widths with a one-block floor per slot. Returns `None` when
    /// the budget cannot give every slot its floor block — callers then
    /// build without a filter rather than overshooting the budget.
    pub fn for_widths(widths: &[usize], max_bytes: usize, seed: u64) -> Option<Self> {
        let n = widths.len();
        let total_blocks = max_bytes / (LANES * std::mem::size_of::<u64>());
        if n == 0 || total_blocks < n {
            return None;
        }
        let spare = total_blocks - n;
        let total_width: usize = widths.iter().sum();
        let blocks: Vec<usize> = widths
            .iter()
            .map(|&w| {
                let share = if total_width == 0 {
                    spare / n
                } else {
                    // cast: f64 -> usize truncation; w <= total_width, so the
                    // proportional share never exceeds `spare`.
                    (spare as f64 * w as f64 / total_width as f64) as usize
                };
                1 + share
            })
            .collect();
        Self::with_blocks(&blocks, seed).ok()
    }

    /// Record `key` as a member of `slot`.
    #[inline]
    pub fn insert(&mut self, slot: u32, key: u64) {
        let (word, mask) = probe_of(
            self.seed,
            self.rems[slot as usize],
            self.spans[slot as usize],
            key,
        );
        self.words[word] |= mask;
    }

    /// Record a whole slot run of `(key, weight)` pairs (weights are
    /// ignored — membership is unweighted). Adjacent duplicate keys are
    /// inserted once, matching the batch-commit coalescing discipline.
    /// An out-of-range `slot` is a no-op instead of a panic — audited
    /// panic-free from the compiled artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn insert_run(&mut self, slot: u32, run: &[(u64, u64)]) {
        let (Some(&rem), Some(&span)) =
            (self.rems.get(slot as usize), self.spans.get(slot as usize))
        else {
            return;
        };
        insert_run_into(&mut self.words, self.seed, rem, span, run);
    }

    /// Whether `key` may be a member of `slot`. `false` is definitive
    /// (the key was never inserted); `true` may be a false positive.
    #[inline]
    pub fn contains(&self, slot: u32, key: u64) -> bool {
        let (word, mask) = probe_of(
            self.seed,
            self.rems[slot as usize],
            self.spans[slot as usize],
            key,
        );
        self.words[word] & mask == mask
    }

    /// Test a whole slot run of keys in one pass — the membership mirror
    /// of [`CmArena::estimate_batch_slot`](crate::CmArena::estimate_batch_slot):
    /// adjacent duplicate keys are probed once, and the run is walked in
    /// small blocks that first compute and prefetch every target cache
    /// line, then test bits out of now-resident lines. `out` is cleared
    /// and receives one answer per key, in order; answers are identical
    /// to [`contains`](Self::contains) per key. An out-of-range `slot`
    /// has no members, so every answer is `false` — no panic; the kernel
    /// is audited panic-free from the compiled artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn contains_batch(&self, slot: u32, keys: &[u64], out: &mut Vec<bool>) {
        let (Some(&rem), Some(&span)) =
            (self.rems.get(slot as usize), self.spans.get(slot as usize))
        else {
            out.clear();
            out.resize(keys.len(), false);
            return;
        };
        contains_batch_kernel(&self.words, self.seed, rem, span, keys, out);
    }

    /// Test keys that each carry their own slot — the membership mirror
    /// of [`CmArena::estimate_gather`](crate::CmArena::estimate_gather):
    /// `out` is cleared and receives whether `keys[i]` may be a member of
    /// `slots[i]` for every pair, in order (the shorter slice sets the
    /// length). Each block of pairs first computes and prefetches every
    /// target line, then tests bits out of now-resident lines. Answers
    /// are identical to [`contains`](Self::contains) per pair; an
    /// out-of-range slot has no members, so its pair answers `false` —
    /// no panic; the kernel is audited panic-free from the compiled
    /// artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn contains_gather(&self, slots: &[u32], keys: &[u64], out: &mut Vec<bool>) {
        out.clear();
        out.resize(slots.len().min(keys.len()), false);
        // An out-of-range slot probes past the word array with a full
        // mask, which the test below answers `false`.
        let mut probes: [(usize, u64); READ_BLOCK] = [(0, 0); READ_BLOCK];
        for ((answers, slot_block), key_block) in out
            .chunks_mut(READ_BLOCK)
            .zip(slots.chunks(READ_BLOCK))
            .zip(keys.chunks(READ_BLOCK))
        {
            for ((probe, &slot), &key) in probes.iter_mut().zip(slot_block).zip(key_block) {
                *probe = match (self.rems.get(slot as usize), self.spans.get(slot as usize)) {
                    (Some(&rem), Some(&span)) => probe_of(self.seed, rem, span, key),
                    _ => (usize::MAX, u64::MAX),
                };
                if let Some(w) = self.words.get(probe.0) {
                    crate::prefetch(w);
                }
            }
            for (answer, &(word, mask)) in answers.iter_mut().zip(&probes) {
                *answer = self.words.get(word).copied().unwrap_or(0) & mask == mask;
            }
        }
    }

    /// Forget every member, keeping the layout and seed (the windowed
    /// rotation path clears membership when a window seals).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Memory held by the filter's bit array, in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Split the word array into one exclusive view per half-open slot
    /// range `[lo, hi)` of `ranges` — the filter mirror of
    /// [`CmArena::split_slots`](crate::CmArena::split_slots), with the
    /// same in-order clipping, so the same ranges give both structures
    /// the same owners.
    pub fn split_slots(&mut self, ranges: &[(u32, u32)]) -> Vec<BlockedBloomSlice<'_>> {
        let slots = clip_ranges(ranges, self.spans.len());
        let word_len = self.words.len();
        let first_word = |s: usize| self.spans.get(s).map_or(word_len, |sp| sp.offset * LANES);
        let word_ranges: Vec<(usize, usize)> = slots
            .iter()
            .map(|&(lo, hi)| (first_word(lo), first_word(hi)))
            .collect();
        let words = split_ranges(&mut self.words, &word_ranges);
        let (spans, rems, seed) = (&self.spans, &self.rems, self.seed);
        slots
            .iter()
            .zip(&word_ranges)
            .zip(words)
            .map(|((&(lo, hi), &(base, _)), words)| BlockedBloomSlice {
                lo,
                spans: spans.get(lo..hi).unwrap_or_default(),
                rems: rems.get(lo..hi).unwrap_or_default(),
                base_block: base / LANES,
                words,
                seed,
            })
            .collect()
    }
}

// The derived serde impls cannot skip the `FastRem` cache (and should
// not serialize it), so the impls are written out: layout + words +
// seed, with the reducers rebuilt on decode.
impl serde::Serialize for BlockedBloom {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("spans".to_owned(), self.spans.to_value()),
            // The word array is the big field: compact nibble-stream
            // codec, not one `Value` per word (see `slab`).
            (
                "words".to_owned(),
                crate::slab::u64_cells_to_value(&self.words),
            ),
            ("seed".to_owned(), self.seed.to_value()),
        ])
    }
}

impl serde::Deserialize for BlockedBloom {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let spans: Vec<BlockSpan> =
            serde::Deserialize::from_value(serde::value_field(v, "spans")?)?;
        let seed: u64 = serde::Deserialize::from_value(serde::value_field(v, "seed")?)?;
        let overflow = || serde::Error("filter layout overflows usize".to_owned());
        let mut expect = 0usize;
        for s in &spans {
            if s.offset != expect || s.blocks == 0 {
                return Err(serde::Error(format!(
                    "filter span at block {} expected offset {expect} with nonzero blocks",
                    s.offset
                )));
            }
            expect = expect.checked_add(s.blocks).ok_or_else(overflow)?;
        }
        let words_len = expect.checked_mul(LANES).ok_or_else(overflow)?;
        let words = crate::slab::u64_cells_from_value(serde::value_field(v, "words")?, words_len)?;
        let rems = spans
            .iter()
            .map(|s| FastRem::new(s.blocks as u64))
            .collect();
        Ok(Self {
            spans,
            words,
            seed,
            rems,
        })
    }
}

/// Set the membership bits of a slot run in `words`: adjacent duplicate
/// keys are inserted once. `span.offset` is the slot's first block
/// *within `words`*; a word index past the array is skipped, never a
/// panic.
#[inline]
fn insert_run_into(
    words: &mut [u64],
    seed: u64,
    rem: FastRem,
    span: BlockSpan,
    run: &[(u64, u64)],
) {
    let mut i = 0;
    while i < run.len() {
        let key = run[i].0;
        while i < run.len() && run[i].0 == key {
            i += 1;
        }
        let (word, mask) = probe_of(seed, rem, span, key);
        if let Some(w) = words.get_mut(word) {
            *w |= mask;
        }
    }
}

/// The body of [`BlockedBloom::contains_batch`]: coalesce adjacent
/// duplicate keys, then walk the run in small blocks — phase 1 computes
/// and prefetches each key's single target word, phase 2 does the
/// one-load mask compare out of now-resident lines and fills the answer
/// span for every coalesced occurrence.
#[inline]
fn contains_batch_kernel(
    words: &[u64],
    seed: u64,
    rem: FastRem,
    span: BlockSpan,
    keys: &[u64],
    out: &mut Vec<bool>,
) {
    // Each key touches exactly one cache line (vs. `depth` for the
    // counter kernel), so a block overlaps `READ_BLOCK` misses.
    out.clear();
    out.resize(keys.len(), false);
    let answers = &mut out[..];
    let mut targets: [usize; READ_BLOCK] = [0; READ_BLOCK];
    let mut masks: [u64; READ_BLOCK] = [0; READ_BLOCK];
    let mut ends: [usize; READ_BLOCK] = [0; READ_BLOCK];
    let mut i = 0;
    while i < keys.len() {
        // Phase 1: coalesce and probe. Scratch writes index with
        // `filled < READ_BLOCK` straight from the fill-loop guard, so the
        // compiler discharges the bounds statically.
        let mut from = i;
        let mut filled = 0usize;
        while filled < READ_BLOCK && i < keys.len() {
            let key = keys[i];
            while i < keys.len() && keys[i] == key {
                i += 1;
            }
            let (word, mask) = probe_of(seed, rem, span, key);
            if let Some(w) = words.get(word) {
                crate::prefetch(w);
            }
            targets[filled] = word;
            masks[filled] = mask;
            ends[filled] = i;
            filled += 1;
        }
        // Phase 2: one-load mask compares out of now-resident lines,
        // filling each coalesced run's answer span. `from..to` is always
        // in bounds (`to ≤ keys.len()` by construction); the range goes
        // through `get_mut` so the artifact carries no slice-index panic
        // edge either way.
        for ((&word, &mask), &to) in targets
            .iter()
            .zip(masks.iter())
            .zip(ends.iter())
            .take(filled)
        {
            let hit = words.get(word).copied().unwrap_or(0) & mask == mask;
            if let Some(run) = answers.get_mut(from..to) {
                run.fill(hit);
            }
            from = to;
        }
    }
}

/// One owner's share of a [`BlockedBloom`], made by
/// [`BlockedBloom::split_slots`]: the words of a contiguous slot range,
/// borrowed exclusively. Inserts through it set exactly the bits the
/// same inserts into the whole filter would.
#[derive(Debug)]
pub struct BlockedBloomSlice<'a> {
    /// First slot of the range.
    lo: usize,
    /// Spans of the range's slots (offsets are whole-filter offsets).
    spans: &'a [BlockSpan],
    rems: &'a [FastRem],
    /// Whole-filter index of the block at `words[0]`.
    base_block: usize,
    words: &'a mut [u64],
    seed: u64,
}

impl BlockedBloomSlice<'_> {
    /// [`BlockedBloom::insert_run`] for a slot of this slice. A slot
    /// outside the slice is a no-op instead of a panic — audited
    /// panic-free from the compiled artifact (`xtask audit`).
    // audit: kernel(bounds-free)
    pub fn insert_run(&mut self, slot: u32, run: &[(u64, u64)]) {
        let local = (slot as usize).wrapping_sub(self.lo);
        let (Some(&rem), Some(&span)) = (self.rems.get(local), self.spans.get(local)) else {
            return;
        };
        let span = BlockSpan {
            // Never wraps: the slice's spans start at `base_block`.
            offset: span.offset.wrapping_sub(self.base_block),
            blocks: span.blocks,
        };
        insert_run_into(self.words, self.seed, rem, span, run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64, salt: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(6364136223846793005).wrapping_add(salt | 1))
            .collect()
    }

    #[test]
    fn zero_blocks_rejected() {
        assert!(BlockedBloom::with_blocks(&[4, 0], 1).is_err());
        assert!(BlockedBloom::with_blocks(&[], 1).unwrap().num_slots() == 0);
    }

    #[test]
    fn no_false_negatives_across_slots() {
        let mut f = BlockedBloom::with_blocks(&[3, 17, 64], 0xBEEF).unwrap();
        for (s, salt) in [(0u32, 11u64), (1, 22), (2, 33)] {
            for &k in &keys(2_000, salt) {
                f.insert(s, k);
            }
        }
        for (s, salt) in [(0u32, 11u64), (1, 22), (2, 33)] {
            for &k in &keys(2_000, salt) {
                assert!(f.contains(s, k), "false negative: slot {s} key {k}");
            }
        }
    }

    #[test]
    fn slots_are_independent() {
        let mut f = BlockedBloom::with_blocks(&[64, 64], 7).unwrap();
        let ks = keys(100, 5);
        for &k in &ks {
            f.insert(0, k);
        }
        // With 64 blocks (32768 bits) and 100 keys, slot 1 false
        // positives on these exact keys should be absent.
        let leaked = ks.iter().filter(|&&k| f.contains(1, k)).count();
        assert_eq!(leaked, 0, "slot-1 leakage: {leaked}");
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut f = BlockedBloom::with_blocks(&[128], 99).unwrap();
        // 128 blocks = 65536 bits; 2000 keys × 4 bits → ~12% load.
        for &k in &keys(2_000, 1) {
            f.insert(0, k);
        }
        let probes = keys(20_000, 0xDEAD);
        let fp = probes.iter().filter(|&&k| f.contains(0, k)).count();
        // Theoretical fp ≈ (1 − e^{−kn/m})^k ≈ 0.02% blocked-penalty
        // aside; allow two orders of slack.
        assert!(fp < 400, "false positive rate too high: {fp}/20000");
    }

    #[test]
    fn contains_batch_matches_scalar() {
        let mut f = BlockedBloom::with_blocks(&[5, 39], 0x1234).unwrap();
        for &k in &keys(500, 3) {
            f.insert(1, k);
        }
        // Adjacent duplicates, scattered duplicates, absent keys.
        let mut probes = keys(300, 3);
        probes.extend([probes[0], probes[0], 42, 42, 7]);
        probes.extend(keys(300, 77));
        let mut out = Vec::new();
        for slot in 0..2u32 {
            f.contains_batch(slot, &probes, &mut out);
            assert_eq!(out.len(), probes.len());
            for (&k, &hit) in probes.iter().zip(&out) {
                assert_eq!(hit, f.contains(slot, k), "slot {slot} key {k}");
            }
        }
    }

    #[test]
    fn insert_run_matches_scalar_inserts() {
        let mut a = BlockedBloom::with_blocks(&[9], 5).unwrap();
        let mut b = a.clone();
        let run: Vec<(u64, u64)> = keys(400, 9).into_iter().map(|k| (k % 97, 1)).collect();
        for &(k, _) in &run {
            a.insert(0, k);
        }
        b.insert_run(0, &run);
        assert_eq!(a.words, b.words);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut f = BlockedBloom::with_blocks(&[4], 1).unwrap();
        for k in 0..100u64 {
            f.insert(0, k);
        }
        f.clear();
        let alive = (0..100u64).filter(|&k| f.contains(0, k)).count();
        assert_eq!(alive, 0);
    }

    #[test]
    fn for_widths_respects_budget_and_floors() {
        // Too small for one block per slot → None.
        assert!(BlockedBloom::for_widths(&[8, 8, 8], 128, 1).is_none());
        let f = BlockedBloom::for_widths(&[1000, 3000, 8], 64 * 100, 1).unwrap();
        assert_eq!(f.num_slots(), 3);
        assert!(f.byte_size() <= 64 * 100);
        // Proportional: the 3000-width slot gets the biggest span, and
        // the tiny slot still gets its floor block.
        assert!(f.spans[1].blocks > f.spans[0].blocks);
        assert!(f.spans[2].blocks >= 1);
    }

    #[test]
    fn serde_round_trip_preserves_membership() {
        let mut f = BlockedBloom::with_blocks(&[3, 11], 0xFEED).unwrap();
        for &k in &keys(200, 31) {
            f.insert(1, k);
        }
        let v = serde::Serialize::to_value(&f);
        let back: BlockedBloom = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.words, f.words);
        for &k in &keys(200, 31) {
            assert!(back.contains(1, k));
        }
        // Tampered spans are a decode error, not a later panic.
        let mut bad = v.clone();
        if let serde::Value::Map(entries) = &mut bad {
            for (key, val) in entries.iter_mut() {
                if key == "spans" {
                    *val = serde::Value::Seq(vec![]);
                }
            }
        }
        assert!(<BlockedBloom as serde::Deserialize>::from_value(&bad).is_err());
    }

    /// Span sizes whose word count overflows `usize` are a typed decode
    /// error: wrapping to a zero-word filter would answer "absent" for
    /// present keys, and indexing it would panic.
    #[test]
    fn hostile_span_sizes_rejected() {
        use serde::Value;
        let filter = |blocks: &[u64]| {
            let mut offset = 0u64;
            let spans = blocks
                .iter()
                .map(|&b| {
                    let span = Value::Map(vec![
                        ("offset".to_owned(), Value::U64(offset)),
                        ("blocks".to_owned(), Value::U64(b)),
                    ]);
                    offset = offset.wrapping_add(b);
                    span
                })
                .collect();
            Value::Map(vec![
                ("spans".to_owned(), Value::Seq(spans)),
                ("words".to_owned(), Value::Str(String::new())),
                ("seed".to_owned(), Value::U64(1)),
            ])
        };
        for blocks in [&[1u64 << 61][..], &[u64::MAX, 2]] {
            let e = <BlockedBloom as serde::Deserialize>::from_value(&filter(blocks))
                .expect_err("overflowing layout accepted");
            assert!(e.0.contains("overflows"), "{blocks:?}: {}", e.0);
        }
    }
}
