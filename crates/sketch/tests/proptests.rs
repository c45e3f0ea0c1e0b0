//! Property-based tests of the synopsis substrate's invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use sketch::{CmArena, CountMinSketch, CountSketch, SpaceSaving};
use std::collections::HashMap;

fn truth_of(updates: &[(u64, u16)]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &(k, w) in updates {
        *m.entry(k).or_insert(0u64) += w as u64;
    }
    m
}

proptest! {
    /// CountMin point estimates are one-sided: never below the truth.
    #[test]
    fn countmin_one_sided(
        updates in vec((0u64..500, 1u16..50), 1..300),
        width in 8usize..256,
        depth in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut cm = CountMinSketch::new(width, depth, seed).unwrap();
        for &(k, w) in &updates {
            cm.update(k, w as u64);
        }
        for (&k, &f) in &truth_of(&updates) {
            prop_assert!(cm.estimate(k) >= f);
        }
    }

    /// CountMin error bound: the total weight is conserved and the
    /// estimate of any key is bounded by the full stream weight.
    #[test]
    fn countmin_estimates_bounded_by_total(
        updates in vec((0u64..100, 1u16..10), 1..200),
        seed in any::<u64>(),
    ) {
        let mut cm = CountMinSketch::new(64, 3, seed).unwrap();
        for &(k, w) in &updates {
            cm.update(k, w as u64);
        }
        let total: u64 = updates.iter().map(|&(_, w)| w as u64).sum();
        prop_assert_eq!(cm.total(), total);
        for k in 0..100u64 {
            prop_assert!(cm.estimate(k) <= total);
        }
    }

    /// Merging two CountMin arenas of one build (the windowed tiers'
    /// fold) equals sketching the concatenation, slot by slot.
    #[test]
    fn countmin_merge_is_concatenation(
        a in vec((0u64..200, 1u16..20), 0..150),
        b in vec((0u64..200, 1u16..20), 0..150),
        seed in any::<u64>(),
    ) {
        let widths = [64usize, 32];
        let mut s1 = CmArena::with_slots(&widths, 3, seed).unwrap();
        let mut s2 = CmArena::with_slots(&widths, 3, seed).unwrap();
        let mut s12 = CmArena::with_slots(&widths, 3, seed).unwrap();
        for &(k, w) in &a {
            s1.update_slot((k % 2) as u32, k, w as u64);
            s12.update_slot((k % 2) as u32, k, w as u64);
        }
        for &(k, w) in &b {
            s2.update_slot((k % 2) as u32, k, w as u64);
            s12.update_slot((k % 2) as u32, k, w as u64);
        }
        s1.merge_assign(s2).unwrap();
        for slot in 0..2u32 {
            prop_assert_eq!(s1.slot_total(slot), s12.slot_total(slot));
            for k in 0..200u64 {
                prop_assert_eq!(s1.estimate_slot(slot, k), s12.estimate_slot(slot, k));
            }
        }
    }

    /// The arena's conservative update is still one-sided and never
    /// above its classic update.
    #[test]
    fn conservative_sandwich(
        updates in vec((0u64..100, 1u16..5), 1..200),
        seed in any::<u64>(),
    ) {
        let mut classic = CmArena::new(32, 3, seed).unwrap();
        let mut cons = CmArena::new(32, 3, seed).unwrap();
        for &(k, w) in &updates {
            classic.update_slot(0, k, w as u64);
            cons.update_slot_conservative(0, k, w as u64);
        }
        prop_assert_eq!(cons.slot_total(0), classic.slot_total(0));
        for (&k, &f) in &truth_of(&updates) {
            let c = cons.estimate_slot(0, k);
            prop_assert!(c >= f, "conservative underestimated");
            prop_assert!(c <= classic.estimate_slot(0, k), "conservative above classic");
        }
    }

    /// Count sketch: the turnstile model is exactly linear — inserting
    /// then deleting the same multiset returns every estimate to zero.
    #[test]
    fn countsketch_turnstile_cancels(
        updates in vec((0u64..300, 1i64..50), 1..200),
        seed in any::<u64>(),
    ) {
        let mut cs = CountSketch::new(128, 5, seed).unwrap();
        for &(k, w) in &updates {
            cs.update_signed(k, w);
        }
        for &(k, w) in &updates {
            cs.update_signed(k, -w);
        }
        for &(k, _) in &updates {
            prop_assert_eq!(cs.estimate(k), 0);
        }
    }

    /// Space-Saving: counts always upper-bound the truth, lower bounds
    /// never exceed it, and the over-count is at most N/k.
    #[test]
    fn spacesaving_sandwich(
        updates in vec((0u64..100, 1u16..10), 1..500),
        k in 4usize..64,
    ) {
        let mut ss = SpaceSaving::new(k).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(key, w) in &updates {
            ss.update(key, w as u64);
            *truth.entry(key).or_insert(0) += w as u64;
        }
        prop_assert_eq!(ss.seen(), truth.values().sum::<u64>());
        for c in ss.top(k) {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= f, "count {} < truth {}", c.count, f);
            prop_assert!(c.lower_bound() <= f, "lower bound above truth");
        }
    }

    /// Space-Saving: any key with frequency above N/k is monitored.
    #[test]
    fn spacesaving_no_false_negatives(
        updates in vec(0u64..40, 50..500),
        k in 8usize..32,
    ) {
        let mut ss = SpaceSaving::new(k).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &key in &updates {
            ss.update(key, 1);
            *truth.entry(key).or_insert(0) += 1;
        }
        let n = ss.seen();
        for (&key, &f) in &truth {
            if f > n / k as u64 {
                prop_assert!(ss.estimate(key) >= f, "heavy key {key} lost");
            }
        }
    }
}
