//! Property-based tests of the synopsis substrate's invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use sketch::{
    CountMinSketch, CountSketch, EcmSketch, ExpHist, SpaceSaving, UpdatePolicy, WeightedExpHist,
};
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

    /// Merging two CountMin sketches equals sketching the concatenation.
    #[test]
    fn countmin_merge_is_concatenation(
        a in vec((0u64..200, 1u16..20), 0..150),
        b in vec((0u64..200, 1u16..20), 0..150),
        seed in any::<u64>(),
    ) {
        let mut s1 = CountMinSketch::new(64, 3, seed).unwrap();
        let mut s2 = CountMinSketch::new(64, 3, seed).unwrap();
        let mut s12 = CountMinSketch::new(64, 3, seed).unwrap();
        for &(k, w) in &a {
            s1.update(k, w as u64);
            s12.update(k, w as u64);
        }
        for &(k, w) in &b {
            s2.update(k, w as u64);
            s12.update(k, w as u64);
        }
        s1.merge(&s2).unwrap();
        for k in 0..200u64 {
            prop_assert_eq!(s1.estimate(k), s12.estimate(k));
        }
    }

    /// Conservative update is still one-sided and never above classic.
    #[test]
    fn conservative_sandwich(
        updates in vec((0u64..100, 1u16..5), 1..200),
        seed in any::<u64>(),
    ) {
        let mut classic = CountMinSketch::new(32, 3, seed).unwrap();
        let mut cons = CountMinSketch::new(32, 3, seed)
            .unwrap()
            .with_policy(UpdatePolicy::Conservative);
        for &(k, w) in &updates {
            classic.update(k, w as u64);
            cons.update(k, w as u64);
        }
        for (&k, &f) in &truth_of(&updates) {
            let c = cons.estimate(k);
            prop_assert!(c >= f, "conservative underestimated");
            prop_assert!(c <= classic.estimate(k), "conservative above classic");
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

    /// Count sketch merge equals sketching the concatenation.
    #[test]
    fn countsketch_merge_is_concatenation(
        a in vec((0u64..200, 1u16..20), 0..100),
        b in vec((0u64..200, 1u16..20), 0..100),
        seed in any::<u64>(),
    ) {
        let mut s1 = CountSketch::new(64, 3, seed).unwrap();
        let mut s2 = CountSketch::new(64, 3, seed).unwrap();
        let mut s12 = CountSketch::new(64, 3, seed).unwrap();
        for &(k, w) in &a {
            s1.update(k, w as u64);
            s12.update(k, w as u64);
        }
        for &(k, w) in &b {
            s2.update(k, w as u64);
            s12.update(k, w as u64);
        }
        s1.merge(&s2).unwrap();
        for k in 0..200u64 {
            prop_assert_eq!(s1.estimate(k), s12.estimate(k));
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

    /// Exponential histogram: estimates stay within ε of the true window
    /// count for arbitrary monotone arrival patterns.
    #[test]
    fn exphist_window_error_bounded(
        gaps in vec(0u64..5, 10..2000),
        eps_hundredths in 10u32..100,
    ) {
        let eps = eps_hundredths as f64 / 100.0;
        let mut eh = ExpHist::new(eps).unwrap();
        let mut times = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for &g in &gaps {
            t += g;
            eh.add(t);
            times.push(t);
        }
        let horizon = t;
        for &start in &[0u64, horizon / 3, horizon / 2, horizon] {
            let truth = times.iter().filter(|&&x| x >= start).count() as u64;
            if truth == 0 { continue; }
            let est = eh.estimate_readonly(start);
            let rel = (est as f64 - truth as f64).abs() / truth as f64;
            prop_assert!(rel <= eps + 1e-9, "rel err {} > {} (truth {})", rel, eps, truth);
        }
    }

    /// Weighted EH inherits the ε bound for weighted arrivals.
    #[test]
    fn weighted_exphist_error_bounded(
        arrivals in vec((0u64..3, 1u64..100), 10..500),
        eps_hundredths in 10u32..100,
    ) {
        let eps = eps_hundredths as f64 / 100.0;
        let mut wh = WeightedExpHist::new(eps).unwrap();
        let mut log: Vec<(u64, u64)> = Vec::with_capacity(arrivals.len());
        let mut t = 0u64;
        for &(gap, w) in &arrivals {
            t += gap;
            wh.add(t, w);
            log.push((t, w));
        }
        for &start in &[0u64, t / 2, t] {
            let truth: u64 = log.iter().filter(|&&(x, _)| x >= start).map(|&(_, w)| w).sum();
            if truth == 0 { continue; }
            let est = wh.estimate_readonly(start);
            let rel = (est as f64 - truth as f64).abs() / truth as f64;
            prop_assert!(rel <= eps + 1e-9, "rel err {} > {} (truth {})", rel, eps, truth);
        }
    }

    /// ECM sketch: the lifetime estimate is sandwiched between the EH
    /// lower relaxation and the CountMin upper bound.
    #[test]
    fn ecm_lifetime_sandwich(
        updates in vec((0u64..50, 1u64..5), 1..300),
        seed in any::<u64>(),
    ) {
        let mut ecm = EcmSketch::new(256, 3, 0.1, seed).unwrap();
        let mut cm = CountMinSketch::new(256, 3, seed).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (t, &(k, w)) in updates.iter().enumerate() {
            ecm.update(k, t as u64, w);
            cm.update(k, w);
            *truth.entry(k).or_insert(0) += w;
        }
        for (&k, &f) in &truth {
            let est = ecm.estimate_lifetime(k);
            // Lower: EH may shave at most eps of the cell count.
            prop_assert!(est as f64 >= f as f64 * 0.9 - 1.0,
                "lifetime estimate {} too far below truth {}", est, f);
            // Upper: the same cells as CountMin, relaxed upward by eps.
            prop_assert!(est as f64 <= cm.estimate(k) as f64 * 1.1 + 1.0,
                "lifetime estimate {} above CountMin bound {}", est, cm.estimate(k));
        }
    }

    /// Exponential histogram vs an exact sliding counter: the estimate is
    /// within the (1+ε) multiplicative guarantee of the true window count
    /// at *every* cut point of the arrival sequence, not just a few
    /// sampled horizons — the tiering substrate's core contract.
    #[test]
    fn exphist_one_plus_eps_vs_exact_counter(
        gaps in vec(0u64..4, 20..800),
        eps_hundredths in 10u32..100,
    ) {
        let eps = eps_hundredths as f64 / 100.0;
        let mut eh = ExpHist::new(eps).unwrap();
        // The exact sliding counter: every arrival time, in order.
        let mut exact: Vec<u64> = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for &g in &gaps {
            t += g;
            eh.add(t);
            exact.push(t);
        }
        for &start in exact.iter().chain([t + 1].iter()) {
            let truth = exact.iter().filter(|&&x| x >= start).count() as u64;
            let est = eh.estimate_readonly(start);
            prop_assert!(est as f64 <= (1.0 + eps) * truth as f64 + 1e-9,
                "window [{start}..): est {est} above (1+ε)·{truth}");
            prop_assert!(est as f64 >= (1.0 - eps) * truth as f64 - 1e-9,
                "window [{start}..): est {est} below (1-ε)·{truth}");
        }
    }

    /// Expiry monotonicity: shrinking the window never grows the answer,
    /// and expiring buckets older than a cutoff never changes any answer
    /// for windows inside the retained horizon.
    #[test]
    fn exphist_expiry_monotone(
        gaps in vec(0u64..6, 10..500),
        eps_hundredths in 10u32..100,
        cut_permille in 0u32..1000,
    ) {
        let eps = eps_hundredths as f64 / 100.0;
        let mut eh = ExpHist::new(eps).unwrap();
        let mut t = 0u64;
        for &g in &gaps {
            t += g;
            eh.add(t);
        }
        // Monotone in the window start.
        let mut starts: Vec<u64> = (0..=t.min(200)).collect();
        starts.extend([t / 2, t, t + 1]);
        starts.sort_unstable();
        let mut prev = u64::MAX;
        for &start in &starts {
            let est = eh.estimate_readonly(start);
            prop_assert!(est <= prev,
                "estimate grew as the window shrank at start {start}");
            prev = est;
        }
        // Expiry below a cutoff preserves every answer at or above it,
        // and strictly never grows the retained total.
        let cutoff = t * cut_permille as u64 / 1000;
        let before_total = eh.total();
        let answers: Vec<u64> = (cutoff..=cutoff.saturating_add(20).min(t + 1))
            .map(|s| eh.estimate_readonly(s))
            .collect();
        let removed = eh.expire(cutoff);
        prop_assert_eq!(eh.total(), before_total - removed);
        for (i, s) in (cutoff..=cutoff.saturating_add(20).min(t + 1)).enumerate() {
            prop_assert_eq!(eh.estimate_readonly(s), answers[i],
                "expire({cutoff}) changed the answer for window [{s}..)");
        }
    }

    /// Weighted EH vs an exact sliding counter: the (1+ε) guarantee on
    /// weighted window sums, plus expiry monotonicity of the estimate.
    #[test]
    fn weighted_exphist_one_plus_eps_and_monotone(
        arrivals in vec((0u64..3, 1u64..200), 10..300),
        eps_hundredths in 10u32..100,
    ) {
        let eps = eps_hundredths as f64 / 100.0;
        let mut wh = WeightedExpHist::new(eps).unwrap();
        let mut exact: Vec<(u64, u64)> = Vec::with_capacity(arrivals.len());
        let mut t = 0u64;
        for &(gap, w) in &arrivals {
            t += gap;
            wh.add(t, w);
            exact.push((t, w));
        }
        let mut prev = u64::MAX;
        for &(start, _) in exact.iter().chain([(t + 1, 0)].iter()) {
            let truth: u64 = exact.iter().filter(|&&(x, _)| x >= start).map(|&(_, w)| w).sum();
            let est = wh.estimate_readonly(start);
            prop_assert!(est as f64 <= (1.0 + eps) * truth as f64 + 1e-9,
                "window [{start}..): est {est} above (1+ε)·{truth}");
            prop_assert!(est as f64 >= (1.0 - eps) * truth as f64 - 1e-9,
                "window [{start}..): est {est} below (1-ε)·{truth}");
            prop_assert!(est <= prev, "weighted estimate grew as the window shrank");
            prev = est;
        }
    }
}
