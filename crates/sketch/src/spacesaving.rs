//! The Space-Saving summary (Metwally, Agrawal & El Abbadi, ICDT 2005).
//!
//! Space-Saving maintains exactly `k` monitored `(key, count, error)`
//! triples. A monitored arrival increments its counter; an unmonitored
//! arrival *evicts* the triple with the minimum count `m`, installing the
//! new key with `count = m + weight` and `error = m`. The guarantees are:
//!
//! * `count − error  ≤  f(key)  ≤  count` for every monitored key,
//! * any key with `f(key) > N/k` is guaranteed to be monitored,
//! * the over-count `error` is at most `N/k`.
//!
//! The gSketch paper cites frequent-item summaries (Cormode &
//! Hadjieleftheriou, PVLDB 2008 — ref. \[13\]) as interchangeable synopses;
//! here Space-Saving additionally powers heavy-*vertex* detection in the
//! structural-query crate and the sample-free adaptive partitioner, both
//! of which need the "guaranteed heavy hitter" property rather than point
//! estimates.

use crate::error::SketchError;
use std::collections::HashMap;

/// One monitored triple in the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The monitored key.
    pub key: u64,
    /// Upper bound on the key's true frequency.
    pub count: u64,
    /// Maximum possible over-count (the evicted minimum at install time).
    pub error: u64,
}

impl Counter {
    /// Guaranteed lower bound on the key's true frequency.
    #[inline]
    pub fn lower_bound(&self) -> u64 {
        self.count - self.error
    }
}

/// A Space-Saving summary with capacity `k`.
///
/// Uses a `HashMap` index over a slab of counters plus a lazily maintained
/// minimum; the stream update is `O(1)` amortized.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    /// Monitored triples, unordered.
    slab: Vec<Counter>,
    /// key → index into `slab`.
    index: HashMap<u64, usize>,
    /// Total weight observed (`N`).
    seen: u64,
}

impl SpaceSaving {
    /// Create a summary monitoring at most `k` keys.
    pub fn new(k: usize) -> Result<Self, SketchError> {
        if k == 0 {
            return Err(SketchError::InvalidDimension {
                what: "k",
                value: k,
            });
        }
        Ok(Self {
            capacity: k,
            slab: Vec::with_capacity(k),
            index: HashMap::with_capacity(k),
            seen: 0,
        })
    }

    /// Create a summary sized so the over-count is at most `ε·N`:
    /// `k = ⌈1/ε⌉`.
    pub fn with_epsilon(epsilon: f64) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SketchError::InvalidAccuracy {
                what: "epsilon",
                value: epsilon,
            });
        }
        // cast: f64 -> usize truncation of a ceil()ed positive capacity;
        // epsilon was validated in (0, 1] above.
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Maximum number of monitored keys.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently monitored keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when no keys are monitored yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Total weight observed so far (`N`).
    #[inline]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    fn min_slot(&self) -> usize {
        // The slab is at most `capacity` long; a linear scan keeps the
        // structure simple and cache-friendly. For the k values used here
        // (≤ a few thousand) this is faster than a heap with decrease-key.
        self.slab
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.count)
            .map(|(i, _)| i)
            // lint: allow(no-panics) — callers only ask for the minimum slot
            // once the slab is full (the branch above inserts while it is not).
            .expect("min_slot called on non-empty slab")
    }

    /// Record `weight` occurrences of `key`.
    pub fn update(&mut self, key: u64, weight: u64) {
        self.seen = self.seen.saturating_add(weight);
        if let Some(&slot) = self.index.get(&key) {
            self.slab[slot].count = self.slab[slot].count.saturating_add(weight);
            return;
        }
        if self.slab.len() < self.capacity {
            self.index.insert(key, self.slab.len());
            self.slab.push(Counter {
                key,
                count: weight,
                error: 0,
            });
            return;
        }
        // Evict the minimum.
        let slot = self.min_slot();
        let evicted = self.slab[slot];
        self.index.remove(&evicted.key);
        self.index.insert(key, slot);
        self.slab[slot] = Counter {
            key,
            count: evicted.count.saturating_add(weight),
            error: evicted.count,
        };
    }

    /// Upper bound on the frequency of `key` (0 when unmonitored — note
    /// an unmonitored key may still have true frequency up to the current
    /// minimum count).
    pub fn estimate(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&s| self.slab[s].count)
    }

    /// Batched form of [`estimate`](Self::estimate): `out` is cleared and
    /// receives one upper bound per entry of `keys`, in order, so batched
    /// consumers (the structural query layer) drive every sketch through
    /// one batched surface.
    pub fn estimate_batch(&self, keys: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.estimate(k)));
    }

    /// Guaranteed lower bound on the frequency of `key`.
    pub fn lower_bound(&self, key: u64) -> u64 {
        self.index
            .get(&key)
            .map_or(0, |&s| self.slab[s].lower_bound())
    }

    /// The current minimum monitored count — an upper bound on the true
    /// frequency of *any* unmonitored key.
    pub fn min_count(&self) -> u64 {
        if self.slab.len() < self.capacity {
            0
        } else {
            self.slab.iter().map(|c| c.count).min().unwrap_or(0)
        }
    }

    /// All keys whose *guaranteed* frequency (`count − error`) is at least
    /// `threshold`, in descending count order.
    pub fn guaranteed_heavy(&self, threshold: u64) -> Vec<Counter> {
        let mut out: Vec<Counter> = self
            .slab
            .iter()
            .copied()
            .filter(|c| c.lower_bound() >= threshold)
            .collect();
        out.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// All keys that *may* exceed `phi·N` (no false negatives): every key
    /// with `count ≥ phi·N`. Callers separate guaranteed ones via
    /// [`Counter::lower_bound`].
    pub fn heavy_hitters(&self, phi: f64) -> Vec<Counter> {
        let threshold = (phi * self.seen as f64).ceil() as u64;
        let mut out: Vec<Counter> = self
            .slab
            .iter()
            .copied()
            .filter(|c| c.count >= threshold.max(1))
            .collect();
        out.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// The `n` monitored keys with the largest counts, descending.
    pub fn top(&self, n: usize) -> Vec<Counter> {
        let mut all: Vec<Counter> = self.slab.to_vec();
        all.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(n);
        all
    }

    /// Forget everything, keeping the capacity.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.index.clear();
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(SpaceSaving::new(0).is_err());
    }

    #[test]
    fn epsilon_constructor() {
        assert!(SpaceSaving::with_epsilon(0.0).is_err());
        assert!(SpaceSaving::with_epsilon(1.0).is_err());
        assert_eq!(SpaceSaving::with_epsilon(0.01).unwrap().capacity(), 100);
    }

    #[test]
    fn exact_below_capacity() {
        let mut ss = SpaceSaving::new(10).unwrap();
        for k in 0..5u64 {
            ss.update(k, k + 1);
        }
        for k in 0..5u64 {
            assert_eq!(ss.estimate(k), k + 1);
            assert_eq!(ss.lower_bound(k), k + 1);
        }
        assert_eq!(ss.min_count(), 0, "not at capacity: any key may be new");
    }

    #[test]
    fn estimate_upper_bounds_truth() {
        let mut ss = SpaceSaving::new(8).unwrap();
        let mut truth = HashMap::new();
        // Zipf-ish: key k appears 1000/(k+1) times.
        for k in 0..100u64 {
            let f = 1000 / (k + 1);
            for _ in 0..f {
                ss.update(k, 1);
            }
            truth.insert(k, f);
        }
        for (&k, &f) in &truth {
            let est = ss.estimate(k);
            if est > 0 {
                // Monitored keys: count upper-bounds, count − error lower-bounds.
                assert!(est >= f, "monitored estimate {est} below truth {f}");
                assert!(ss.lower_bound(k) <= f, "lower bound must not exceed truth");
            }
        }
    }

    #[test]
    fn guaranteed_heavy_hitters_are_monitored() {
        // Any key with f > N/k must be monitored: give one key 30% of the
        // stream and check it survives heavy churn.
        let mut ss = SpaceSaving::new(10).unwrap();
        for i in 0..10_000u64 {
            if i % 10 < 3 {
                ss.update(42, 1);
            } else {
                ss.update(1000 + i, 1); // all distinct: maximal churn
            }
        }
        let n = ss.seen();
        assert!(ss.estimate(42) >= 3 * n / 10, "heavy key lost");
        let heavy = ss.heavy_hitters(0.25);
        assert!(heavy.iter().any(|c| c.key == 42));
    }

    #[test]
    fn error_bounded_by_n_over_k() {
        let mut ss = SpaceSaving::new(50).unwrap();
        for i in 0..20_000u64 {
            ss.update(i % 500, 1);
        }
        let bound = ss.seen() / 50;
        for c in ss.top(50) {
            assert!(c.error <= bound, "error {} exceeds N/k = {bound}", c.error);
        }
    }

    #[test]
    fn weighted_updates() {
        let mut ss = SpaceSaving::new(4).unwrap();
        ss.update(1, 100);
        ss.update(2, 50);
        assert_eq!(ss.estimate(1), 100);
        assert_eq!(ss.seen(), 150);
    }

    #[test]
    fn eviction_sets_error_to_old_min() {
        let mut ss = SpaceSaving::new(2).unwrap();
        ss.update(1, 10);
        ss.update(2, 20);
        ss.update(3, 1); // evicts key 1 (count 10)
        assert_eq!(ss.estimate(3), 11);
        assert_eq!(ss.lower_bound(3), 1);
        assert_eq!(ss.estimate(1), 0, "evicted key unmonitored");
    }

    #[test]
    fn top_is_sorted_descending() {
        let mut ss = SpaceSaving::new(10).unwrap();
        for k in 0..10u64 {
            ss.update(k, (k + 1) * 10);
        }
        let top = ss.top(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].key, 9);
        assert!(top[0].count >= top[1].count && top[1].count >= top[2].count);
    }

    #[test]
    fn clear_resets() {
        let mut ss = SpaceSaving::new(4).unwrap();
        ss.update(1, 5);
        ss.clear();
        assert!(ss.is_empty());
        assert_eq!(ss.seen(), 0);
        assert_eq!(ss.estimate(1), 0);
    }

    #[test]
    fn guaranteed_heavy_filters_by_lower_bound() {
        let mut ss = SpaceSaving::new(2).unwrap();
        ss.update(1, 100);
        ss.update(2, 5);
        ss.update(3, 1); // error = 5
        let sure = ss.guaranteed_heavy(50);
        assert_eq!(sure.len(), 1);
        assert_eq!(sure[0].key, 1);
    }
}
