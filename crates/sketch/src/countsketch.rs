//! The Count sketch (Charikar, Chen & Farach-Colton, ICALP 2002).
//!
//! Like CountMin, a Count sketch is a `d × w` array of counters, but each
//! row additionally carries a 4-wise independent *sign* hash `s_i(x) ∈
//! {−1, +1}`. An arrival of item `x` with weight `c` adds `s_i(x)·c` to
//! cell `(i, h_i(x))`; a point query returns the **median** over rows of
//! `s_i(x)·cell(i, h_i(x))`.
//!
//! The estimate is *unbiased* (collisions cancel in expectation) and its
//! error is bounded by the stream's L2 norm rather than its L1 norm:
//!
//! ```text
//! |f̃ − f|  ≤  ε·‖f‖₂      w.p. ≥ 1 − δ  when  w = O(1/ε²), d = O(log 1/δ)
//! ```
//!
//! For skewed graph streams this is often much tighter than CountMin's
//! `ε·N` bound, at the price of two-sided error (gSketch's analysis, which
//! relies on one-sided overestimation, does not directly transfer). The
//! reproduction keeps CountMin as the partitioned synopsis and exposes the
//! Count sketch for the ablation benchmarks and as substrate for the
//! structural-query crate.

use crate::error::SketchError;
use crate::hash::{FourwiseHash, PairwiseHash};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Count sketch over `u64` keys with signed 64-bit counters.
#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` signed counter matrix.
    cells: Vec<i64>,
    buckets: Vec<PairwiseHash>,
    signs: Vec<FourwiseHash>,
    /// Total absolute weight inserted so far (saturating).
    total: u64,
}

impl CountSketch {
    /// Create a sketch with explicit dimensions, seeding both hash
    /// families deterministically from `seed`.
    pub fn new(width: usize, depth: usize, seed: u64) -> Result<Self, SketchError> {
        if width == 0 {
            return Err(SketchError::InvalidDimension {
                what: "width",
                value: width,
            });
        }
        if depth == 0 {
            return Err(SketchError::InvalidDimension {
                what: "depth",
                value: depth,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let buckets = (0..depth).map(|_| PairwiseHash::random(&mut rng)).collect();
        let signs = (0..depth).map(|_| FourwiseHash::random(&mut rng)).collect();
        Ok(Self {
            width,
            depth,
            cells: vec![0; width * depth],
            buckets,
            signs,
            total: 0,
        })
    }

    /// Create a sketch from accuracy targets: `w = ⌈3/ε²⌉`, `d = ⌈ln 1/δ⌉`
    /// (the classical constants; the `3` keeps the per-row failure
    /// probability below 1/3 so the median works).
    pub fn with_accuracy(epsilon: f64, delta: f64, seed: u64) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(SketchError::InvalidAccuracy {
                what: "epsilon",
                value: epsilon,
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SketchError::InvalidAccuracy {
                what: "delta",
                value: delta,
            });
        }
        // cast: f64 -> usize truncation of ceil()ed positive dimensions;
        // epsilon/delta were validated above, so both are finite.
        let width = (3.0 / (epsilon * epsilon)).ceil() as usize;
        let depth = ((1.0 / delta).ln().ceil() as usize).max(1);
        Self::new(width, depth, seed)
    }

    /// Sketch width `w` (cells per row).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth `d` (number of rows).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total absolute weight inserted so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory consumed by the counter matrix, in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<i64>()
    }

    #[inline]
    fn cell_index(&self, row: usize, key: u64) -> usize {
        row * self.width + self.buckets[row].bucket(key, self.width)
    }

    /// Insert `weight` occurrences of `key`.
    pub fn update(&mut self, key: u64, weight: u64) {
        self.update_signed(key, i64::try_from(weight).unwrap_or(i64::MAX));
    }

    /// Insert a signed update (the Count sketch supports the full turnstile
    /// model: deletions are negative weights).
    pub fn update_signed(&mut self, key: u64, weight: i64) {
        for row in 0..self.depth {
            let idx = self.cell_index(row, key);
            let signed = self.signs[row].sign(key).saturating_mul(weight);
            self.cells[idx] = self.cells[idx].saturating_add(signed);
        }
        self.total = self.total.saturating_add(weight.unsigned_abs());
    }

    /// Point query: the median over rows of `sign · cell`.
    pub fn estimate(&self, key: u64) -> i64 {
        let mut row_estimates: Vec<i64> = (0..self.depth)
            .map(|row| {
                self.signs[row]
                    .sign(key)
                    .saturating_mul(self.cells[self.cell_index(row, key)])
            })
            .collect();
        row_estimates.sort_unstable();
        let n = row_estimates.len();
        if n % 2 == 1 {
            row_estimates[n / 2]
        } else {
            // Even depth: average the two middle values, rounding toward
            // zero, so the estimate stays unbiased in expectation.
            let lo = row_estimates[n / 2 - 1];
            let hi = row_estimates[n / 2];
            lo.saturating_add(hi) / 2
        }
    }

    /// Point query clamped at zero — convenient when callers know the true
    /// frequencies are non-negative (the cash-register model).
    pub fn estimate_non_negative(&self, key: u64) -> u64 {
        self.estimate(key).max(0) as u64
    }

    /// Estimate the second frequency moment `F₂ = Σ_x f(x)²` as the median
    /// over rows of the row's sum of squared counters. Each row is an
    /// AMS-style unbiased estimator of `F₂`.
    pub fn estimate_f2(&self) -> f64 {
        let mut row_f2: Vec<f64> = (0..self.depth)
            .map(|row| {
                self.cells[row * self.width..(row + 1) * self.width]
                    .iter()
                    .map(|&c| (c as f64) * (c as f64))
                    .sum()
            })
            .collect();
        // lint: allow(no-panics) — sums of squares of i64 counters in f64
        // are finite and non-negative; the comparator is total.
        row_f2.sort_unstable_by(|a, b| a.partial_cmp(b).expect("squares are finite"));
        let n = row_f2.len();
        if n % 2 == 1 {
            row_f2[n / 2]
        } else {
            (row_f2[n / 2 - 1] + row_f2[n / 2]) / 2.0
        }
    }

    /// Inner-product estimate of two streams sketched with the *same*
    /// seed: the median over rows of the row dot products. Unbiased; used
    /// by the structural crate to estimate join sizes such as 2-path
    /// counts `Σ_y f_out(x,y)·f_in(y,z)`.
    pub fn inner_product(&self, other: &Self) -> Result<f64, SketchError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(SketchError::IncompatibleMerge {
                reason: format!(
                    "shape {}x{} vs {}x{}",
                    self.depth, self.width, other.depth, other.width
                ),
            });
        }
        if self.buckets != other.buckets {
            return Err(SketchError::IncompatibleMerge {
                reason: "hash families differ (different seeds)".into(),
            });
        }
        let mut dots: Vec<f64> = (0..self.depth)
            .map(|row| {
                let a = &self.cells[row * self.width..(row + 1) * self.width];
                let b = &other.cells[row * self.width..(row + 1) * self.width];
                a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
            })
            .collect();
        // lint: allow(no-panics) — dot products of i64 counters in f64 are
        // finite; the comparator is total.
        dots.sort_unstable_by(|a, b| a.partial_cmp(b).expect("dot products are finite"));
        let n = dots.len();
        Ok(if n % 2 == 1 {
            dots[n / 2]
        } else {
            (dots[n / 2 - 1] + dots[n / 2]) / 2.0
        })
    }

    /// Reset every counter to zero, keeping the hash families.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(width: usize, depth: usize) -> CountSketch {
        CountSketch::new(width, depth, 0xC0FFEE).unwrap()
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CountSketch::new(0, 3, 1).is_err());
        assert!(CountSketch::new(16, 0, 1).is_err());
    }

    #[test]
    fn accuracy_constructor_validates() {
        assert!(CountSketch::with_accuracy(0.0, 0.1, 1).is_err());
        assert!(CountSketch::with_accuracy(0.1, 1.0, 1).is_err());
        let s = CountSketch::with_accuracy(0.1, 0.05, 1).unwrap();
        assert_eq!(s.width(), 300); // ceil(3 / 0.01)
        assert_eq!(s.depth(), 3); // ceil(ln 20)
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut s = sketch(4096, 5);
        s.update(42, 10);
        assert_eq!(s.estimate(42), 10);
        assert_eq!(s.estimate_non_negative(42), 10);
    }

    #[test]
    fn unseen_key_estimates_near_zero() {
        let mut s = sketch(2048, 5);
        for k in 0..100u64 {
            s.update(k, 1);
        }
        let unseen = s.estimate(999_999);
        assert!(unseen.abs() <= 2, "unseen estimate too large: {unseen}");
    }

    #[test]
    fn turnstile_deletions_cancel() {
        let mut s = sketch(256, 5);
        s.update_signed(7, 100);
        s.update_signed(7, -60);
        assert_eq!(s.estimate(7), 40);
        s.update_signed(7, -40);
        assert_eq!(s.estimate(7), 0);
    }

    #[test]
    fn median_is_robust_to_one_bad_row() {
        // With depth 5, even if one row collides badly, the median holds.
        let mut s = sketch(32, 5);
        for k in 0..200u64 {
            s.update(k, 1);
        }
        s.update(7, 50);
        let est = s.estimate(7);
        // True frequency is 51; allow generous slack for the tiny width.
        assert!((est - 51).abs() <= 20, "estimate {est} too far from 51");
    }

    #[test]
    fn estimate_is_unbiased_ish_on_average() {
        // Average the signed error over many keys: should be close to 0,
        // unlike CountMin whose error is strictly positive.
        let mut s = sketch(128, 5);
        let per_key = 10u64;
        for k in 0..1000u64 {
            s.update(k, per_key);
        }
        let mean_err: f64 = (0..1000u64)
            .map(|k| s.estimate(k) as f64 - per_key as f64)
            .sum::<f64>()
            / 1000.0;
        assert!(
            mean_err.abs() < per_key as f64,
            "mean signed error suspiciously large: {mean_err}"
        );
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        let mut s = sketch(1024, 7);
        // 100 keys with frequency 10 → F2 = 100 * 100 = 10_000.
        for k in 0..100u64 {
            s.update(k, 10);
        }
        let f2 = s.estimate_f2();
        let truth = 10_000.0;
        assert!(
            (f2 - truth).abs() / truth < 0.25,
            "F2 estimate {f2} too far from {truth}"
        );
    }

    #[test]
    fn inner_product_tracks_truth() {
        let mut a = sketch(1024, 7);
        let mut b = sketch(1024, 7);
        for k in 0..50u64 {
            a.update(k, k + 1);
            b.update(k, 2);
        }
        let truth: f64 = (0..50u64).map(|k| ((k + 1) * 2) as f64).sum();
        let est = a.inner_product(&b).unwrap();
        assert!(
            (est - truth).abs() / truth < 0.3,
            "inner product {est} too far from {truth}"
        );
    }

    #[test]
    fn inner_product_rejects_mismatched_seeds() {
        let a = CountSketch::new(64, 3, 1).unwrap();
        let b = CountSketch::new(64, 3, 2).unwrap();
        assert!(a.inner_product(&b).is_err());
    }

    #[test]
    fn clear_resets() {
        let mut s = sketch(16, 3);
        s.update(3, 9);
        s.clear();
        assert_eq!(s.estimate(3), 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn even_depth_median_still_works() {
        let mut s = sketch(4096, 4);
        s.update(11, 1000);
        assert_eq!(s.estimate(11), 1000);
    }

    #[test]
    fn bytes_accounting() {
        let s = sketch(128, 3);
        assert_eq!(s.bytes(), 128 * 3 * 8);
    }

    #[test]
    fn clone_preserves_estimates() {
        let mut s = sketch(64, 3);
        for k in 0..100u64 {
            s.update(k, k);
        }
        let c = s.clone();
        for k in 0..100u64 {
            assert_eq!(s.estimate(k), c.estimate(k));
        }
    }
}
