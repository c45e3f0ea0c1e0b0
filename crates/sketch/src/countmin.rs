//! The reference CountMin sketch (Cormode & Muthukrishnan, J.
//! Algorithms 2005).
//!
//! A CountMin sketch is a `d × w` array of counters together with `d`
//! pairwise-independent hash functions, one per row. An arrival of item
//! `x` with weight `c` increments cell `(i, h_i(x))` in every row; a point
//! query returns the minimum over those `d` cells. Collisions can only
//! inflate a counter, so the estimate `f̃` satisfies, with probability at
//! least `1 − δ` when `w = ⌈e/ε⌉` and `d = ⌈ln 1/δ⌉`:
//!
//! ```text
//! f  ≤  f̃  ≤  f + ε·N        (N = total weight inserted)
//! ```
//!
//! This is Equation (1) of the gSketch paper and Figure 1's structure.
//!
//! No deployment builds this type: every synopsis, the Global baseline
//! and the adaptive warm-up included, is a [`CmArena`](crate::CmArena).
//! [`CountMinSketch`] is the plain per-arrival model the arena is pinned
//! against — a one-slot arena must answer cell for cell like it, under
//! both [`UpdatePolicy`] variants — so it keeps its own straightforward
//! classic and conservative update paths.

use crate::error::SketchError;
use crate::hash::PairwiseHash;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a CountMin sketch applies updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Classic CountMin: every row's cell is incremented.
    #[default]
    Classic,
    /// Conservative update (Estan & Varghese): only the cells below
    /// `estimate + weight` are raised, and only up to that target. Strictly reduces overestimation for point
    /// queries while preserving the one-sided error guarantee. The
    /// reference for `CmArena::update_slot_conservative`, which the
    /// adaptive warm-up uses; the paper reproduction uses `Classic`.
    Conservative,
}

/// A CountMin sketch over `u64` keys with saturating `u64` counters.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counter matrix.
    cells: Vec<u64>,
    hashes: Vec<PairwiseHash>,
    /// Total weight inserted so far (saturating).
    total: u64,
    policy: UpdatePolicy,
}

impl CountMinSketch {
    /// Create a sketch with explicit dimensions, seeding the hash family
    /// deterministically from `seed`.
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
        let hashes = (0..depth).map(|_| PairwiseHash::random(&mut rng)).collect();
        Ok(Self {
            width,
            depth,
            cells: vec![0; width * depth],
            hashes,
            total: 0,
            policy: UpdatePolicy::Classic,
        })
    }

    /// Switch the update policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sketch width `w` (cells per row).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sketch depth `d` (number of rows / hash functions).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total weight inserted so far (`N` in the error bound).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory consumed by the counter matrix, in bytes.
    ///
    /// This is the figure the paper's "memory size" axis refers to: the
    /// synopsis itself, excluding the constant-size header.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn cell_index(&self, row: usize, key: u64) -> usize {
        row * self.width + self.hashes[row].bucket(key, self.width)
    }

    /// Insert `weight` occurrences of `key`.
    pub fn update(&mut self, key: u64, weight: u64) {
        match self.policy {
            UpdatePolicy::Classic => {
                for row in 0..self.depth {
                    let idx = self.cell_index(row, key);
                    self.cells[idx] = self.cells[idx].saturating_add(weight);
                }
            }
            UpdatePolicy::Conservative => {
                let target = self.estimate(key).saturating_add(weight);
                for row in 0..self.depth {
                    let idx = self.cell_index(row, key);
                    if self.cells[idx] < target {
                        self.cells[idx] = target;
                    }
                }
            }
        }
        self.total = self.total.saturating_add(weight);
    }

    /// Point query: the minimum cell over all rows.
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.cells[self.cell_index(row, key)])
            .min()
            // lint: allow(no-panics) — `depth >= 1` is enforced at construction,
            // so the row iterator is never empty.
            .expect("depth >= 1 is enforced at construction")
    }

    /// The additive error bound `e·N/w` of Equation (1), which holds with
    /// probability at least `1 − e^{−d}`.
    pub fn error_bound(&self) -> f64 {
        std::f64::consts::E * self.total as f64 / self.width as f64
    }

    /// Probability that [`CountMinSketch::error_bound`] holds: `1 − e^{−d}`.
    pub fn confidence(&self) -> f64 {
        1.0 - (-(self.depth as f64)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch(width: usize, depth: usize) -> CountMinSketch {
        CountMinSketch::new(width, depth, 0xDEAD_BEEF).unwrap()
    }

    #[test]
    fn zero_width_rejected() {
        assert!(matches!(
            CountMinSketch::new(0, 3, 1),
            Err(SketchError::InvalidDimension { what: "width", .. })
        ));
    }

    #[test]
    fn zero_depth_rejected() {
        assert!(matches!(
            CountMinSketch::new(16, 0, 1),
            Err(SketchError::InvalidDimension { what: "depth", .. })
        ));
    }

    #[test]
    fn estimate_never_underestimates() {
        let mut s = sketch(64, 4);
        for key in 0..500u64 {
            s.update(key, key % 7 + 1);
        }
        for key in 0..500u64 {
            assert!(s.estimate(key) > key % 7, "key {key} underestimated");
        }
    }

    #[test]
    fn unseen_keys_bounded_by_error() {
        let mut s = sketch(1024, 4);
        for key in 0..100u64 {
            s.update(key, 1);
        }
        // An unseen key may collide, but with w=1024 and N=100 its
        // estimate must be tiny.
        let unseen = s.estimate(999_999);
        assert!(unseen <= 2, "unseen estimate too large: {unseen}");
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut s = sketch(4096, 5);
        s.update(42, 10);
        assert_eq!(s.estimate(42), 10);
    }

    #[test]
    fn total_tracks_weight() {
        let mut s = sketch(16, 2);
        s.update(1, 5);
        s.update(2, 7);
        assert_eq!(s.total(), 12);
    }

    #[test]
    fn bytes_accounting() {
        let s = sketch(128, 3);
        assert_eq!(s.bytes(), 128 * 3 * 8);
    }

    #[test]
    fn conservative_update_never_underestimates() {
        let mut s = sketch(32, 3).with_policy(UpdatePolicy::Conservative);
        let mut truth = std::collections::HashMap::new();
        for i in 0..2000u64 {
            let key = i % 100;
            s.update(key, 1);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        for (&key, &f) in &truth {
            assert!(s.estimate(key) >= f, "key {key} underestimated");
        }
    }

    #[test]
    fn conservative_at_most_classic() {
        let mut classic = sketch(32, 3);
        let mut conservative = sketch(32, 3).with_policy(UpdatePolicy::Conservative);
        for i in 0..5000u64 {
            let key = i % 200;
            classic.update(key, 1);
            conservative.update(key, 1);
        }
        for key in 0..200u64 {
            assert!(
                conservative.estimate(key) <= classic.estimate(key),
                "conservative should not exceed classic for key {key}"
            );
        }
    }

    #[test]
    fn saturating_counters_do_not_wrap() {
        let mut s = sketch(4, 1);
        s.update(1, u64::MAX);
        s.update(1, u64::MAX);
        assert_eq!(s.estimate(1), u64::MAX);
        assert_eq!(s.total(), u64::MAX);
    }

    #[test]
    fn error_bound_and_confidence() {
        let mut s = sketch(100, 3);
        for k in 0..1000 {
            s.update(k, 1);
        }
        let bound = s.error_bound();
        assert!((bound - std::f64::consts::E * 1000.0 / 100.0).abs() < 1e-9);
        assert!((s.confidence() - (1.0 - (-3.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn empirical_error_obeys_equation_one() {
        // Insert N = 20_000 uniform keys into a small sketch and check the
        // estimate of every tracked key stays within f + e*N/w for the
        // vast majority (the bound holds w.h.p. per key).
        let mut s = sketch(271, 3); // eps ~ 0.01
        let n = 20_000u64;
        for i in 0..n {
            s.update(i % 1000, 1);
        }
        let bound = s.error_bound().ceil() as u64;
        let mut violations = 0;
        for key in 0..1000u64 {
            let f = n / 1000;
            if s.estimate(key) > f + bound {
                violations += 1;
            }
        }
        // Pr[violation] <= e^{-3} ~ 0.05 per key.
        assert!(violations < 100, "too many bound violations: {violations}");
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
