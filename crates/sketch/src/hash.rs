//! Hash families used by the synopses in this crate.
//!
//! All sketches in this crate are built on *k*-wise independent hash
//! functions over the Mersenne prime field GF(2^61 − 1), following the
//! classic Carter–Wegman construction. Pairwise independence is all the
//! CountMin analysis needs (Cormode & Muthukrishnan, J. Algorithms 2005);
//! the AMS sketch additionally uses a 4-wise independent family for its
//! ±1 sign function.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Mersenne prime 2^61 − 1 used as the field modulus.
pub const MERSENNE_PRIME: u64 = (1 << 61) - 1;

/// Reduce `x` modulo 2^61 − 1 without a division.
///
/// Works for any `x < 2^122`, which covers products of two field elements.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    // x = hi * 2^61 + lo  ≡  hi + lo (mod 2^61 − 1)
    let lo = (x & MERSENNE_PRIME as u128) as u64;
    let hi = (x >> 61) as u64;
    let mut s = lo.wrapping_add(hi);
    // One conditional subtraction suffices because hi < 2^61 and lo < 2^61.
    if s >= MERSENNE_PRIME {
        s -= MERSENNE_PRIME;
    }
    s
}

/// Multiply two field elements modulo 2^61 − 1.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_mersenne(a as u128 * b as u128)
}

/// A pairwise-independent hash function `h(x) = ((a·x + b) mod p) mod m`.
///
/// `a` is drawn uniformly from `[1, p)` and `b` from `[0, p)`, which makes
/// the family pairwise independent over the field; the final reduction to
/// the table range `m` preserves the collision bound `Pr[h(x)=h(y)] ≤ 1/m`
/// up to the usual negligible rounding slack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
}

impl PairwiseHash {
    /// Draw a random function from the family using `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            a: rng.gen_range(1..MERSENNE_PRIME),
            b: rng.gen_range(0..MERSENNE_PRIME),
        }
    }

    /// Construct from explicit coefficients (mainly for tests).
    ///
    /// Coefficients are reduced into the field; `a` is forced non-zero so
    /// the function cannot degenerate to a constant.
    pub fn from_coefficients(a: u64, b: u64) -> Self {
        let a = a % MERSENNE_PRIME;
        Self {
            a: if a == 0 { 1 } else { a },
            b: b % MERSENNE_PRIME,
        }
    }

    /// Evaluate the hash over the field (no range reduction).
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        self.eval_folded(Self::fold(x))
    }

    /// Fold an arbitrary input into the field. The fold depends only on
    /// the input, so batch consumers evaluating several functions of one
    /// key (a sketch's `d` rows) hoist it out of the per-row loop.
    #[inline]
    pub fn fold(x: u64) -> u64 {
        // For x < p (the common case: interned ids and mixed keys) the
        // fold is the identity modulo p.
        x % MERSENNE_PRIME
    }

    /// Evaluate on an input already folded into the field by
    /// [`fold`](Self::fold).
    #[inline]
    pub fn eval_folded(&self, x: u64) -> u64 {
        debug_assert!(x < MERSENNE_PRIME);
        mod_mersenne(mul_mod(self.a, x) as u128 + self.b as u128)
    }

    /// Evaluate and reduce onto a table of `width` cells.
    #[inline]
    pub fn bucket(&self, x: u64, width: usize) -> usize {
        debug_assert!(width > 0, "hash table width must be positive");
        (self.eval(x) % width as u64) as usize
    }
}

/// A 4-wise independent hash function: a degree-3 polynomial over the field.
///
/// Used by the AMS sketch for its ±1 sign function, whose variance
/// analysis requires 4-wise independence.
#[derive(Debug, Clone, Copy)]
pub struct FourwiseHash {
    c: [u64; 4],
}

impl FourwiseHash {
    /// Draw a random function from the family using `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut c = [0u64; 4];
        for coeff in &mut c {
            *coeff = rng.gen_range(0..MERSENNE_PRIME);
        }
        // Leading coefficient non-zero keeps the polynomial degree 3.
        if c[3] == 0 {
            c[3] = 1;
        }
        Self { c }
    }

    /// Evaluate the polynomial `c3·x³ + c2·x² + c1·x + c0 (mod p)`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % MERSENNE_PRIME;
        // Horner's rule.
        let mut acc = self.c[3];
        for &coeff in self.c[..3].iter().rev() {
            acc = mod_mersenne(mul_mod(acc, x) as u128 + coeff as u128);
        }
        acc
    }

    /// Map the input to a ±1 sign (the lowest bit of the field value).
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.eval(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

/// A strong 64-bit finalizer (SplitMix64) for combining composite keys
/// before they enter a sketch; not a substitute for the independent
/// families above, just a cheap way to build one `u64` key from parts.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine two 64-bit parts into one sketch key (order sensitive).
///
/// The paper keys an edge `(x, y)` by the concatenation of its vertex
/// labels; with interned vertex ids the equivalent is a strong mix of the
/// ordered pair.
#[inline]
pub fn combine64(hi: u64, lo: u64) -> u64 {
    mix64(mix64(hi).rotate_left(32) ^ lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mersenne_reduction_matches_naive() {
        for &x in &[
            0u128,
            1,
            MERSENNE_PRIME as u128,
            MERSENNE_PRIME as u128 + 1,
            u64::MAX as u128,
            (MERSENNE_PRIME as u128) * (MERSENNE_PRIME as u128),
            u128::from(u64::MAX) * 12345,
        ] {
            assert_eq!(
                mod_mersenne(x),
                (x % MERSENNE_PRIME as u128) as u64,
                "x={x}"
            );
        }
    }

    #[test]
    fn mul_mod_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let a = rng.gen_range(0..MERSENNE_PRIME);
            let b = rng.gen_range(0..MERSENNE_PRIME);
            let expected = ((a as u128 * b as u128) % MERSENNE_PRIME as u128) as u64;
            assert_eq!(mul_mod(a, b), expected);
        }
    }

    #[test]
    fn pairwise_eval_is_affine() {
        let h = PairwiseHash::from_coefficients(3, 5);
        assert_eq!(h.eval(0), 5);
        assert_eq!(h.eval(1), 8);
        assert_eq!(h.eval(10), 35);
    }

    #[test]
    fn pairwise_zero_a_is_promoted() {
        let h = PairwiseHash::from_coefficients(0, 9);
        // a == 0 would make every input collide; the constructor promotes
        // it to 1.
        assert_ne!(h.eval(1), h.eval(2));
    }

    #[test]
    fn bucket_is_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let h = PairwiseHash::random(&mut rng);
        for w in [1usize, 2, 3, 17, 1024] {
            for x in 0..200u64 {
                assert!(h.bucket(x, w) < w);
            }
        }
    }

    #[test]
    fn pairwise_collision_rate_near_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let width = 64usize;
        let trials = 200;
        let mut collisions = 0usize;
        for _ in 0..trials {
            let h = PairwiseHash::random(&mut rng);
            if h.bucket(123_456, width) == h.bucket(654_321, width) {
                collisions += 1;
            }
        }
        // Expected collision probability ≈ 1/64; allow generous slack.
        assert!(
            collisions <= trials / 8,
            "too many collisions: {collisions}/{trials}"
        );
    }

    #[test]
    fn fourwise_sign_is_balanced() {
        let mut rng = StdRng::seed_from_u64(99);
        let h = FourwiseHash::random(&mut rng);
        let n = 10_000u64;
        let sum: i64 = (0..n).map(|x| h.sign(x)).sum();
        // Mean should be near zero: |sum| well below n.
        assert!(
            sum.unsigned_abs() < n / 10,
            "sign function badly unbalanced: {sum}"
        );
    }

    #[test]
    fn fourwise_eval_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let h = FourwiseHash::random(&mut rng);
        assert_eq!(h.eval(77), h.eval(77));
        assert_eq!(h.sign(77), h.sign(77));
    }

    #[test]
    fn mix64_changes_all_zero_input() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn combine64_is_order_sensitive() {
        assert_ne!(combine64(1, 2), combine64(2, 1));
        assert_eq!(combine64(1, 2), combine64(1, 2));
    }

    #[test]
    fn combine64_spreads_low_entropy_pairs() {
        // Many (i, j) pairs with tiny values must not collide in the low
        // bits, since sketches reduce modulo small widths.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100u64 {
            for j in 0..100u64 {
                seen.insert(combine64(i, j) % 8192);
            }
        }
        // 10 000 keys into 8192 buckets: expect most buckets hit.
        assert!(seen.len() > 5000, "poor spread: {}", seen.len());
    }
}
