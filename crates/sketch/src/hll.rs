//! HyperLogLog distinct counting (Flajolet, Fusy, Gandouet & Meunier,
//! AOFA 2007) and a vertex-keyed *distinct-degree* sketch.
//!
//! The gSketch paper's related work cites Cormode & Muthukrishnan's
//! space-efficient multigraph-stream processing (PODS 2005, ref. \[15\]),
//! whose core primitive is estimating per-vertex **distinct** degrees —
//! how many different partners a vertex has contacted, regardless of
//! repetition. [`HyperLogLog`] is the modern cardinality counter;
//! [`DegreeSketch`] arranges a fixed pool of them behind a vertex hash so
//! per-vertex distinct out-degrees are answerable in memory independent
//! of the vertex count (each bucket upper-bounds the degrees of the
//! vertices hashed into it, in the same one-sided spirit as CountMin).

use crate::error::SketchError;
use crate::hash::mix64;

/// A HyperLogLog cardinality estimator with `2^precision` registers.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
    /// Mixes the key space so independent sketches disagree on collisions.
    seed: u64,
}

impl HyperLogLog {
    /// Create an estimator with `2^precision` one-byte registers.
    /// Precision must be in `4..=16` (16 B to 64 KiB).
    pub fn new(precision: u32, seed: u64) -> Result<Self, SketchError> {
        if !(4..=16).contains(&precision) {
            return Err(SketchError::InvalidDimension {
                what: "precision",
                value: precision as usize,
            });
        }
        Ok(Self {
            precision,
            registers: vec![0; 1 << precision],
            seed,
        })
    }

    /// Number of registers `m = 2^precision`.
    #[inline]
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// Memory footprint of the register file, in bytes.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.registers.len()
    }

    /// Record one occurrence of `key` (idempotent per key).
    pub fn insert(&mut self, key: u64) {
        let h = mix64(key ^ self.seed);
        // cast: u64 -> usize; `h >> (64 - precision)` keeps `precision`
        // bits, exactly the register-array index width.
        let idx = (h >> (64 - self.precision)) as usize;
        // Rank of the first 1-bit in the remaining bits, 1-based.
        let remaining = h << self.precision;
        let rank = (remaining.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimate the number of distinct keys inserted.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting on empty registers.
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Reset all registers.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }
}

/// Per-vertex distinct-degree estimation in fixed memory: a pool of
/// `buckets` HyperLogLogs indexed by a hash of the vertex.
///
/// Every vertex hashed into a bucket contributes its partners to that
/// bucket's HLL, so a bucket estimates the size of the *union* of its
/// vertices' partner sets — an (approximate) upper bound on any single
/// member's distinct degree, sharpened by taking the minimum over `depth`
/// independent bucket rows exactly as CountMin does.
#[derive(Debug, Clone)]
pub struct DegreeSketch {
    buckets: usize,
    depth: usize,
    /// Row-major `depth × buckets` HLL pool.
    pool: Vec<HyperLogLog>,
    row_seeds: Vec<u64>,
}

impl DegreeSketch {
    /// Create a degree sketch: `depth` rows of `buckets` HLLs at the
    /// given register `precision`.
    pub fn new(
        buckets: usize,
        depth: usize,
        precision: u32,
        seed: u64,
    ) -> Result<Self, SketchError> {
        if buckets == 0 {
            return Err(SketchError::InvalidDimension {
                what: "buckets",
                value: buckets,
            });
        }
        if depth == 0 {
            return Err(SketchError::InvalidDimension {
                what: "depth",
                value: depth,
            });
        }
        // All HLLs share one key seed; rows differ in their *placement*
        // seeds.
        let template = HyperLogLog::new(precision, seed)?;
        Ok(Self {
            buckets,
            depth,
            pool: vec![template; buckets * depth],
            row_seeds: (0..depth as u64).map(|r| mix64(seed ^ (r + 1))).collect(),
        })
    }

    #[inline]
    fn slot(&self, row: usize, vertex: u64) -> usize {
        let h = mix64(vertex ^ self.row_seeds[row]);
        // cast: u64 -> usize; `h % buckets` is below the per-row bucket
        // count, a usize.
        row * self.buckets + (h % self.buckets as u64) as usize
    }

    /// Record that `vertex` contacted `partner`.
    pub fn observe(&mut self, vertex: u64, partner: u64) {
        for row in 0..self.depth {
            let idx = self.slot(row, vertex);
            self.pool[idx].insert(partner);
        }
    }

    /// Estimate the distinct degree of `vertex`: the minimum over rows of
    /// the bucket's cardinality estimate. Never (in expectation) below
    /// the true distinct degree; inflated by bucket-sharing collisions.
    pub fn estimate(&self, vertex: u64) -> f64 {
        (0..self.depth)
            .map(|row| self.pool[self.slot(row, vertex)].estimate())
            .fold(f64::INFINITY, f64::min)
    }

    /// Batched form of [`estimate`](Self::estimate): `out` is cleared
    /// and receives one degree estimate per entry of `vertices`, in
    /// order, so batched consumers (the structural query layer) drive
    /// every sketch through one batched surface.
    pub fn estimate_batch(&self, vertices: &[u64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(vertices.len());
        for &v in vertices {
            out.push(self.estimate(v));
        }
    }

    /// Memory footprint of all register files, in bytes.
    pub fn bytes(&self) -> usize {
        self.pool.iter().map(HyperLogLog::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLog::new(3, 1).is_err());
        assert!(HyperLogLog::new(17, 1).is_err());
        assert!(HyperLogLog::new(4, 1).is_ok());
        assert!(HyperLogLog::new(16, 1).is_ok());
    }

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::new(10, 1).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(10, 1).unwrap();
        for _ in 0..10_000 {
            h.insert(42);
        }
        let est = h.estimate();
        assert!((0.9..=1.5).contains(&est), "single key estimated as {est}");
    }

    #[test]
    fn accuracy_within_expected_bounds() {
        // Standard error ≈ 1.04/√m; at precision 12 (m = 4096) that is
        // ~1.6%. Allow 5σ.
        let mut h = HyperLogLog::new(12, 7).unwrap();
        let n = 100_000u64;
        for k in 0..n {
            h.insert(k);
        }
        let est = h.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.082, "HLL estimate {est} off by {rel:.4}");
    }

    #[test]
    fn small_range_linear_counting() {
        let mut h = HyperLogLog::new(12, 3).unwrap();
        for k in 0..100u64 {
            h.insert(k);
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() < 10.0, "small-range estimate {est}");
    }

    #[test]
    fn clear_resets() {
        let mut h = HyperLogLog::new(8, 1).unwrap();
        h.insert(1);
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn degree_sketch_geometry_validated() {
        assert!(DegreeSketch::new(0, 2, 8, 1).is_err());
        assert!(DegreeSketch::new(8, 0, 8, 1).is_err());
        assert!(DegreeSketch::new(8, 2, 99, 1).is_err());
    }

    #[test]
    fn degree_sketch_counts_distinct_partners() {
        let mut d = DegreeSketch::new(256, 3, 10, 7).unwrap();
        // Vertex 1 contacts 500 partners, each 10 times (repeats must
        // not count); vertex 2 contacts 5.
        for p in 0..500u64 {
            for _ in 0..10 {
                d.observe(1, p);
            }
        }
        for p in 0..5u64 {
            d.observe(2, 1_000 + p);
        }
        let d1 = d.estimate(1);
        let d2 = d.estimate(2);
        assert!((d1 - 500.0).abs() / 500.0 < 0.15, "degree(1) ≈ {d1}");
        assert!(d2 < 60.0, "degree(2) ≈ {d2} should stay small");
        assert!(d1 > d2 * 5.0);
    }

    #[test]
    fn degree_sketch_is_one_sided_in_expectation() {
        // Bucket sharing can only add partners to a bucket's union, so
        // estimates should rarely fall far below the truth.
        let mut d = DegreeSketch::new(64, 3, 10, 11).unwrap();
        for v in 0..200u64 {
            for p in 0..20u64 {
                d.observe(v, v * 1_000 + p);
            }
        }
        let mut below = 0;
        for v in 0..200u64 {
            if d.estimate(v) < 20.0 * 0.8 {
                below += 1;
            }
        }
        assert!(below < 20, "{below}/200 vertices far underestimated");
    }

    #[test]
    fn bytes_accounting() {
        let d = DegreeSketch::new(16, 2, 8, 1).unwrap();
        assert_eq!(d.bytes(), 16 * 2 * 256);
    }
}
