//! Reservoir sampling (Vitter, ACM TOMS 1985) — Algorithm R.
//!
//! The paper constructs its data samples by reservoir sampling the graph
//! stream (§6.3) and hands samples between time windows the same way (§5).

use rand::Rng;

/// A fixed-capacity uniform sample over a stream of `T`.
///
/// After observing `n ≥ capacity` items, each item is retained with
/// probability exactly `capacity / n`.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// Create a reservoir holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Rebuild a reservoir from previously captured state (snapshot load).
    ///
    /// `seen` is the offer count the sample was drawn from; it cannot be
    /// reconstructed from the sample itself, so persistence layers must
    /// carry it. Returns `None` when the parts are inconsistent: zero
    /// capacity, more items than capacity, or fewer items than a stream of
    /// `seen` offers would have left behind.
    pub fn from_parts(capacity: usize, seen: u64, items: Vec<T>) -> Option<Self> {
        if capacity == 0 || items.len() > capacity {
            return None;
        }
        if (items.len() as u64) < seen.min(capacity as u64) {
            return None;
        }
        Some(Self {
            capacity,
            seen,
            items,
        })
    }

    /// Offer one stream item (Algorithm R). Inline: this is the
    /// per-arrival step of every sampling loop, and an out-of-line call
    /// passes each item through memory.
    #[inline]
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// The sample collected so far (order is not meaningful).
    pub fn sample(&self) -> &[T] {
        &self.items
    }

    /// Consume the reservoir, returning the sample.
    pub fn into_sample(self) -> Vec<T> {
        self.items
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the reservoir has filled to capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }
}

/// One-shot helper: uniformly sample `k` items from an iterator.
pub fn sample_iter<T, I, R>(iter: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng + ?Sized,
{
    let mut r = Reservoir::new(k.max(1));
    for item in iter {
        r.offer(item, rng);
    }
    r.into_sample()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Reservoir::<u32>::new(0);
    }

    #[test]
    fn short_stream_kept_entirely() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut r = Reservoir::new(10);
        for i in 0..5u32 {
            r.offer(i, &mut rng);
        }
        let mut s = r.into_sample();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_size_capped() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_iter(0..10_000u32, 100, &mut rng);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // Sample 10 of 100 items many times; each item should be included
        // ~10% of the time.
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 2000;
        let mut hits = vec![0u32; 100];
        for _ in 0..trials {
            for &x in sample_iter(0..100u32, 10, &mut rng).iter() {
                hits[x as usize] += 1;
            }
        }
        let expected = trials as f64 * 0.1;
        for (i, &h) in hits.iter().enumerate() {
            let rel = (h as f64 - expected).abs() / expected;
            assert!(rel < 0.35, "item {i} inclusion skewed: {h} vs {expected}");
        }
    }

    #[test]
    fn seen_counts_all_offers() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = Reservoir::new(2);
        for i in 0..7u32 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.seen(), 7);
        assert!(r.is_full());
        assert_eq!(r.capacity(), 2);
        assert_eq!(r.sample().len(), 2);
    }
}
