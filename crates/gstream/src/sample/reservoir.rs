//! Reservoir sampling (Vitter, ACM TOMS 1985) — Algorithm R.
//!
//! The paper constructs its data samples by reservoir sampling the graph
//! stream (§6.3) and hands samples between time windows the same way (§5).
//!
//! Algorithm R's replacement schedule depends only on the RNG, never on
//! the items, so [`Reservoir::offer_all`] makes a block's draws first and
//! then reads only the arrivals they keep (DESIGN.md §15). Its sample,
//! `seen` count and final RNG state are those of an [`Reservoir::offer`]
//! loop over the same items.

use rand::Rng;

/// Arrivals whose draws [`Reservoir::offer_all`] makes before it reads
/// the stream. A 64-arrival block gained less than half as much
/// (DESIGN.md §15).
const BLOCK: usize = 4096;

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
    /// passes each item through memory. This is the reference
    /// [`offer_all`](Self::offer_all) matches.
    #[inline]
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if j < self.capacity as u64 {
                self.items[j as usize] = item;
            }
        }
    }

    /// Offer every item of `iter`, in order. The sample, its order,
    /// [`seen`](Self::seen) and the final RNG state equal those of an
    /// [`offer`](Self::offer) loop over the same items.
    ///
    /// Once the reservoir is full, an iterator whose `size_hint` is exact
    /// is sampled in blocks of 4096 arrivals: each block draws
    /// `gen_range(0..seen)` for all of its arrivals, records the kept
    /// ones as `(slot, gap)` and prefetches their slots, then applies
    /// them with `Iterator::nth(gap)`. Skipped arrivals are never read,
    /// and on a slice `nth` skips them in O(1). An inexact hint, and any
    /// items past an under-reported one, go through `offer`. An iterator
    /// that over-reports its length still yields the reference sample,
    /// but the RNG and `seen` run ahead by the draws made for the
    /// arrivals it promised and did not yield.
    pub fn offer_all<I, R>(&mut self, iter: I, rng: &mut R)
    where
        I: IntoIterator<Item = T>,
        R: Rng + ?Sized,
    {
        let mut iter = iter.into_iter();
        let before = self.items.len();
        self.items
            .extend(iter.by_ref().take(self.capacity - before));
        self.seen += (self.items.len() - before) as u64;
        if !self.is_full() {
            return;
        }
        let (lo, hi) = iter.size_hint();
        if hi == Some(lo) && !self.replace_in_blocks(&mut iter, lo, rng) {
            return;
        }
        for item in iter {
            self.offer(item, rng);
        }
    }

    /// The blocked replacement loop of [`offer_all`](Self::offer_all)
    /// over the next `n` arrivals of `iter`, on a full reservoir. Returns
    /// `false` if `iter` ended early.
    ///
    /// The draw loop is branch-free: every draw writes its `(slot, gap)`
    /// at `kept[len]` and advances `len` only if it keeps the arrival,
    /// and a skipped draw prefetches the last slot, a line already
    /// cached. A kept arrival is no longer a mispredicted branch. `seen`
    /// and the capacity live in locals so they stay in registers.
    fn replace_in_blocks<I, R>(&mut self, iter: &mut I, mut n: usize, rng: &mut R) -> bool
    where
        I: Iterator<Item = T>,
        R: Rng + ?Sized,
    {
        let capacity = self.capacity as u64;
        let items = self.items.as_mut_slice();
        let mut seen = self.seen;
        let mut kept = vec![(0usize, 0usize); n.min(BLOCK)];
        let mut complete = true;
        'blocks: while n > 0 {
            let block = n.min(BLOCK);
            n -= block;
            let (mut len, mut gap) = (0usize, 0usize);
            for _ in 0..block {
                seen += 1;
                let j = rng.gen_range(0..seen);
                let keep = j < capacity;
                // cast: u64 -> usize; below `capacity`, a usize.
                let slot = j.min(capacity - 1) as usize;
                sketch::prefetch(&items[slot]);
                kept[len] = (slot, gap);
                len += usize::from(keep);
                gap = if keep { 0 } else { gap + 1 };
            }
            for &(slot, skip) in &kept[..len] {
                match iter.nth(skip) {
                    Some(item) => items[slot] = item,
                    None => {
                        complete = false;
                        break 'blocks;
                    }
                }
            }
            if gap > 0 && iter.nth(gap - 1).is_none() {
                complete = false;
                break;
            }
        }
        self.seen = seen;
        complete
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

/// One-shot helper: uniformly sample `k` items from an iterator through
/// [`Reservoir::offer_all`]. `k == 0` returns an empty sample and draws
/// nothing.
pub fn sample_iter<T, I, R>(iter: I, k: usize, rng: &mut R) -> Vec<T>
where
    I: IntoIterator<Item = T>,
    R: Rng + ?Sized,
{
    if k == 0 {
        return Vec::new();
    }
    let mut r = Reservoir::new(k);
    r.offer_all(iter, rng);
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
    fn zero_k_samples_nothing_and_draws_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let before = rng.state();
        assert!(sample_iter(0..1_000u32, 0, &mut rng).is_empty());
        assert_eq!(rng.state(), before);
    }

    #[test]
    fn offer_all_matches_offer_loop_across_blocks() {
        // Past the fill: two whole blocks exactly, three plus a partial
        // one, and one plus a partial one at k = 1.
        let block = BLOCK as u32;
        for (n, k) in [(2 * block + 50, 50), (3 * block + 17, 50), (2 * block, 1)] {
            let mut a = StdRng::seed_from_u64(5);
            let mut b = a.clone();
            let mut blocked = Reservoir::new(k);
            blocked.offer_all(0..n, &mut a);
            let mut reference = Reservoir::new(k);
            for i in 0..n {
                reference.offer(i, &mut b);
            }
            assert_eq!(blocked.sample(), reference.sample());
            assert_eq!(blocked.seen(), reference.seen());
            assert_eq!(a.state(), b.state());
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
