//! Property-based tests of the graph-stream substrate.

use gstream::edge::{Edge, StreamEdge};
use gstream::exact::ExactCounter;
use gstream::sample::{sample_iter, Reservoir, Zipf};
use gstream::stats::VarianceStats;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn to_stream(raw: &[(u16, u16, u8)]) -> Vec<StreamEdge> {
    raw.iter()
        .enumerate()
        .map(|(i, &(s, d, w))| {
            StreamEdge::weighted(Edge::new(s as u32, d as u32), i as u64, w as u64 + 1)
        })
        .collect()
}

proptest! {
    /// ExactCounter conserves total weight and arrival counts.
    #[test]
    fn exact_counter_conserves(raw in vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..300)) {
        let stream = to_stream(&raw);
        let c = ExactCounter::from_stream(&stream);
        let weight: u64 = stream.iter().map(|se| se.weight).sum();
        prop_assert_eq!(c.total_weight(), weight);
        prop_assert_eq!(c.arrivals(), stream.len() as u64);
        let sum_freq: u64 = c.iter().map(|(_, f)| f).sum();
        prop_assert_eq!(sum_freq, weight);
    }

    /// Vertex profiles partition the edge mass by source.
    #[test]
    fn vertex_profile_partitions_mass(raw in vec((0u16..40, 0u16..40, any::<u8>()), 1..200)) {
        let stream = to_stream(&raw);
        let c = ExactCounter::from_stream(&stream);
        let prof = c.vertex_profile();
        let mass: u64 = prof.values().map(|p| p.frequency).sum();
        prop_assert_eq!(mass, c.total_weight());
        let degrees: u64 = prof.values().map(|p| p.out_degree).sum();
        prop_assert_eq!(degrees, c.distinct_edges() as u64);
    }

    /// Reservoir sampling returns exactly min(k, n) items, all from the
    /// input.
    #[test]
    fn reservoir_size_and_membership(
        items in vec(any::<u32>(), 0..500),
        k in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = sample_iter(items.iter().copied(), k, &mut rng);
        prop_assert_eq!(sample.len(), k.min(items.len()));
        for s in &sample {
            prop_assert!(items.contains(s));
        }
    }

    /// Reservoir `seen` equals the number of offers.
    #[test]
    fn reservoir_counts_offers(n in 0usize..300, k in 1usize..32, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut r = Reservoir::new(k);
        for i in 0..n {
            r.offer(i, &mut rng);
        }
        prop_assert_eq!(r.seen(), n as u64);
        prop_assert_eq!(r.sample().len(), k.min(n));
    }

    /// Zipf samples always land in the support.
    #[test]
    fn zipf_support(
        n in 1u64..5_000,
        alpha_tenths in 2u32..40,
        seed in any::<u64>(),
    ) {
        let alpha = alpha_tenths as f64 / 10.0;
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Variance statistics are non-negative and the ratio is defined.
    #[test]
    fn variance_stats_are_sane(raw in vec((0u16..30, 0u16..30, any::<u8>()), 0..200)) {
        let stream = to_stream(&raw);
        let c = ExactCounter::from_stream(&stream);
        let v = VarianceStats::from_counts(&c);
        prop_assert!(v.global >= 0.0);
        prop_assert!(v.local >= 0.0);
        prop_assert!(v.ratio() >= 0.0);
    }

    /// Edge keys are deterministic and direction-sensitive.
    #[test]
    fn edge_keys_deterministic(s in any::<u32>(), d in any::<u32>()) {
        let e = Edge::new(s, d);
        prop_assert_eq!(e.key(), Edge::new(s, d).key());
        if s != d {
            prop_assert_ne!(e.key(), e.reversed().key());
        }
        prop_assert_eq!(e.canonical(), e.reversed().canonical());
    }
}

/// The per-item reference: an `offer` loop. Returns the sample, `seen`
/// and the final RNG state.
fn offer_loop(items: &[u32], k: usize, seed: u64) -> (Vec<u32>, u64, [u64; 4]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Reservoir::new(k);
    for &x in items {
        r.offer(x, &mut rng);
    }
    (r.sample().to_vec(), r.seen(), rng.state())
}

/// `offer_all` over `iter`, returning what [`offer_loop`] returns.
fn offer_all(iter: impl Iterator<Item = u32>, k: usize, seed: u64) -> (Vec<u32>, u64, [u64; 4]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r = Reservoir::new(k);
    r.offer_all(iter, &mut rng);
    (r.sample().to_vec(), r.seen(), rng.state())
}

/// Yields its items but reports `hint` remaining items as an exact
/// `size_hint`, whatever is really left.
struct Misreported {
    items: std::vec::IntoIter<u32>,
    hint: usize,
}

impl Iterator for Misreported {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        self.hint = self.hint.saturating_sub(1);
        self.items.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.hint, Some(self.hint))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked kernel is the per-item loop: same items, same order,
    /// same `seen`, same final RNG state — over a slice (exact hint), a
    /// `filter` (inexact hint, per-item fallback) and an iterator that
    /// under-reports its length (blocks, then per-item for the rest).
    /// Streams longer than `k` + 4096 put kept arrivals on both sides of
    /// block boundaries; short ones give `k >= n`.
    #[test]
    fn offer_all_matches_offer_loop(
        n_raw in 0usize..20_000,
        short in any::<bool>(),
        k in 1usize..600,
        under in 0usize..5_000,
        seed in any::<u64>(),
    ) {
        let n = if short { n_raw % 700 } else { n_raw };
        let items: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let reference = offer_loop(&items, k, seed);

        prop_assert_eq!(&offer_all(items.iter().copied(), k, seed), &reference);

        let mut rng = StdRng::seed_from_u64(seed);
        let sampled = sample_iter(items.iter().copied(), k, &mut rng);
        prop_assert_eq!(&sampled, &reference.0);
        prop_assert_eq!(rng.state(), reference.2);

        let odd: Vec<u32> = items.iter().copied().filter(|x| x % 2 == 1).collect();
        prop_assert_eq!(
            offer_all(items.iter().copied().filter(|x| x % 2 == 1), k, seed),
            offer_loop(&odd, k, seed)
        );

        let hint = n.saturating_sub(under);
        let low = Misreported { items: items.clone().into_iter(), hint };
        prop_assert_eq!(&offer_all(low, k, seed), &reference);
    }

    /// An iterator that over-reports its length still yields the
    /// reference sample. Its RNG and `seen` may run ahead: the kernel
    /// drew for arrivals that never came.
    #[test]
    fn offer_all_over_reported_length_keeps_the_sample(
        n in 0usize..20_000,
        k in 1usize..600,
        over in 1usize..5_000,
        seed in any::<u64>(),
    ) {
        let items: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let (sample, seen, _) = offer_loop(&items, k, seed);
        let high = Misreported { items: items.into_iter(), hint: n + over };
        let (blocked, blocked_seen, _) = offer_all(high, k, seed);
        prop_assert_eq!(blocked, sample);
        prop_assert!(blocked_seen >= seen);
    }
}
