//! IP-attack-network stream generator.
//!
//! The paper's second real dataset is a proprietary corporate sensor feed
//! of IP attack packets (3 781 471 edges over 5 days). We substitute a
//! synthetic traffic model with the dataset's published signature: the
//! most extreme global-to-local variance ratio of the three datasets
//! (the paper's σ_G/σ_V is 10.107; this model's is 820 at the experiment
//! scale, DESIGN.md §4), arising from a mixture of
//!
//! * **scanners** — a few sources probing very many targets, each pair
//!   seen a handful of times (huge out-degree, low per-edge frequency);
//! * **sustained attacks** — few (source, target) pairs hammered at very
//!   high rates (tiny out-degree, huge per-edge frequency);
//! * **background noise** — uniform random pairs.
//!
//! Within one source all its edges behave alike (local similarity), while
//! across sources frequencies span orders of magnitude (global skew).

use crate::edge::{Edge, StreamEdge};
use crate::sample::zipf::Zipf;
use crate::vertex::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the IP-attack generator.
#[derive(Debug, Clone, Copy)]
pub struct IpAttackConfig {
    /// Number of distinct IP addresses.
    pub hosts: u32,
    /// Number of stream arrivals to emit.
    pub arrivals: usize,
    /// Number of scanner sources.
    pub scanners: u32,
    /// Number of sustained attack sources (each hammers a handful of
    /// victims at a moderate-to-high rate, so attack mass is spread over
    /// thousands of pairs rather than a few monsters).
    pub attackers: u32,
    /// Victims per attack source.
    pub victims_per_attacker: u32,
    /// Fraction of arrivals from scanners.
    pub scanner_fraction: f64,
    /// Fraction of arrivals from sustained attacks.
    pub attack_fraction: f64,
    /// Size of the "interesting subnet" scanners concentrate on; repeat
    /// probes of the same pair give scanner edges frequencies in the
    /// 2–50 range.
    pub scan_subnet: u32,
    /// Zipf skew for scanner target selection within the subnet.
    pub target_skew: f64,
    /// Zipf skew of intensity across attack sources.
    pub attack_skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IpAttackConfig {
    fn default() -> Self {
        Self {
            hosts: 50_000,
            arrivals: 2_000_000,
            scanners: 40,
            attackers: 1_000,
            victims_per_attacker: 4,
            scanner_fraction: 0.35,
            attack_fraction: 0.45,
            scan_subnet: 4_096,
            target_skew: 1.0,
            attack_skew: 0.8,
            seed: 0x1BAD_CAFE,
        }
    }
}

impl IpAttackConfig {
    fn validate(&self) {
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(self.hosts >= 16, "need a minimal host universe");
        assert!(self.arrivals > 0, "need at least one arrival");
        assert!(self.scanners >= 1 && self.attackers >= 1);
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(
            self.scanner_fraction >= 0.0
                && self.attack_fraction >= 0.0
                && self.scanner_fraction + self.attack_fraction <= 1.0,
            "traffic fractions must form a sub-probability"
        );
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(
            self.scanners + self.attackers < self.hosts,
            "role counts must leave ordinary hosts for background traffic"
        );
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(
            self.scan_subnet >= 2 && self.scan_subnet <= self.hosts,
            "scan subnet must be within the host universe"
        );
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(self.victims_per_attacker >= 1);
    }
}

/// Generate an IP-attack-like stream.
pub fn generate(cfg: IpAttackConfig) -> Vec<StreamEdge> {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Scanner sources are the lowest ids; attack sources use the next
    // block of ids, so roles never overlap.
    let scanner_base = 0u32;
    let attacker_base = cfg.scanners;
    let target_zipf = Zipf::new(cfg.scan_subnet as u64, cfg.target_skew);

    // Attack victims: attacker i hammers a small fixed victim set.
    let victims: Vec<Vec<VertexId>> = (0..cfg.attackers)
        .map(|_| {
            (0..cfg.victims_per_attacker)
                .map(|_| VertexId(rng.gen_range(0..cfg.hosts)))
                .collect()
        })
        .collect();
    // Attack intensity is Zipf-distributed across attack sources.
    let attacker_zipf = Zipf::new(cfg.attackers as u64, cfg.attack_skew);

    let mut out = Vec::with_capacity(cfg.arrivals);
    for ts in 0..cfg.arrivals {
        let roll = rng.gen::<f64>();
        let edge = if roll < cfg.scanner_fraction {
            // A scanner re-probes a Zipf-popular target in the subnet.
            let src = VertexId(scanner_base + rng.gen_range(0..cfg.scanners));
            let dst = VertexId((target_zipf.sample(&mut rng) - 1) as u32);
            Edge::new(src, dst)
        } else if roll < cfg.scanner_fraction + cfg.attack_fraction {
            // A sustained attack source fires at one of its victims.
            let a = (attacker_zipf.sample(&mut rng) - 1) as u32;
            let vs = &victims[a as usize];
            let dst = vs[rng.gen_range(0..vs.len())];
            Edge::new(VertexId(attacker_base + a), dst)
        } else {
            // Background noise: uniform pair among ordinary hosts. Role
            // sources are excluded so a sustained-attack vertex is not
            // polluted with unrelated freq-1 edges — within one source,
            // traffic behaves alike (local similarity, §3.3).
            let ordinary = cfg.scanners + cfg.attackers;
            let src = VertexId(rng.gen_range(ordinary..cfg.hosts));
            let dst = VertexId(rng.gen_range(0..cfg.hosts));
            Edge::new(src, dst)
        };
        out.push(StreamEdge::unit(edge, ts as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCounter;
    use crate::stats::VarianceStats;

    fn small() -> IpAttackConfig {
        IpAttackConfig {
            hosts: 2000,
            arrivals: 100_000,
            scanners: 10,
            attackers: 100,
            scan_subnet: 512,
            seed: 5,
            ..IpAttackConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "sub-probability")]
    fn bad_fractions_rejected() {
        generate(IpAttackConfig {
            scanner_fraction: 0.7,
            attack_fraction: 0.5,
            ..IpAttackConfig::default()
        });
    }

    #[test]
    fn emits_requested_arrivals() {
        let s = generate(small());
        assert_eq!(s.len(), 100_000);
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(generate(small()), generate(small()));
    }

    #[test]
    fn hosts_within_universe() {
        let cfg = small();
        for se in generate(cfg) {
            assert!(se.edge.src.0 < cfg.hosts);
            assert!(se.edge.dst.0 < cfg.hosts);
        }
    }

    #[test]
    fn attack_pairs_are_heavy_and_spread() {
        let cfg = small();
        let s = generate(cfg);
        let c = ExactCounter::from_stream(&s);
        // The heaviest edge carries far more than the mean…
        let max = c.iter().map(|(_, f)| f).max().unwrap();
        let mean = c.total_weight() / c.distinct_edges() as u64;
        assert!(
            max > mean * 20,
            "expected strong skew: max {max}, mean {mean}"
        );
        // …and the heavy mass is spread over many pairs, not a handful:
        // edges with f ≥ 10 must number in the hundreds and carry a
        // large share of the stream.
        let heavy_edges = c.iter().filter(|&(_, f)| f >= 10).count();
        let heavy_mass: u64 = c.iter().filter(|&(_, f)| f >= 10).map(|(_, f)| f).sum();
        assert!(heavy_edges > 200, "too few heavy pairs: {heavy_edges}");
        assert!(
            heavy_mass as f64 / c.total_weight() as f64 > 0.4,
            "heavy pairs should carry >40% of mass: {:.3}",
            heavy_mass as f64 / c.total_weight() as f64
        );
    }

    #[test]
    fn variance_ratio_is_extreme() {
        // The paper reports ratio ~10 for this dataset — the largest of
        // the three. Require clearly > 2 at test scale.
        let s = generate(small());
        let stats = VarianceStats::from_counts(&ExactCounter::from_stream(&s));
        assert!(
            stats.ratio() > 2.0,
            "variance ratio should be extreme, got {:.3}",
            stats.ratio()
        );
    }

    #[test]
    fn scanners_have_high_out_degree() {
        let cfg = small();
        let s = generate(cfg);
        let c = ExactCounter::from_stream(&s);
        let prof = c.vertex_profile();
        let scanner_deg: u64 = (0..cfg.scanners)
            .filter_map(|i| prof.get(&VertexId(i)).map(|p| p.out_degree))
            .max()
            .unwrap_or(0);
        let attacker_deg: u64 = (cfg.scanners..cfg.scanners + cfg.attackers)
            .filter_map(|i| prof.get(&VertexId(i)).map(|p| p.out_degree))
            .max()
            .unwrap_or(0);
        assert!(
            scanner_deg > attacker_deg * 5,
            "scanners ({scanner_deg}) should out-fan attackers ({attacker_deg})"
        );
    }
}
