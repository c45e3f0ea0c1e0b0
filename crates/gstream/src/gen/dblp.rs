//! DBLP-like co-authorship stream generator.
//!
//! The paper's DBLP dataset (595 406 authors, 602 684 papers, 1 954 776
//! ordered author pairs in chronological order) is replaced by a synthetic
//! co-authorship model that preserves the two properties gSketch exploits
//! (§3.3):
//!
//! * **global heterogeneity** — author productivity is Zipf-distributed,
//!   and repeat-collaboration pairs span two orders of magnitude of
//!   frequency;
//! * **local similarity** — pair frequencies are coherent *within* an
//!   author: a "stable-team" author repeats the same few collaborators
//!   (all their pairs are heavy), while a "networker" author keeps
//!   finding new collaborators (all their pairs are light). Real DBLP
//!   shows exactly this split (long-running lab teams vs. one-off
//!   collaborations). The paper measures σ_G/σ_V = 3.674 on DBLP; this
//!   model's is 440 at the experiment scale (`exp_variance`, DESIGN.md
//!   §4), so it does not reproduce that ratio.
//!
//! Model: each paper draws an author count, a first author by Zipf
//! productivity, and co-authors either from the first author's
//! collaborator circle (probability = the author's *loyalty*) or fresh.
//! Stable-team authors have high loyalty and small circles — their pairs
//! recur; networkers have low loyalty and large circles. All ordered
//! pairs `(a_i, a_j), i < j` are emitted per paper, chronologically.

use crate::edge::{Edge, StreamEdge};
use crate::fxhash::FxHashMap;
use crate::sample::zipf::Zipf;
use crate::vertex::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the DBLP-like generator.
#[derive(Debug, Clone, Copy)]
pub struct DblpConfig {
    /// Number of authors in the universe.
    pub authors: u32,
    /// Number of papers to generate.
    pub papers: usize,
    /// Zipf skew of author productivity.
    pub productivity_skew: f64,
    /// Fraction of authors forming stable teams (high loyalty, small
    /// circles → heavy repeat pairs).
    pub stable_fraction: f64,
    /// Collaborator-circle reuse probability for stable-team authors.
    pub stable_loyalty: f64,
    /// Circle reuse probability for networker authors.
    pub networker_loyalty: f64,
    /// Circle capacity for stable-team authors (small → heavy pairs).
    pub stable_circle: usize,
    /// Circle capacity for networkers (large → light pairs).
    pub networker_circle: usize,
    /// Maximum authors per paper (minimum is 1).
    pub max_authors_per_paper: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        Self {
            authors: 60_000,
            papers: 60_000,
            productivity_skew: 1.4,
            stable_fraction: 0.35,
            stable_loyalty: 0.95,
            networker_loyalty: 0.15,
            stable_circle: 3,
            networker_circle: 64,
            max_authors_per_paper: 6,
            seed: 0xD8_1B,
        }
    }
}

impl DblpConfig {
    fn validate(&self) {
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(self.authors >= 2, "need at least two authors");
        assert!(self.papers > 0, "need at least one paper");
        for (name, p) in [
            ("stable_fraction", self.stable_fraction),
            ("stable_loyalty", self.stable_loyalty),
            ("networker_loyalty", self.networker_loyalty),
        ] {
            // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability");
        }
        assert!(
            self.stable_circle >= 1 && self.networker_circle >= 1,
            "circle capacities must be positive"
        );
        // lint: allow(no-panics) — documented generator precondition (`# Panics`): workload configs are literals in benches and tests; misuse must fail fast.
        assert!(
            self.max_authors_per_paper >= 2,
            "papers must allow at least two authors to form pairs"
        );
    }

    /// Whether an author id belongs to the stable-team class. Class
    /// membership is a deterministic hash of the id so it needs no state.
    fn is_stable(&self, author: u32) -> bool {
        let bucket = (sketch::hash::mix64(author as u64 ^ 0x57AB) % 1000) as f64;
        bucket < self.stable_fraction * 1000.0
    }

    fn loyalty(&self, author: u32) -> f64 {
        if self.is_stable(author) {
            self.stable_loyalty
        } else {
            self.networker_loyalty
        }
    }

    fn circle_cap(&self, author: u32) -> usize {
        if self.is_stable(author) {
            self.stable_circle
        } else {
            self.networker_circle
        }
    }
}

/// Generate a DBLP-like co-authorship stream (ordered author pairs in
/// chronological paper order).
pub fn generate(cfg: DblpConfig) -> Vec<StreamEdge> {
    cfg.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let productivity = Zipf::new(cfg.authors as u64, cfg.productivity_skew);
    // Collaborator circles, grown as papers are published.
    let mut circles: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut out = Vec::with_capacity(cfg.papers * 3);
    let mut authors_buf: Vec<u32> = Vec::with_capacity(cfg.max_authors_per_paper);

    for paper in 0..cfg.papers {
        // Paper size: 2 + geometric-ish, truncated; ~20% solo papers.
        let mut k = 2usize;
        while k < cfg.max_authors_per_paper && rng.gen::<f64>() < 0.45 {
            k += 1;
        }
        if rng.gen::<f64>() < 0.2 {
            k = 1;
        }

        authors_buf.clear();
        let first = (productivity.sample(&mut rng) - 1) as u32;
        authors_buf.push(first);
        let loyalty = cfg.loyalty(first);
        let mut attempts = 0;
        while authors_buf.len() < k && attempts < 4 * k {
            attempts += 1;
            let circle = circles.get(&first);
            let candidate =
                if let Some(c) = circle.filter(|c| !c.is_empty() && rng.gen::<f64>() < loyalty) {
                    c[rng.gen_range(0..c.len())]
                } else {
                    // Fresh collaborators are recruited from the open
                    // (networker) community: stable-team authors only publish
                    // within their own labs, which keeps each vertex's pair
                    // frequencies coherent (local similarity, §3.3).
                    let mut cand = (productivity.sample(&mut rng) - 1) as u32;
                    let mut tries = 0;
                    while cfg.is_stable(cand) && cand != first && tries < 8 {
                        cand = (productivity.sample(&mut rng) - 1) as u32;
                        tries += 1;
                    }
                    cand
                };
            if !authors_buf.contains(&candidate) {
                authors_buf.push(candidate);
            }
        }

        // Grow collaborator circles (bounded per class).
        for &a in &authors_buf {
            let cap = cfg.circle_cap(a);
            let circle = circles.entry(a).or_default();
            for &b in &authors_buf {
                if a != b && !circle.contains(&b) && circle.len() < cap {
                    circle.push(b);
                }
            }
        }

        // Emit all ordered pairs (a_i, a_j), i < j, at this paper's time.
        let ts = paper as u64;
        for i in 0..authors_buf.len() {
            for j in (i + 1)..authors_buf.len() {
                out.push(StreamEdge::unit(
                    Edge::new(VertexId(authors_buf[i]), VertexId(authors_buf[j])),
                    ts,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCounter;
    use crate::stats::VarianceStats;

    fn small() -> DblpConfig {
        DblpConfig {
            authors: 2000,
            papers: 5000,
            seed: 1,
            ..DblpConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "at least two authors")]
    fn too_few_authors_rejected() {
        generate(DblpConfig {
            authors: 1,
            ..DblpConfig::default()
        });
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(generate(small()), generate(small()));
        let other = DblpConfig { seed: 2, ..small() };
        assert_ne!(generate(small()), generate(other));
    }

    #[test]
    fn timestamps_monotone_nondecreasing() {
        let s = generate(small());
        assert!(!s.is_empty());
        for w in s.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
    }

    #[test]
    fn vertices_within_universe() {
        let cfg = small();
        for se in generate(cfg) {
            assert!(se.edge.src.0 < cfg.authors);
            assert!(se.edge.dst.0 < cfg.authors);
        }
    }

    #[test]
    fn no_self_loops() {
        for se in generate(small()) {
            assert!(!se.edge.is_loop());
        }
    }

    #[test]
    fn productivity_is_heavy_tailed() {
        let s = generate(small());
        let c = ExactCounter::from_stream(&s);
        let prof = c.vertex_profile();
        let mut freqs: Vec<u64> = prof.values().map(|p| p.frequency).collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top1pct = freqs.len() / 100 + 1;
        let top: u64 = freqs.iter().take(top1pct).sum();
        assert!(
            top as f64 / total as f64 > 0.2,
            "top 1% of authors should dominate: {:.3}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn per_vertex_average_frequency_spreads() {
        // The property the partitioner needs: stable-team authors must
        // have much heavier average pair frequency than networkers.
        let s = generate(DblpConfig {
            authors: 3000,
            papers: 30_000,
            seed: 4,
            ..DblpConfig::default()
        });
        let c = ExactCounter::from_stream(&s);
        let prof = c.vertex_profile();
        let mut avgs: Vec<f64> = prof
            .values()
            .filter(|p| p.frequency >= 5) // active authors
            .map(|p| p.avg_edge_frequency())
            .collect();
        assert!(avgs.len() > 100, "not enough active authors");
        avgs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = avgs[avgs.len() / 10];
        let p90 = avgs[avgs.len() * 9 / 10];
        assert!(
            p90 / p10.max(0.1) > 3.0,
            "avg pair frequency must spread across vertices: p10={p10:.2} p90={p90:.2}"
        );
    }

    #[test]
    fn heavy_mass_is_spread_over_many_edges() {
        // Global heterogeneity must come from many moderately-heavy
        // pairs, not a handful of monsters.
        let s = generate(DblpConfig {
            authors: 3000,
            papers: 30_000,
            seed: 4,
            ..DblpConfig::default()
        });
        let c = ExactCounter::from_stream(&s);
        let heavy_edges = c.iter().filter(|&(_, f)| f >= 5).count();
        let heavy_mass: u64 = c.iter().filter(|&(_, f)| f >= 5).map(|(_, f)| f).sum();
        assert!(heavy_edges > 500, "too few heavy pairs: {heavy_edges}");
        assert!(
            heavy_mass as f64 / c.total_weight() as f64 > 0.3,
            "heavy pairs should carry >30% of mass: {:.3}",
            heavy_mass as f64 / c.total_weight() as f64
        );
    }

    #[test]
    fn variance_ratio_above_one() {
        // The signature property the paper reports (ratio 3.674 for DBLP).
        let s = generate(DblpConfig {
            authors: 5000,
            papers: 20_000,
            seed: 3,
            ..DblpConfig::default()
        });
        let stats = VarianceStats::from_counts(&ExactCounter::from_stream(&s));
        assert!(
            stats.ratio() > 1.5,
            "variance ratio should exceed 1.5, got {:.3}",
            stats.ratio()
        );
    }
}
