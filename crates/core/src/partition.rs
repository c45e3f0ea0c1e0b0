//! The sketch-partitioning algorithm (§4, Figures 2 and 3).
//!
//! A virtual global CountMin sketch of width `w` is recursively split in
//! two, decision-tree style. At each node the sample vertices are sorted
//! by the scenario's key (`f̃v/d̃` for data-only, `f̃v/w̃` with a workload
//! sample) and the pivot minimizing the objective `E′` (Eq. 9 / Eq. 11)
//! is chosen; each child receives half the node's width. A node stops
//! splitting — and a localized sketch is materialized — when its width
//! would drop below `w0`, or when it counts so few distinct edges that
//! collisions are already improbable (`Σ d̃(m) ≤ C·width`, Theorem 1).
//! Sketches terminated by the second criterion are shrunk to width
//! `Σ d̃(m)`; the saved width is redistributed over the remaining leaves
//! proportionally to their estimated frequency mass (the paper notes the
//! space "can be allocated to other sketches" without prescribing a
//! scheme; see DESIGN.md §5).

use crate::vstats::{SampleStats, VertexStat};
use gstream::vertex::VertexId;
use serde::{Deserialize, Serialize};

/// Which objective function drives pivot selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Objective {
    /// Scenario 1: data sample only — Eq. (9), sort key `f̃v/d̃`.
    #[default]
    DataOnly,
    /// Scenario 2: data + workload samples — Eq. (11), sort key `f̃v/w̃`.
    DataWorkload,
}

/// How the final leaf widths are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WidthAllocation {
    /// Minimize `Σ_i E_i = Σ_i F̃(S_i)·A(S_i)/w_i` exactly: by Lagrange
    /// multipliers the optimum is `w_i ∝ √(F̃(S_i)·A(S_i))`. Widths are
    /// additionally capped at twice the leaf's estimated distinct-edge
    /// count (more cells than edges is waste, Theorem 1), with the
    /// surplus re-flowing to uncapped leaves. This solves the paper's
    /// Problem 2 objective directly instead of approximating it with
    /// equal halving; the ablation bench compares both.
    #[default]
    Optimal,
    /// The paper's literal scheme (Figures 2–3): every split halves the
    /// width, Theorem-1 leaves shrink to `Σ d̃(m)`, and saved width is
    /// redistributed proportionally to frequency mass.
    EqualSplit,
}

/// Tunables of the partitioning algorithm.
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Width of the virtual global sketch (cells per row) available to
    /// the partitioned (non-outlier) sketches.
    pub total_width: usize,
    /// Minimum width a sketch may be split down to (`w0`).
    pub min_width: usize,
    /// Collision-probability constant `C ∈ (0, 1)` of Theorem 1. Fixed
    /// at 0.5 for every build; only this module's tests vary it.
    pub(crate) collision_factor: f64,
    /// Objective/scenario selector.
    pub objective: Objective,
    /// Whether width saved by Theorem-1 shrinking is redistributed to the
    /// remaining leaves (DESIGN.md §5). Only meaningful under
    /// [`WidthAllocation::EqualSplit`]; the ablation bench toggles it.
    pub redistribute: bool,
    /// Final width assignment policy.
    pub allocation: WidthAllocation,
}

impl PartitionConfig {
    /// Reasonable defaults for a given total width.
    pub fn new(total_width: usize) -> Self {
        Self {
            total_width,
            min_width: 512,
            collision_factor: 0.5,
            objective: Objective::DataOnly,
            redistribute: true,
            allocation: WidthAllocation::Optimal,
        }
    }

    fn validate(&self) {
        // lint: allow(no-panics) — documented precondition: a malformed partition plan must fail fast at build time, not skew estimates later.
        assert!(self.total_width >= 2, "total width must be at least 2");
        assert!(self.min_width >= 2, "min width must be at least 2");
        assert!(
            self.collision_factor > 0.0 && self.collision_factor < 1.0,
            "collision factor must lie in (0, 1)"
        );
    }
}

/// A materialized leaf of the partitioning tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanLeaf {
    /// The sample vertices routed to this sketch.
    pub vertices: Vec<VertexId>,
    /// Final width of the localized sketch.
    pub width: usize,
    /// Whether the leaf was terminated (and shrunk) by the Theorem-1
    /// distinct-edge criterion.
    pub shrunk: bool,
    /// Estimated frequency mass `F̃(S_i) = Σ f̃v(m)` of the leaf.
    pub freq_mass: u64,
    /// Estimated distinct-edge count `Σ d̃(m)` of the leaf.
    pub degree_mass: u64,
    /// The leaf's error factor `A(S_i)` (sum of per-vertex numerator
    /// factors of E′); `E_i ∝ F̃(S_i)·A(S_i)/w_i`.
    pub error_factor: f64,
}

/// The output of the partitioning pre-processing step: the leaves whose
/// sketches will be physically constructed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Materialized leaves. Never empty if the sample was non-empty.
    pub leaves: Vec<PlanLeaf>,
    /// Nodes examined while building the tree (diagnostics).
    pub nodes_examined: usize,
}

impl PartitionPlan {
    /// Total width across all leaves.
    pub fn total_width(&self) -> usize {
        self.leaves.iter().map(|l| l.width).sum()
    }

    /// Number of localized sketches.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the plan has no leaves (empty sample).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

/// One vertex with its partitioning keys, precomputed once.
#[derive(Debug, Clone, Copy)]
struct Item {
    vertex: VertexId,
    /// `f̃v(m)` — frequency mass contribution.
    freq: u64,
    /// `d̃(m)` — degree mass contribution.
    degree: u64,
    /// Sort key (scenario dependent).
    key: f64,
    /// Per-vertex numerator factor of `E′`:
    /// data-only `d̃²/f̃v`; data+workload `w̃·d̃/f̃v`.
    factor: f64,
}

fn make_items(stats: &SampleStats, objective: Objective) -> Vec<Item> {
    let mut items: Vec<Item> = stats
        .iter()
        .map(|(v, s)| Item {
            vertex: v,
            freq: s.freq,
            degree: s.degree,
            key: sort_key(s, objective),
            factor: factor(s, objective),
        })
        .collect();
    items.sort_unstable_by(|a, b| {
        a.key
            .partial_cmp(&b.key)
            // lint: allow(no-panics) — keys are ratios of finite, non-negative
            // sample statistics; NaN cannot reach the comparator.
            .expect("keys are finite")
            .then(a.vertex.cmp(&b.vertex))
    });
    items
}

fn sort_key(s: &VertexStat, objective: Objective) -> f64 {
    match objective {
        Objective::DataOnly => s.avg_freq(),
        Objective::DataWorkload => s.freq_per_weight(),
    }
}

fn factor(s: &VertexStat, objective: Objective) -> f64 {
    let d = s.degree as f64;
    let f = s.freq as f64;
    match objective {
        // d̃(m) · F̃ / (f̃v/d̃) = (d̃²/f̃v) · F̃
        Objective::DataOnly => d * d / f,
        // w̃(n) · F̃ / (f̃v/d̃) = (w̃·d̃/f̃v) · F̃
        Objective::DataWorkload => s.workload * d / f,
    }
}

/// Find the pivot `k ∈ [1, n)` minimizing
/// `E′(k) = F̃(S1)·A(S1) + F̃(S2)·A(S2)` over the sorted items, where
/// `A(S) = Σ factor(m)`. Returns `(pivot, E′)`, or `None` when `n < 2`.
fn best_pivot(items: &[Item]) -> Option<(usize, f64)> {
    let n = items.len();
    if n < 2 {
        return None;
    }
    // Prefix sums of freq-mass and factor allow O(1) evaluation per pivot.
    let total_freq: f64 = items.iter().map(|i| i.freq as f64).sum();
    let total_factor: f64 = items.iter().map(|i| i.factor).sum();
    let mut best: Option<(usize, f64)> = None;
    let mut f1 = 0.0f64;
    let mut a1 = 0.0f64;
    for (k, item) in items.iter().enumerate().take(n - 1) {
        f1 += item.freq as f64;
        a1 += item.factor;
        let f2 = total_freq - f1;
        let a2 = total_factor - a1;
        let e = f1 * a1 + f2 * a2;
        let pivot = k + 1;
        match best {
            Some((_, be)) if be <= e => {}
            _ => best = Some((pivot, e)),
        }
    }
    best
}

/// Run the partitioning algorithm of Figure 2 / Figure 3 over the sample
/// statistics, producing the set of leaves to materialize.
pub fn partition(stats: &SampleStats, cfg: &PartitionConfig) -> PartitionPlan {
    cfg.validate();
    let items = make_items(stats, cfg.objective);
    if items.is_empty() {
        return PartitionPlan {
            leaves: Vec::new(),
            nodes_examined: 0,
        };
    }

    // Active list of (sorted item range, width); the tree is traversed
    // iteratively, exactly as the paper's active list `L`.
    struct Node {
        lo: usize,
        hi: usize,
        width: usize,
    }
    let mut active = vec![Node {
        lo: 0,
        hi: items.len(),
        width: cfg.total_width,
    }];
    let mut leaves: Vec<PlanLeaf> = Vec::new();
    let mut nodes_examined = 0usize;

    while let Some(node) = active.pop() {
        nodes_examined += 1;
        let slice = &items[node.lo..node.hi];
        let degree_mass: u64 = slice.iter().map(|i| i.degree).sum();
        let freq_mass: u64 = slice.iter().map(|i| i.freq).sum();
        let error_factor: f64 = slice.iter().map(|i| i.factor).sum();

        // Theorem-1 criterion: few enough distinct edges → materialize,
        // shrunk to Σ d̃(m).
        let collision_ok = (degree_mass as f64) <= cfg.collision_factor * node.width as f64;
        // Width criterion: too narrow to split further.
        let too_narrow = node.width / 2 < cfg.min_width;
        // Degenerate: a single vertex cannot be split.
        let unsplittable = slice.len() < 2;

        if collision_ok || too_narrow || unsplittable {
            let (width, shrunk) = if collision_ok {
                ((degree_mass as usize).clamp(2, node.width), true)
            } else {
                (node.width, false)
            };
            leaves.push(PlanLeaf {
                vertices: slice.iter().map(|i| i.vertex).collect(),
                width,
                shrunk,
                freq_mass,
                degree_mass,
                error_factor,
            });
            continue;
        }

        // lint: allow(no-panics) — the `len < 2` case `continue`d above, and
        // `best_pivot` always yields a pivot for a slice of two or more.
        let (pivot, _e) = best_pivot(slice).expect("len >= 2 checked above");
        let half = node.width / 2;
        active.push(Node {
            lo: node.lo,
            hi: node.lo + pivot,
            width: half,
        });
        active.push(Node {
            lo: node.lo + pivot,
            hi: node.hi,
            width: half,
        });
    }

    match cfg.allocation {
        WidthAllocation::EqualSplit => {
            if cfg.redistribute {
                redistribute_saved_width(&mut leaves, cfg.total_width);
            }
        }
        WidthAllocation::Optimal => {
            allocate_optimal_widths(&mut leaves, cfg.total_width);
        }
    }

    PartitionPlan {
        leaves,
        nodes_examined,
    }
}

/// Assign widths minimizing `Σ_i F̃_i·A_i/w_i` subject to `Σ w_i = W`:
/// the Lagrange optimum is `w_i ∝ √(F̃_i·A_i)`. Each width is capped at
/// `2·Σ d̃(m)` (beyond two cells per estimated distinct edge, extra width
/// buys nothing — Theorem 1 already bounds collisions at C = 0.5 there);
/// surplus re-flows to uncapped leaves until fixpoint.
fn allocate_optimal_widths(leaves: &mut [PlanLeaf], total_width: usize) {
    if leaves.is_empty() {
        return;
    }
    let score = |l: &PlanLeaf| (l.freq_mass as f64 * l.error_factor).sqrt();
    let cap = |l: &PlanLeaf| (l.degree_mass as usize * 2).max(2);
    let mut capped = vec![false; leaves.len()];
    let mut remaining = total_width;
    // A few rounds suffice: every round either finishes or caps ≥1 leaf.
    for _ in 0..leaves.len().min(64) {
        let denom: f64 = leaves
            .iter()
            .zip(&capped)
            .filter(|(_, &c)| !c)
            .map(|(l, _)| score(l))
            .sum();
        if denom <= 0.0 || remaining == 0 {
            break;
        }
        let mut newly_capped = false;
        let budget = remaining;
        for (i, leaf) in leaves.iter_mut().enumerate() {
            if capped[i] {
                continue;
            }
            // cast: f64 -> usize truncation; score/denom <= 1, so each ideal
            // share is bounded by `budget`.
            let ideal = (budget as f64 * score(leaf) / denom).floor() as usize;
            let c = cap(leaf);
            if ideal >= c {
                leaf.width = c;
                leaf.shrunk = true;
                capped[i] = true;
                remaining = remaining.saturating_sub(c);
                newly_capped = true;
            }
        }
        if !newly_capped {
            // Final assignment for the uncapped leaves.
            for (i, leaf) in leaves.iter_mut().enumerate() {
                if !capped[i] {
                    // cast: f64 -> usize truncation; score/denom <= 1 bounds the share
                    // by `budget`, and `.max(2)` keeps the width legal.
                    leaf.width = ((budget as f64 * score(leaf) / denom).floor() as usize).max(2);
                }
            }
            return;
        }
    }
    // All leaves capped (or degenerate). The cap is a *soft* optimum
    // derived from estimated distinct-edge counts; when the whole budget
    // still is not spent, estimated degrees were the binding constraint
    // everywhere, and since collision mass shrinks linearly with width,
    // the surplus is worth spending: grow every leaf pro rata by score.
    for (i, leaf) in leaves.iter_mut().enumerate() {
        if !capped[i] {
            leaf.width = leaf.width.max(2);
        }
    }
    let used: usize = leaves.iter().map(|l| l.width).sum();
    let surplus = total_width.saturating_sub(used);
    if surplus > 0 {
        let denom: f64 = leaves.iter().map(score).sum();
        if denom > 0.0 {
            for leaf in leaves.iter_mut() {
                // cast: f64 -> usize truncation; score/denom <= 1 bounds each share
                // by `surplus`.
                leaf.width += (surplus as f64 * score(leaf) / denom).floor() as usize;
            }
        }
    }
}

/// Hand width saved by shrunk leaves to the non-shrunk ones,
/// proportionally to their frequency mass.
fn redistribute_saved_width(leaves: &mut [PlanLeaf], total_width: usize) {
    let used: usize = leaves.iter().map(|l| l.width).sum();
    let saved = total_width.saturating_sub(used);
    if saved == 0 {
        return;
    }
    let grow_mass: u64 = leaves
        .iter()
        .filter(|l| !l.shrunk)
        .map(|l| l.freq_mass)
        .sum();
    if grow_mass == 0 {
        return;
    }
    for leaf in leaves.iter_mut().filter(|l| !l.shrunk) {
        let share = saved as f64 * leaf.freq_mass as f64 / grow_mass as f64;
        // cast: f64 -> usize truncation; leaf mass / grow_mass <= 1 bounds
        // each share by `saved`.
        leaf.width += share.floor() as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::edge::{Edge, StreamEdge};

    fn se(s: u32, d: u32, w: u64) -> StreamEdge {
        StreamEdge::weighted(Edge::new(s, d), 0, w)
    }

    /// A bimodal sample: vertices 0..10 have light edges, 100..110 heavy.
    fn bimodal() -> SampleStats {
        let mut sample = Vec::new();
        for v in 0..10u32 {
            for t in 0..4u32 {
                sample.push(se(v, 1000 + t, 1));
            }
        }
        for v in 100..110u32 {
            for t in 0..4u32 {
                sample.push(se(v, 2000 + t, 100));
            }
        }
        SampleStats::from_data_sample(&sample)
    }

    #[test]
    fn empty_sample_yields_empty_plan() {
        let stats = SampleStats::from_data_sample(&[]);
        let plan = partition(&stats, &PartitionConfig::new(1 << 14));
        assert!(plan.is_empty());
    }

    #[test]
    fn all_sample_vertices_covered_exactly_once() {
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(1 << 14);
        cfg.min_width = 256;
        let plan = partition(&stats, &cfg);
        let mut seen: Vec<VertexId> = plan
            .leaves
            .iter()
            .flat_map(|l| l.vertices.iter().copied())
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<VertexId> = stats.iter().map(|(v, _)| v).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn split_separates_frequency_modes() {
        // With two sharply different frequency regimes, no leaf should mix
        // light (avg 1) and heavy (avg 100) vertices.
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(1 << 14);
        cfg.min_width = 256;
        // Disable Theorem-1 early exit so splitting is driven by E'.
        cfg.collision_factor = 0.0001;
        let plan = partition(&stats, &cfg);
        assert!(plan.len() >= 2, "expected at least one split");
        for leaf in &plan.leaves {
            let light = leaf.vertices.iter().filter(|v| v.0 < 50).count();
            let heavy = leaf.vertices.iter().filter(|v| v.0 >= 50).count();
            assert!(
                light == 0 || heavy == 0,
                "leaf mixes modes: {light} light, {heavy} heavy"
            );
        }
    }

    #[test]
    fn width_never_exceeds_budget_without_shrink() {
        let stats = bimodal();
        for allocation in [WidthAllocation::EqualSplit, WidthAllocation::Optimal] {
            let mut cfg = PartitionConfig::new(1 << 12);
            cfg.redistribute = false;
            cfg.allocation = allocation;
            let plan = partition(&stats, &cfg);
            assert!(
                plan.total_width() <= cfg.total_width,
                "{allocation:?} overflowed the budget"
            );
        }
    }

    #[test]
    fn redistribution_reuses_saved_width() {
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(1 << 14);
        cfg.collision_factor = 0.9; // encourage Theorem-1 shrinking
        cfg.allocation = WidthAllocation::EqualSplit;
        cfg.redistribute = false;
        let without = partition(&stats, &cfg);
        cfg.redistribute = true;
        let with = partition(&stats, &cfg);
        assert!(with.total_width() >= without.total_width());
        assert!(with.total_width() <= cfg.total_width);
    }

    #[test]
    fn theorem_one_shrinks_tiny_nodes() {
        // A sample with a handful of distinct edges and a huge width must
        // terminate immediately, shrunk to the degree mass.
        let sample = vec![se(1, 2, 5), se(3, 4, 5)];
        let stats = SampleStats::from_data_sample(&sample);
        let mut cfg = PartitionConfig::new(1 << 16);
        cfg.allocation = WidthAllocation::EqualSplit;
        let plan = partition(&stats, &cfg);
        assert_eq!(plan.len(), 1);
        let leaf = &plan.leaves[0];
        assert!(leaf.shrunk);
        assert_eq!(leaf.degree_mass, 2);
        assert_eq!(leaf.width, 2);
    }

    #[test]
    fn min_width_respected_under_equal_split() {
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(4096);
        cfg.min_width = 1024;
        cfg.collision_factor = 0.0001; // force splitting pressure
        cfg.redistribute = false;
        cfg.allocation = WidthAllocation::EqualSplit;
        let plan = partition(&stats, &cfg);
        for leaf in &plan.leaves {
            assert!(leaf.width >= 1024, "leaf narrower than w0: {}", leaf.width);
        }
    }

    #[test]
    fn optimal_allocation_favours_high_error_mass() {
        // Heavy-mass leaves must receive more width than light ones,
        // proportionally to sqrt(F·A), unless capped.
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(1 << 12);
        cfg.min_width = 64;
        cfg.collision_factor = 0.0001; // no Theorem-1 exits
        cfg.allocation = WidthAllocation::Optimal;
        let plan = partition(&stats, &cfg);
        assert!(plan.len() >= 2);
        // Within budget always; fully used unless every leaf hit its
        // 2×degree-mass cap (the builder hands unclaimed width to the
        // outlier sketch in that case).
        assert!(plan.total_width() <= cfg.total_width);
        let all_capped = plan.leaves.iter().all(|l| l.shrunk);
        if !all_capped {
            assert!(plan.total_width() + plan.len() * 2 >= cfg.total_width * 9 / 10);
        }
        // sqrt(F·A) ordering respected among uncapped leaves.
        let mut by_score: Vec<(f64, usize)> = plan
            .leaves
            .iter()
            .filter(|l| !l.shrunk)
            .map(|l| ((l.freq_mass as f64 * l.error_factor).sqrt(), l.width))
            .collect();
        by_score.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in by_score.windows(2) {
            assert!(
                w[0].1 <= w[1].1 + 1,
                "width ordering violates score ordering: {by_score:?}"
            );
        }
    }

    #[test]
    fn optimal_allocation_caps_sparse_leaves() {
        // With every leaf degree-capped, the cap first limits each leaf,
        // and the surplus is then re-flowed pro rata by error score so
        // the byte budget is never silently wasted.
        let sample = vec![se(1, 2, 1_000_000), se(3, 4, 1), se(3, 5, 1)];
        let stats = SampleStats::from_data_sample(&sample);
        let mut cfg = PartitionConfig::new(1 << 14);
        cfg.min_width = 4;
        cfg.collision_factor = 0.0001;
        cfg.allocation = WidthAllocation::Optimal;
        let plan = partition(&stats, &cfg);
        // The full budget is spent (up to rounding slack).
        let used = plan.total_width();
        assert!(
            used <= 1 << 14 && used + plan.len() >= (1 << 14) - 1,
            "budget not fully allocated: {used} of {}",
            1 << 14
        );
        // Error-optimal allocation scores a leaf by √(F̃·A); the sparse
        // leaf (vertex 3: two freq-1 edges, A = 2) has the higher error
        // mass than the single heavy edge (A = 10⁻⁶), so it receives at
        // least as much width.
        let heavy = plan
            .leaves
            .iter()
            .find(|l| l.vertices.contains(&VertexId(1)))
            .unwrap();
        let light = plan
            .leaves
            .iter()
            .find(|l| l.vertices.contains(&VertexId(3)))
            .unwrap();
        assert!(light.width >= heavy.width);
    }

    #[test]
    fn pivot_prefers_mode_boundary() {
        // Direct unit test of best_pivot: two clusters of keys.
        let items: Vec<Item> = (0..8)
            .map(|i| Item {
                vertex: VertexId(i),
                freq: if i < 4 { 2 } else { 200 },
                degree: 2,
                key: if i < 4 { 1.0 } else { 100.0 },
                factor: 4.0 / if i < 4 { 2.0 } else { 200.0 },
            })
            .collect();
        let (pivot, _) = best_pivot(&items).unwrap();
        assert_eq!(pivot, 4, "pivot should fall at the cluster boundary");
    }

    #[test]
    fn best_pivot_none_for_singleton() {
        let items = vec![Item {
            vertex: VertexId(0),
            freq: 1,
            degree: 1,
            key: 1.0,
            factor: 1.0,
        }];
        assert!(best_pivot(&items).is_none());
    }

    #[test]
    fn workload_objective_groups_by_query_weight() {
        // Two vertices with identical data behaviour but very different
        // workload weights should be separated under DataWorkload.
        let data = vec![se(1, 10, 50), se(2, 20, 50), se(3, 30, 1), se(4, 40, 1)];
        let workload: Vec<Edge> = std::iter::repeat_n(Edge::new(3u32, 30u32), 100).collect();
        let stats = SampleStats::from_samples(&data, &workload);
        let mut cfg = PartitionConfig::new(1 << 14);
        cfg.objective = Objective::DataWorkload;
        cfg.collision_factor = 0.0001;
        cfg.min_width = 256;
        let plan = partition(&stats, &cfg);
        // Vertex 3 (heavily queried, low freq) must not share a leaf with
        // vertex 1/2 (high freq, unqueried).
        let leaf_of = |v: u32| {
            plan.leaves
                .iter()
                .position(|l| l.vertices.contains(&VertexId(v)))
                .unwrap()
        };
        assert_ne!(leaf_of(3), leaf_of(1));
        assert_ne!(leaf_of(3), leaf_of(2));
    }

    #[test]
    #[should_panic(expected = "collision factor")]
    fn invalid_collision_factor_rejected() {
        let stats = bimodal();
        let mut cfg = PartitionConfig::new(1024);
        cfg.collision_factor = 1.5;
        partition(&stats, &cfg);
    }
}
