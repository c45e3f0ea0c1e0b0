//! The hash structure `H : V → S_i` mapping source vertices to their
//! localized sketches (§5 of the paper; memory model in DESIGN.md §6).
//!
//! The router answers in **flat slot ids**: partition `i` is slot `i` and
//! the outlier sketch is the *last* slot (`num_partitions`). The ingest
//! hot path therefore indexes straight into the synopsis bank with a
//! `u32` — no enum branch between "partition" and "outlier" — while the
//! query/diagnostic surface keeps the descriptive [`SketchId`] view.

use crate::partition::PartitionPlan;
use gstream::fxhash::FxHashMap;
use gstream::vertex::VertexId;
use serde::{Deserialize, Serialize};

/// Identifier of a localized sketch within a [`crate::GSketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SketchId {
    /// One of the partitioned sketches (index into the partition list).
    Partition(u32),
    /// The outlier sketch for vertices absent from the data sample (§5).
    Outlier,
}

/// Routes source vertices to sketch slots.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Router {
    map: FxHashMap<VertexId, u32>,
    /// The outlier's flat slot id — one past the last partition, so it is
    /// also the number of partitions.
    outlier_slot: u32,
}

impl Router {
    /// Build the routing table from a partition plan. The outlier slot is
    /// pinned to `plan.len()`, matching the bank layout `GSketch` builds
    /// (partitions first, outlier last).
    pub fn from_plan(plan: &PartitionPlan) -> Self {
        // lint: allow(no-panics) — a plan with more than 2^32 leaves cannot
        // exist: each leaf costs width >= 2 cells of the memory budget.
        let outlier_slot = u32::try_from(plan.len()).expect("fewer than 2^32 partitions");
        let mut map = FxHashMap::default();
        for (i, leaf) in plan.leaves.iter().enumerate() {
            let idx = i as u32; // bounded by outlier_slot above
            for &v in &leaf.vertices {
                let prev = map.insert(v, idx);
                debug_assert!(prev.is_none(), "vertex routed twice: {v}");
            }
        }
        Self { map, outlier_slot }
    }

    /// The flat slot responsible for edges emanating from `src`:
    /// partition index, or the outlier slot for unsampled vertices. This
    /// is the hot-path entry point — one hash probe, no branch on the
    /// result.
    #[inline]
    pub fn slot(&self, src: VertexId) -> u32 {
        match self.map.get(&src) {
            Some(&i) => i,
            None => self.outlier_slot,
        }
    }

    /// The sketch responsible for edges emanating from `src`, in the
    /// descriptive [`SketchId`] form used by queries and diagnostics.
    #[inline]
    pub fn route(&self, src: VertexId) -> SketchId {
        self.id_of_slot(self.slot(src))
    }

    /// Translate a flat slot id back into a [`SketchId`].
    #[inline]
    pub fn id_of_slot(&self, slot: u32) -> SketchId {
        if slot == self.outlier_slot {
            SketchId::Outlier
        } else {
            SketchId::Partition(slot)
        }
    }

    /// The outlier's flat slot id (= number of partitions).
    #[inline]
    pub fn outlier_slot(&self) -> u32 {
        self.outlier_slot
    }

    /// Total number of slots the router addresses (partitions + outlier).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.outlier_slot as usize + 1
    }

    /// Number of vertices with explicit routes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the routing table is empty (everything → outlier).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Memory footprint estimate of the routing table in bytes (the §5
    /// "marginal overhead" the paper accounts for; model in DESIGN.md §6).
    ///
    /// Hashbrown — the table under `std::collections::HashMap`, hence
    /// under `FxHashMap` — allocates a power-of-two bucket array sized so
    /// the load factor stays at or below 7/8, and stores one byte of
    /// control metadata per bucket (plus a constant-size sentinel group).
    /// Each bucket holds one `(VertexId, u32)` entry inline. The model
    /// reproduces exactly that accounting from the map's reported
    /// capacity, so it tracks the real allocation instead of the
    /// `capacity × (entry + 2)` underestimate the pre-flat-slot router
    /// shipped (which ignored the power-of-two rounding entirely).
    pub fn approx_bytes(&self) -> usize {
        table_bytes::<(VertexId, u32)>(self.map.capacity()) + std::mem::size_of::<u32>()
    }
}

/// The ownership map of the owner-sharded execution engine (DESIGN.md
/// §11): a partition of the flat slot space `0..num_slots` into one
/// **contiguous** slot range per owning worker.
///
/// Contiguity is the point. Slot blocks sit back-to-back in the arena
/// slab (DESIGN.md §2), so a contiguous slot range is a contiguous byte
/// range of counters: each owner commits plain stores into its own
/// slice, no two owners share a cache line beyond the two range
/// boundaries, and first-touch initialization of the range places it on
/// the owner's NUMA node. The map is a pure function of
/// `(num_slots, owners)`, so the scatter stage and the split of the
/// synopsis into owner slices derive the identical assignment without
/// sharing state.
///
/// Ranges are balanced to within one slot: slot `s` belongs to owner
/// `s·owners / num_slots`, the classic proportional split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerMap {
    num_slots: usize,
    owners: usize,
}

impl OwnerMap {
    /// A map of `num_slots` slots over `owners` workers. `owners` is
    /// clamped to `1..=num_slots` (an owner with zero slots would idle;
    /// zero owners would own nothing).
    pub fn new(num_slots: usize, owners: usize) -> Self {
        Self {
            num_slots: num_slots.max(1),
            owners: owners.clamp(1, num_slots.max(1)),
        }
    }

    /// Number of owning workers (after clamping).
    #[inline]
    pub fn owners(&self) -> usize {
        self.owners
    }

    /// Number of slots in the mapped space.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The worker owning `slot`.
    #[inline]
    pub fn owner_of(&self, slot: u32) -> u32 {
        debug_assert!((slot as usize) < self.num_slots);
        // cast: u64 -> u32; the quotient is < owners, which fits u32 by
        // construction (owners <= num_slots <= u32 slot ids + 1).
        ((slot as u64 * self.owners as u64) / self.num_slots as u64) as u32
    }

    /// The half-open slot range `[lo, hi)` owned by `owner`. Ranges of
    /// consecutive owners tile `0..num_slots` exactly.
    #[inline]
    pub fn slot_range(&self, owner: u32) -> (u32, u32) {
        let lo = (owner as u64 * self.num_slots as u64).div_ceil(self.owners as u64);
        let hi = ((owner as u64 + 1) * self.num_slots as u64).div_ceil(self.owners as u64);
        // cast: u64 -> u32; both bounds are <= num_slots, which fits u32
        // (slot ids are u32).
        (lo as u32, hi as u32)
    }
}

/// Hashbrown allocation model: bytes owned by a `HashMap` whose usable
/// capacity is `capacity` and whose inline entries are `T`.
///
/// `capacity == 0` means no allocation at all. Otherwise the bucket count
/// is the smallest power of two whose 7/8 load bound covers `capacity`
/// (with a floor of 4 buckets — hashbrown's smallest non-empty table),
/// each bucket carries `size_of::<T>()` payload plus one control byte,
/// and one 16-byte sentinel control group terminates probe sequences.
pub(crate) fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    // Smallest power-of-two bucket count b with capacity <= b * 7 / 8.
    let mut buckets = 4usize;
    while buckets * 7 / 8 < capacity {
        buckets *= 2;
    }
    buckets * (std::mem::size_of::<T>() + 1) + 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PlanLeaf;

    fn plan(groups: &[&[u32]]) -> PartitionPlan {
        PartitionPlan {
            leaves: groups
                .iter()
                .map(|vs| PlanLeaf {
                    vertices: vs.iter().map(|&v| VertexId(v)).collect(),
                    width: 16,
                    shrunk: false,
                    freq_mass: 1,
                    degree_mass: 1,
                    error_factor: 1.0,
                })
                .collect(),
            nodes_examined: 0,
        }
    }

    #[test]
    fn routes_follow_plan() {
        let r = Router::from_plan(&plan(&[&[1, 2], &[3]]));
        assert_eq!(r.route(VertexId(1)), SketchId::Partition(0));
        assert_eq!(r.route(VertexId(2)), SketchId::Partition(0));
        assert_eq!(r.route(VertexId(3)), SketchId::Partition(1));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn unknown_vertices_route_to_outlier() {
        let r = Router::from_plan(&plan(&[&[1]]));
        assert_eq!(r.route(VertexId(99)), SketchId::Outlier);
    }

    #[test]
    fn empty_plan_routes_everything_to_outlier() {
        let r = Router::from_plan(&plan(&[]));
        assert!(r.is_empty());
        assert_eq!(r.route(VertexId(0)), SketchId::Outlier);
        assert_eq!(r.slot(VertexId(0)), 0);
        assert_eq!(r.num_slots(), 1);
    }

    #[test]
    fn flat_slots_agree_with_sketch_ids() {
        let r = Router::from_plan(&plan(&[&[1, 2], &[3], &[4]]));
        assert_eq!(r.outlier_slot(), 3);
        assert_eq!(r.num_slots(), 4);
        assert_eq!(r.slot(VertexId(3)), 1);
        assert_eq!(r.id_of_slot(1), SketchId::Partition(1));
        assert_eq!(r.slot(VertexId(77)), 3);
        assert_eq!(r.id_of_slot(3), SketchId::Outlier);
        for v in [1u32, 2, 3, 4, 77, 1_000_000] {
            assert_eq!(r.id_of_slot(r.slot(VertexId(v))), r.route(VertexId(v)));
        }
    }

    /// Owner ranges are contiguous, tile the slot space exactly, are
    /// balanced to within one slot, and agree with `owner_of`.
    #[test]
    fn owner_map_ranges_tile_and_agree() {
        for num_slots in [1usize, 2, 3, 7, 8, 64, 129, 1000] {
            for owners in [1usize, 2, 3, 4, 8, 17, 2000] {
                let m = OwnerMap::new(num_slots, owners);
                assert!(m.owners() >= 1 && m.owners() <= num_slots);
                let mut next = 0u32;
                let base = num_slots / m.owners();
                for w in 0..m.owners() as u32 {
                    let (lo, hi) = m.slot_range(w);
                    assert_eq!(lo, next, "gap before owner {w}");
                    assert!(hi > lo, "empty range for owner {w}");
                    let span = (hi - lo) as usize;
                    assert!(
                        span == base || span == base + 1,
                        "unbalanced range {span} ({num_slots} slots / {} owners)",
                        m.owners()
                    );
                    for s in lo..hi {
                        assert_eq!(m.owner_of(s), w);
                    }
                    next = hi;
                }
                assert_eq!(next as usize, num_slots, "ranges do not tile");
            }
        }
    }

    #[test]
    fn owner_map_degenerate_inputs_clamp() {
        let m = OwnerMap::new(0, 0);
        assert_eq!(m.num_slots(), 1);
        assert_eq!(m.owners(), 1);
        assert_eq!(m.owner_of(0), 0);
        assert_eq!(m.slot_range(0), (0, 1));
    }

    #[test]
    fn approx_bytes_positive_when_populated() {
        let r = Router::from_plan(&plan(&[&[1, 2, 3]]));
        assert!(r.approx_bytes() > 0);
    }

    /// Pin the overhead model against the actual `FxHashMap` footprint:
    /// the model must reproduce hashbrown's bucket rounding from the
    /// map's reported capacity, never undercount the entries actually
    /// stored, and never exceed the theoretical worst case (every entry
    /// allocated at minimum load just after a doubling).
    #[test]
    fn approx_bytes_tracks_real_fxhashmap_footprint() {
        let entry = std::mem::size_of::<(VertexId, u32)>();
        assert_eq!(entry, 8);

        // Exact pins of the allocation model for known capacities:
        // 4 buckets hold up to 3 entries, 8 up to 7, doubling onward.
        assert_eq!(table_bytes::<(VertexId, u32)>(0), 0);
        assert_eq!(table_bytes::<(VertexId, u32)>(3), 4 * 9 + 16);
        assert_eq!(table_bytes::<(VertexId, u32)>(7), 8 * 9 + 16);
        assert_eq!(table_bytes::<(VertexId, u32)>(8), 16 * 9 + 16);
        assert_eq!(table_bytes::<(VertexId, u32)>(448), 512 * 9 + 16);
        assert_eq!(table_bytes::<(VertexId, u32)>(449), 1024 * 9 + 16);

        for n in [1usize, 3, 7, 8, 100, 1_000, 10_000] {
            let groups: Vec<u32> = (0..n as u32).collect();
            let r = Router::from_plan(&plan(&[&groups]));
            let map: FxHashMap<VertexId, u32> =
                (0..n as u32).map(|v| (VertexId(v), 0u32)).collect();
            // The router's own map followed the same growth policy, so
            // the model applied to either capacity must agree.
            assert_eq!(
                r.approx_bytes(),
                table_bytes::<(VertexId, u32)>(map.capacity()) + 4,
                "model diverges from a real FxHashMap at {n} entries"
            );
            // Lower bound: payload + control byte for every live entry.
            assert!(r.approx_bytes() > n * (entry + 1));
            // Upper bound: just after a doubling the table is at ~7/16
            // load, so the allocation never exceeds 16/7 of the live
            // payload+control bytes — except at the 4-bucket floor —
            // plus the constant tail.
            let ratio_bound = (n * (entry + 1) * 16 / 7).max(4 * (entry + 1));
            assert!(
                r.approx_bytes() <= ratio_bound + entry + 1 + 16 + 4,
                "model overshoots at {n} entries: {}",
                r.approx_bytes()
            );
        }
    }
}
