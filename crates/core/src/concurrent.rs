//! Concurrent ingest (an engineering extension beyond the paper).
//!
//! gSketch's partitioned layout shards naturally: writers whose edges
//! route to different partitions touch disjoint slices of the counter
//! slab, and the router itself is read-only after construction. Since
//! the arena refactor (DESIGN.md §2) this module no longer takes a lock
//! per partition: the synopsis is an [`AtomicCmArena`] — the same
//! contiguous slab as the sequential [`CmArena`](sketch::CmArena) with
//! `AtomicU64` cells — so updates are lock-free saturating CAS adds and
//! contention is striped across slots (per-slot total counters included)
//! instead of serialized behind `Vec<Mutex<CountMinSketch>>`. This module
//! exists because real deployments ingest from multiple network threads;
//! the paper's experiments are single-threaded.

use crate::gsketch::GSketch;
use crate::partition::PartitionPlan;
use crate::pipeline::SlotSink;
use crate::router::{Router, SketchId};
use crate::sink::{EdgeSink, SlotRouted};
use gstream::edge::{Edge, StreamEdge};
use gstream::vertex::VertexId;
use sketch::{AtomicBlockedBloom, AtomicCmArena};

/// A thread-safe gSketch supporting shared-reference ingest over the
/// default arena backend.
#[derive(Debug)]
pub struct ConcurrentGSketch {
    bank: AtomicCmArena,
    router: Router,
    plan: PartitionPlan,
    depth: usize,
    /// Zero-frequency pre-filter in its lock-free form; membership is
    /// maintained on every commit surface (DESIGN.md §12).
    filter: Option<AtomicBlockedBloom>,
    /// Whether reads consult the filter (mirrors the sequential toggle).
    filter_reads: bool,
}

impl ConcurrentGSketch {
    /// Freeze a built [`GSketch`] into a concurrent one.
    pub fn from_gsketch(g: GSketch) -> Self {
        let (bank, router, plan, depth, filter, filter_reads) = g.into_parts();
        Self {
            bank: bank.into_atomic(),
            router,
            plan,
            depth,
            filter: filter.map(sketch::BlockedBloom::into_atomic),
            filter_reads,
        }
    }

    /// The pre-filter, if reads should consult it.
    #[inline]
    fn read_filter(&self) -> Option<&AtomicBlockedBloom> {
        if self.filter_reads {
            self.filter.as_ref()
        } else {
            None
        }
    }

    /// Estimate the aggregate frequency of an edge. Lock-free; sees every
    /// update that happened-before the call. Keys the pre-filter has
    /// never seen answer exactly `0` without touching a counter row.
    pub fn estimate(&self, edge: Edge) -> u64 {
        let slot = self.router.slot(edge.src);
        let key = edge.key();
        if let Some(f) = self.read_filter() {
            if !f.contains(slot, key) {
                return 0;
            }
        }
        self.bank.estimate_slot(slot, key)
    }

    /// Answer a whole query batch, counting-sorted by router slot and
    /// probed through the atomic arena's batched read kernel — the same
    /// slot-grouped discipline as [`GSketch::estimate_batch`], callable
    /// from any thread concurrently with ingest (each answer sees every
    /// update that happened-before the call). With the pre-filter on,
    /// each slot run is first screened through the batched membership
    /// kernel and only surviving keys reach the counters.
    // audit: kernel(bounds-free)
    pub fn estimate_batch(&self, edges: &[Edge], out: &mut Vec<u64>) {
        if let Some(f) = self.read_filter() {
            let mut mask = Vec::new();
            crate::query::estimate_batch_by_slot(
                edges,
                self.bank.num_slots(),
                |src| self.router.slot(src),
                |slot, keys, vals| {
                    f.contains_batch(slot, keys, &mut mask);
                    crate::gsketch::filtered_run(
                        &mask,
                        keys,
                        |ks, vs| self.bank.estimate_batch_slot(slot, ks, vs),
                        vals,
                    );
                },
                out,
            );
            return;
        }
        crate::query::estimate_batch_by_slot(
            edges,
            self.bank.num_slots(),
            |src| self.router.slot(src),
            |slot, keys, vals| self.bank.estimate_batch_slot(slot, keys, vals),
            out,
        );
    }

    /// Which sketch serves `edge`.
    pub fn route(&self, edge: Edge) -> SketchId {
        self.router.route(edge.src)
    }

    /// Number of partitioned sketches (contention stripes).
    pub fn num_partitions(&self) -> usize {
        self.bank.num_slots() - 1
    }

    /// Total stream weight absorbed so far across all slots (sees every
    /// update that happened-before the call).
    pub fn total_weight(&self) -> u64 {
        (0..self.bank.num_slots())
            .map(|s| self.bank.slot_total(s as u32))
            .fold(0u64, u64::saturating_add)
    }

    /// Thaw back into a sequential [`GSketch`]. Requires exclusive
    /// ownership, so no updates can be in flight.
    pub fn into_gsketch(self) -> GSketch {
        GSketch::from_parts(
            self.bank.into_arena(),
            self.router,
            self.plan,
            self.depth,
            self.filter.map(AtomicBlockedBloom::into_bloom),
            self.filter_reads,
        )
    }
}

impl EdgeSink for ConcurrentGSketch {
    #[inline]
    fn update(&mut self, se: StreamEdge) {
        (&*self).update(se);
    }
}

/// The shared-reference sink: what each worker thread holds. Updates go
/// through the lock-free saturating-CAS adds, so any number of `&self`
/// sinks may ingest concurrently.
impl EdgeSink for &ConcurrentGSketch {
    #[inline]
    fn update(&mut self, se: StreamEdge) {
        let slot = self.router.slot(se.edge.src);
        let key = se.edge.key();
        if let Some(f) = &self.filter {
            f.insert(slot, key);
        }
        self.bank.update_slot(slot, key, se.weight);
    }
}

/// Same soundness argument as the sequential [`GSketch`]: slot spans
/// are disjoint, so the router slot bounds a write's blast radius.
impl crate::replay::WriteLocalized for ConcurrentGSketch {
    fn write_domains(&self) -> usize {
        self.bank.num_slots()
    }

    #[inline]
    fn write_domain(&self, src: VertexId) -> u32 {
        self.router.slot(src)
    }
}

/// The routing view shared by the sharded ingest engine and the
/// slot-routed query path: the read-only router over the arena's flat
/// slot space.
impl SlotRouted for ConcurrentGSketch {
    fn num_slots(&self) -> usize {
        self.bank.num_slots()
    }

    #[inline]
    fn slot_of(&self, src: VertexId) -> u32 {
        self.router.slot(src)
    }
}

/// The engine-facing surface: route by source vertex, commit key-sorted
/// runs straight into the atomic arena's slot spans.
impl SlotSink for ConcurrentGSketch {
    #[inline]
    fn commit_run_exclusive(&self, slot: u32, sorted_run: &[(u64, u64)]) {
        if let Some(f) = &self.filter {
            // Sound under the same contract as the counter path: the
            // caller owns this slot exclusively, and the filter's blocks
            // are slot-partitioned just like the arena's spans.
            f.insert_run_exclusive(slot, sorted_run);
        }
        self.bank.add_batch_saturating_exclusive(slot, sorted_run);
    }

    /// First-touch the owner's contiguous slice of the slab (see
    /// [`sketch::AtomicCmArena::touch_slot_range`]).
    fn warm_slots(&self, lo: u32, hi: u32) {
        self.bank.touch_slot_range(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn build() -> ConcurrentGSketch {
        let sample: Vec<StreamEdge> = (0..100u32)
            .map(|v| StreamEdge::unit(Edge::new(v, v + 1000), v as u64))
            .collect();
        let g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(32)
            .build_from_sample(&sample)
            .unwrap();
        ConcurrentGSketch::from_gsketch(g)
    }

    #[test]
    fn single_thread_matches_sequential_semantics() {
        let mut c = build();
        let e = Edge::new(5u32, 1005u32);
        c.update(StreamEdge::weighted(e, 0, 7));
        assert!(c.estimate(e) >= 7);
    }

    #[test]
    fn concurrent_ingest_loses_nothing() {
        let c = Arc::new(build());
        let threads = 8;
        let per_thread = 1_000u64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                // Each thread ingests through its own shared-reference
                // sink, all hammering one edge plus a private one.
                let mut sink: &ConcurrentGSketch = &c;
                let shared = Edge::new(1u32, 1001u32);
                let private = Edge::new(t as u32, 1000 + t as u32);
                for _ in 0..per_thread {
                    sink.update(StreamEdge::unit(shared, 0));
                    sink.update(StreamEdge::unit(private, 0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let shared = Edge::new(1u32, 1001u32);
        assert!(c.estimate(shared) >= threads as u64 * per_thread);
        assert_eq!(c.total_weight(), threads as u64 * per_thread * 2);
        // Counter totals must reflect every update exactly (no lost
        // increments under the atomic adds).
        let g = Arc::try_unwrap(c).unwrap().into_gsketch();
        assert_eq!(g.total_weight(), threads as u64 * per_thread * 2);
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let mut c = build();
        let e = Edge::new(3u32, 1003u32);
        c.update(StreamEdge::weighted(e, 0, 11));
        let g = c.into_gsketch();
        assert!(g.estimate(e) >= 11);
    }

    #[test]
    fn roundtrip_preserves_routing_and_plan() {
        let sample: Vec<StreamEdge> = (0..100u32)
            .map(|v| StreamEdge::unit(Edge::new(v, v + 1000), v as u64))
            .collect();
        let g = GSketch::builder()
            .memory_bytes(1 << 16)
            .min_width(32)
            .build_from_sample(&sample)
            .unwrap();
        let partitions = g.num_partitions();
        let routes: Vec<SketchId> = sample.iter().map(|se| g.route(se.edge)).collect();
        let back = ConcurrentGSketch::from_gsketch(g).into_gsketch();
        assert_eq!(back.num_partitions(), partitions);
        assert_eq!(back.plan().len(), partitions);
        for (se, r) in sample.iter().zip(routes) {
            assert_eq!(back.route(se.edge), r);
        }
    }
}
