//! The model-check harnesses (DESIGN.md §10): each one runs a real
//! workspace concurrency surface — not a mock — under the deterministic
//! scheduler from `sketch::sync::model` and states its contract as
//! asserts, so every explored schedule either upholds the contract or
//! is reported (and replayable) as a violation.
//!
//! Harness bodies are re-executed once per schedule and must be
//! self-contained; they build their tiny fixtures inside the closure.
//! Fixtures are deliberately minimal (two or three threads, a handful
//! of operations) because the schedule space is exponential in the
//! operation count — the properties checked are schedule-local, so
//! small fixtures lose no generality over the interleaving structure.
//!
//! `run_all` is the `xtask check` entry point: DFS-exhaustive passes
//! over every harness plus seeded random walks over the threaded ones,
//! and the deliberately seeded exclusive-writer race that the checker
//! must catch to prove it has teeth.
//
// lint: allow-file(no-panics) — model-check harness bodies report
// contract violations by panicking (assert!), which the scheduler
// catches and converts into replayable Violation reports; panicking is
// this file's output channel, not an error path.
//
// lint: allow-file(sink-bypass) — the slot-level commit surface is
// exactly what H1/H5 put under the model scheduler; driving it directly
// here is the point of the harness, not an ingest path bypass.

use gsketch::{ConcurrentGSketch, EdgeSink, GSketch, GlobalSketch, ReplayEngine};
use gstream::edge::{Edge, StreamEdge};
use sketch::sync::model::{check, choose, Config, Mode, Report};
use sketch::sync::spsc::SpscQueue;
use sketch::CmArena;

/// One harness execution: its name/mode and the exploration report.
pub struct HarnessRun {
    /// Harness identifier (stable; used by the CLI and pinned tests).
    pub name: &'static str,
    /// Exploration mode label (`dfs` or `random`).
    pub mode: &'static str,
    /// What the exploration did.
    pub report: Report,
    /// Whether this harness is *supposed* to violate (the seeded race).
    pub expect_violation: bool,
}

impl HarnessRun {
    /// Whether the run's outcome matches its expectation.
    pub fn ok(&self) -> bool {
        self.report.violation.is_some() == self.expect_violation
    }
}

fn dfs(max_schedules: usize) -> Config {
    Config {
        mode: Mode::Exhaustive,
        max_schedules,
        ..Config::default()
    }
}

fn random(seed: u64, max_schedules: usize) -> Config {
    Config {
        mode: Mode::Random,
        seed,
        max_schedules,
        ..Config::default()
    }
}

// ---------------------------------------------------------------------
// H1: AtomicCmArena counter commits.
// ---------------------------------------------------------------------

/// Contract: concurrent `update_slot` commits never lose updates (the
/// arena's all-Relaxed RMW argument), and a concurrent reader's
/// estimates are monotone non-decreasing away from saturation.
pub fn arena_counters_body() {
    const KEY: u64 = 5;
    let arena = CmArena::with_slots(&[8, 8], 2, 11)
        .expect("fixture arena dims are valid")
        .into_atomic();
    sketch::sync::thread::scope(|s| {
        s.spawn(|| arena.update_slot(0, KEY, 1));
        s.spawn(|| arena.update_slot(0, KEY, 2));
        s.spawn(|| {
            let a = arena.estimate_slot(0, KEY);
            let b = arena.estimate_slot(0, KEY);
            assert!(b >= a, "reader saw estimate go backwards: {a} -> {b}");
        });
    });
    assert_eq!(arena.estimate_slot(0, KEY), 3, "lost counter update");
    assert_eq!(arena.slot_total(0), 3, "lost total update");
}

/// Contract: concurrent saturating commits near `u64::MAX` leave the
/// counter pinned exactly at `u64::MAX` — the wrap fix-up protocol
/// converges under every interleaving of the two writers. (A concurrent
/// reader may transiently observe the documented wrapped-value window,
/// so only the final state is asserted; see `saturating_fetch_add`.)
pub fn arena_saturation_body() {
    const KEY: u64 = 5;
    let arena = CmArena::with_slots(&[8], 2, 11)
        .expect("fixture arena dims are valid")
        .into_atomic();
    arena.update_slot(0, KEY, u64::MAX - 1);
    sketch::sync::thread::scope(|s| {
        s.spawn(|| arena.update_slot(0, KEY, 5));
        s.spawn(|| arena.update_slot(0, KEY, 5));
    });
    assert_eq!(
        arena.estimate_slot(0, KEY),
        u64::MAX,
        "saturation did not pin to u64::MAX"
    );
    assert_eq!(arena.slot_total(0), u64::MAX, "total did not pin");
}

// ---------------------------------------------------------------------
// H2: ConcurrentGSketch ingest vs. estimate.
// ---------------------------------------------------------------------

fn tiny_gsketch() -> GSketch {
    let sample: Vec<StreamEdge> = (0..8u32)
        .map(|i| StreamEdge::unit(Edge::new(i % 3, i % 5 + 1), 0))
        .collect();
    GSketch::builder()
        .memory_bytes(512)
        .depth(2)
        .min_width(4)
        .seed(3)
        .build_from_sample(&sample)
        .expect("fixture gsketch builds")
}

/// Contract: a reader racing a writer through the shared
/// `&ConcurrentGSketch` sink sees monotone estimates, and once the
/// writer is joined the state is exactly the sequential result.
pub fn concurrent_gsketch_body() {
    let edge = Edge::new(1, 2);
    let cg = ConcurrentGSketch::from_gsketch(tiny_gsketch());
    let base = cg.estimate(edge);
    sketch::sync::thread::scope(|s| {
        s.spawn(|| {
            let mut sink = &cg;
            sink.update(StreamEdge::weighted(edge, 0, 2));
        });
        s.spawn(|| {
            let a = cg.estimate(edge);
            let b = cg.estimate(edge);
            assert!(b >= a, "estimate went backwards: {a} -> {b}");
            assert!(a >= base, "estimate dropped below pre-write baseline");
        });
    });
    // Joined: the concurrent result must equal the sequential oracle.
    let mut oracle = tiny_gsketch();
    oracle.update(StreamEdge::weighted(edge, 0, 2));
    assert_eq!(
        cg.estimate(edge),
        oracle.estimate(edge),
        "estimate diverged"
    );
    assert_eq!(
        cg.total_weight(),
        oracle.total_weight(),
        "total weight diverged"
    );
}

// ---------------------------------------------------------------------
// H4: ReplayEngine write invalidation.
// ---------------------------------------------------------------------

/// Contract: under every interleaving of writes and queries, a memoized
/// answer equals a fresh uncached estimate — a cached answer is never
/// served across a generation bump. Single-threaded by design (the
/// engine is an `&mut` API); the interleaving of the write script
/// against the query script is enumerated via the scheduler's `choose`.
pub fn replay_invalidation_body() {
    let e = [Edge::new(1, 2), Edge::new(3, 4), Edge::new(5, 6)];
    let writes = [e[0], e[1], e[0], e[2], e[1], e[0], e[2], e[2]];
    let queries = [e[0], e[1], e[2], e[0], e[1], e[2], e[0], e[1]];
    let fresh = || GlobalSketch::new(2048, 2, 5).expect("fixture sketch dims are valid");
    let mut eng = ReplayEngine::with_capacity(fresh(), 16);
    let mut oracle = fresh();
    let (mut wi, mut qi) = (0, 0);
    while wi < writes.len() || qi < queries.len() {
        let write_next = if wi < writes.len() && qi < queries.len() {
            choose(2) == 0
        } else {
            wi < writes.len()
        };
        if write_next {
            eng.update(StreamEdge::unit(writes[wi], 0));
            oracle.update(StreamEdge::unit(writes[wi], 0));
            wi += 1;
        } else {
            let got = eng.estimate_edge(queries[qi]);
            let want = oracle.estimate(queries[qi]);
            assert_eq!(
                got, want,
                "memoized answer served across a write (stale cache)"
            );
            qi += 1;
        }
    }
}

// ---------------------------------------------------------------------
// H5: SPSC queue handoff (DESIGN.md §11).
// ---------------------------------------------------------------------

/// Contract: the load/store-only SPSC protocol is lossless and FIFO —
/// under every interleaving of one producer and one consumer over a
/// ring smaller than the push script, the values popped (during the
/// race plus a post-join drain) are exactly the pushed prefix, in
/// order. This is the handoff channel of the owner-sharded pipeline's
/// scatter stage.
pub fn spsc_queue_body() {
    let q = SpscQueue::with_capacity(2);
    let mut pushed = 0u64;
    let mut popped: Vec<u64> = Vec::new();
    sketch::sync::thread::scope(|s| {
        s.spawn(|| {
            // Push until the ring back-pressures; a failed push ends
            // the script (bounded — never a spin).
            for v in 1..=3u64 {
                if q.try_push(v).is_err() {
                    break;
                }
                pushed += 1;
            }
        });
        s.spawn(|| {
            for _ in 0..3 {
                if let Some(v) = q.try_pop() {
                    popped.push(v);
                }
            }
        });
    });
    // Post-join drain: whatever the consumer's tries missed must still
    // be queued, in order.
    while let Some(v) = q.try_pop() {
        popped.push(v);
    }
    let expect: Vec<u64> = (1..=pushed).collect();
    assert_eq!(popped, expect, "SPSC handoff lost or reordered items");
}

// ---------------------------------------------------------------------
// H6: scatter → owner exclusive commits (DESIGN.md §11).
// ---------------------------------------------------------------------

/// Contract: the ownership invariant of the sharded engine — each owner
/// pops its own SPSC queue and commits **plain stores** into its own
/// slot — keeps concurrent owners lossless, because their slot counter
/// ranges are disjoint. The queues are pre-filled by the scatter stage
/// (its own interleavings are H5's subject), so every pop succeeds and
/// the bodies stay finite.
pub fn sharded_ownership_body() {
    const KEYS: [u64; 2] = [5, 9];
    let arena = CmArena::with_slots(&[4, 4], 2, 7)
        .expect("fixture arena dims are valid")
        .into_atomic();
    let queues = [SpscQueue::with_capacity(2), SpscQueue::with_capacity(2)];
    // Scatter: owner 0 owns slot 0, owner 1 owns slot 1.
    for (owner, weight) in [(0usize, 1u64), (1, 2), (0, 3), (1, 4)] {
        queues[owner]
            .try_push((KEYS[owner], weight))
            .expect("queues are sized for the script");
    }
    sketch::sync::thread::scope(|s| {
        for (owner, queue) in queues.iter().enumerate() {
            let arena = &arena;
            s.spawn(move || {
                for _ in 0..2 {
                    if let Some((key, w)) = queue.try_pop() {
                        // cast: usize -> u32; owner ids are 0 or 1.
                        arena.add_batch_saturating_exclusive(owner as u32, &[(key, w)]);
                    }
                }
            });
        }
    });
    assert_eq!(arena.slot_total(0), 4, "owner 0 lost an exclusive commit");
    assert_eq!(arena.slot_total(1), 6, "owner 1 lost an exclusive commit");
    assert_eq!(arena.estimate_slot(0, KEYS[0]), 4, "slot 0 cell diverged");
    assert_eq!(arena.estimate_slot(1, KEYS[1]), 6, "slot 1 cell diverged");
}

// ---------------------------------------------------------------------
// H7: epoch handoff freeze/advance (DESIGN.md §11).
// ---------------------------------------------------------------------

/// Contract: the windowed deployment's epoch handoff — freeze window N
/// at a quiesced boundary, ingest window N+1 — means a reader racing
/// epoch N+1's owner sees epoch N's counters **frozen** (the scope join
/// at the boundary quiesced its writers) while epoch N+1's are
/// monotone; after the join, both epochs hold exactly their own mass.
pub fn epoch_handoff_body() {
    const KEY: u64 = 5;
    let epoch_n = CmArena::with_slots(&[4], 2, 7)
        .expect("fixture arena dims are valid")
        .into_atomic();
    // Epoch N: its sole owner commits exclusively, then quiesces (the
    // scope join is the epoch boundary).
    sketch::sync::thread::scope(|s| {
        s.spawn(|| epoch_n.add_batch_saturating_exclusive(0, &[(KEY, 2)]));
    });
    let frozen = epoch_n.estimate_slot(0, KEY);
    assert_eq!(frozen, 2, "epoch N lost its own commit");
    // Epoch N+1 ingests while a lifetime reader spans both epochs.
    let epoch_n1 = CmArena::with_slots(&[4], 2, 9)
        .expect("fixture arena dims are valid")
        .into_atomic();
    sketch::sync::thread::scope(|s| {
        s.spawn(|| epoch_n1.add_batch_saturating_exclusive(0, &[(KEY, 3)]));
        s.spawn(|| {
            let live_a = epoch_n1.estimate_slot(0, KEY);
            assert_eq!(
                epoch_n.estimate_slot(0, KEY),
                frozen,
                "frozen epoch moved under a live reader"
            );
            let live_b = epoch_n1.estimate_slot(0, KEY);
            assert!(live_b >= live_a, "live epoch went backwards");
        });
    });
    assert_eq!(epoch_n.estimate_slot(0, KEY), 2, "frozen epoch drifted");
    assert_eq!(epoch_n1.estimate_slot(0, KEY), 3, "live epoch lost mass");
}

// ---------------------------------------------------------------------
// H8: blocked Bloom filter insert vs. contains (DESIGN.md §12).
// ---------------------------------------------------------------------

/// Contract: concurrent `fetch_or` inserts into the pre-filter lose no
/// bits — once both writers join, every inserted key answers `contains`
/// — and a reader racing the writers sees membership monotone (a key
/// observed present never flips back to absent), the property the
/// read-side short-circuit leans on: a `true` can go stale-to-fresh,
/// but a counter row is only ever skipped for keys *no* writer has
/// committed.
pub fn bloom_insert_contains_body() {
    const KEYS: [u64; 2] = [5, 9];
    let filter = sketch::BlockedBloom::with_blocks(&[1, 1], 7)
        .expect("fixture filter dims are valid")
        .into_atomic();
    sketch::sync::thread::scope(|s| {
        s.spawn(|| filter.insert(0, KEYS[0]));
        s.spawn(|| filter.insert(0, KEYS[1]));
        s.spawn(|| {
            let a = filter.contains(0, KEYS[0]);
            let b = filter.contains(0, KEYS[0]);
            assert!(b || !a, "membership went backwards: {a} -> {b}");
        });
    });
    assert!(
        filter.contains(0, KEYS[0]),
        "lost filter bit (first insert)"
    );
    assert!(
        filter.contains(0, KEYS[1]),
        "lost filter bit (second insert)"
    );
    assert!(!filter.contains(1, KEYS[0]), "bits leaked across slots");
}

/// Contract: the plain-store `insert_run_exclusive` path is lossless
/// when the owners' slots are disjoint — the filter mirror of H6's
/// arena ownership invariant (the filter's blocks are slot-partitioned
/// exactly like the counter spans, so disjoint slots mean disjoint
/// cache lines).
pub fn bloom_exclusive_ownership_body() {
    const KEYS: [u64; 2] = [5, 9];
    let filter = sketch::BlockedBloom::with_blocks(&[1, 1], 7)
        .expect("fixture filter dims are valid")
        .into_atomic();
    sketch::sync::thread::scope(|s| {
        for owner in 0..2u32 {
            let filter = &filter;
            s.spawn(move || {
                filter.insert_run_exclusive(owner, &[(KEYS[owner as usize], 1)]);
            });
        }
    });
    assert!(filter.contains(0, KEYS[0]), "owner 0 lost its filter bits");
    assert!(filter.contains(1, KEYS[1]), "owner 1 lost its filter bits");
}

// ---------------------------------------------------------------------
// H9: the seeded ownership violation.
// ---------------------------------------------------------------------

/// Deliberate contract violation: a (buggy) ownership map that hands
/// two owners **overlapping** slot ranges — both pop their queues and
/// commit slot 0 through the plain-store exclusive path. The checker
/// must find the lost update that the disjoint-range invariant exists
/// to prevent; this proves the tool can catch exactly the bug class
/// the ownership map is load-bearing for.
pub fn sharded_ownership_race_body() {
    const KEY: u64 = 5;
    let arena = CmArena::with_slots(&[4], 2, 7)
        .expect("fixture arena dims are valid")
        .into_atomic();
    let queues = [SpscQueue::with_capacity(1), SpscQueue::with_capacity(1)];
    for q in &queues {
        q.try_push((KEY, 1u64))
            .expect("queues are sized for the script");
    }
    sketch::sync::thread::scope(|s| {
        for queue in &queues {
            let arena = &arena;
            s.spawn(move || {
                if let Some((key, w)) = queue.try_pop() {
                    // Both "owners" commit slot 0: the ranges overlap.
                    arena.add_batch_saturating_exclusive(0, &[(key, w)]);
                }
            });
        }
    });
    assert_eq!(
        arena.slot_total(0),
        2,
        "overlapping ownership lost an update"
    );
}

// ---------------------------------------------------------------------
// H10: the seeded exclusive-writer violation.
// ---------------------------------------------------------------------

/// Deliberate contract violation: two concurrent writers on the
/// plain-store `add_batch_saturating_exclusive` path, which documents a
/// sole-writer requirement. The checker must find a lost update — this
/// harness proves the tool can actually catch the class of bug the
/// contract exists to prevent.
pub fn exclusive_writer_race_body() {
    const KEY: u64 = 5;
    let arena = CmArena::with_slots(&[4], 2, 7)
        .expect("fixture arena dims are valid")
        .into_atomic();
    sketch::sync::thread::scope(|s| {
        for _ in 0..2 {
            // Both writers take the exclusive path: a schedule that
            // interleaves their load/store cycles loses an update.
            s.spawn(|| arena.add_batch_saturating_exclusive(0, &[(KEY, 1)]));
        }
    });
    assert_eq!(
        arena.slot_total(0),
        2,
        "exclusive-writer contract violated: lost update"
    );
    assert_eq!(
        arena.estimate_slot(0, KEY),
        2,
        "exclusive-writer contract violated: lost cell update"
    );
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Run the full harness suite: exhaustive DFS over every harness (the
/// threaded ones preemption-bounded), seeded random walks over the
/// threaded harnesses for schedule diversity beyond the bound, and the
/// seeded race that must be caught. `seed` drives the random walks;
/// `schedules` caps each random pass.
pub fn run_all(seed: u64, schedules: usize) -> Vec<HarnessRun> {
    let dfs_budget = 60_000;
    let mut runs = vec![
        HarnessRun {
            name: "arena-counters",
            mode: "dfs",
            report: check(&dfs(dfs_budget), arena_counters_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "arena-saturation",
            mode: "dfs",
            report: check(&dfs(dfs_budget), arena_saturation_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "concurrent-gsketch",
            mode: "dfs",
            report: check(&dfs(dfs_budget), concurrent_gsketch_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "replay-invalidation",
            mode: "dfs",
            report: check(&dfs(dfs_budget), replay_invalidation_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "spsc-queue",
            mode: "dfs",
            report: check(&dfs(dfs_budget), spsc_queue_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "sharded-ownership",
            mode: "dfs",
            report: check(&dfs(dfs_budget), sharded_ownership_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "epoch-handoff",
            mode: "dfs",
            report: check(&dfs(dfs_budget), epoch_handoff_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "bloom-insert-contains",
            mode: "dfs",
            report: check(&dfs(dfs_budget), bloom_insert_contains_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "bloom-exclusive-ownership",
            mode: "dfs",
            report: check(&dfs(dfs_budget), bloom_exclusive_ownership_body),
            expect_violation: false,
        },
        HarnessRun {
            name: "exclusive-writer-race",
            mode: "dfs",
            report: check(&dfs(dfs_budget), exclusive_writer_race_body),
            expect_violation: true,
        },
        HarnessRun {
            name: "sharded-ownership-race",
            mode: "dfs",
            report: check(&dfs(dfs_budget), sharded_ownership_race_body),
            expect_violation: true,
        },
    ];
    for (name, body) in [
        ("arena-counters", arena_counters_body as fn()),
        ("concurrent-gsketch", concurrent_gsketch_body as fn()),
        ("spsc-queue", spsc_queue_body as fn()),
        ("sharded-ownership", sharded_ownership_body as fn()),
        ("bloom-insert-contains", bloom_insert_contains_body as fn()),
        (
            "bloom-exclusive-ownership",
            bloom_exclusive_ownership_body as fn(),
        ),
    ] {
        runs.push(HarnessRun {
            name,
            mode: "random",
            report: check(&random(seed, schedules), body),
            expect_violation: false,
        });
    }
    runs
}
