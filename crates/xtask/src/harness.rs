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
//! Counter commits are not among the subjects: owners of the sharded
//! engine write exclusive `&mut` slices of the slab, so the borrow
//! checker rules out the races a schedule search would look for. What
//! remains shared is the SPSC handoff ring, plus the replay memo's
//! write/query interleavings.
//!
//! `run_all` is the `xtask check` entry point: DFS-exhaustive passes
//! over every harness plus seeded random walks over the threaded one,
//! and the deliberately seeded lost-update race that the checker must
//! catch to prove it has teeth.
//
// lint: allow-file(no-panics) — model-check harness bodies report
// contract violations by panicking (assert!), which the scheduler
// catches and converts into replayable Violation reports; panicking is
// this file's output channel, not an error path.

use gsketch::{EdgeSink, GlobalSketch, ReplayEngine};
use gstream::edge::{Edge, StreamEdge};
use sketch::sync::model::{check, choose, Config, Mode, Report};
use sketch::sync::spsc::SpscQueue;
use sketch::sync::{AtomicU64, Ordering};

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
// H10: the seeded lost-update race.
// ---------------------------------------------------------------------

/// Deliberate contract violation: two concurrent writers run the
/// sole-writer commit shape — a plain load, add, store — on one shared
/// counter. The checker must find the lost update; this harness proves
/// the tool catches the class of bug that exclusive owner slices now
/// rule out at compile time.
pub fn exclusive_writer_race_body() {
    let cell = AtomicU64::new(0);
    sketch::sync::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                // ordering: Relaxed — the seeded race itself; no ordering
                // fixes a torn load/store cycle against a second writer.
                let v = cell.load(Ordering::Relaxed);
                // ordering: Relaxed — same seeded race as the load above.
                cell.store(v + 1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(
        // ordering: Relaxed — read after the scope join, which already
        // gives happens-before with both writers.
        cell.load(Ordering::Relaxed),
        2,
        "exclusive-writer contract violated: lost update"
    );
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Run the full harness suite: exhaustive DFS over every harness (the
/// threaded one preemption-bounded), seeded random walks over the
/// threaded harness for schedule diversity beyond the bound, and the
/// seeded race that must be caught. `seed` drives the random walks;
/// `schedules` caps each random pass.
pub fn run_all(seed: u64, schedules: usize) -> Vec<HarnessRun> {
    let dfs_budget = 60_000;
    vec![
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
            name: "exclusive-writer-race",
            mode: "dfs",
            report: check(&dfs(dfs_budget), exclusive_writer_race_body),
            expect_violation: true,
        },
        HarnessRun {
            name: "spsc-queue",
            mode: "random",
            report: check(&random(seed, schedules), spsc_queue_body),
            expect_violation: false,
        },
    ]
}
