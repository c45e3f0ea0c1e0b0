//! Pinned deterministic model-check regressions (DESIGN.md §10).
//!
//! Every schedule the checker has flagged — today, the seeded
//! exclusive-writer race — is pinned here as a literal decision trace
//! and replayed on every test run, so a found bug (or a checker
//! regression that would stop finding it) cannot slip back silently.
//! The exhaustive schedule counts are pinned too: they are a pure
//! function of (harness fixture, scheduler semantics), so any drift
//! means the explored space changed and the pins below must be
//! re-derived, consciously.
//!
//! Gated on `model-check`: run with
//! `cargo test -p xtask --features model-check`.

#![cfg(feature = "model-check")]

use sketch::sync::model::{check, replay, Config, Mode};
use xtask::harness;

/// The decision trace under which two writers on the plain-store
/// exclusive path lose an update: thread 1 is preempted (decision
/// index 6, option 1) between its cell load and store, letting thread 2
/// run its full load/add/store cycle against the stale value.
const EXCLUSIVE_RACE_SCHEDULE: &[u8] = &[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];

#[test]
fn seeded_exclusive_writer_race_is_found() {
    let report = check(&Config::default(), harness::exclusive_writer_race_body);
    let v = report
        .violation
        .expect("the checker must catch the seeded race");
    assert!(
        v.message.contains("lost update"),
        "unexpected violation message: {}",
        v.message
    );
    assert_eq!(
        v.schedule, EXCLUSIVE_RACE_SCHEDULE,
        "DFS found the race under a different schedule — scheduler \
         semantics changed; re-derive the pinned trace"
    );
}

#[test]
fn pinned_race_schedule_replays_to_the_same_failure() {
    let failure = replay(EXCLUSIVE_RACE_SCHEDULE, harness::exclusive_writer_race_body)
        .expect("the pinned schedule must still lose the update");
    assert!(
        failure.contains("lost update"),
        "replayed to a different failure: {failure}"
    );
}

/// One preemption-free schedule (all zeros) is the sequential baseline:
/// it must pass even on the deliberately racy harness, which is what
/// makes the race a concurrency bug and not a logic bug.
#[test]
fn sequential_baseline_of_the_racy_harness_is_clean() {
    assert_eq!(replay(&[], harness::exclusive_writer_race_body), None);
}

/// The decision trace under which two owners with deliberately
/// **overlapping** slot ranges lose an update on the plain-store
/// exclusive path: the preemption at decision index 9 parks one owner
/// between its cell load and store while the other runs its full
/// load/add/store cycle against the stale value. This is the seeded
/// violation of the ownership map's disjoint-range invariant
/// (DESIGN.md §11).
const OWNERSHIP_RACE_SCHEDULE: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0];

#[test]
fn seeded_ownership_violation_is_found() {
    let report = check(&Config::default(), harness::sharded_ownership_race_body);
    let v = report
        .violation
        .expect("the checker must catch the seeded ownership violation");
    assert!(
        v.message.contains("overlapping ownership lost an update"),
        "unexpected violation message: {}",
        v.message
    );
    assert_eq!(
        v.schedule, OWNERSHIP_RACE_SCHEDULE,
        "DFS found the violation under a different schedule — scheduler \
         semantics changed; re-derive the pinned trace"
    );
}

#[test]
fn pinned_ownership_race_replays_to_the_same_failure() {
    let failure = replay(
        OWNERSHIP_RACE_SCHEDULE,
        harness::sharded_ownership_race_body,
    )
    .expect("the pinned schedule must still lose the update");
    assert!(
        failure.contains("overlapping ownership lost an update"),
        "replayed to a different failure: {failure}"
    );
}

/// The racy ownership harness is clean when run sequentially — the lost
/// update is a pure interleaving artifact, exactly the class of bug the
/// disjoint ownership map removes by construction.
#[test]
fn sequential_baseline_of_the_ownership_race_is_clean() {
    assert_eq!(replay(&[], harness::sharded_ownership_race_body), None);
}

/// Exhaustive schedule counts are deterministic; a drift means the
/// fixture or the scheduler changed and every pin needs re-deriving.
#[test]
fn exhaustive_schedule_counts_are_pinned() {
    let cfg = Config {
        max_schedules: 60_000,
        ..Config::default()
    };
    for (name, body, schedules) in [
        ("arena-counters", harness::arena_counters_body as fn(), 8832),
        ("arena-saturation", harness::arena_saturation_body, 80),
        ("concurrent-gsketch", harness::concurrent_gsketch_body, 33),
        (
            "replay-invalidation",
            harness::replay_invalidation_body,
            12870,
        ),
        ("spsc-queue", harness::spsc_queue_body, 119),
        ("sharded-ownership", harness::sharded_ownership_body, 686),
        ("epoch-handoff", harness::epoch_handoff_body, 86),
        (
            "bloom-insert-contains",
            harness::bloom_insert_contains_body,
            146,
        ),
        (
            "bloom-exclusive-ownership",
            harness::bloom_exclusive_ownership_body,
            14,
        ),
    ] {
        let report = check(&cfg, body);
        assert!(report.violation.is_none(), "{name}: {:?}", report.violation);
        assert!(report.exhausted, "{name} no longer exhausts in budget");
        assert_eq!(report.schedules, schedules, "{name} schedule count drifted");
    }
}

/// `replay-invalidation` enumerates write/query interleavings through
/// `choose`: 8 writes against 8 queries is C(16,8) distinct orders. The
/// count being *exactly* the binomial proves the decision tree maps 1:1
/// onto operation interleavings (no lost or duplicated branches).
#[test]
fn replay_invalidation_explores_every_interleaving() {
    let n = 12870u64; // C(16,8)
    let cfg = Config {
        max_schedules: 20_000,
        ..Config::default()
    };
    let report = check(&cfg, harness::replay_invalidation_body);
    assert_eq!(report.schedules, n);
    assert_eq!(report.distinct, n);
}

/// Random mode is seeded: the same seed explores the same schedules.
#[test]
fn random_walks_are_reproducible() {
    let cfg = Config {
        mode: Mode::Random,
        seed: 7,
        max_schedules: 200,
        ..Config::default()
    };
    let a = check(&cfg, harness::arena_counters_body);
    let b = check(&cfg, harness::arena_counters_body);
    assert!(a.violation.is_none() && b.violation.is_none());
    assert_eq!(a.distinct, b.distinct);
    assert!(a.distinct > 10, "random mode degenerated: {}", a.distinct);
}
