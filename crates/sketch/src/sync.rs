//! The synchronization shim seam (DESIGN.md §10).
//!
//! The workspace's shared-memory concurrency — the SPSC handoff ring's
//! cursors (`spsc`) and the scoped owner threads of the sharded ingest
//! engine — reaches its primitives through this module instead of naming
//! `std::sync::atomic` / `std::thread` directly. (Counter commits need
//! no atomics: each owner writes an exclusive `&mut` slice of the slab.)
//! In a normal build the re-exports below
//! *are* the std items (zero cost, zero behavioral change; the type
//! aliases compile away). Under `--features check` the same names
//! resolve to instrumented stand-ins from `model` (a module that only
//! exists under that feature): cells that hand
//! control to a deterministic, seeded, preemption-bounded scheduler at
//! every shared-memory access, and a `thread::scope` whose spawned
//! threads register with that scheduler. The `xtask check` harnesses
//! run the *real* queue code under that scheduler and explore thread
//! interleavings exhaustively (DFS over scheduling decisions) or
//! randomly (seeded walks), turning the crate's memory-model prose —
//! the ring's Acquire/Release handoff — into machine-checked artifacts.
//!
//! The instrumented stand-ins are passthroughs whenever no scheduler is
//! active on the current thread, so a `check`-featured build behaves
//! exactly like a normal one outside a model-checking run.

/// Memory orderings are always the std enum — the shim swaps the cells,
/// not the vocabulary, so `Ordering::` call sites read identically in
/// both builds (and the lint pass can demand a rationale at each one).
pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "check"))]
pub use std::sync::atomic::AtomicU64;

#[cfg(feature = "check")]
pub use model::AtomicU64;

#[cfg(feature = "check")]
pub mod model;

pub mod spsc;

/// Scoped-thread surface: std's [`std::thread::scope`] in normal
/// builds, the scheduler-registered wrapper under `check`.
pub mod thread {
    #[cfg(not(feature = "check"))]
    pub use std::thread::{scope, Scope};

    #[cfg(feature = "check")]
    pub use super::model::{scope, Scope};
}
