//! # sketch — stream synopsis substrate
//!
//! Self-contained implementations of the classic data-stream synopses the
//! gSketch paper builds on or cites as interchangeable bases:
//!
//! * [`CmArena`] — the one CountMin engine (Cormode & Muthukrishnan
//!   2005; paper §3.2 and Figure 1): all of a gSketch's partitions'
//!   counters in one contiguous slab with a shared per-row hash family
//!   (DESIGN.md §2). A one-slot arena is a plain CountMin sketch, which
//!   is what the core crate's Global baseline and adaptive warm-up are;
//! * [`CountMinSketch`] — the per-arrival reference model the arena is
//!   pinned against in the parity tests; no deployment builds it;
//! * [`CountSketch`] — unbiased L2-error point estimates (Charikar, Chen
//!   & Farach-Colton 2002), the substrate of the structural crate's path
//!   queries;
//! * [`SpaceSaving`] — guaranteed heavy hitters (Metwally et al. 2005),
//!   powering heavy-vertex detection and the sample-free partitioner;
//! * [`HyperLogLog`] / [`DegreeSketch`] — distinct counting and
//!   per-vertex distinct-degree estimation for multigraph streams
//!   (Flajolet et al. 2007; Cormode & Muthukrishnan 2005, the paper's
//!   ref. \[15\]);
//! * [`hash`] — the Carter–Wegman pairwise / 4-wise independent hash
//!   families over GF(2^61 − 1) underpinning all of the above.
//!
//! All synopses share a few conventions: keys are `u64` (callers intern or
//! mix composite keys with [`hash::combine64`]), counters saturate instead
//! of wrapping, and sketches are deterministic given a seed. Only the
//! arena persists ([`slab`] is its counter codec) and merges
//! ([`CmArena::merge_assign`], the windowed tiers' fold); the standalone
//! synopses live in one process's memory.
//!
//! ```
//! use sketch::CmArena;
//!
//! let mut cm = CmArena::new(1024, 4, 42).unwrap();
//! cm.update_slot(0, 7, 3);
//! cm.update_slot(0, 7, 2);
//! assert!(cm.estimate_slot(0, 7) >= 5); // one-sided error: never underestimates
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod blocked_bloom;
pub mod countmin;
pub mod countsketch;
pub mod error;
pub mod hash;
pub mod hll;
pub mod slab;
pub mod spacesaving;

/// Best-effort prefetch of the cache line holding `p` (no-op off
/// x86_64). Used by the batched ingest hot loops here and in the core
/// pipeline so their random counter/table accesses overlap instead of
/// serializing on memory latency.
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no architectural effect on memory state; any
    // address is permitted.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
pub use arena::{CmArena, SlotSpan};
pub use blocked_bloom::{BlockSpan, BlockedBloom};
pub use countmin::{CountMinSketch, UpdatePolicy};
pub use countsketch::CountSketch;
pub use error::SketchError;
pub use hll::{DegreeSketch, HyperLogLog};
pub use spacesaving::{Counter, SpaceSaving};
