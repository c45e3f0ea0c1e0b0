//! # sketch — stream synopsis substrate
//!
//! Self-contained implementations of the classic data-stream synopses the
//! gSketch paper builds on or cites as interchangeable bases:
//!
//! * [`CountMinSketch`] — the synopsis gSketch partitions (Cormode &
//!   Muthukrishnan 2005; paper §3.2 and Figure 1);
//! * [`CountSketch`] — unbiased L2-error point estimates (Charikar, Chen
//!   & Farach-Colton 2002), the substrate for join-size style structural
//!   queries;
//! * [`SpaceSaving`] — guaranteed heavy hitters (Metwally et al. 2005),
//!   powering heavy-vertex detection and the sample-free partitioner;
//! * [`ExpHist`] / [`WeightedExpHist`] — sliding-window counting (Datar
//!   et al. 2002);
//! * [`HyperLogLog`] / [`DegreeSketch`] — distinct counting and
//!   per-vertex distinct-degree estimation for multigraph streams
//!   (Flajolet et al. 2007; Cormode & Muthukrishnan 2005, the paper's
//!   ref. \[15\]);
//! * [`EcmSketch`] — CountMin with per-cell sliding windows (Papapetrou
//!   et al. 2012), the principled version of the paper's §5 time-window
//!   scheme;
//! * [`hash`] — the Carter–Wegman pairwise / 4-wise independent hash
//!   families over GF(2^61 − 1) underpinning all of the above;
//! * [`FrequencySketch`] / [`SketchBank`] — the synopsis-backend traits
//!   the core crate's `GSketch<B>` is generic over, and [`CmArena`] —
//!   all partitions' counters in one contiguous slab with a shared
//!   per-row hash family, split into exclusive per-owner
//!   [`CmArenaSlice`]s for parallel ingest (DESIGN.md §2).
//!
//! All synopses share a few conventions: keys are `u64` (callers intern or
//! mix composite keys with [`hash::combine64`]), counters saturate instead
//! of wrapping, sketches are deterministic given a seed, and sketches with
//! identical seeds can be merged.
//!
//! ```
//! use sketch::CountMinSketch;
//!
//! let mut cm = CountMinSketch::new(1024, 4, 42).unwrap();
//! cm.update(7, 3);
//! cm.update(7, 2);
//! assert!(cm.estimate(7) >= 5); // one-sided error: never underestimates
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod backend;
pub mod blocked_bloom;
pub mod countmin;
pub mod countsketch;
pub mod error;
pub mod exphist;
pub mod hash;
pub mod hll;
pub mod slab;
pub mod spacesaving;
pub mod sync;
pub mod windowed;

/// Best-effort prefetch of the cache line holding `p` (no-op off
/// x86_64). Used by the batched ingest hot loops here and in the core
/// pipeline so their random counter/table accesses overlap instead of
/// serializing on memory latency.
#[inline]
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
pub use arena::{CmArena, CmArenaSlice, SlotSpan};
pub use backend::{DetailedRow, FrequencySketch, SketchBank, SketchVec};
pub use blocked_bloom::{BlockSpan, BlockedBloom, BlockedBloomSlice};
pub use countmin::{CountMinSketch, UpdatePolicy};
pub use countsketch::CountSketch;
pub use error::SketchError;
pub use exphist::{ExpHist, WeightedExpHist};
pub use hll::{DegreeSketch, HyperLogLog};
pub use spacesaving::{Counter, SpaceSaving};
pub use windowed::EcmSketch;
