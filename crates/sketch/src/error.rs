//! Error types shared by the synopses in this crate.

use std::fmt;

/// Errors produced when constructing or combining sketches.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// A dimension parameter (width, depth, k, …) was zero or otherwise
    /// out of its valid range.
    InvalidDimension {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: usize,
    },
    /// Two sketches with incompatible shapes or hash seeds were combined
    /// (an arena merge, or a Count sketch inner product).
    IncompatibleMerge {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// An accuracy parameter (ε, δ) was outside `(0, 1)`.
    InvalidAccuracy {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A timestamped arrival did not fit the time order its synopsis
    /// keeps: it lies before the open window, or after a later arrival
    /// of the same batch's window.
    OutOfOrder {
        /// The rejected arrival's timestamp.
        ts: u64,
        /// Start of the window that was open when it arrived.
        window_start: u64,
    },
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::InvalidDimension { what, value } => {
                write!(f, "invalid sketch dimension: {what} = {value}")
            }
            SketchError::IncompatibleMerge { reason } => {
                write!(f, "cannot merge sketches: {reason}")
            }
            SketchError::InvalidAccuracy { what, value } => {
                write!(f, "accuracy parameter out of range: {what} = {value}")
            }
            SketchError::OutOfOrder { ts, window_start } => write!(
                f,
                "timestamps must be non-decreasing: arrival at {ts} does not fit \
                 the open window starting at {window_start}"
            ),
        }
    }
}

impl std::error::Error for SketchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SketchError::InvalidDimension {
            what: "width",
            value: 0,
        };
        assert!(e.to_string().contains("width"));
        let e = SketchError::IncompatibleMerge {
            reason: "depth 3 vs 4".into(),
        };
        assert!(e.to_string().contains("depth 3 vs 4"));
        let e = SketchError::InvalidAccuracy {
            what: "epsilon",
            value: 2.0,
        };
        assert!(e.to_string().contains("epsilon"));
        let e = SketchError::OutOfOrder {
            ts: 9,
            window_start: 5,
        };
        assert!(e.to_string().contains("arrival at 9"));
        assert!(e.to_string().contains("starting at 5"));
    }
}
