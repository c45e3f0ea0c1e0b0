//! Workspace analysis tooling (DESIGN.md §10): the architectural lint
//! pass ([`lint`]) and the compiled-artifact panic/bounds-check auditor
//! ([`audit`], DESIGN.md §14).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod audit;
pub mod lint;

use std::path::PathBuf;

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}
