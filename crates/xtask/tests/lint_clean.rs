//! The workspace must lint clean (DESIGN.md §10): this test makes
//! `xtask lint` part of the tier-1 gate, so a new panic path,
//! unjustified narrowing cast, sink bypass, stale design citation, or
//! unsafe block fails `cargo test` directly.

#[test]
fn workspace_lints_clean() {
    let root = xtask::workspace_root();
    let findings = xtask::lint::run(&root).expect("lint pass runs");
    for f in &findings {
        eprintln!("{f}");
    }
    assert!(
        findings.is_empty(),
        "xtask lint reported {} finding(s) — fix or justify each (see crates/xtask/src/lint.rs docs)",
        findings.len()
    );
}
