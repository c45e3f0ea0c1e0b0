//! `xtask` — workspace analysis CLI (DESIGN.md §10).
//!
//! * `xtask lint` — run the architectural lint pass over `crates/*/src`;
//!   exits non-zero on any finding.
//! * `xtask audit [--write-baseline]` — emit release LLVM IR for the
//!   hot-path crates and verify every `// audit: kernel(...)` annotation
//!   against the artifact's call graph, ratcheting retained bounds
//!   checks via the committed `AUDIT.json` (DESIGN.md §14).

#![deny(unsafe_code)]
#![warn(clippy::all)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("audit") => run_audit(&args[1..]),
        _ => {
            eprintln!("usage: xtask <lint | audit [--write-baseline]>");
            ExitCode::from(2)
        }
    }
}

fn run_audit(args: &[String]) -> ExitCode {
    let mut write_baseline = false;
    for flag in args {
        match flag.as_str() {
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("xtask audit: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let root = xtask::workspace_root();
    match xtask::audit::run(&root, write_baseline) {
        Ok(outcome) => {
            for r in &outcome.reports {
                println!(
                    "{:<50} {:<11} {:>2} instantiation(s), {} retained bounds check(s)",
                    r.key,
                    format!("[{}]", r.mode),
                    r.symbols.len(),
                    r.bounds_checks
                );
            }
            for note in &outcome.notes {
                println!("note: {note}");
            }
            if outcome.failures.is_empty() {
                println!("xtask audit: clean ({} kernels)", outcome.reports.len());
                ExitCode::SUCCESS
            } else {
                for f in &outcome.failures {
                    eprintln!("{f}");
                }
                eprintln!("xtask audit: {} failure(s)", outcome.failures.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask audit: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint() -> ExitCode {
    let root = xtask::workspace_root();
    match xtask::lint::run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("xtask lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}
