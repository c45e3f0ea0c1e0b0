//! The workspace architectural lint pass (DESIGN.md §10).
//!
//! A token-level scanner over `crates/*/src` enforcing repo invariants
//! that rustc/clippy cannot see because they live in comments, contracts
//! and cross-crate conventions:
//!
//! * **no-panics** — no `unwrap`/`expect`/`panic!`-family calls in
//!   library code (non-test regions of the sketch, gstream, core,
//!   structural, cli and xtask crates; the bench crate is bench code).
//!   Justified sites carry a `// lint: allow(no-panics) — reason`.
//! * **narrowing-cast** — a `) as usize` cast in index arithmetic needs
//!   an adjacent `debug_assert!` or `// cast:` justification (within
//!   three lines either side). Widening bit-count casts
//!   (`…_zeros() as usize`, `count_ones() as usize`) are exempt.
//! * **sink-bypass** — the slot-level commit surface (the arena's
//!   `update_slot`/`update_slot_conservative`/`add_batch_saturating`
//!   and the filter's `insert_run`) may only be driven from the sketch
//!   substrate and the core engine; every other crate must ingest
//!   through `EdgeSink` or `ShardedIngest`.
//! * **design-citations** — every `DESIGN.md §N` citation (in any
//!   comment or doc line, plus README.md) resolves to a real `## §N`
//!   section of DESIGN.md.
//! * **unsafe-policy** — every crate pins `#![deny(unsafe_code)]` at
//!   its crate root; the one `unsafe` site left, the sketch crate's
//!   `prefetch` (opted in with a fn-level `#[allow(unsafe_code)]`),
//!   carries a `// SAFETY:` justification within the five lines above
//!   it, and `unsafe` outside the sketch crate is a finding.
//! * **decode-no-panics** — snapshot decode paths (functions named
//!   `load_*`/`read_*`/`decode*`/`parse_*`/`from_value` whose
//!   declaration names a `PersistError`, a `serde::Error`, or the slab
//!   codec's bare `Error`) must not panic on truncated or tampered input
//!   (DESIGN.md §13):
//!   panicking constructs are findings there even when they carry a
//!   `lint: allow(no-panics)` suppression — an invariant argument does
//!   not hold against bytes read from disk.
//! * **audit-registry** — the `// audit: kernel(...)` annotations and
//!   the committed `AUDIT.json` ratchet stay coherent (DESIGN.md §14):
//!   every annotation parses and resolves to a real `fn` item, every
//!   baseline entry resolves to a live annotation, and every annotation
//!   has a baseline entry. The artifact-level verification itself runs
//!   in `xtask audit`; this rule catches registry drift without paying
//!   for a release build.
//!
//! Each file is scanned through two stripped views: token rules match
//! against code with comments AND string/char literals blanked (so a
//! pattern named in a doc example or a string literal — including this
//! file's own pattern table — is invisible), while rationale and
//! suppression comments are looked up in a view that keeps comments but
//! blanks literals (so a rationale-shaped phrase inside a string never
//! counts). `#[cfg(test)]` regions are tracked by brace depth.
//! Suppressions are per-site
//! (`// lint: allow(rule) — reason`) or per-file
//! (`// lint: allow-file(rule) — reason`) and must carry a non-empty
//! rationale; a bare suppression is itself a finding.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panics`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates whose non-test library code must be panic-free and justify
/// narrowing casts. The bench crate is excluded (bench code by nature);
/// it still participates in every other rule.
const STRICT_CRATES: &[&str] = &["sketch", "gstream", "core", "structural", "cli", "xtask"];

/// Crates that must carry `#![deny(unsafe_code)]` at the crate root.
/// `sketch` opts its one `unsafe` fn (the prefetch intrinsic) back in
/// with a fn-level `#[allow(unsafe_code)]`, justified by an adjacent
/// SAFETY comment.
const DENY_UNSAFE_CRATES: &[&str] = &[
    "sketch",
    "core",
    "gstream",
    "structural",
    "cli",
    "bench",
    "xtask",
];

/// Crates allowed to touch the slot-level commit surface directly; all
/// others must ingest through `EdgeSink`.
const SINK_SURFACE_CRATES: &[&str] = &["sketch", "core"];

/// One scanned source file: `code` lines (comments and literals
/// stripped) for token matching, `com` lines (literals stripped,
/// comments kept) for rationale/suppression lookup, and a per-line
/// test-region mask.
struct SourceFile {
    rel: String,
    crate_name: String,
    code: Vec<String>,
    com: Vec<String>,
    in_test: Vec<bool>,
}

/// Run every rule over the workspace rooted at `root`; returns findings
/// sorted by file and line (empty = clean).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let files = collect_sources(root)?;
    let design_sections = design_section_numbers(root)?;
    let mut findings = Vec::new();
    for sf in &files {
        check_no_panics(sf, &mut findings);
        check_narrowing_casts(sf, &mut findings);
        check_sink_bypass(sf, &mut findings);
        check_design_citations(&sf.rel, &sf.com, &design_sections, &mut findings);
        check_unsafe_sites(sf, &mut findings);
        check_decode_no_panics(sf, &mut findings);
        check_suppression_rationales(sf, &mut findings);
    }
    check_crate_root_attrs(root, &mut findings);
    check_audit_registry(root, &mut findings);
    // README citations ride the same resolver as source comments.
    if let Ok(readme) = fs::read_to_string(root.join("README.md")) {
        let lines: Vec<String> = readme.lines().map(str::to_owned).collect();
        check_design_citations("README.md", &lines, &design_sections, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

// ---------------------------------------------------------------------
// File collection and preprocessing.
// ---------------------------------------------------------------------

fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut rs_files = Vec::new();
        walk_rs(&src, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(preprocess(rel, crate_name.clone(), &text));
        }
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Strip comments and string/char literals (replaced by spaces so
/// columns keep their positions), then mark `#[cfg(test)]` regions by
/// brace depth.
fn preprocess(rel: String, crate_name: String, text: &str) -> SourceFile {
    let (code_text, com_text) = strip_non_code(text);
    let code: Vec<String> = code_text.lines().map(str::to_owned).collect();
    let com: Vec<String> = com_text.lines().map(str::to_owned).collect();
    let in_test = mark_test_regions(&code);
    SourceFile {
        rel,
        crate_name,
        code,
        com,
        in_test,
    }
}

/// The comment/string stripper: a character-level state machine over the
/// whole file. Handles line comments (incl. doc comments), nested block
/// comments, string literals with escapes, raw strings `r#"…"#`, byte
/// strings, and char literals (disambiguated from lifetimes by looking
/// for the closing quote).
///
/// Produces two same-shaped views:
/// * `code` — comments AND string/char literals blanked (token rules
///   match here, so a pattern quoted in a doc example or a string —
///   including this file's own pattern table — is invisible);
/// * `com` — only string/char literals blanked, comments kept (rationale
///   and suppression comments are looked up here, so a rationale-shaped
///   phrase inside a string literal never counts as one).
fn strip_non_code(text: &str) -> (String, String) {
    let b: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut com = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment (also consumes doc comments).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                code.push(' ');
                com.push(b[i]);
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            code.push(' ');
            code.push(' ');
            com.push('/');
            com.push('*');
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    code.push(' ');
                    code.push(' ');
                    com.push('/');
                    com.push('*');
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    code.push(' ');
                    code.push(' ');
                    com.push('*');
                    com.push('/');
                    i += 2;
                } else {
                    code.push(if b[i] == '\n' { '\n' } else { ' ' });
                    com.push(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"…", r#"…"#, br#"…"#.
        if c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r')) {
            let start = if c == 'b' { i + 1 } else { i };
            let mut j = start + 1;
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') && !prev_is_ident(&b, i) {
                for _ in i..=j {
                    code.push(' ');
                    com.push(' ');
                }
                i = j + 1;
                // Consume until `"` followed by `hashes` hashes.
                while i < b.len() {
                    if b[i] == '"' && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#')) {
                        for _ in 0..=hashes {
                            code.push(' ');
                            com.push(' ');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    let keep = if b[i] == '\n' { '\n' } else { ' ' };
                    code.push(keep);
                    com.push(keep);
                    i += 1;
                }
                continue;
            }
        }
        // Plain or byte string literal.
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"')) {
            if c == 'b' {
                code.push(' ');
                com.push(' ');
                i += 1;
            }
            code.push(' ');
            com.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    code.push(' ');
                    com.push(' ');
                    // A `\` line continuation escapes the newline; keep
                    // it so line numbers stay aligned with the source.
                    if let Some(&esc) = b.get(i + 1) {
                        let keep = if esc == '\n' { '\n' } else { ' ' };
                        code.push(keep);
                        com.push(keep);
                    }
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    code.push(' ');
                    com.push(' ');
                    i += 1;
                    break;
                }
                let keep = if b[i] == '\n' { '\n' } else { ' ' };
                code.push(keep);
                com.push(keep);
                i += 1;
            }
            continue;
        }
        // Char literal vs. lifetime: a quote opens a char literal only
        // if the closing quote sits where a one-char (or escaped)
        // literal would put it.
        if c == '\'' {
            if b.get(i + 1) == Some(&'\\') {
                // Escaped char literal: consume to the closing quote.
                let mut j = i + 2;
                while j < b.len() && b[j] != '\'' && b[j] != '\n' {
                    j += 1;
                }
                if b.get(j) == Some(&'\'') {
                    for _ in i..=j {
                        code.push(' ');
                        com.push(' ');
                    }
                    i = j + 1;
                    continue;
                }
            } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                for _ in 0..3 {
                    code.push(' ');
                    com.push(' ');
                }
                i += 3;
                continue;
            }
            // Lifetime — keep as code.
        }
        code.push(c);
        com.push(c);
        i += 1;
    }
    (code, com)
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Mark lines inside `#[cfg(test)]`-gated items (and `#[test]` fns) by
/// tracking brace depth from the item that follows the attribute.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut region_depth: i64 = -1;
    let mut pending = false;
    for (idx, line) in code.iter().enumerate() {
        let is_region = region_depth >= 0;
        if is_region {
            in_test[idx] = true;
        }
        if !is_region && (line.contains("cfg(test)") || line.contains("#[test]")) {
            pending = true;
        }
        if pending && !is_region && line.contains('{') {
            region_depth = depth;
            in_test[idx] = true;
            pending = false;
        } else if pending && line.contains(';') && !line.contains('{') {
            // The attribute gated a braceless item (e.g. a `use`).
            pending = false;
        }
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if region_depth >= 0 && depth <= region_depth {
            region_depth = -1;
        }
    }
    in_test
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

/// Whether line `idx` (0-based) is covered by a justified suppression
/// for `rule` — same line or the three lines above it, or a file-level
/// allow anywhere in the file.
fn suppressed(sf: &SourceFile, idx: usize, rule: &str) -> bool {
    let site = format!("lint: allow({rule})");
    let lo = idx.saturating_sub(3);
    if sf.com[lo..=idx].iter().any(|l| l.contains(&site)) {
        return true;
    }
    let file_wide = format!("lint: allow-file({rule})");
    sf.com.iter().any(|l| l.contains(&file_wide))
}

/// Every suppression must carry a rationale: non-trivial text after the
/// closing paren (a dash and a reason).
fn check_suppression_rationales(sf: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in sf.com.iter().enumerate() {
        let Some(pos) = line.find("lint: allow") else {
            continue;
        };
        let rest = &line[pos..];
        let Some(close) = rest.find(')') else {
            findings.push(finding(sf, idx, "suppression", "malformed suppression"));
            continue;
        };
        let reason: String = rest[close + 1..]
            .chars()
            .filter(|c| c.is_alphanumeric())
            .collect();
        // A dangling "reason on the next line" also counts.
        let next_is_comment_text = sf
            .com
            .get(idx + 1)
            .is_some_and(|l| l.trim_start().starts_with("//") && l.len() > 8);
        if reason.len() < 8 && !next_is_comment_text {
            findings.push(finding(
                sf,
                idx,
                "suppression",
                "suppression without a rationale — say why the rule does not apply here",
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------

fn finding(sf: &SourceFile, idx: usize, rule: &'static str, message: &str) -> Finding {
    Finding {
        rule,
        file: sf.rel.clone(),
        line: idx + 1,
        message: message.to_owned(),
    }
}

/// The panicking constructs the no-panics rules look for. These
/// literals are invisible to the scanner itself: string contents are
/// stripped before matching.
const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// The release-retained assert family. Matched at an identifier
/// boundary so `debug_assert*!(` — compiled out of release artifacts,
/// and the repo's designated invariant-documentation form — stays
/// exempt. (`panic!(` and `unreachable!(` in [`PANIC_PATTERNS`] get
/// boundary matching for free: no `*_panic!` macro exists here, and the
/// substring match is the stricter reading.)
const ASSERT_MACROS: &[&str] = &["assert!(", "assert_eq!(", "assert_ne!("];

/// Whether a code line contains any release-visible panicking construct.
fn has_panicking_construct(line: &str) -> bool {
    if PANIC_PATTERNS.iter().any(|p| line.contains(p)) {
        return true;
    }
    ASSERT_MACROS.iter().any(|m| contains_at_boundary(line, m))
}

/// `pat` occurs in `line` with no identifier character immediately
/// before it (so `assert!(` does not match inside `debug_assert!(`).
fn contains_at_boundary(line: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(pat) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        start = abs + pat.len();
    }
    false
}

/// Rule: no panicking constructs in non-test library code of the strict
/// crates.
fn check_no_panics(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !STRICT_CRATES.contains(&sf.crate_name.as_str()) {
        return;
    }
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_test[idx] {
            continue;
        }
        if has_panicking_construct(line) && !suppressed(sf, idx, "no-panics") {
            findings.push(finding(
                sf,
                idx,
                "no-panics",
                "panicking construct in library code — return an error, restructure, \
                 or justify with `lint: allow(no-panics)`",
            ));
        }
    }
}

/// Rule: `) as usize` narrowing casts in index arithmetic need an
/// adjacent `debug_assert!` or `// cast:` justification (±3 lines).
fn check_narrowing_casts(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !STRICT_CRATES.contains(&sf.crate_name.as_str()) {
        return;
    }
    let pat = ") as usize";
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_test[idx] || !line.contains(pat) {
            continue;
        }
        // Widening bit-count casts are always safe.
        let before_cast = line.split(pat).next().unwrap_or("");
        if before_cast.ends_with("_zeros(") || before_cast.ends_with("count_ones(") {
            continue;
        }
        if suppressed(sf, idx, "narrowing-cast") {
            continue;
        }
        let lo = idx.saturating_sub(3);
        let hi = (idx + 3).min(sf.com.len() - 1);
        let justified =
            (lo..=hi).any(|j| sf.com[j].contains("cast:") || sf.code[j].contains("debug_assert"));
        if !justified {
            findings.push(finding(
                sf,
                idx,
                "narrowing-cast",
                "narrowing `as usize` in index arithmetic without an adjacent \
                 debug_assert!/`// cast:` justification",
            ));
        }
    }
}

/// Rule: the slot-level commit surface is reserved to the sketch
/// substrate and the core engine; everything else goes through EdgeSink
/// or ShardedIngest.
fn check_sink_bypass(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if SINK_SURFACE_CRATES.contains(&sf.crate_name.as_str()) {
        return;
    }
    let surface = [
        "update_slot(",
        "update_slot_conservative(",
        "add_batch_saturating(",
        "insert_run(",
    ];
    for (idx, line) in sf.code.iter().enumerate() {
        if sf.in_test[idx] {
            continue;
        }
        for name in &surface {
            let pat = format!(".{name}");
            if line.contains(pat.as_str()) && !suppressed(sf, idx, "sink-bypass") {
                findings.push(finding(
                    sf,
                    idx,
                    "sink-bypass",
                    "direct slot-commit call outside the sketch/core engine — \
                     ingest through EdgeSink or ShardedIngest instead",
                ));
                break;
            }
        }
    }
}

/// Rule: `DESIGN.md §N` citations must resolve to a real section. A
/// digit-less mention (`DESIGN.md §N` as a meta-form in prose, like this
/// very doc comment) is not a citation and is ignored.
fn check_design_citations(
    rel: &str,
    lines: &[String],
    sections: &[u32],
    findings: &mut Vec<Finding>,
) {
    let marker = "DESIGN.md §";
    for (idx, line) in lines.iter().enumerate() {
        let mut rest = line.as_str();
        while let Some(pos) = rest.find(marker) {
            let tail = &rest[pos + marker.len()..];
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            if digits.is_empty() {
                rest = &rest[pos + marker.len()..];
                continue;
            }
            match digits.parse::<u32>() {
                Ok(n) if sections.contains(&n) => {}
                _ => findings.push(Finding {
                    rule: "design-citations",
                    file: rel.to_owned(),
                    line: idx + 1,
                    message: format!(
                        "citation `DESIGN.md §{digits}` does not resolve to a `## §N` \
                         section of DESIGN.md"
                    ),
                }),
            }
            rest = &rest[pos + marker.len()..];
        }
    }
}

fn design_section_numbers(root: &Path) -> Result<Vec<u32>, String> {
    let path = root.join("DESIGN.md");
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| l.strip_prefix("## §"))
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect())
}

/// Rule (per-site half): `unsafe` must be in `sketch` (whose crate root
/// denies it outside fn-level opt-ins) and justified by an adjacent
/// `// SAFETY:` comment.
fn check_unsafe_sites(sf: &SourceFile, findings: &mut Vec<Finding>) {
    for (idx, line) in sf.code.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        if sf.crate_name != "sketch" {
            findings.push(finding(
                sf,
                idx,
                "unsafe-policy",
                "`unsafe` outside the sketch crate — these crates pin \
                 #![deny(unsafe_code)]",
            ));
            continue;
        }
        let lo = idx.saturating_sub(5);
        let justified = sf.com[lo..=idx].iter().any(|l| l.contains("SAFETY:"));
        if !justified && !suppressed(sf, idx, "unsafe-policy") {
            findings.push(finding(
                sf,
                idx,
                "unsafe-policy",
                "`unsafe` without an adjacent `// SAFETY:` justification",
            ));
        }
    }
}

/// Rule: snapshot decode paths must not panic on truncated or tampered
/// input (DESIGN.md §13). A function named `from_value` or starting with
/// `load_`, `read_`, `decode` or `parse_`, whose declaration names one
/// of [`DECODE_ERRORS`], is codec surface that every byte of a snapshot
/// file flows through: the envelope and windowed framing
/// (`PersistError`), the synopsis bodies' `Deserialize` impls
/// (`serde::Error`), and the slab codec (`Result<_, Error>`). Inside its
/// body a panicking construct is a finding even when it carries a
/// `lint: allow(no-panics)` suppression, because malformed input reaches
/// these paths at runtime (the truncation sweep in `dbg
/// --snapshot-smoke` drives them byte by byte). Return an error instead;
/// `lint: allow(decode-no-panics)` remains for the genuinely
/// unreachable.
fn check_decode_no_panics(sf: &SourceFile, findings: &mut Vec<Finding>) {
    let mut depth: i64 = 0;
    // Brace depth at which the current decode fn opened, or -1.
    let mut fn_depth: i64 = -1;
    // Declaration text accumulated while looking for the opening brace
    // (decode declarations routinely span several lines).
    let mut decl: Option<String> = None;
    for (idx, line) in sf.code.iter().enumerate() {
        if fn_depth < 0 && decl.is_none() && declares_decode_fn(line) {
            decl = Some(String::new());
        }
        if let Some(buf) = &mut decl {
            buf.push_str(line);
            if line.contains('{') {
                if DECODE_ERRORS.iter().any(|e| buf.contains(e)) {
                    fn_depth = depth;
                }
                decl = None;
            } else if line.contains(';') {
                // A bodiless trait-method declaration.
                decl = None;
            }
        }
        if fn_depth >= 0
            && !sf.in_test[idx]
            && has_panicking_construct(line)
            && !suppressed(sf, idx, "decode-no-panics")
        {
            findings.push(finding(
                sf,
                idx,
                "decode-no-panics",
                "panicking construct on a snapshot decode path — truncated or \
                 tampered input reaches this at runtime; return an error",
            ));
        }
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if fn_depth >= 0 && depth <= fn_depth {
            fn_depth = -1;
        }
    }
}

/// Error types whose presence in a decode-named declaration marks it as
/// snapshot decode surface. `, Error>` is the slab codec's return type
/// (`serde::Error` imported bare).
const DECODE_ERRORS: [&str; 3] = ["PersistError", "serde::Error", ", Error>"];

/// Whether `line` declares a function whose name marks it as snapshot
/// decode surface (`load_*`, `read_*`, `decode*`, `parse_*`,
/// `from_value`).
fn declares_decode_fn(line: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find("fn ") {
        let abs = start + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            let name: String = line[abs + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name == "from_value"
                || ["load_", "read_", "decode", "parse_"]
                    .iter()
                    .any(|p| name.starts_with(p))
            {
                return true;
            }
        }
        start = abs + 3;
    }
    false
}

/// Rule: the audit registry stays coherent (DESIGN.md §14). Annotations
/// must parse and resolve to `fn` items (a malformed annotation
/// silently auditing nothing is the failure mode this exists for), and
/// the committed `AUDIT.json` must agree with the live annotation set
/// in both directions. The artifact-level reachability check is `xtask
/// audit`'s job; this is the cheap static half.
fn check_audit_registry(root: &Path, findings: &mut Vec<Finding>) {
    let kernels = match crate::audit::scan_annotations(root) {
        Ok(k) => k,
        Err(e) => {
            findings.push(Finding {
                rule: "audit-registry",
                file: "crates".to_owned(),
                line: 1,
                message: e,
            });
            return;
        }
    };
    let baseline_path = root.join(crate::audit::BASELINE_FILE);
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => match crate::audit::parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                findings.push(Finding {
                    rule: "audit-registry",
                    file: crate::audit::BASELINE_FILE.to_owned(),
                    line: 1,
                    message: e,
                });
                return;
            }
        },
        Err(_) => {
            findings.push(Finding {
                rule: "audit-registry",
                file: crate::audit::BASELINE_FILE.to_owned(),
                line: 1,
                message: format!(
                    "{} missing — run `xtask audit --write-baseline` and commit it",
                    crate::audit::BASELINE_FILE
                ),
            });
            return;
        }
    };
    check_audit_registry_coherence(&kernels, &baseline, findings);
}

/// The pure comparison half of `audit-registry`, split out for tests.
fn check_audit_registry_coherence(
    kernels: &[crate::audit::Kernel],
    baseline: &crate::audit::Baseline,
    findings: &mut Vec<Finding>,
) {
    let mut seen = std::collections::HashSet::new();
    for k in kernels {
        let key = k.key();
        if !seen.insert(key.clone()) {
            findings.push(Finding {
                rule: "audit-registry",
                file: k.file.clone(),
                line: k.line,
                message: format!("duplicate audited kernel `{key}`"),
            });
            continue;
        }
        match baseline.get(&key) {
            None => findings.push(Finding {
                rule: "audit-registry",
                file: k.file.clone(),
                line: k.line,
                message: format!(
                    "audited kernel `{key}` has no {} entry — run `xtask audit --write-baseline`",
                    crate::audit::BASELINE_FILE
                ),
            }),
            Some(e) if e.mode != k.mode => findings.push(Finding {
                rule: "audit-registry",
                file: k.file.clone(),
                line: k.line,
                message: format!(
                    "audited kernel `{key}` is annotated {} but {} records {}",
                    k.mode,
                    crate::audit::BASELINE_FILE,
                    e.mode
                ),
            }),
            Some(_) => {}
        }
    }
    for key in baseline.keys() {
        if !seen.contains(key) {
            findings.push(Finding {
                rule: "audit-registry",
                file: crate::audit::BASELINE_FILE.to_owned(),
                line: 1,
                message: format!("baseline entry `{key}` resolves to no live annotation"),
            });
        }
    }
}

/// Rule (crate-root half): every crate pins `#![deny(unsafe_code)]` in
/// each crate root (lib.rs and main.rs).
fn check_crate_root_attrs(root: &Path, findings: &mut Vec<Finding>) {
    for name in DENY_UNSAFE_CRATES {
        for entry in ["lib.rs", "main.rs"] {
            let path = root.join("crates").join(name).join("src").join(entry);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            if !text.contains("#![deny(unsafe_code)]") {
                findings.push(Finding {
                    rule: "unsafe-policy",
                    file: format!("crates/{name}/src/{entry}"),
                    line: 1,
                    message: "crate root missing #![deny(unsafe_code)]".to_owned(),
                });
            }
        }
    }
}

fn has_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = line[abs + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(code: &str) -> SourceFile {
        preprocess("crates/core/src/x.rs".into(), "core".into(), code)
    }

    #[test]
    fn stripper_hides_comments_and_strings() {
        let (s, _) = strip_non_code("let x = \"panic!(\"; // .unwrap()\nlet y = 'a';");
        assert!(!s.contains("panic!("));
        assert!(!s.contains(".unwrap()"));
        assert!(s.contains("let x ="));
        assert!(s.contains("let y ="));
    }

    #[test]
    fn stripper_keeps_lifetimes() {
        let (s, _) = strip_non_code("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
    }

    #[test]
    fn stripper_handles_raw_and_nested() {
        let (s, _) = strip_non_code("let r = r#\"unwrap()\"#; /* a /* b */ c */ let z = 1;");
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let z = 1;"));
    }

    #[test]
    fn comments_view_keeps_comments_but_not_strings() {
        let (_, com) = strip_non_code("let x = \"SAFETY: fake\"; // SAFETY: real reason\n");
        assert!(com.contains("// SAFETY: real reason"));
        assert!(!com.contains("SAFETY: fake"));
    }

    #[test]
    fn test_regions_are_masked() {
        let file =
            sf("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n");
        assert!(!file.in_test[0]);
        assert!(file.in_test[3]);
        assert!(!file.in_test[5]);
        let mut f = Vec::new();
        check_no_panics(&file, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panics_flagged_outside_tests() {
        let file = sf("fn a(x: Option<u8>) -> u8 { x.unwrap() }\n");
        let mut f = Vec::new();
        check_no_panics(&file, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panics");
    }

    #[test]
    fn suppression_with_reason_accepted() {
        let file = sf(
            "fn a(x: Option<u8>) -> u8 {\n    // lint: allow(no-panics) — invariant: caller checked is_some.\n    x.unwrap()\n}\n",
        );
        let mut f = Vec::new();
        check_no_panics(&file, &mut f);
        check_suppression_rationales(&file, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_suppression_is_a_finding() {
        let file = sf("// lint: allow(no-panics)\nfn a(x: Option<u8>) -> u8 { x.unwrap() }\n");
        let mut f = Vec::new();
        check_suppression_rationales(&file, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "suppression");
    }

    #[test]
    fn cast_rule_exempts_bit_counts() {
        let file = sf("fn a(x: u64) -> usize { x.trailing_zeros() as usize }\n");
        let mut f = Vec::new();
        check_narrowing_casts(&file, &mut f);
        assert!(f.is_empty(), "{f:?}");
        let bad = sf("fn a(x: u64, h: H) -> usize { h.eval(x) as usize }\n");
        let mut f2 = Vec::new();
        check_narrowing_casts(&bad, &mut f2);
        assert_eq!(f2.len(), 1);
    }

    #[test]
    fn sink_bypass_flagged_outside_engine() {
        let file = preprocess(
            "crates/cli/src/x.rs".into(),
            "cli".into(),
            "fn a(ar: &A) { ar.update_slot(0, 1, 1); }\n\
             fn b(ar: &mut A) { ar.add_batch_saturating(0, &[]); }\n\
             fn c(f: &mut F) { f.insert_run(0, &[]); }\n\
             fn d(ar: &mut A) { ar.update_slot_conservative(0, 1, 1); }\n",
        );
        let mut f = Vec::new();
        check_sink_bypass(&file, &mut f);
        assert_eq!(f.len(), 4);
        let engine = preprocess(
            "crates/core/src/x.rs".into(),
            "core".into(),
            "fn a(ar: &A) { ar.update_slot(0, 1, 1); }\n",
        );
        let mut f2 = Vec::new();
        check_sink_bypass(&engine, &mut f2);
        assert!(f2.is_empty());
    }

    #[test]
    fn panic_in_decode_fn_is_flagged() {
        let file = sf(
            "fn decode_windowed(text: &str) -> Result<W, PersistError> {\n    let n = text.lines().next().unwrap();\n    Ok(parse(n)?)\n}\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "decode-no-panics");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn no_panics_suppression_does_not_cover_decode_paths() {
        // A justified allow(no-panics) silences the general rule but NOT
        // the decode rule: disk bytes defeat invariant arguments.
        let file = sf(
            "fn load_windowed(p: &Path) -> Result<W, PersistError> {\n    // lint: allow(no-panics) — offset came from our own footer.\n    let line = text.get(off..).unwrap();\n    Ok(parse(line)?)\n}\n",
        );
        let mut general = Vec::new();
        check_no_panics(&file, &mut general);
        assert!(general.is_empty(), "{general:?}");
        let mut decode = Vec::new();
        check_decode_no_panics(&file, &mut decode);
        assert_eq!(decode.len(), 1);
        assert_eq!(decode[0].rule, "decode-no-panics");
    }

    #[test]
    fn multiline_decode_declaration_is_tracked() {
        let file = sf(
            "pub fn read_gsketch<R: Read>(\n    r: R,\n) -> Result<GSketch, PersistError> {\n    buf.pop().expect(\"nonempty\");\n    Ok(g)\n}\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn non_persist_fn_is_outside_decode_surface() {
        // Decode-named but no PersistError in the signature, and a
        // panicking fn that is not decode-named: neither is this rule's
        // business (the general no-panics rule still sees both).
        let file = sf(
            "fn parse_flag(s: &str) -> u64 { s.parse().unwrap() }\nfn apply(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    /// The synopsis bodies' `Deserialize` impls and the slab codec are
    /// decode surface too: a suppressed unwrap in either is a finding.
    #[test]
    fn serde_and_slab_decoders_are_decode_surface() {
        let file = sf(
            "impl Deserialize for CmArena {\n    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {\n        // lint: allow(no-panics) — the shape was checked above.\n        let w = v.get(0).unwrap();\n        Ok(w)\n    }\n}\npub fn decode_u64(s: &str, expected: usize) -> Result<Vec<u64>, Error> {\n    let b = s.bytes().next().expect(\"nonempty\");\n    Ok(b)\n}\nfn from_value_hint(x: Option<u8>) -> u8 { x.unwrap() }\nfn decode_flag(s: &str) -> Result<u8, ArgError> { Ok(s.parse().unwrap()) }\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![4, 9], "{f:?}");
        assert!(f.iter().all(|x| x.message.ends_with("return an error")));
    }

    #[test]
    fn decode_rule_has_its_own_suppression() {
        let file = sf(
            "fn load_x(p: &Path) -> Result<W, PersistError> {\n    // lint: allow(decode-no-panics) — slice length pinned by the match above.\n    let v = w[0].unwrap();\n    Ok(v)\n}\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn release_asserts_are_flagged_but_debug_asserts_exempt() {
        let bad = sf("fn a(x: usize, y: usize) {\n    assert!(x < y);\n    assert_eq!(x, 0);\n    assert_ne!(y, 0);\n}\n");
        let mut f = Vec::new();
        check_no_panics(&bad, &mut f);
        assert_eq!(f.len(), 3, "{f:?}");
        let ok = sf(
            "fn a(x: usize, y: usize) {\n    debug_assert!(x < y);\n    debug_assert_eq!(x, 0);\n    debug_assert_ne!(y, 0);\n}\n",
        );
        let mut f2 = Vec::new();
        check_no_panics(&ok, &mut f2);
        assert!(f2.is_empty(), "{f2:?}");
    }

    #[test]
    fn decode_paths_reject_release_asserts_too() {
        let file = sf(
            "fn load_x(p: &Path) -> Result<W, PersistError> {\n    assert_ne!(w.len(), 0);\n    Ok(v)\n}\n",
        );
        let mut f = Vec::new();
        check_decode_no_panics(&file, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "decode-no-panics");
    }

    fn kernel(owner: &str, name: &str, mode: crate::audit::Mode) -> crate::audit::Kernel {
        crate::audit::Kernel {
            lib: "sketch".into(),
            owner: owner.into(),
            fn_name: name.into(),
            mode,
            file: "crates/sketch/src/x.rs".into(),
            line: 1,
        }
    }

    #[test]
    fn audit_registry_flags_drift_in_both_directions() {
        use crate::audit::{BaselineEntry, Mode};
        let kernels = vec![
            kernel("CmArena", "annotated_only", Mode::BoundsFree),
            kernel("CmArena", "agreed", Mode::BoundsFree),
        ];
        let mut baseline = crate::audit::Baseline::new();
        baseline.insert(
            "sketch::CmArena::agreed".into(),
            BaselineEntry {
                mode: Mode::BoundsFree,
                bounds_checks: 0,
            },
        );
        baseline.insert(
            "sketch::CmArena::baseline_only".into(),
            BaselineEntry {
                mode: Mode::PanicFree,
                bounds_checks: 2,
            },
        );
        let mut f = Vec::new();
        check_audit_registry_coherence(&kernels, &baseline, &mut f);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("annotated_only")));
        assert!(f.iter().any(|x| x.message.contains("baseline_only")));
    }

    #[test]
    fn audit_registry_flags_mode_mismatch_and_duplicates() {
        use crate::audit::{BaselineEntry, Mode};
        let kernels = vec![
            kernel("CmArena", "k", Mode::PanicFree),
            kernel("CmArena", "k", Mode::PanicFree),
        ];
        let mut baseline = crate::audit::Baseline::new();
        baseline.insert(
            "sketch::CmArena::k".into(),
            BaselineEntry {
                mode: Mode::BoundsFree,
                bounds_checks: 0,
            },
        );
        let mut f = Vec::new();
        check_audit_registry_coherence(&kernels, &baseline, &mut f);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("duplicate")));
        assert!(f.iter().any(|x| x.message.contains("annotated panic-free")));
    }

    #[test]
    fn design_citations_resolve() {
        let mut f = Vec::new();
        check_design_citations(
            "x.rs",
            &["// see DESIGN.md §2 and DESIGN.md §99".to_owned()],
            &[1, 2, 3],
            &mut f,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("§99"));
    }
}
