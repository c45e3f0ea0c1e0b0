//! `xtask audit` — the compiled-artifact panic/bounds-check auditor
//! (DESIGN.md §14).
//!
//! The lint pass (DESIGN.md §10) reasons about *source*: it can insist a
//! panicking construct carries a rationale, but it cannot see what the
//! optimizer actually kept. This pass audits the *release artifact*: it
//! drives `cargo rustc -- --emit=llvm-ir` over the two hot-path crates,
//! parses the emitted IR into a per-function call graph, and verifies a
//! committed registry of audited kernels against it:
//!
//! * a kernel annotated `// audit: kernel(bounds-free)` must reach **no**
//!   panic machinery at all — no `core::panicking::*`, no
//!   `panic_bounds_check`, no slice-index failure shims;
//! * a kernel annotated `// audit: kernel(panic-free)` must reach no
//!   panic machinery *except* the bounds-check family, and the number of
//!   retained bounds-check call sites is counted and ratcheted against
//!   the committed baseline in `AUDIT.json` — regressions fail, and an
//!   improvement asks to be locked in with `--write-baseline`.
//!
//! The distinction matters: a bounds check that is provably in range *by
//! construction* (e.g. a set index masked by the constructor's shift) is
//! correct to keep — the proof lives where LLVM cannot see it — but it
//! must not silently multiply. Everything else on the hot path is
//! restructured until the optimizer can discharge it.
//!
//! Scope and honesty notes, so the guarantee is not oversold:
//!
//! * allocation aborts (`alloc::raw_vec::*`, `__rust_alloc`) are out of
//!   scope — an audited kernel may grow a `Vec`; memory exhaustion is
//!   handled by the allocator, not by panic edges we can remove;
//! * indirect calls through function pointers are invisible to the
//!   graph. The audited kernels are generic over statically-dispatched
//!   closures, which the IR resolves to direct calls, so this does not
//!   hollow out the check — but a future `dyn` callee would;
//! * an annotated kernel that does not appear in the IR at all (renamed,
//!   fully inlined away after a signature change, or never codegenned)
//!   is a **hard failure**, not a silent pass.
//!
//! Symbol names are demangled with a hand-rolled demangler: the full
//! legacy scheme (`_ZN…17h<hex>E`, `$LT$`/`$GT$`/`..` escapes) for the
//! workspace's own symbols, and a good-enough v0 reader (`_R…`,
//! length-prefixed segments) for the precompiled std/core/alloc symbols
//! — classification only needs the path segments, not the generic tail.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The committed ratchet file, at the workspace root.
pub const BASELINE_FILE: &str = "AUDIT.json";

/// What an annotated kernel promises about the release artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No reachable panic machinery of any kind.
    BoundsFree,
    /// No reachable panic machinery except the bounds-check family,
    /// whose call-site count is ratcheted via `AUDIT.json`.
    PanicFree,
}

impl Mode {
    /// The annotation spelling, as written in source and in `AUDIT.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::BoundsFree => "bounds-free",
            Mode::PanicFree => "panic-free",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One audited kernel, as declared in source by an
/// `// audit: kernel(<mode>)` annotation directly above its `fn`.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The lib (IR symbol) name of the crate the kernel lives in.
    pub lib: String,
    /// Enclosing impl type, or the module name for free functions.
    pub owner: String,
    /// The function's name.
    pub fn_name: String,
    /// Promise mode.
    pub mode: Mode,
    /// Workspace-relative file, for diagnostics.
    pub file: String,
    /// 1-based annotation line, for diagnostics.
    pub line: usize,
}

impl Kernel {
    /// Stable registry key: `lib::Owner::fn`.
    pub fn key(&self) -> String {
        format!("{}::{}::{}", self.lib, self.owner, self.fn_name)
    }
}

/// A call graph lifted from one crate's emitted IR (or asm): defined
/// symbols, and per-caller callee lists with call-site multiplicity.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Symbols defined in this artifact.
    pub defines: HashSet<String>,
    /// caller symbol → (callee symbol → number of call sites).
    pub calls: HashMap<String, HashMap<String, u32>>,
}

/// The verdict for one kernel.
#[derive(Debug)]
pub struct KernelReport {
    /// Registry key (`lib::Owner::fn`).
    pub key: String,
    /// Promise mode.
    pub mode: Mode,
    /// Matched IR defines (generic kernels may instantiate several).
    pub symbols: Vec<String>,
    /// Reachable non-bounds panic paths, rendered `caller -> … -> panic`.
    pub panic_paths: Vec<String>,
    /// Reachable bounds-family paths (fatal for `bounds-free`, counted
    /// for `panic-free`).
    pub bounds_paths: Vec<String>,
    /// Retained bounds-check call sites in the kernel's reachable
    /// subgraph.
    pub bounds_checks: u32,
}

impl KernelReport {
    /// Whether the kernel's own promise holds, ignoring the ratchet.
    pub fn promise_holds(&self) -> bool {
        match self.mode {
            Mode::BoundsFree => self.panic_paths.is_empty() && self.bounds_paths.is_empty(),
            Mode::PanicFree => self.panic_paths.is_empty(),
        }
    }
}

// ---------------------------------------------------------------------
// Demangling.
// ---------------------------------------------------------------------

/// Demangle a symbol name to a `::`-joined path. Handles the legacy
/// scheme exactly and the v0 scheme well enough to read its path
/// segments; anything else (plain C symbols) comes back unchanged.
pub fn demangle(sym: &str) -> String {
    // LLVM sometimes appends `.llvm.<digits>` to internalized symbols.
    let sym = match sym.find(".llvm.") {
        Some(pos) => &sym[..pos],
        None => sym,
    };
    if let Some(out) = demangle_legacy(sym) {
        return out;
    }
    if let Some(out) = demangle_v0(sym) {
        return out;
    }
    sym.to_owned()
}

/// Legacy mangling: `_ZN(<len><seg>)*E`, final segment `17h<16 hex>`,
/// with `$LT$`-style escapes and `..` for `::` inside segments.
fn demangle_legacy(sym: &str) -> Option<String> {
    let body = sym.strip_prefix("_ZN")?.strip_suffix('E')?;
    let b = body.as_bytes();
    let mut i = 0;
    let mut segs: Vec<String> = Vec::new();
    while i < b.len() {
        let start = i;
        while i < b.len() && b[i].is_ascii_digit() {
            i += 1;
        }
        if i == start {
            return None;
        }
        let len: usize = body.get(start..i)?.parse().ok()?;
        let seg = body.get(i..i + len)?;
        i += len;
        segs.push(decode_legacy_segment(seg));
    }
    // Drop the trailing instantiation hash (`h` + 16 hex digits).
    if let Some(last) = segs.last() {
        if last.len() == 17
            && last.starts_with('h')
            && last[1..].bytes().all(|c| c.is_ascii_hexdigit())
        {
            segs.pop();
        }
    }
    if segs.is_empty() {
        return None;
    }
    Some(segs.join("::"))
}

/// Decode one legacy path segment: `$…$` escapes and `..` → `::`.
fn decode_legacy_segment(seg: &str) -> String {
    let mut out = String::with_capacity(seg.len());
    let b: Vec<char> = seg.chars().collect();
    let mut i = 0;
    while i < b.len() {
        if b[i] == '.' && b.get(i + 1) == Some(&'.') {
            out.push_str("::");
            i += 2;
            continue;
        }
        if b[i] == '$' {
            if let Some(close) = b[i + 1..].iter().position(|&c| c == '$') {
                let code: String = b[i + 1..i + 1 + close].iter().collect();
                let decoded = match code.as_str() {
                    "LT" => Some('<'),
                    "GT" => Some('>'),
                    "LP" => Some('('),
                    "RP" => Some(')'),
                    "C" => Some(','),
                    "SP" => Some('@'),
                    "BP" => Some('*'),
                    "RF" => Some('&'),
                    code => code
                        .strip_prefix('u')
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32),
                };
                if let Some(ch) = decoded {
                    out.push(ch);
                    i += close + 2;
                    continue;
                }
            }
        }
        out.push(b[i]);
        i += 1;
    }
    out
}

/// v0 mangling, read loosely: walk the body extracting
/// `<decimal-len>[_]<ident>` tokens as path segments and skipping
/// `s<base62>_` disambiguators. Generic tails and backrefs come out as
/// noise, which classification tolerates — the std path segments
/// (`core`, `panicking`, `panic_bounds_check`, …) appear before any
/// generic machinery in every symbol this audit cares about.
fn demangle_v0(sym: &str) -> Option<String> {
    let body = sym.strip_prefix("_R")?;
    let b = body.as_bytes();
    let mut i = 0;
    let mut segs: Vec<String> = Vec::new();
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_digit() && c != b'0' {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let len: usize = match body.get(start..i).and_then(|d| d.parse().ok()) {
                Some(n) => n,
                None => break,
            };
            if b.get(i) == Some(&b'_') {
                i += 1;
            }
            match body.get(i..i + len) {
                Some(seg) if seg.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_') => {
                    segs.push(seg.to_owned());
                    i += len;
                }
                _ => break,
            }
            continue;
        }
        if c == b's' {
            // Disambiguator: `s<base62>_`.
            i += 1;
            while i < b.len() && b[i] != b'_' {
                i += 1;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    if segs.is_empty() {
        return None;
    }
    Some(segs.join("::"))
}

// ---------------------------------------------------------------------
// IR / asm parsing.
// ---------------------------------------------------------------------

/// Parse LLVM IR text into a call graph: `define` lines open functions,
/// `call`/`invoke` instructions inside them add edges. Intrinsics
/// (`llvm.*`) are dropped; indirect calls have no symbol and are
/// invisible (see the module docs for why that is acceptable here).
pub fn parse_ir(text: &str) -> CallGraph {
    let mut g = CallGraph::default();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("define ") {
            if let Some(sym) = symbol_after_at(trimmed) {
                g.defines.insert(sym.clone());
                g.calls.entry(sym.clone()).or_default();
                current = Some(sym);
            }
            continue;
        }
        if trimmed == "}" {
            current = None;
            continue;
        }
        let Some(caller) = &current else { continue };
        // `call`, `tail call`, `musttail call`, `invoke` — the callee is
        // the first `@symbol` after the keyword.
        let Some(pos) = find_call_keyword(trimmed) else {
            continue;
        };
        if let Some(sym) = symbol_after_at(&trimmed[pos..]) {
            if sym.starts_with("llvm.") {
                continue;
            }
            *g.calls
                .entry(caller.clone())
                .or_default()
                .entry(sym)
                .or_insert(0) += 1;
        }
    }
    g
}

/// Position just past the first `call ` or `invoke ` keyword on an IR
/// instruction line, or `None`.
fn find_call_keyword(line: &str) -> Option<usize> {
    let call = find_word(line, "call");
    let invoke = find_word(line, "invoke");
    match (call, invoke) {
        (Some(c), Some(v)) => Some(c.min(v)),
        (Some(c), None) => Some(c),
        (None, Some(v)) => Some(v),
        (None, None) => None,
    }
}

fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !line[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
        let after = line[abs + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
        if before_ok && after_ok {
            return Some(abs + word.len());
        }
        start = abs + word.len();
    }
    None
}

/// Extract the first `@symbol` (optionally quoted) from `text`.
fn symbol_after_at(text: &str) -> Option<String> {
    let at = text.find('@')?;
    let rest = &text[at + 1..];
    if let Some(quoted) = rest.strip_prefix('"') {
        let end = quoted.find('"')?;
        return Some(quoted[..end].replace("\\22", "\""));
    }
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '$' || c == '.'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(rest[..end].to_owned())
}

/// Fallback parser for `--emit=asm` output, for toolchains where IR
/// emission is unavailable: labels at column zero open functions,
/// `call`/`jmp`-to-symbol instructions add edges. Tail jumps to local
/// labels (`.L…`) are control flow, not calls, and are skipped.
pub fn parse_asm(text: &str) -> CallGraph {
    let mut g = CallGraph::default();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if !line.starts_with(char::is_whitespace) {
            if let Some(label) = line.strip_suffix(':') {
                if !label.starts_with('.') && !label.starts_with('#') {
                    let sym = label.trim().to_owned();
                    g.defines.insert(sym.clone());
                    g.calls.entry(sym.clone()).or_default();
                    current = Some(sym);
                }
            }
            continue;
        }
        let Some(caller) = &current else { continue };
        let t = line.trim_start();
        let target = ["call", "callq", "jmp", "b", "bl"].iter().find_map(|kw| {
            t.strip_prefix(kw)
                .filter(|r| r.starts_with(char::is_whitespace))
        });
        let Some(target) = target else { continue };
        let target = target.trim();
        let sym: String = target
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '$' || *c == '.')
            .collect();
        if sym.is_empty() || sym.starts_with(".L") || sym.starts_with('%') || sym.starts_with('*') {
            continue;
        }
        *g.calls
            .entry(caller.clone())
            .or_default()
            .entry(sym)
            .or_insert(0) += 1;
    }
    g
}

// ---------------------------------------------------------------------
// Panic-symbol classification.
// ---------------------------------------------------------------------

/// How a reached symbol counts against a kernel's promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Not panic machinery.
    Benign,
    /// The bounds-check family (slice/str index failure shims).
    Bounds,
    /// Any other panic entry point.
    Panic,
}

/// Classify a symbol by its demangled path. Only std-family roots
/// (`core`, `std`, `alloc`) and the raw runtime entry points are ever
/// flagged, so a workspace function that merely *names* panics (like
/// this auditor) can never classify as one.
pub fn classify(demangled: &str) -> Class {
    let root = demangled.split("::").next().unwrap_or("");
    let std_family = matches!(root, "core" | "std" | "alloc");
    if !std_family {
        if demangled == "rust_begin_unwind" || demangled.starts_with("rust_panic") {
            return Class::Panic;
        }
        return Class::Benign;
    }
    const BOUNDS: &[&str] = &[
        "panic_bounds_check",
        "slice_start_index_len_fail",
        "slice_end_index_len_fail",
        "slice_index_order_fail",
        "slice_index_fail",
        "slice_error_fail",
        "str_index_overflow",
    ];
    if BOUNDS.iter().any(|p| demangled.contains(p)) {
        return Class::Bounds;
    }
    const PANIC: &[&str] = &[
        "panicking",
        "unwrap_failed",
        "expect_failed",
        "panic_fmt",
        "begin_panic",
        "assert_failed",
        "panic_const",
        "panic_nounwind",
        "panic_cannot_unwind",
        "panic_misaligned",
        "panic_explicit",
    ];
    if PANIC.iter().any(|p| demangled.contains(p)) {
        return Class::Panic;
    }
    Class::Benign
}

// ---------------------------------------------------------------------
// Annotation scanning.
// ---------------------------------------------------------------------

/// The audited crates: (cargo package, IR/lib symbol prefix, source dir).
pub const AUDITED_CRATES: &[(&str, &str, &str)] = &[
    ("sketch", "sketch", "crates/sketch/src"),
    ("gsketch-core", "gsketch", "crates/core/src"),
];

/// Scan the audited crates' sources for `// audit: kernel(<mode>)`
/// annotations and resolve each to its owning impl type (or module, for
/// free functions) and function name.
pub fn scan_annotations(root: &Path) -> Result<Vec<Kernel>, String> {
    let mut kernels = Vec::new();
    for &(_, lib, src) in AUDITED_CRATES {
        let dir = root.join(src);
        let mut files = Vec::new();
        walk_rs(&dir, &mut files)?;
        files.sort();
        for path in files {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let module = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            scan_file(lib, &rel, &module, &text, &mut kernels)?;
        }
    }
    kernels.sort_by_key(Kernel::key);
    Ok(kernels)
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

/// One file's annotation scan. Tracks the innermost `impl` type above
/// each annotation so same-named methods on sibling types (`CmArena` vs
/// `BlockedBloom`) resolve to distinct kernels.
fn scan_file(
    lib: &str,
    rel: &str,
    module: &str,
    text: &str,
    kernels: &mut Vec<Kernel>,
) -> Result<(), String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut impl_type: Option<String> = None;
    for (idx, line) in lines.iter().enumerate() {
        if let Some(ty) = parse_impl_type(line) {
            impl_type = Some(ty);
        }
        let Some(mode) = parse_annotation(line) else {
            continue;
        };
        let mode = mode.map_err(|e| format!("{rel}:{}: {e}", idx + 1))?;
        // The annotation sits directly above the fn (possibly with
        // attributes or further comment lines between).
        let fn_name = lines[idx + 1..]
            .iter()
            .take(10)
            .find_map(|l| parse_fn_name(l))
            .ok_or_else(|| {
                format!(
                    "{rel}:{}: audit annotation with no fn within 10 lines",
                    idx + 1
                )
            })?;
        let owner = impl_type.clone().unwrap_or_else(|| module.to_owned());
        kernels.push(Kernel {
            lib: lib.to_owned(),
            owner,
            fn_name,
            mode,
            file: rel.to_owned(),
            line: idx + 1,
        });
    }
    Ok(())
}

/// Parse `// audit: kernel(<mode>)`; a recognized prefix with an
/// unknown mode is an error (a typo must not silently skip a kernel).
fn parse_annotation(line: &str) -> Option<Result<Mode, String>> {
    let t = line.trim_start();
    let rest = t.strip_prefix("// audit: kernel(")?;
    Some(match rest.split(')').next().unwrap_or("") {
        "bounds-free" => Ok(Mode::BoundsFree),
        "panic-free" => Ok(Mode::PanicFree),
        other => Err(format!("unknown audit mode `{other}`")),
    })
}

/// Extract the self type from an `impl` line: `impl Foo {`,
/// `impl<T> Foo<T> {`, `impl Trait for Foo {` all yield `Foo`.
fn parse_impl_type(line: &str) -> Option<String> {
    let t = line.trim_start();
    let mut rest = t.strip_prefix("impl")?;
    // Generic parameter list on the impl itself.
    if let Some(generics) = rest.strip_prefix('<') {
        let mut depth = 1usize;
        let mut end = None;
        for (i, c) in generics.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &generics[end? + 1..];
    } else if !rest.starts_with(' ') {
        return None; // `implements`, etc.
    }
    let rest = rest.trim_start();
    // Trait impl: the self type follows `for`.
    let self_ty = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    let name: String = self_ty
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The function name on a `fn` declaration line, if any.
fn parse_fn_name(line: &str) -> Option<String> {
    let pos = find_word(line, "fn")?;
    let name: String = line[pos..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

// ---------------------------------------------------------------------
// Reachability + verdicts.
// ---------------------------------------------------------------------

/// Whether `needle` occurs in `hay` as a whole path segment (bounded by
/// non-identifier characters), so `GSketch` never matches inside
/// `GSketchBuilder`.
pub fn contains_path_segment(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !hay[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[abs + needle.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Whether a defined symbol (by demangled path) is an instantiation of
/// `kernel`: rooted in the kernel's crate, owned by its type/module,
/// ending in its fn name — and not a closure inside it.
fn symbol_matches(demangled: &str, kernel: &Kernel) -> bool {
    if !demangled.starts_with(&kernel.lib) || !demangled[kernel.lib.len()..].starts_with(':') {
        return false;
    }
    if demangled.ends_with("{{closure}}") {
        return false;
    }
    if !contains_path_segment(demangled, &kernel.owner) {
        return false;
    }
    // The fn name must be the final path segment.
    let Some(tail) = demangled.strip_suffix(&kernel.fn_name) else {
        return false;
    };
    tail.ends_with("::")
}

/// Audit every kernel belonging to `lib` against one crate's call
/// graph. Kernels of other crates are skipped, not failed.
pub fn audit_graph(graph: &CallGraph, kernels: &[Kernel], lib: &str) -> Vec<KernelReport> {
    // Demangle once.
    let mut demangled: HashMap<&str, String> = HashMap::new();
    for sym in graph
        .defines
        .iter()
        .chain(graph.calls.values().flat_map(|callees| callees.keys()))
    {
        demangled
            .entry(sym.as_str())
            .or_insert_with(|| demangle(sym));
    }
    let mut reports = Vec::new();
    for kernel in kernels.iter().filter(|k| k.lib == lib) {
        let symbols: Vec<String> = graph
            .defines
            .iter()
            .filter(|sym| symbol_matches(&demangled[sym.as_str()], kernel))
            .cloned()
            .collect();
        let mut report = KernelReport {
            key: kernel.key(),
            mode: kernel.mode,
            symbols: symbols.clone(),
            panic_paths: Vec::new(),
            bounds_paths: Vec::new(),
            bounds_checks: 0,
        };
        if symbols.is_empty() {
            report.panic_paths.push(format!(
                "kernel not present in the emitted artifact ({}:{}) — renamed or inlined away?",
                kernel.file, kernel.line
            ));
            reports.push(report);
            continue;
        }
        // BFS from all instantiations, recording one parent per node so
        // findings come with a concrete call chain.
        let mut parent: HashMap<String, String> = HashMap::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for s in &symbols {
            parent.entry(s.clone()).or_default();
            queue.push_back(s.clone());
        }
        while let Some(node) = queue.pop_front() {
            let Some(callees) = graph.calls.get(&node) else {
                continue;
            };
            for (callee, &count) in callees {
                let name = demangled
                    .get(callee.as_str())
                    .cloned()
                    .unwrap_or_else(|| demangle(callee));
                match classify(&name) {
                    Class::Bounds => {
                        report.bounds_checks += count;
                        report
                            .bounds_paths
                            .push(render_chain(&parent, &demangled, &node, &name));
                        continue; // terminal: do not traverse into std
                    }
                    Class::Panic => {
                        report
                            .panic_paths
                            .push(render_chain(&parent, &demangled, &node, &name));
                        continue;
                    }
                    Class::Benign => {}
                }
                // Traverse only into symbols we define; externs are leaves.
                if graph.defines.contains(callee) && !parent.contains_key(callee) {
                    parent.insert(callee.clone(), node.clone());
                    queue.push_back(callee.clone());
                }
            }
        }
        report.panic_paths.sort();
        report.panic_paths.dedup();
        report.bounds_paths.sort();
        report.bounds_paths.dedup();
        reports.push(report);
    }
    reports
}

/// Render `kernel -> … -> offending symbol` from the BFS parent map.
fn render_chain(
    parent: &HashMap<String, String>,
    demangled: &HashMap<&str, String>,
    node: &str,
    offender: &str,
) -> String {
    let mut chain = vec![offender.to_owned()];
    let mut cur = node.to_owned();
    while !cur.is_empty() {
        let name = demangled
            .get(cur.as_str())
            .cloned()
            .unwrap_or_else(|| cur.clone());
        chain.push(name);
        cur = parent.get(&cur).cloned().unwrap_or_default();
    }
    chain.reverse();
    chain.join(" -> ")
}

// ---------------------------------------------------------------------
// Baseline (AUDIT.json) — the ratchet.
// ---------------------------------------------------------------------

/// One committed baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Promise mode, mirrored so a mode downgrade is a visible diff.
    pub mode: Mode,
    /// Ceiling on retained bounds-check call sites.
    pub bounds_checks: u32,
}

/// The committed registry: kernel key → entry, ordered for stable
/// serialization.
pub type Baseline = BTreeMap<String, BaselineEntry>;

/// Serialize the baseline in the fixed `AUDIT.json` shape.
pub fn render_baseline(b: &Baseline) -> String {
    let mut out = String::from("{\n  \"kernels\": {\n");
    let mut first = true;
    for (key, e) in b {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "    \"{key}\": {{ \"mode\": \"{}\", \"bounds_checks\": {} }}",
            e.mode, e.bounds_checks
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Parse `AUDIT.json`. The format is exactly what [`render_baseline`]
/// writes (this tool is its only writer), so the parser is a strict
/// line-shape reader rather than a general JSON parser.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut out = Baseline::new();
    for line in text.lines() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix('"') else {
            continue;
        };
        let Some(end) = rest.find('"') else {
            return Err(format!("malformed baseline line: {t}"));
        };
        let key = &rest[..end];
        if key == "kernels" {
            continue;
        }
        let mode = if t.contains("\"bounds-free\"") {
            Mode::BoundsFree
        } else if t.contains("\"panic-free\"") {
            Mode::PanicFree
        } else {
            return Err(format!("baseline entry without a mode: {t}"));
        };
        let bounds_checks = t
            .split("\"bounds_checks\":")
            .nth(1)
            .map(|s| {
                s.trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
            })
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("baseline entry without bounds_checks: {t}"))?;
        out.insert(
            key.to_owned(),
            BaselineEntry {
                mode,
                bounds_checks,
            },
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// The whole run's outcome, for the CLI to print.
#[derive(Debug)]
pub struct Outcome {
    /// Per-kernel verdicts, all crates.
    pub reports: Vec<KernelReport>,
    /// Failures (promise violations, ratchet regressions, registry
    /// drift). Empty means the audit passed.
    pub failures: Vec<String>,
    /// Non-fatal notes (improvements that could tighten the baseline).
    pub notes: Vec<String>,
}

/// Emit IR for the audited crates, audit every annotated kernel, and
/// compare against `AUDIT.json`. With `write_baseline`, rewrite the
/// baseline from what the artifact actually shows instead of failing on
/// drift.
pub fn run(root: &Path, write_baseline: bool) -> Result<Outcome, String> {
    let kernels = scan_annotations(root)?;
    if kernels.is_empty() {
        return Err("no `// audit: kernel(...)` annotations found".into());
    }
    let mut reports = Vec::new();
    for &(pkg, lib, _) in AUDITED_CRATES {
        let graph = emit_graph(root, pkg, lib)?;
        reports.extend(audit_graph(&graph, &kernels, lib));
    }
    reports.sort_by(|a, b| a.key.cmp(&b.key));

    let mut failures = Vec::new();
    let mut notes = Vec::new();
    for r in &reports {
        for p in &r.panic_paths {
            failures.push(format!("{} [{}]: panic reachable: {p}", r.key, r.mode));
        }
        if r.mode == Mode::BoundsFree {
            for p in &r.bounds_paths {
                failures.push(format!(
                    "{} [{}]: bounds check retained: {p}",
                    r.key, r.mode
                ));
            }
        }
    }

    let measured: Baseline = reports
        .iter()
        .map(|r| {
            (
                r.key.clone(),
                BaselineEntry {
                    mode: r.mode,
                    bounds_checks: r.bounds_checks,
                },
            )
        })
        .collect();
    let baseline_path = root.join(BASELINE_FILE);
    if write_baseline {
        fs::write(&baseline_path, render_baseline(&measured))
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
        notes.push(format!("baseline written to {BASELINE_FILE}"));
        return Ok(Outcome {
            reports,
            failures,
            notes,
        });
    }
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => parse_baseline(&text)?,
        Err(_) => {
            failures.push(format!(
                "{BASELINE_FILE} missing — run `xtask audit --write-baseline` and commit it"
            ));
            return Ok(Outcome {
                reports,
                failures,
                notes,
            });
        }
    };
    for (key, m) in &measured {
        match baseline.get(key) {
            None => failures.push(format!(
                "{key}: not in {BASELINE_FILE} — new kernel? re-run with --write-baseline"
            )),
            Some(b) if b.mode != m.mode => failures.push(format!(
                "{key}: mode changed {} -> {} without a baseline update",
                b.mode, m.mode
            )),
            Some(b) if m.bounds_checks > b.bounds_checks => failures.push(format!(
                "{key}: bounds-check ratchet: {} retained call sites, baseline allows {}",
                m.bounds_checks, b.bounds_checks
            )),
            Some(b) if m.bounds_checks < b.bounds_checks => notes.push(format!(
                "{key}: improved to {} bounds checks (baseline {}) — tighten with --write-baseline",
                m.bounds_checks, b.bounds_checks
            )),
            Some(_) => {}
        }
    }
    for key in baseline.keys() {
        if !measured.contains_key(key) {
            failures.push(format!(
                "{key}: in {BASELINE_FILE} but no matching annotation — stale entry"
            ));
        }
    }
    Ok(Outcome {
        reports,
        failures,
        notes,
    })
}

/// One artifact-text parser (IR or asm) for `emit_graph`'s fallback
/// chain.
type ArtifactParser = fn(&str) -> CallGraph;

/// Emit the release artifact for one crate and lift its call graph:
/// LLVM IR first, textual asm as the fallback.
fn emit_graph(root: &Path, pkg: &str, lib: &str) -> Result<CallGraph, String> {
    let target_dir = root.join("target").join("xtask-audit");
    let attempts: [(&str, &str, ArtifactParser); 2] =
        [("llvm-ir", "ll", parse_ir), ("asm", "s", parse_asm)];
    for (emit, ext, parse) in attempts {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
        let status = Command::new(&cargo)
            .args(["rustc", "--release", "-p", pkg, "--lib", "--target-dir"])
            .arg(&target_dir)
            .args(["--", &format!("--emit={emit}"), "-C", "codegen-units=1"])
            .current_dir(root)
            .status()
            .map_err(|e| format!("spawn cargo rustc for {pkg}: {e}"))?;
        if !status.success() {
            return Err(format!("cargo rustc --emit={emit} failed for {pkg}"));
        }
        if let Some(text) = newest_artifact(&target_dir.join("release").join("deps"), lib, ext)? {
            return Ok(parse(&text));
        }
    }
    Err(format!("no IR or asm artifact produced for {pkg}"))
}

/// The newest `deps/<lib>-<hash>.<ext>` artifact's contents, if any.
fn newest_artifact(deps: &Path, lib: &str, ext: &str) -> Result<Option<String>, String> {
    let Ok(entries) = fs::read_dir(deps) else {
        return Ok(None);
    };
    let prefix = format!("{lib}-");
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !name.starts_with(&prefix) || path.extension().is_none_or(|e| e != ext) {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if newest.as_ref().is_none_or(|(t, _)| mtime > *t) {
            newest = Some((mtime, path));
        }
    }
    match newest {
        Some((_, path)) => fs::read_to_string(&path)
            .map(Some)
            .map_err(|e| format!("read {}: {e}", path.display())),
        None => Ok(None),
    }
}
