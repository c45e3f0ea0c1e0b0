//! Pinned-fixture tests for the compiled-artifact auditor (DESIGN.md
//! §14): call-graph extraction, demangling (legacy exactly, v0 loosely),
//! panic classification, kernel matching, the ratchet count — and,
//! through the deliberately panic-reachable fixture, the auditor's
//! ability to actually fail.

use xtask::audit::{
    audit_graph, classify, contains_path_segment, demangle, parse_asm, parse_baseline, parse_ir,
    render_baseline, Baseline, BaselineEntry, Class, Kernel, Mode,
};

const CLEAN: &str = include_str!("fixtures/callgraph.ll");
const PANICKY: &str = include_str!("fixtures/panicky.ll");

fn kernel(owner: &str, fn_name: &str, mode: Mode) -> Kernel {
    Kernel {
        lib: "sketch".into(),
        owner: owner.into(),
        fn_name: fn_name.into(),
        mode,
        file: "crates/sketch/src/fixture.rs".into(),
        line: 1,
    }
}

// ---------------------------------------------------------------------
// Demangling.
// ---------------------------------------------------------------------

#[test]
fn legacy_demangling_strips_hash_and_decodes_escapes() {
    assert_eq!(
        demangle("_ZN6sketch5arena7CmArena19estimate_batch_slot17h0123456789abcdefE"),
        "sketch::arena::CmArena::estimate_batch_slot"
    );
    assert_eq!(
        demangle("_ZN4core3ptr43drop_in_place$LT$sketch..arena..CmArena$GT$17h9999999999999999E"),
        "core::ptr::drop_in_place<sketch::arena::CmArena>"
    );
    // Internalized-symbol suffix is ignored.
    assert_eq!(
        demangle("_ZN6sketch5arena8grow_row17h5555555555555555E.llvm.123456789"),
        "sketch::arena::grow_row"
    );
}

#[test]
fn legacy_demangling_handles_trait_impl_brackets() {
    let d = demangle(
        "_ZN74_$LT$sketch..arena..CmArena$u20$as$u20$sketch..traits..FrequencySketch$GT$8estimate17h1111111111111111E",
    );
    assert!(
        d.contains("CmArena as sketch::traits::FrequencySketch"),
        "{d}"
    );
    assert!(d.ends_with("::estimate"), "{d}");
}

#[test]
fn v0_demangling_reads_path_segments() {
    assert_eq!(
        demangle("_RNvNtCs2guqholBoiA_4core9panicking9panic_fmt"),
        "core::panicking::panic_fmt"
    );
    assert_eq!(
        demangle("_RNvNtCs2guqholBoiA_4core9panicking18panic_bounds_check"),
        "core::panicking::panic_bounds_check"
    );
}

#[test]
fn unmangled_symbols_pass_through() {
    assert_eq!(demangle("memcpy"), "memcpy");
    assert_eq!(demangle("rust_begin_unwind"), "rust_begin_unwind");
}

// ---------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------

#[test]
fn classification_separates_bounds_from_panic_from_benign() {
    assert_eq!(
        classify("core::panicking::panic_bounds_check"),
        Class::Bounds
    );
    assert_eq!(
        classify("core::slice::index::slice_index_order_fail"),
        Class::Bounds
    );
    assert_eq!(classify("core::panicking::panic_fmt"), Class::Panic);
    assert_eq!(classify("core::result::unwrap_failed"), Class::Panic);
    assert_eq!(
        classify("core::panicking::panic_const::panic_const_rem_by_zero"),
        Class::Panic
    );
    assert_eq!(classify("rust_begin_unwind"), Class::Panic);
    // Allocation is documented out of scope: growth is not a panic edge.
    assert_eq!(classify("alloc::raw_vec::finish_grow"), Class::Benign);
    assert_eq!(classify("core::fmt::Formatter::pad"), Class::Benign);
    // A workspace symbol that merely names panics never classifies.
    assert_eq!(classify("sketch::panicking_audit_helper"), Class::Benign);
}

#[test]
fn path_segment_matching_respects_identifier_boundaries() {
    let atomic = "sketch::arena::AtomicCmArena::add_batch_saturating";
    assert!(!contains_path_segment(atomic, "CmArena"));
    assert!(contains_path_segment(atomic, "AtomicCmArena"));
    let builder = "gsketch::gsketch::GSketchBuilder::build";
    assert!(!contains_path_segment(builder, "GSketch"));
}

// ---------------------------------------------------------------------
// Call-graph extraction.
// ---------------------------------------------------------------------

#[test]
fn ir_parser_lifts_defines_and_direct_calls() {
    let g = parse_ir(CLEAN);
    assert_eq!(g.defines.len(), 4, "{:?}", g.defines);
    let kernel_sym = "_ZN6sketch5arena7CmArena19estimate_batch_slot17h0123456789abcdefE";
    let callees = &g.calls[kernel_sym];
    // The llvm.* intrinsic is dropped; only the real call remains.
    assert_eq!(callees.len(), 1, "{callees:?}");
    assert!(callees.contains_key("_ZN6sketch5arena7CmArena10batch_read17hfedcba9876543210E"));
    // batch_read: the quoted trait-impl callee is captured; the
    // indirect call through %self has no symbol and is invisible.
    let br = &g.calls["_ZN6sketch5arena7CmArena10batch_read17hfedcba9876543210E"];
    assert_eq!(br.len(), 1, "{br:?}");
}

#[test]
fn ir_parser_counts_call_site_multiplicity() {
    let g = parse_ir(PANICKY);
    let probe = &g.calls["_ZN6sketch4slab9probe_set17h4444444444444444E"];
    assert_eq!(
        probe["_ZN4core9panicking18panic_bounds_check17h3333333333333333E"],
        2
    );
}

#[test]
fn asm_parser_lifts_labels_and_calls() {
    let asm = "\t.text\n_ZN6sketch5arena7CmArena11update_slot17h2222222222222222E:\n\tpushq %rbp\n\tcallq _ZN4core9panicking18panic_bounds_check17h3333333333333333E\n\tjmp .LBB0_2\n\tretq\n";
    let g = parse_asm(asm);
    assert!(g
        .defines
        .contains("_ZN6sketch5arena7CmArena11update_slot17h2222222222222222E"));
    let callees = &g.calls["_ZN6sketch5arena7CmArena11update_slot17h2222222222222222E"];
    assert!(callees.contains_key("_ZN4core9panicking18panic_bounds_check17h3333333333333333E"));
    // Local-label jumps are control flow, not calls.
    assert_eq!(callees.len(), 1, "{callees:?}");
}

// ---------------------------------------------------------------------
// Verdicts.
// ---------------------------------------------------------------------

#[test]
fn clean_kernel_passes_bounds_free() {
    let g = parse_ir(CLEAN);
    let kernels = vec![kernel("CmArena", "estimate_batch_slot", Mode::BoundsFree)];
    let reports = audit_graph(&g, &kernels, "sketch");
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.symbols.len(), 1);
    assert!(r.promise_holds(), "{r:?}");
    assert_eq!(r.bounds_checks, 0);
}

#[test]
fn panic_reachable_kernel_fails_with_a_call_chain() {
    let g = parse_ir(PANICKY);
    let kernels = vec![kernel("CmArena", "update_slot", Mode::BoundsFree)];
    let reports = audit_graph(&g, &kernels, "sketch");
    let r = &reports[0];
    assert!(!r.promise_holds(), "{r:?}");
    // Both families are reached, each through the grow_row hop, and the
    // rendered chain names the intermediate frame.
    assert_eq!(r.panic_paths.len(), 1, "{:?}", r.panic_paths);
    assert!(r.panic_paths[0].contains("grow_row"), "{:?}", r.panic_paths);
    assert!(r.panic_paths[0].ends_with("core::panicking::panic_fmt"));
    assert_eq!(r.bounds_paths.len(), 1, "{:?}", r.bounds_paths);
    assert!(r.bounds_paths[0].contains("panic_bounds_check"));
    // The alloc leaf reached from grow_row is benign by policy.
    assert!(!r.panic_paths.iter().any(|p| p.contains("realloc")));
}

#[test]
fn panic_free_mode_counts_bounds_sites_but_holds() {
    let g = parse_ir(PANICKY);
    let kernels = vec![kernel("slab", "probe_set", Mode::PanicFree)];
    let reports = audit_graph(&g, &kernels, "sketch");
    let r = &reports[0];
    assert!(r.promise_holds(), "{r:?}");
    assert_eq!(r.bounds_checks, 2);
    // The same kernel audited as bounds-free would fail.
    let strict = vec![kernel("slab", "probe_set", Mode::BoundsFree)];
    let strict_r = &audit_graph(&g, &strict, "sketch")[0];
    assert!(!strict_r.promise_holds());
}

#[test]
fn missing_kernel_is_a_hard_failure_not_a_pass() {
    let g = parse_ir(CLEAN);
    let kernels = vec![kernel("CmArena", "vanished_kernel", Mode::BoundsFree)];
    let r = &audit_graph(&g, &kernels, "sketch")[0];
    assert!(!r.promise_holds(), "{r:?}");
    assert!(r.symbols.is_empty());
    assert!(
        r.panic_paths[0].contains("not present"),
        "{:?}",
        r.panic_paths
    );
}

#[test]
fn kernels_of_other_crates_are_skipped_not_failed() {
    let g = parse_ir(CLEAN);
    let mut k = kernel("OwnerWorker", "drain", Mode::BoundsFree);
    k.lib = "gsketch".into();
    assert!(audit_graph(&g, &[k], "sketch").is_empty());
}

// ---------------------------------------------------------------------
// Baseline.
// ---------------------------------------------------------------------

#[test]
fn baseline_round_trips() {
    let mut b = Baseline::new();
    b.insert(
        "sketch::CmArena::estimate_batch_slot".into(),
        BaselineEntry {
            mode: Mode::BoundsFree,
            bounds_checks: 0,
        },
    );
    b.insert(
        "fixture::PanicFreeKernel::insert".into(),
        BaselineEntry {
            mode: Mode::PanicFree,
            bounds_checks: 1,
        },
    );
    let text = render_baseline(&b);
    assert_eq!(parse_baseline(&text).unwrap(), b);
}

#[test]
fn committed_baseline_parses_and_covers_the_hot_kernels() {
    let root = xtask::workspace_root();
    let text = std::fs::read_to_string(root.join(xtask::audit::BASELINE_FILE)).unwrap();
    let b = parse_baseline(&text).unwrap();
    for key in [
        "sketch::CmArena::estimate_batch_slot",
        "sketch::CmArena::estimate_gather",
        "sketch::CmArenaSlice::add_batch_saturating",
        "sketch::BlockedBloom::contains_batch",
        "sketch::BlockedBloom::contains_gather",
        "gsketch::OwnerWorker::commit_evicted",
        "gsketch::GSketch::estimate_span",
    ] {
        assert_eq!(b[key].mode, Mode::BoundsFree, "{key}");
        assert_eq!(b[key].bounds_checks, 0, "{key}");
    }
}
