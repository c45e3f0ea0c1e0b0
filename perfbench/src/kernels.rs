//! The kernel pass of the traced run: the public `sketch` kernels on
//! one workload's slot widths and keys, each timed over repeated passes.

use crate::jobs::KernelInput;
use crate::trace::Tracer;
use sketch::{blocked_bloom::BlockedBloom, slab, CmArena};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Minimum measured time per kernel.
const KERNEL_SECONDS: f64 = 0.25;

/// Seconds per pass of `pass`, repeated for at least `KERNEL_SECONDS`,
/// each pass in a span called `name`.
fn per_pass(tr: &Tracer, name: &'static str, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed().as_secs_f64() < KERNEL_SECONDS {
        tr.span(name, &mut pass);
        passes += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(passes)
}

pub fn run(k: &KernelInput, seed: u64, tr: &Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
    let keys: usize = k
        .slot_keys
        .iter()
        .map(|(_, v)| v.len())
        .sum::<usize>()
        .max(1);
    let ns_per_key = |s: f64| s * 1e9 / keys as f64;
    let runs: Vec<(u32, Vec<(u64, u64)>)> = k
        .slot_keys
        .iter()
        .map(|(slot, ks)| (*slot, ks.iter().map(|&key| (key, 1)).collect()))
        .collect();
    let mut m = BTreeMap::new();

    let mut arena = CmArena::with_slots(&k.widths, 1, seed).map_err(|e| format!("CmArena: {e}"))?;
    let add = per_pass(tr, "sketch.arena.add_batch", || {
        for (slot, run) in &runs {
            arena.add_batch_saturating(*slot, black_box(run));
        }
    });
    m.insert("sketch.arena.add_batch.ns_per_key", ns_per_key(add));

    let mut out = Vec::new();
    let read = per_pass(tr, "sketch.arena.estimate_batch", || {
        for (slot, ks) in &k.slot_keys {
            arena.estimate_batch_slot(*slot, black_box(ks), &mut out);
            black_box(&out);
        }
    });
    m.insert("sketch.arena.estimate_batch.ns_per_key", ns_per_key(read));

    let mut bloom = BlockedBloom::for_widths(&k.widths, k.bloom_bytes, seed)
        .ok_or("BlockedBloom::for_widths: budget below one block per slot")?;
    for (slot, run) in &runs {
        bloom.insert_run(*slot, run);
    }
    let mut hits = Vec::new();
    let probe = per_pass(tr, "sketch.blocked_bloom.contains_batch", || {
        for (slot, ks) in &k.slot_keys {
            bloom.contains_batch(*slot, black_box(ks), &mut hits);
            black_box(&hits);
        }
    });
    m.insert(
        "sketch.blocked_bloom.contains_batch.ns_per_key",
        ns_per_key(probe),
    );

    let encoded = slab::encode_u64(&k.cells);
    let mut decoded = Ok(Vec::new());
    let decode = per_pass(tr, "sketch.slab.decode", || {
        decoded = slab::decode_u64(black_box(&encoded), k.cells.len());
    });
    if decoded.as_ref().map_or(true, |d| *d != k.cells) {
        return Err("slab decode does not round-trip the encoded cells".to_owned());
    }
    m.insert(
        "sketch.slab.decode.bytes_per_s",
        encoded.len() as f64 / decode,
    );
    Ok(m)
}
