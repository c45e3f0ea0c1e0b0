//! Compact counter-slab codec for snapshot persistence.
//!
//! A synopsis slab is the one field whose serialized size and decode
//! cost dominate a snapshot: a 256 KiB window is 32 Ki counters, and a
//! JSON array spends one heap-allocated `Value` per counter on decode —
//! the load path ends up allocator-bound, slower than rebuilding the
//! sketch from the stream it summarizes (DESIGN.md §13). Slabs are
//! therefore encoded as a **single JSON string** holding a
//! self-delimiting nibble stream:
//!
//! * `0`–`9`, `a`–`f` — a continuation nibble: shift it into the value
//!   being accumulated;
//! * `g`–`v` — a terminal nibble (`g` = 0 … `v` = 15): shift it in and
//!   finish the value. Every value ends with exactly one terminal
//!   character, so no separators are needed — a small counter is one
//!   byte;
//! * `z` opening a value — the finished value is a run of that many
//!   zero cells rather than one cell (sketch slabs are mostly zero or
//!   mostly small, so both forms earn their keep).
//!
//! Any other byte, `-` included, is malformed: counters are unsigned.
//!
//! `5` encodes as `l`, `0x25` as `2l`, a run of three zeros as `zj`.
//! Decoding is one branch-predictable byte scan straight into a
//! pre-sized `Vec` — no per-cell allocation, no intermediate `Value`
//! tree. Every `from_value` helper also accepts the plain JSON sequence
//! form, so snapshots written before this encoding still load.
//!
//! Callers pass the cell count they expect from their layout fields;
//! the decoder reserves exactly that much and rejects any stream that
//! over- or under-fills it, so a tampered run length cannot request an
//! unbounded allocation.

use serde::{Error, Value};

/// Terminal-nibble alphabet base: `b'g' + n` ends a value with nibble
/// `n`.
const TERM: u8 = b'g';

fn push_value(s: &mut String, v: u64) {
    // All nibbles except the last are plain hex; the last comes from
    // the terminal alphabet. Values emit high nibble first.
    let nibbles = (64 - (v | 1).leading_zeros()).div_ceil(4);
    for shift in (1..nibbles).rev() {
        let d = ((v >> (4 * shift)) & 0xf) as u8;
        s.push(char::from(if d < 10 { b'0' + d } else { b'a' + d - 10 }));
    }
    s.push(char::from(TERM + (v & 0xf) as u8));
}

/// Encode an unsigned slab as the nibble stream described above.
// audit: kernel(bounds-free)
pub fn encode_u64(cells: &[u64]) -> String {
    let mut s = String::with_capacity(cells.len() / 4 + 16);
    let mut i = 0usize;
    while i < cells.len() {
        if cells[i] == 0 {
            let start = i;
            while i < cells.len() && cells[i] == 0 {
                i += 1;
            }
            s.push('z');
            push_value(&mut s, (i - start) as u64);
        } else {
            push_value(&mut s, cells[i]);
            i += 1;
        }
    }
    s
}

/// Per-byte classification: `0..16` continuation nibble, `16..32`
/// terminal nibble, `32` zero-run opener, `-1` malformed.
const LUT: [i8; 256] = {
    let mut t = [-1i8; 256];
    let mut i = 0usize;
    while i < 10 {
        t[b'0' as usize + i] = i as i8;
        i += 1;
    }
    let mut i = 0usize;
    while i < 6 {
        t[b'a' as usize + i] = 10 + i as i8;
        i += 1;
    }
    let mut i = 0usize;
    while i < 16 {
        t[TERM as usize + i] = 16 + i as i8;
        i += 1;
    }
    t[b'z' as usize] = 32;
    t
};

fn bad_byte(pos: usize) -> Error {
    Error(format!("malformed slab stream at byte {pos}"))
}

fn bad_run(run: u64, pos: usize, remaining: usize) -> Error {
    Error(format!(
        "slab zero-run of {run} ending at byte {pos} exceeds the {remaining} cells remaining"
    ))
}

fn bad_count(produced: usize, expected: usize) -> Error {
    Error(format!(
        "slab stream holds {produced} cells where {expected} were expected"
    ))
}

fn overfull(expected: usize) -> Error {
    Error(format!("slab stream continues past its {expected} cells"))
}

/// Decode an unsigned slab of exactly `expected` cells. This is the
/// snapshot-load hot loop — one branch-predictable pass over the bytes
/// into the pre-sized output, one table lookup per byte, no per-cell
/// allocation. A value of more than 16 nibbles is rejected outright,
/// which is also what makes per-digit overflow checks unnecessary: 16
/// nibbles are exactly a `u64`.
// audit: kernel(bounds-free)
pub fn decode_u64(s: &str, expected: usize) -> Result<Vec<u64>, Error> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(expected);
    let mut v = 0u64;
    let mut ndig = 0usize;
    let mut zrun = false;
    for (pos, &b) in bytes.iter().enumerate() {
        let d = LUT[b as usize];
        if (0..16).contains(&d) {
            v = (v << 4) | d as u64;
            ndig += 1;
        } else if (16..32).contains(&d) {
            v = (v << 4) | (d as u64 - 16);
            ndig += 1;
            if ndig > 16 {
                return Err(bad_byte(pos));
            }
            if zrun {
                if v == 0 || v > (expected - out.len()) as u64 {
                    return Err(bad_run(v, pos, expected - out.len()));
                }
                // cast: v was just bounded by a usize-sized remainder.
                out.resize(out.len() + v as usize, 0);
            } else {
                if out.len() == expected {
                    return Err(overfull(expected));
                }
                out.push(v);
            }
            v = 0;
            ndig = 0;
            zrun = false;
        } else if d == 32 && ndig == 0 && !zrun {
            zrun = true;
        } else {
            return Err(bad_byte(pos));
        }
    }
    if ndig != 0 || zrun {
        return Err(bad_byte(bytes.len()));
    }
    if out.len() != expected {
        return Err(bad_count(out.len(), expected));
    }
    Ok(out)
}

/// Unsigned slab → `Value` (the compact string form).
pub fn u64_cells_to_value(cells: &[u64]) -> Value {
    Value::Str(encode_u64(cells))
}

/// `Value` → unsigned slab of exactly `expected` cells. Only the
/// compact string form is read; the JSON-array form no writer emits is
/// rejected without decoding its elements.
pub fn u64_cells_from_value(v: &Value, expected: usize) -> Result<Vec<u64>, Error> {
    match v {
        Value::Str(s) => decode_u64(s, expected),
        Value::Seq(_) => Err(Error(
            "slab cells must be a nibble-stream string, not a sequence".into(),
        )),
        other => Err(Error::expected("slab string", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_round_trips() {
        for cells in [
            vec![],
            vec![0],
            vec![0, 0, 0, 0],
            vec![1, 2, 3],
            vec![0, 5, 0, 0, 7, u64::MAX, 0],
            vec![u64::MAX; 3],
            (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
        ] {
            let s = encode_u64(&cells);
            assert_eq!(decode_u64(&s, cells.len()).unwrap(), cells, "{s:?}");
        }
    }

    #[test]
    fn known_encodings() {
        // `5` → terminal-only `l`; `0x25` → `2l`; three zeros → `zj`.
        assert_eq!(encode_u64(&[5]), "l");
        assert_eq!(encode_u64(&[0x25]), "2l");
        assert_eq!(encode_u64(&[0, 0, 0]), "zj");
        assert_eq!(encode_u64(&[0x25, 0, 0, 0, 5]), "2lzjl");
        assert_eq!(decode_u64("2lzjl", 5).unwrap(), vec![0x25, 0, 0, 0, 5]);
    }

    #[test]
    fn zero_runs_compress() {
        let cells = vec![0u64; 100_000];
        let s = encode_u64(&cells);
        assert!(s.len() < 8, "all-zero slab should be one run: {s:?}");
        assert_eq!(decode_u64(&s, cells.len()).unwrap(), cells);
    }

    #[test]
    fn malformed_streams_error() {
        // Wrong counts, bad bytes, overflow, and oversized runs all
        // report errors instead of panicking or allocating unboundedly.
        for (s, expected) in [
            ("", 1usize),
            ("gh", 3),                 // two cells where three expected
            ("ghi", 2),                // three cells where two expected
            ("zg", 4),                 // zero-length run
            ("z11111111111111111", 4), // run of 17 nibbles overflows
            ("zq", 4),                 // run of 10 in a 4-cell slab
            ("5", 1),                  // dangling continuation nibble
            ("z", 1),                  // dangling run opener
            ("1,2", 3),                // legacy separator is not a token
            ("0x1f", 1),
            ("1f 2e", 2),
            ("11111111111111111g", 1), // 18-nibble value overflows u64
            ("-h", 1),                 // sign in an unsigned slab
            ("z-h", 4),                // sign inside a run
        ] {
            assert!(decode_u64(s, expected).is_err(), "{s:?}");
        }
    }

    #[test]
    fn sequence_form_is_rejected() {
        let v = Value::Seq(vec![Value::U64(3), Value::U64(0), Value::U64(9)]);
        let e = u64_cells_from_value(&v, 3).unwrap_err();
        assert!(e.to_string().contains("not a sequence"), "{e}");
        let e = u64_cells_from_value(&Value::U64(3), 1).unwrap_err();
        assert!(e.to_string().contains("slab string"), "{e}");
    }
}
