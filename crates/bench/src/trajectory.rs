//! Perf-trajectory recording (DESIGN.md §3): benches append their
//! headline throughput numbers to `BENCH_ingest.json` at the repository
//! root, so ingest/estimate performance is tracked *in the repo* across
//! PRs instead of evaporating with each terminal session.
//!
//! The file is one JSON object:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "benches": {
//!     "parallel_ingest": {
//!       "dataset": "...", "arrivals": 2000000,
//!       "results": [
//!         {"name": "cm-arena/batched", "updates_per_sec": 1.0e8,
//!          "estimates_per_sec": 5.0e7}
//!       ]
//!     }
//!   }
//! }
//! ```
//!
//! Each bench owns one entry under `benches` and overwrites only its own
//! section, so running benches in any order or subset keeps the others'
//! latest numbers.

use serde::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Schema version of `BENCH_ingest.json`.
pub const SCHEMA: u64 = 1;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Configuration label, e.g. `"cm-arena/batched"`.
    pub name: String,
    /// Ingest worker threads that ran for this row (1 = sequential).
    pub threads: usize,
    /// Ingested stream updates per second.
    pub updates_per_sec: f64,
    /// Point estimates per second.
    pub estimates_per_sec: f64,
    /// Throughput relative to the same engine's 1-worker row, for thread
    /// sweeps (`None` for rows that are not part of a sweep). Serialized
    /// only when present so historical sections keep their exact shape.
    pub scaling_ratio: Option<f64>,
}

impl Throughput {
    /// A single-threaded row (the historical common case).
    pub fn sequential(
        name: impl Into<String>,
        updates_per_sec: f64,
        estimates_per_sec: f64,
    ) -> Self {
        Self {
            name: name.into(),
            threads: 1,
            updates_per_sec,
            estimates_per_sec,
            scaling_ratio: None,
        }
    }
}

/// The vendored serde has no `Serialize` impl for raw `Value` trees;
/// this newtype forwards one.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Path of the trajectory file: `BENCH_ingest.json` at the workspace
/// root (two levels above this crate's manifest).
pub fn bench_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json")
}

fn get_mut<'a>(entries: &'a mut [(String, Value)], key: &str) -> Option<&'a mut Value> {
    entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialize one result row. The sweep annotation (`scaling_ratio`) is
/// emitted only when set, so sections that never sweep
/// keep the exact four-key shape earlier trajectory files recorded.
fn row_value(t: &Throughput) -> Value {
    let mut row = vec![
        ("name".to_owned(), Value::Str(t.name.clone())),
        ("threads".to_owned(), Value::U64(t.threads as u64)),
        ("updates_per_sec".to_owned(), Value::F64(t.updates_per_sec)),
        (
            "estimates_per_sec".to_owned(),
            Value::F64(t.estimates_per_sec),
        ),
    ];
    if let Some(ratio) = t.scaling_ratio {
        row.push(("scaling_ratio".to_owned(), Value::F64(ratio)));
    }
    Value::Map(row)
}

/// Merge one bench's section into the trajectory file: metadata
/// key/values first, then the `results` list. Creates the file when
/// missing; a corrupt file is replaced rather than appended to.
pub fn record_section(section: &str, meta: &[(&str, Value)], results: &[Throughput]) {
    let mut section_entries: Vec<(String, Value)> = meta
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect();
    section_entries.push((
        "results".to_owned(),
        Value::Seq(results.iter().map(row_value).collect()),
    ));

    let path = bench_file();
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::parse(&text).ok())
        .filter(|v| matches!(v, Value::Map(_)))
        .unwrap_or_else(|| {
            Value::Map(vec![
                ("schema".to_owned(), Value::U64(SCHEMA)),
                ("benches".to_owned(), Value::Map(Vec::new())),
            ])
        });

    if let Value::Map(entries) = &mut root {
        if get_mut(entries, "benches").is_none() {
            entries.push(("benches".to_owned(), Value::Map(Vec::new())));
        }
        if let Some(Value::Map(benches)) = get_mut(entries, "benches") {
            let body = Value::Map(section_entries);
            match benches.iter_mut().find(|(k, _)| k == section) {
                Some((_, v)) => *v = body,
                None => benches.push((section.to_owned(), body)),
            }
        }
    }

    match serde_json::to_string(&Raw(root)) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize bench trajectory: {e}"),
    }
}

/// Time `work` and convert to an elements-per-second rate.
pub fn rate_of<F: FnOnce()>(elements: u64, work: F) -> f64 {
    let start = Instant::now();
    work();
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    elements as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_without_clobbering_siblings() {
        // Operate on a scratch copy of the logic by writing through the
        // real helpers into a temp-dir file via env redirection is not
        // possible (path is compile-time), so exercise the pure parts:
        // building and merging the Value tree round-trips through JSON.
        let t = Throughput::sequential("x/streaming", 1.5e6, 2.5e6);
        assert_eq!(t.threads, 1);
        let body = serde_json::to_string(&Raw(Value::Map(vec![(
            "results".into(),
            Value::Seq(vec![Value::Map(vec![
                ("name".into(), Value::Str(t.name.clone())),
                ("threads".into(), Value::U64(t.threads as u64)),
                ("updates_per_sec".into(), Value::F64(t.updates_per_sec)),
                ("estimates_per_sec".into(), Value::F64(t.estimates_per_sec)),
            ])]),
        )])))
        .unwrap();
        let back = serde_json::parse(&body).unwrap();
        assert!(matches!(back, Value::Map(_)));
        assert!(body.contains("updates_per_sec"));
    }

    #[test]
    fn sweep_annotations_serialize_only_when_set() {
        let sweep = Throughput {
            name: "sharded/4t".into(),
            threads: 4,
            updates_per_sec: 1.0e6,
            estimates_per_sec: 2.0e6,
            scaling_ratio: Some(1.0),
        };
        let sweep_json = serde_json::to_string(&Raw(row_value(&sweep))).unwrap();
        assert!(sweep_json.contains("\"scaling_ratio\""));

        let plain = Throughput::sequential("cm-arena/batched", 1.0e6, 2.0e6);
        let plain_json = serde_json::to_string(&Raw(row_value(&plain))).unwrap();
        assert!(!plain_json.contains("scaling_ratio"));
    }

    #[test]
    fn rate_is_positive() {
        let mut acc = 0u64;
        let r = rate_of(1_000, || {
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(i);
            }
        });
        assert!(r > 0.0);
        assert!(acc > 0);
    }
}
