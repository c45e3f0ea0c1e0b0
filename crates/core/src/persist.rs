//! Persistence: save and load the gSketch synopsis across process restarts.
//!
//! A deployed gSketch accumulates stream state that must survive
//! restarts, rollouts, and migration between hosts. Exactly two snapshot
//! kinds exist, and both hold the counter arena:
//!
//! - a flat [`GSketch`] snapshot ([`GSKETCH_KIND`]): the arena with its
//!   hash coefficients, the prefilter, the router table, and the partition
//!   plan, in one versioned JSON envelope;
//! - a windowed snapshot ([`WINDOWED_KIND`]): a header, one append-only
//!   record per sealed window, a tail, and a footer (format v3 below).
//!
//! Nothing else is persisted: the standalone synopses (the Global
//! baseline, Count sketch, SpaceSaving, HyperLogLog) live in memory only.
//! JSON is chosen over a binary codec deliberately: sketch snapshots are
//! small relative to the streams they summarize (a 2 MB sketch is a large
//! one), and an inspectable format lets operators diff snapshots with
//! standard tools. The envelope carries a format version so future layout
//! changes can be detected rather than mis-parsed. The one exception to
//! plain JSON is counter slabs: they serialize as a compact
//! self-delimiting nibble-stream string (`sketch::slab`, DESIGN.md §13) so
//! a snapshot load decodes cells with one byte scan instead of one heap
//! `Value` per counter — the array form is still accepted on read.

use crate::gsketch::GSketch;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Current snapshot format version. Version 2 is the arena layout: the
/// `GSketch` body is one counter arena (slot spans + one slab) instead of
/// version 1's partitions/outlier pair, and the envelope kind names the
/// synopsis ([`GSKETCH_KIND`]), so a file holding any other layout is
/// rejected by kind instead of being mis-decoded.
pub const FORMAT_VERSION: u32 = 2;

/// Envelope kind tag of a flat [`GSketch`] snapshot.
pub const GSKETCH_KIND: &str = "gsketch:cm-arena";

/// Envelope kind tag of a windowed snapshot (format v3).
pub const WINDOWED_KIND: &str = "gsketch-windowed:cm-arena";

/// Snapshot format version for **windowed** deployments (DESIGN.md §13).
/// A v3 file is line-oriented: a header line (config + builder + tiering
/// parameters), one append-only record line per sealed window, one
/// mutable tail line (tiers, live window, reservoir, RNG, counters), and
/// a footer line indexing every window record's byte offset. The footer
/// is what makes [`save_windowed`] incremental — an append truncates at
/// the recorded `tail_offset` and writes only windows sealed since the
/// last save — and what lets [`load_windowed_horizon`] decode only the
/// records overlapping a queried span.
pub const WINDOWED_FORMAT_VERSION: u32 = 3;

/// Errors produced while saving or loading snapshots.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed or non-snapshot JSON.
    Format(serde_json::Error),
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot holds a different kind of sketch (or a retired
    /// synopsis layout) than requested.
    KindMismatch {
        /// Kind found in the file.
        found: String,
        /// Kind the caller asked for.
        expected: String,
    },
    /// The instance was loaded through [`load_windowed_horizon`] and
    /// holds only part of its history; saving it would silently shrink
    /// the snapshot, so the save is refused.
    PartialInstance,
    /// An incremental append found the target file's recorded history
    /// incompatible with the instance being saved (different deployment,
    /// diverged windows, or a mismatched configuration).
    AppendMismatch(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::Format(e) => write!(f, "snapshot format error: {e}"),
            PersistError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            PersistError::KindMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot holds a `{found}` sketch, expected `{expected}`"
                )
            }
            PersistError::PartialInstance => write!(
                f,
                "refusing to save a horizon-limited (partial) snapshot load: \
                 it holds only part of the deployment's history"
            ),
            PersistError::AppendMismatch(why) => {
                write!(f, "snapshot append rejected: {why}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

impl From<serde::Error> for PersistError {
    fn from(e: serde::Error) -> Self {
        PersistError::Format(e.into())
    }
}

/// The versioned on-disk envelope.
#[derive(Serialize, Deserialize)]
struct Envelope<T> {
    format_version: u32,
    kind: String,
    sketch: T,
}

fn check_header(
    version: u32,
    accepted: u32,
    kind: &str,
    expected: &str,
) -> Result<(), PersistError> {
    // Kind first: "this is a windowed snapshot, not `gsketch:cm-arena`"
    // diagnoses a wrong-file mistake better than a version complaint
    // (the flat and windowed formats version independently).
    if kind != expected {
        return Err(PersistError::KindMismatch {
            found: kind.to_owned(),
            expected: expected.to_owned(),
        });
    }
    if version != accepted {
        return Err(PersistError::VersionMismatch {
            found: version,
            expected: accepted,
        });
    }
    Ok(())
}

/// A snapshot whose envelope has been parsed but whose body has not been
/// decoded yet. Lets callers inspect [`kind`](Self::kind) — e.g. to name
/// a wrong-kind file in an error — and then decode the body exactly once,
/// instead of speculatively decoding megabytes of counters under the
/// wrong layout.
pub struct RawSnapshot {
    version: u32,
    kind: String,
    body: serde::Value,
}

impl RawSnapshot {
    /// Parse a snapshot envelope from `r` without decoding the body.
    pub fn read<R: Read>(mut r: R) -> Result<Self, PersistError> {
        // read_to_string already reads to EOF in chunks; no BufReader
        // needed (it would only add an intermediate copy).
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let v = serde_json::parse(&text)?;
        let bad = |msg: &str| PersistError::Format(serde::Error(msg.to_owned()).into());
        // The parse tree is owned, so the (potentially megabytes-large)
        // body is moved out of the envelope rather than cloned.
        let serde::Value::Map(entries) = v else {
            return Err(bad("snapshot envelope is not a JSON object"));
        };
        let mut version = None;
        let mut kind = None;
        let mut body = None;
        for (key, value) in entries {
            match key.as_str() {
                "format_version" => {
                    version =
                        Some(u32::from_value(&value).map_err(|e| PersistError::Format(e.into()))?);
                }
                "kind" => {
                    kind = Some(
                        String::from_value(&value).map_err(|e| PersistError::Format(e.into()))?,
                    );
                }
                "sketch" => body = Some(value),
                _ => {}
            }
        }
        Ok(Self {
            version: version.ok_or_else(|| bad("missing field `format_version`"))?,
            kind: kind.ok_or_else(|| bad("missing field `kind`"))?,
            body: body.ok_or_else(|| bad("missing field `sketch`"))?,
        })
    }

    /// Open and parse the envelope of the snapshot file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        Self::read(File::open(path)?)
    }

    /// The envelope kind tag (`gsketch:cm-arena`, ...).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Format version recorded in the envelope.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Decode the body as a [`GSketch`], verifying the header first.
    pub fn decode_gsketch(&self) -> Result<GSketch, PersistError> {
        check_header(self.version, FORMAT_VERSION, &self.kind, GSKETCH_KIND)?;
        serde::Deserialize::from_value(&self.body).map_err(|e| PersistError::Format(e.into()))
    }
}

/// Serialize a [`GSketch`] snapshot to `w`, tagged [`GSKETCH_KIND`].
pub fn write_gsketch<W: Write>(w: W, sketch: &GSketch) -> Result<(), PersistError> {
    let mut out = BufWriter::new(w);
    serde_json::to_writer(
        &mut out,
        &Envelope {
            format_version: FORMAT_VERSION,
            kind: GSKETCH_KIND.to_owned(),
            sketch,
        },
    )?;
    out.flush()?;
    Ok(())
}

/// Deserialize a [`GSketch`] snapshot from `r`. The kind tag is checked
/// *before* the body decodes, so a file of another kind (a windowed
/// snapshot, or a retired `gsketch:countmin` layout) reports
/// [`PersistError::KindMismatch`] rather than an opaque parse failure.
pub fn read_gsketch<R: Read>(r: R) -> Result<GSketch, PersistError> {
    RawSnapshot::read(r)?.decode_gsketch()
}

/// Save a [`GSketch`] snapshot to the file at `path`.
pub fn save_gsketch<P: AsRef<Path>>(path: P, sketch: &GSketch) -> Result<(), PersistError> {
    write_gsketch(File::create(path)?, sketch)
}

/// Load a [`GSketch`] snapshot from the file at `path`.
pub fn load_gsketch<P: AsRef<Path>>(path: P) -> Result<GSketch, PersistError> {
    read_gsketch(File::open(path)?)
}

// ---------------------------------------------------------------------------
// Windowed snapshots (format v3, DESIGN.md §13)
// ---------------------------------------------------------------------------
//
// Layout (one JSON document per line):
//
//   line 0   {"format_version":3,"kind":"gsketch-windowed:cm-arena","header":{...}}
//   line 1.. one record per sealed window: {"start":..,"end":..,"sketch":{...}}
//   tail     {"tiers":[...],"current":{...},"reservoir":{...},"rng":[...],...}
//   footer   {"windows":[[start,end,byte_offset],...],"tail_offset":N}
//
// Sealed windows are immutable, so their record lines are append-only:
// `save_windowed` onto an existing file validates the header, truncates
// at the recorded `tail_offset`, and writes only the windows sealed
// since the last save plus a fresh tail and footer — O(new), not
// O(history). Coarsened windows' records stay in the file as history;
// the tail's tiers supersede them at load. The footer's byte offsets let
// `load_windowed_horizon` parse only the records overlapping a queried
// span.

use crate::window::WindowedGSketch;
use std::io::Seek;

fn format_err(msg: impl Into<String>) -> PersistError {
    PersistError::Format(serde::Error(msg.into()).into())
}

/// The JSON document starting at byte `off` (one line; no trailing
/// newline). Offsets come from a snapshot footer, so every access is
/// checked — a truncated or tampered file reports a format error instead
/// of panicking.
fn line_at(text: &str, off: u64) -> Result<&str, PersistError> {
    let off = usize::try_from(off).map_err(|_| format_err("snapshot offset out of range"))?;
    let rest = text
        .get(off..)
        .ok_or_else(|| format_err("snapshot offset past end of file"))?;
    match rest.split('\n').next() {
        Some(line) if !line.trim().is_empty() => Ok(line),
        _ => Err(format_err("snapshot record at indexed offset is empty")),
    }
}

/// Parsed v3 framing: the header envelope plus the footer index. Window
/// record bodies are *not* parsed here — callers decode only the lines
/// they need.
struct WindowedFraming {
    header: serde::Value,
    /// `(start, end, byte_offset)` per sealed-window record.
    windows: Vec<(u64, u64, u64)>,
    tail_offset: u64,
}

fn parse_windowed_framing(
    text: &str,
    expected_kind: &str,
) -> Result<WindowedFraming, PersistError> {
    let first = text
        .lines()
        .next()
        .filter(|l| !l.trim().is_empty())
        .ok_or_else(|| format_err("snapshot file is empty"))?;
    let envelope = serde_json::parse(first)?;
    let version = u32::from_value(serde::value_field(&envelope, "format_version")?)
        .map_err(|e| PersistError::Format(e.into()))?;
    let kind = String::from_value(serde::value_field(&envelope, "kind")?)
        .map_err(|e| PersistError::Format(e.into()))?;
    check_header(version, WINDOWED_FORMAT_VERSION, &kind, expected_kind)?;
    let header = serde::value_field(&envelope, "header")?.clone();

    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format_err("snapshot file has no footer"))?;
    let footer = serde_json::parse(last)
        .map_err(|_| format_err("snapshot footer is unreadable (truncated file?)"))?;
    let tail_offset = u64::from_value(serde::value_field(&footer, "tail_offset")?)
        .map_err(|e| PersistError::Format(e.into()))?;
    let mut windows = Vec::new();
    match serde::value_field(&footer, "windows")? {
        serde::Value::Seq(items) => {
            for item in items {
                let triple =
                    serde::value_seq(item, 3).map_err(|e| PersistError::Format(e.into()))?;
                let start =
                    u64::from_value(&triple[0]).map_err(|e| PersistError::Format(e.into()))?;
                let end =
                    u64::from_value(&triple[1]).map_err(|e| PersistError::Format(e.into()))?;
                let off =
                    u64::from_value(&triple[2]).map_err(|e| PersistError::Format(e.into()))?;
                if start >= end {
                    return Err(format_err(format!(
                        "snapshot footer window [{start}, {end}) is empty or inverted"
                    )));
                }
                if let Some(&(_, prev_end, _)) = windows.last() {
                    if start < prev_end {
                        return Err(format_err("snapshot footer windows out of order"));
                    }
                }
                windows.push((start, end, off));
            }
        }
        other => {
            return Err(format_err(format!(
                "snapshot footer `windows` is {other:?}"
            )))
        }
    }
    // The footer must point inside the file; a stale footer after an
    // interrupted append is a format error, not a panic.
    line_at(text, tail_offset)?;
    Ok(WindowedFraming {
        header,
        windows,
        tail_offset,
    })
}

/// `header` with its builder decoded and encoded again. A header written
/// by an older build can carry a builder field this build has since
/// retired (`outlier_profile`, `collision_factor`, `outlier_fraction`);
/// the round trip drops it, so the file still accepts appends from the
/// deployment it describes.
fn canonical_header(header: &serde::Value) -> Result<serde::Value, PersistError> {
    let serde::Value::Map(fields) = header else {
        return Err(format_err("snapshot header is not an object"));
    };
    let mut out = Vec::with_capacity(fields.len());
    for (key, value) in fields {
        let value = if key == "builder" {
            crate::GSketchBuilder::from_value(value)?.to_value()
        } else {
            value.clone()
        };
        out.push((key.clone(), value));
    }
    Ok(serde::Value::Map(out))
}

/// Render one line-framed snapshot section (record, tail) as JSON.
fn encode_line(v: &serde::Value) -> Result<String, PersistError> {
    Ok(serde_json::to_string(v)?)
}

fn encode_footer(windows: &[(u64, u64, u64)], tail_offset: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\"windows\":[");
    for (i, (start, end, off)) in windows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Infallible: writing to a String cannot error.
        let _ = write!(s, "[{start},{end},{off}]");
    }
    let _ = write!(s, "],\"tail_offset\":{tail_offset}}}");
    s
}

/// Save a windowed deployment to `path` (format v3). If `path` does not
/// exist, the full state is written. If it does, the save is an
/// **incremental append**: the existing header is validated against the
/// instance (same deployment, same configuration), the file is truncated
/// at its recorded `tail_offset`, and only the windows sealed since the
/// last save are written, followed by a fresh tail and footer — the
/// write cost is O(new windows), independent of how much history the
/// file already holds.
pub fn save_windowed<P: AsRef<Path>>(path: P, w: &WindowedGSketch) -> Result<(), PersistError> {
    if w.is_partial() {
        return Err(PersistError::PartialInstance);
    }
    let path = path.as_ref();
    let header = serde::Value::Map(vec![
        (
            "format_version".to_owned(),
            serde::Value::U64(u64::from(WINDOWED_FORMAT_VERSION)),
        ),
        (
            "kind".to_owned(),
            serde::Value::Str(WINDOWED_KIND.to_owned()),
        ),
        ("header".to_owned(), w.encode_header()),
    ]);
    let spans = w.sealed_spans();

    // Returns the windows already recorded (kept with their offsets) and
    // the byte position appends start from; `None` means a fresh write.
    let existing = if path.exists() {
        let text = std::fs::read_to_string(path)?;
        let framing = parse_windowed_framing(&text, WINDOWED_KIND)?;
        if canonical_header(&framing.header)? != w.encode_header() {
            return Err(PersistError::AppendMismatch(
                "file header (config/builder/horizon) differs from this instance".to_owned(),
            ));
        }
        let file_end = framing.windows.last().map_or(0, |&(_, end, _)| end);
        // Every live sealed window inside the file's recorded range must
        // already be in the file; every recorded window the instance no
        // longer holds must have been coarsened into its tiers.
        for &(start, end) in spans.iter().filter(|&&(s, _)| s < file_end) {
            if !framing
                .windows
                .iter()
                .any(|&(fs, fe, _)| (fs, fe) == (start, end))
            {
                return Err(PersistError::AppendMismatch(format!(
                    "instance window [{start}, {end}) is missing from the file's history"
                )));
            }
        }
        let tiers_end = w.tiers_end();
        for &(fs, fe, _) in &framing.windows {
            if fe > tiers_end && !spans.iter().any(|&(s, e)| (s, e) == (fs, fe)) {
                return Err(PersistError::AppendMismatch(format!(
                    "file window [{fs}, {fe}) is neither held nor coarsened by this instance"
                )));
            }
        }
        Some((framing.windows, framing.tail_offset, file_end))
    } else {
        None
    };

    let (mut index, mut offset, file_end) = match &existing {
        Some((windows, tail_offset, file_end)) => (windows.clone(), *tail_offset, *file_end),
        None => (Vec::new(), 0, 0),
    };

    // Lines to write from `offset` on: new window records, tail, footer.
    let mut lines: Vec<String> = Vec::new();
    if existing.is_none() {
        let header_line = encode_line(&header)?;
        offset = header_line.len() as u64 + 1;
        lines.push(header_line);
    }
    for (i, &(start, end)) in spans.iter().enumerate() {
        if start < file_end {
            continue; // already recorded
        }
        let Some(record) = w.encode_sealed(i) else {
            return Err(format_err("sealed window index out of range"));
        };
        let line = encode_line(&record)?;
        index.push((start, end, offset));
        offset += line.len() as u64 + 1;
        lines.push(line);
    }
    let tail_line = encode_line(&w.encode_tail())?;
    let tail_offset = offset;
    lines.push(tail_line);
    lines.push(encode_footer(&index, tail_offset));

    let mut file = if let Some((_, old_tail, _)) = existing {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        // Drop the old tail + footer; everything before is append-only.
        f.set_len(old_tail)?;
        let mut f = f;
        f.seek(io::SeekFrom::End(0))?;
        f
    } else {
        File::create(path)?
    };
    let mut out = BufWriter::new(&mut file);
    for line in &lines {
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

fn decode_windowed(
    text: &str,
    framing: &WindowedFraming,
    span_filter: Option<(u64, u64)>,
) -> Result<WindowedGSketch, PersistError> {
    let tail = serde_json::parse(line_at(text, framing.tail_offset)?)?;
    // Records already absorbed into the tail's tiers are history: skip
    // the (expensive) sketch decode, the tiers answer for that span.
    let tiers_end = match serde::value_field(&tail, "tiers") {
        Ok(serde::Value::Seq(items)) => match items.last() {
            Some(last) => u64::from_value(serde::value_field(last, "end")?)
                .map_err(|e| PersistError::Format(e.into()))?,
            None => 0,
        },
        _ => 0,
    };
    let mut records = Vec::new();
    let mut skipped_any = false;
    for &(start, end, off) in &framing.windows {
        if end <= tiers_end {
            continue;
        }
        if let Some((ts, te)) = span_filter {
            // Overlap of [ts, te] (inclusive) with [start, end).
            if end <= ts || start > te {
                skipped_any = true;
                continue;
            }
        }
        records.push(serde_json::parse(line_at(text, off)?)?);
    }
    WindowedGSketch::from_snapshot(&framing.header, &records, &tail, skipped_any)
        .map_err(|e| PersistError::Format(e.into()))
}

/// Load a full windowed snapshot from `path`.
pub fn load_windowed<P: AsRef<Path>>(path: P) -> Result<WindowedGSketch, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let framing = parse_windowed_framing(&text, WINDOWED_KIND)?;
    decode_windowed(&text, &framing, None)
}

/// Load only the sealed windows overlapping `[t_start, t_end]`
/// (inclusive), plus the tail. The footer's byte index means records
/// outside the span are never parsed — a query over a narrow horizon
/// pays for the windows it touches, not the whole history. If any
/// record was skipped the returned instance is **partial**
/// ([`WindowedGSketch::is_partial`]): answers are only valid inside the
/// loaded span and re-saving it is refused.
pub fn load_windowed_horizon<P: AsRef<Path>>(
    path: P,
    t_start: u64,
    t_end: u64,
) -> Result<WindowedGSketch, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let framing = parse_windowed_framing(&text, WINDOWED_KIND)?;
    decode_windowed(&text, &framing, Some((t_start, t_end)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeSink;
    use gstream::edge::{Edge, StreamEdge};

    fn sample_stream() -> Vec<StreamEdge> {
        (0..500u64)
            .map(|t| StreamEdge::unit(Edge::new((t % 20) as u32, 100 + (t % 7) as u32), t))
            .collect()
    }

    fn built_gsketch() -> GSketch {
        let stream = sample_stream();
        let mut g = GSketch::builder()
            .memory_bytes(1 << 14)
            .min_width(32)
            .build_from_sample(&stream)
            .unwrap();
        g.ingest(&stream);
        g
    }

    #[test]
    fn gsketch_round_trip_preserves_estimates() {
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let back = read_gsketch(&buf[..]).unwrap();
        for t in 0..500u64 {
            let e = Edge::new((t % 20) as u32, 100 + (t % 7) as u32);
            assert_eq!(g.estimate(e), back.estimate(e));
            assert_eq!(g.route(e), back.route(e));
        }
        assert_eq!(g.num_partitions(), back.num_partitions());
        assert_eq!(g.bytes(), back.bytes());
    }

    #[test]
    fn restored_sketch_accepts_more_stream() {
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let mut back = read_gsketch(&buf[..]).unwrap();
        let e = Edge::new(3u32, 103u32);
        let before = back.estimate(e);
        back.update(StreamEdge::weighted(e, 0, 10));
        assert_eq!(back.estimate(e), before + 10);
    }

    #[test]
    fn version_mismatch_detected() {
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text = text.replace(
            &format!("\"format_version\":{FORMAT_VERSION}"),
            "\"format_version\":999",
        );
        let err = read_gsketch(text.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            PersistError::VersionMismatch { found: 999, .. }
        ));
    }

    #[test]
    fn kind_mismatch_detected() {
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let text = retag(&String::from_utf8(buf).unwrap(), GSKETCH_KIND, "global");
        let err = read_gsketch(text.as_bytes()).unwrap_err();
        // The kind tag rejects it before any body decode is attempted.
        assert!(matches!(err, PersistError::KindMismatch { .. }));
    }

    #[test]
    fn inconsistent_router_bank_pair_is_a_format_error() {
        // A hand-edited snapshot whose router addresses more slots than
        // the bank holds must fail cleanly at load, not panic at query.
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let needle = "\"outlier_slot\":";
        let at = text.find(needle).unwrap() + needle.len();
        let end = at + text[at..].find([',', '}']).unwrap();
        let tampered = format!("{}99{}", &text[..at], &text[end..]);
        let err = read_gsketch(tampered.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "got: {err}");
    }

    #[test]
    fn garbage_is_a_format_error() {
        let err = read_gsketch("not json at all".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("gsketch_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let g = built_gsketch();
        save_gsketch(&path, &g).unwrap();
        let back = load_gsketch(&path).unwrap();
        assert_eq!(
            g.estimate(Edge::new(1u32, 101u32)),
            back.estimate(Edge::new(1u32, 101u32))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_gsketch("/nonexistent/missing.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    /// Rewrite the first `"kind":"…"` tag of a snapshot's text.
    fn retag(text: &str, from: &str, to: &str) -> String {
        let needle = format!("\"kind\":\"{from}\"");
        assert!(text.contains(&needle), "no `{from}` tag to rewrite");
        text.replacen(&needle, &format!("\"kind\":\"{to}\""), 1)
    }

    /// Fresh snapshots carry exactly the arena kind tags, and files of
    /// the retired `countmin`/`countsketch` layouts are refused by kind
    /// before any body decode, with an error naming both kinds.
    #[test]
    fn backend_round_trip_and_cross_backend_rejection() {
        let g = built_gsketch();
        let mut buf = Vec::new();
        write_gsketch(&mut buf, &g).unwrap();
        let raw = RawSnapshot::read(&buf[..]).unwrap();
        assert_eq!(raw.kind(), "gsketch:cm-arena");
        assert_eq!(raw.kind(), GSKETCH_KIND);
        assert_eq!(raw.version(), FORMAT_VERSION);
        let text = String::from_utf8(buf).unwrap();
        for retired in ["gsketch:countmin", "gsketch:countsketch"] {
            let err = read_gsketch(retag(&text, GSKETCH_KIND, retired).as_bytes()).unwrap_err();
            match &err {
                PersistError::KindMismatch { found, expected } => {
                    assert_eq!(found, retired);
                    assert_eq!(expected, GSKETCH_KIND);
                }
                other => panic!("expected a kind mismatch, got {other}"),
            }
            let msg = err.to_string();
            assert!(msg.contains(retired) && msg.contains(GSKETCH_KIND), "{msg}");
        }
    }

    #[test]
    fn display_messages() {
        let e = PersistError::VersionMismatch {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = PersistError::KindMismatch {
            found: "x".into(),
            expected: "gsketch:cm-arena".into(),
        };
        assert!(e.to_string().contains("gsketch"));
        assert!(PersistError::PartialInstance
            .to_string()
            .contains("partial"));
        assert!(PersistError::AppendMismatch("diverged".into())
            .to_string()
            .contains("diverged"));
    }

    // -- windowed snapshots (format v3) -----------------------------------

    use crate::window::WindowConfig;
    use crate::WindowedGSketch;

    fn wcfg() -> WindowConfig {
        WindowConfig {
            span: 100,
            memory_bytes_per_window: 1 << 14,
            sample_capacity: 64,
            seed: 7,
        }
    }

    fn wbuilder() -> crate::GSketchBuilder {
        GSketch::builder().min_width(16)
    }

    fn wstream(range: std::ops::Range<u64>) -> Vec<StreamEdge> {
        range
            .map(|ts| StreamEdge::unit(Edge::new((ts % 9) as u32, 40 + (ts % 4) as u32), ts))
            .collect()
    }

    fn query_edges() -> Vec<Edge> {
        (0..9u32)
            .flat_map(|s| (40..44u32).map(move |d| Edge::new(s, d)))
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gsketch_persist_windowed");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Every interval answer — plain and detailed — must be
    /// bit-identical between the two instances across a spread of spans.
    fn assert_windowed_answers_identical(a: &WindowedGSketch, b: &WindowedGSketch, ctx: &str) {
        let edges = query_edges();
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        for (ts, te) in [(0u64, u64::MAX), (0, 349), (120, 480), (333, 333)] {
            a.estimate_interval_batch(&edges, ts, te, &mut va);
            b.estimate_interval_batch(&edges, ts, te, &mut vb);
            for (x, y) in va.iter().zip(&vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: [{ts}, {te}]");
            }
            a.estimate_interval_detailed_batch(&edges, ts, te, &mut ra);
            b.estimate_interval_detailed_batch(&edges, ts, te, &mut rb);
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}");
                assert_eq!(x.error_bound.to_bits(), y.error_bound.to_bits(), "{ctx}");
                assert_eq!(x.confidence.to_bits(), y.confidence.to_bits(), "{ctx}");
            }
        }
    }

    #[test]
    fn windowed_round_trip_is_bit_identical_and_resumable() {
        let path = temp_path("round_trip.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..550) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let mut back = load_windowed(&path).unwrap();
        assert!(!back.is_partial());
        assert_eq!(back.sealed_windows(), w.sealed_windows());
        assert_eq!(back.current_window_start(), w.current_window_start());
        assert_windowed_answers_identical(&w, &back, "after load");
        // Resumability is the hard part: reservoir + RNG state round-trip,
        // so continued ingest (rotations included) stays bit-identical.
        for se in wstream(550..900) {
            w.try_insert(se).unwrap();
            back.try_insert(se).unwrap();
        }
        assert_windowed_answers_identical(&w, &back, "after resumed ingest");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_append_writes_only_new_windows() {
        let path = temp_path("append.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..350) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let framing = parse_windowed_framing(&first, WINDOWED_KIND).unwrap();
        assert_eq!(framing.windows.len(), 3);

        for se in wstream(350..900) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        // Append-only: everything before the old tail offset is
        // byte-for-byte unchanged — old records were not rewritten.
        let old_tail = usize::try_from(framing.tail_offset).unwrap();
        assert_eq!(&first[..old_tail], &second[..old_tail]);
        let framing2 = parse_windowed_framing(&second, WINDOWED_KIND).unwrap();
        assert_eq!(framing2.windows.len(), 8);

        let back = load_windowed(&path).unwrap();
        assert_windowed_answers_identical(&w, &back, "after append + load");
        std::fs::remove_file(&path).unwrap();
    }

    /// A file whose header still records retired builder fields
    /// (`outlier_profile`, or the `collision_factor` and
    /// `outlier_fraction` knobs) loads, and accepts appends from the
    /// deployment it describes.
    #[test]
    fn windowed_append_accepts_header_with_retired_builder_field() {
        let retired = [
            ("\"prefilter\":", "\"outlier_profile\":null,"),
            (
                "\"redistribute\":",
                "\"collision_factor\":0.5,\"outlier_fraction\":0.1,",
            ),
        ];
        for (before, fields) in retired {
            let path = temp_path("retired_field.json");
            let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
            for se in wstream(0..350) {
                w.try_insert(se).unwrap();
            }
            save_windowed(&path, &w).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let (header, rest) = text.split_once('\n').unwrap();
            let old_header = header.replace(before, &format!("{fields}{before}"));
            assert_ne!(old_header, header);
            // The footer indexes byte offsets, so shift them by the growth.
            let grown = (old_header.len() - header.len()) as u64;
            let framing = parse_windowed_framing(&text, WINDOWED_KIND).unwrap();
            let windows: Vec<(u64, u64, u64)> = framing
                .windows
                .iter()
                .map(|&(s, e, off)| (s, e, off + grown))
                .collect();
            let body = &rest[..rest.trim_end().rfind('\n').unwrap() + 1];
            let footer = encode_footer(&windows, framing.tail_offset + grown);
            std::fs::write(&path, format!("{old_header}\n{body}{footer}\n")).unwrap();
            let back = load_windowed(&path).unwrap();
            assert_windowed_answers_identical(&w, &back, "retired-field load");
            for se in wstream(350..700) {
                w.try_insert(se).unwrap();
            }
            save_windowed(&path, &w).unwrap();
            let again = load_windowed(&path).unwrap();
            assert_windowed_answers_identical(&w, &again, "retired-field append");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn windowed_append_rejects_diverged_history() {
        let path = temp_path("diverged.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..350) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        // A different deployment (different seed ⇒ different header).
        let mut other = WindowedGSketch::new(
            WindowConfig {
                seed: 1234,
                ..wcfg()
            },
            wbuilder(),
        )
        .unwrap();
        for se in wstream(0..350) {
            other.try_insert(se).unwrap();
        }
        let err = save_windowed(&path, &other).unwrap_err();
        assert!(matches!(err, PersistError::AppendMismatch(_)), "got {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_horizon_load_skips_records_and_is_partial() {
        let path = temp_path("horizon.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..800) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let narrow = load_windowed_horizon(&path, 300, 499).unwrap();
        assert!(narrow.is_partial());
        assert!(narrow.sealed_windows() < w.sealed_windows());
        // Inside the loaded span, answers match the full instance
        // bit-for-bit (absent windows contribute exactly 0 elsewhere).
        let edges = query_edges();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        w.estimate_interval_batch(&edges, 300, 499, &mut a);
        narrow.estimate_interval_batch(&edges, 300, 499, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A partial instance refuses to overwrite durable history.
        let err = save_windowed(&path, &narrow).unwrap_err();
        assert!(matches!(err, PersistError::PartialInstance));
        // A horizon covering everything is not partial.
        let full = load_windowed_horizon(&path, 0, u64::MAX).unwrap();
        assert!(!full.is_partial());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_tiered_round_trip_and_append() {
        let path = temp_path("tiered.json");
        let mut w = WindowedGSketch::with_horizon(wcfg(), wbuilder(), 2).unwrap();
        let mut shadow = WindowedGSketch::with_horizon(wcfg(), wbuilder(), 2).unwrap();
        for se in wstream(0..900) {
            w.try_insert(se).unwrap();
            shadow.try_insert(se).unwrap();
        }
        assert!(w.num_tiers() >= 1, "test needs coarsened history");
        save_windowed(&path, &w).unwrap();
        let mut back = load_windowed(&path).unwrap();
        assert_eq!(back.num_tiers(), w.num_tiers());
        assert_eq!(back.coarsenings(), w.coarsenings());
        assert_windowed_answers_identical(&w, &back, "tiered load");
        // Append after further coarsening, then reload: still identical
        // to the shadow instance that never went through a file.
        for se in wstream(900..1500) {
            w.try_insert(se).unwrap();
            shadow.try_insert(se).unwrap();
            back.try_insert(se).unwrap();
        }
        assert_windowed_answers_identical(&shadow, &back, "tiered resumed ingest");
        save_windowed(&path, &w).unwrap();
        let again = load_windowed(&path).unwrap();
        assert_windowed_answers_identical(&shadow, &again, "tiered append + reload");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn windowed_cross_backend_and_flat_kind_rejected() {
        let path = temp_path("kind.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..250) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().unwrap();
        assert!(
            first.contains("\"kind\":\"gsketch-windowed:cm-arena\""),
            "{first}"
        );
        assert_eq!(WINDOWED_KIND, "gsketch-windowed:cm-arena");
        // A retired windowed layout is refused by kind, naming both.
        let retired = "gsketch-windowed:countsketch";
        std::fs::write(&path, retag(&text, WINDOWED_KIND, retired)).unwrap();
        let err = load_windowed(&path).unwrap_err();
        let msg = err.to_string();
        match &err {
            PersistError::KindMismatch { found, expected } => {
                assert_eq!(found, retired);
                assert_eq!(expected, WINDOWED_KIND);
            }
            other => panic!("expected a kind mismatch, got {other}"),
        }
        assert!(
            msg.contains(retired) && msg.contains(WINDOWED_KIND),
            "{msg}"
        );
        assert!(load_windowed_horizon(&path, 0, u64::MAX).is_err());
        // …and a flat snapshot is rejected by kind, not by parse chaos.
        let flat = temp_path("flat.json");
        save_gsketch(&flat, &built_gsketch()).unwrap();
        let err = load_windowed(&flat).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::KindMismatch { .. } | PersistError::Format(_)
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&flat).unwrap();
    }

    #[test]
    fn windowed_version_mismatch_names_windowed_version() {
        let path = temp_path("version.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..150) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let text = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"format_version\":{WINDOWED_FORMAT_VERSION}"),
            "\"format_version\":77",
        );
        std::fs::write(&path, text).unwrap();
        let err = load_windowed(&path).unwrap_err();
        match err {
            PersistError::VersionMismatch { found, expected } => {
                assert_eq!(found, 77);
                assert_eq!(expected, WINDOWED_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Truncation at any byte must produce an error, never a panic: the
    /// decode path is what `xtask lint` pins as panic-free.
    #[test]
    fn truncated_windowed_snapshots_error_cleanly() {
        let path = temp_path("truncated.json");
        let mut w = WindowedGSketch::new(wcfg(), wbuilder()).unwrap();
        for se in wstream(0..350) {
            w.try_insert(se).unwrap();
        }
        save_windowed(&path, &w).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Sweep cut points across the whole file (step keeps it fast).
        // Every cut below len−1 severs the footer line; len−1 would only
        // drop the trailing newline, which is legitimately loadable.
        for cut in (0..full.len().saturating_sub(1)).step_by(97) {
            std::fs::write(&path, &full[..cut]).unwrap();
            match load_windowed(&path) {
                Err(_) => {}
                Ok(_) => panic!("truncation at byte {cut} decoded successfully"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
