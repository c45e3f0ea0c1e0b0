//! Plain-text serialization of graph streams and query workloads.
//!
//! Two line-oriented formats share one error discipline:
//!
//! * **streams** — one arrival per line, `src dst ts weight` as decimal
//!   integers separated by whitespace, read whole ([`read_stream`]);
//! * **query workloads** — one edge query per line, `src dst`, with an
//!   optional inclusive time window `src dst t_start t_end`
//!   ([`QueryFileSource`]), the on-disk form of the paper's query sets
//!   `Qe` and workload samples `W` (§6.2–§6.4), replayed by the CLI's
//!   `query --workload` mode (windowed rows exercise the §5 interval
//!   extrapolation end to end). The strict 2-field surface
//!   ([`QueryFileSource::fill_queries`]) rejects windowed rows; the
//!   workload surface ([`QueryFileSource::fill_workload_queries`])
//!   accepts both row shapes, validating `t_start <= t_end` per line.
//!
//! All formats ignore `#`-prefixed comment lines and blank lines
//! (CRLF-terminated lines and a final line without a newline parse
//! identically), stop at the first malformed record, and report it with
//! the 1-based line number **and the byte offset of the line's first
//! byte**, so a bad record in a multi-gigabyte file can be seeked to
//! directly. Streams round-trip every [`StreamEdge`] exactly; workloads
//! round-trip every [`Edge`] / [`WorkloadQuery`] exactly.
//!
//! Readers and writers are buffered internally (a graph stream is exactly
//! the "many small records" workload where unbuffered I/O dominates).

use crate::edge::{Edge, StreamEdge};
use crate::vertex::VertexId;
use crate::workload::WorkloadQuery;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors produced while reading a stream file.
#[derive(Debug)]
pub enum StreamIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that is neither a comment, blank, nor a valid record.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Byte offset of the offending line's first byte.
        byte: u64,
        /// Description of what went wrong.
        reason: String,
    },
    /// Timestamps must be non-decreasing; the offending line regressed.
    OutOfOrder {
        /// 1-based line number of the offending record.
        line: usize,
        /// Byte offset of the offending line's first byte.
        byte: u64,
        /// The regressing timestamp.
        ts: u64,
        /// The previous (larger) timestamp.
        prev: u64,
    },
}

impl fmt::Display for StreamIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamIoError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamIoError::Parse { line, byte, reason } => {
                write!(f, "parse error at line {line} (byte {byte}): {reason}")
            }
            StreamIoError::OutOfOrder {
                line,
                byte,
                ts,
                prev,
            } => {
                write!(
                    f,
                    "out-of-order timestamp at line {line} (byte {byte}): {ts} after {prev}"
                )
            }
        }
    }
}

impl std::error::Error for StreamIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamIoError {
    fn from(e: io::Error) -> Self {
        StreamIoError::Io(e)
    }
}

/// Write a stream to `w` in the edge-list format.
pub fn write_stream<W: Write>(w: W, stream: &[StreamEdge]) -> Result<(), StreamIoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# gsketch graph stream: src dst ts weight")?;
    writeln!(out, "# arrivals: {}", stream.len())?;
    for se in stream {
        writeln!(
            out,
            "{} {} {} {}",
            se.edge.src.0, se.edge.dst.0, se.ts, se.weight
        )?;
    }
    out.flush()?;
    Ok(())
}

/// Write a stream to the file at `path`.
pub fn save_stream<P: AsRef<Path>>(path: P, stream: &[StreamEdge]) -> Result<(), StreamIoError> {
    write_stream(File::create(path)?, stream)
}

/// Pull whitespace-separated `u64` fields off one record line, reporting
/// missing/garbage tokens with the line's position. Shared by the stream
/// and query-workload parsers so both formats fail identically.
struct FieldParser<'a> {
    fields: std::str::SplitAsciiWhitespace<'a>,
    line: usize,
    byte: u64,
}

impl<'a> FieldParser<'a> {
    fn new(trimmed: &'a str, line: usize, byte: u64) -> Self {
        Self {
            fields: trimmed.split_ascii_whitespace(),
            line,
            byte,
        }
    }

    fn error(&self, reason: String) -> StreamIoError {
        StreamIoError::Parse {
            line: self.line,
            byte: self.byte,
            reason,
        }
    }

    /// Whether another field is present, without consuming it (used by
    /// the workload parser to pick the 2- vs 4-field row shape).
    fn peek(&self) -> Option<&str> {
        self.fields.clone().next()
    }

    fn next_u64(&mut self, what: &str) -> Result<u64, StreamIoError> {
        let tok = self
            .fields
            .next()
            .ok_or_else(|| self.error(format!("missing field `{what}`")))?;
        tok.parse::<u64>()
            .map_err(|e| self.error(format!("bad `{what}` value `{tok}`: {e}")))
    }

    fn vertex(&mut self, what: &str) -> Result<VertexId, StreamIoError> {
        let v = self.next_u64(what)?;
        u32::try_from(v)
            .map(VertexId)
            .map_err(|_| self.error(format!("`{what}` id {v} exceeds the u32 vertex domain")))
    }

    fn finish(mut self, last: &str) -> Result<(), StreamIoError> {
        if self.fields.next().is_some() {
            return Err(self.error(format!("trailing fields after `{last}`")));
        }
        Ok(())
    }
}

/// Parse one non-comment, non-blank record line (`src dst ts weight`).
fn parse_record(trimmed: &str, lineno: usize, byte: u64) -> Result<StreamEdge, StreamIoError> {
    let mut p = FieldParser::new(trimmed, lineno, byte);
    let src = p.vertex("src")?;
    let dst = p.vertex("dst")?;
    let ts = p.next_u64("ts")?;
    let weight = p.next_u64("weight")?;
    p.finish("weight")?;
    Ok(StreamEdge::weighted(Edge::new(src, dst), ts, weight))
}

/// Parse one non-comment, non-blank query line (`src dst`).
fn parse_query(trimmed: &str, lineno: usize, byte: u64) -> Result<Edge, StreamIoError> {
    let mut p = FieldParser::new(trimmed, lineno, byte);
    let src = p.vertex("src")?;
    let dst = p.vertex("dst")?;
    p.finish("dst")?;
    Ok(Edge::new(src, dst))
}

/// Parse one workload query line: `src dst` (lifetime query) or
/// `src dst t_start t_end` (inclusive interval query). Three fields, a
/// regressing interval (`t_start > t_end`), or trailing garbage are
/// malformed — reported with the line's position like every other
/// record error.
fn parse_workload_query(
    trimmed: &str,
    lineno: usize,
    byte: u64,
) -> Result<WorkloadQuery, StreamIoError> {
    let mut p = FieldParser::new(trimmed, lineno, byte);
    let src = p.vertex("src")?;
    let dst = p.vertex("dst")?;
    let edge = Edge::new(src, dst);
    match p.peek() {
        None => Ok(WorkloadQuery::lifetime(edge)),
        Some(_) => {
            let t_start = p.next_u64("t_start")?;
            let t_end = p.next_u64("t_end")?;
            if t_start > t_end {
                return Err(p.error(format!("empty interval: t_start {t_start} > t_end {t_end}")));
            }
            p.finish("t_end")?;
            Ok(WorkloadQuery::windowed(edge, t_start, t_end))
        }
    }
}

/// The shared line-walking state under the stream and query readers:
/// buffered reads, line/byte-offset accounting, comment and blank
/// skipping, and first-error latching. Each `next_line` call yields the
/// trimmed record text plus its (line number, byte offset) position.
#[derive(Debug)]
struct LineSource<R: Read> {
    reader: BufReader<R>,
    line: String,
    lineno: usize,
    /// Byte offset of the *next* line's first byte.
    offset: u64,
    error: Option<StreamIoError>,
    done: bool,
}

impl<R: Read> LineSource<R> {
    fn new(r: R) -> Self {
        Self {
            reader: BufReader::new(r),
            line: String::new(),
            lineno: 0,
            offset: 0,
            error: None,
            done: false,
        }
    }

    /// Advance to the next non-comment, non-blank line; `None` at
    /// end-of-input or after an error was latched.
    fn next_line(&mut self) -> Option<(&str, usize, u64)> {
        while !self.done {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => self.done = true,
                Ok(n) => {
                    self.lineno += 1;
                    let start = self.offset;
                    self.offset += n as u64;
                    let trimmed = self.line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    // Re-trim through a fresh borrow so the return value
                    // is tied to `self.line`, not this loop iteration.
                    return Some((self.line.trim(), self.lineno, start));
                }
                Err(e) => {
                    self.error = Some(StreamIoError::Io(e));
                    self.done = true;
                }
            }
        }
        None
    }

    fn fail(&mut self, e: StreamIoError) {
        self.error = Some(e);
        self.done = true;
    }

    fn finish(self) -> Result<(), StreamIoError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Read a stream from `r`, enforcing non-decreasing timestamps. The
/// first malformed or out-of-order record stops the read and is
/// reported with its line number and byte offset.
pub fn read_stream<R: Read>(r: R) -> Result<Vec<StreamEdge>, StreamIoError> {
    let mut lines = LineSource::new(r);
    let mut out = Vec::new();
    let mut prev = 0;
    while let Some((trimmed, line, byte)) = lines.next_line() {
        let se = parse_record(trimmed, line, byte)?;
        if se.ts < prev {
            return Err(StreamIoError::OutOfOrder {
                line,
                byte,
                ts: se.ts,
                prev,
            });
        }
        prev = se.ts;
        out.push(se);
    }
    lines.finish()?;
    Ok(out)
}

/// Read a stream from the file at `path`.
pub fn load_stream<P: AsRef<Path>>(path: P) -> Result<Vec<StreamEdge>, StreamIoError> {
    read_stream(File::open(path)?)
}

/// Write a query workload (`src dst` per line) to `w`.
pub fn write_queries<W: Write>(w: W, queries: &[Edge]) -> Result<(), StreamIoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# gsketch query workload: src dst")?;
    writeln!(out, "# queries: {}", queries.len())?;
    for e in queries {
        writeln!(out, "{} {}", e.src.0, e.dst.0)?;
    }
    out.flush()?;
    Ok(())
}

/// Write a query workload to the file at `path`.
pub fn save_queries<P: AsRef<Path>>(path: P, queries: &[Edge]) -> Result<(), StreamIoError> {
    write_queries(File::create(path)?, queries)
}

/// An incremental query-workload reader: one edge query per line
/// (`src dst`), delivered in chunks, with the same comment/blank
/// handling and error discipline as [`read_stream`] — the first
/// malformed record stops the source, and
/// [`finish`](Self::finish) reports it with its line number and byte
/// offset. This is the on-disk form of the paper's query sets `Qe` and
/// scenario-2 workload samples `W`, replayed by the CLI's
/// `query --workload` mode through the batched estimator surface.
#[derive(Debug)]
pub struct QueryFileSource<R: Read> {
    lines: LineSource<R>,
}

impl QueryFileSource<File> {
    /// Open the query-workload file at `path` for incremental reading.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StreamIoError> {
        Ok(Self::from_reader(File::open(path)?))
    }
}

impl<R: Read> QueryFileSource<R> {
    /// Read incrementally from any `Read` (buffered internally).
    pub fn from_reader(r: R) -> Self {
        Self {
            lines: LineSource::new(r),
        }
    }

    /// Pull the next query, or `None` at end-of-input / first error.
    fn next_query(&mut self) -> Option<Edge> {
        let (trimmed, lineno, byte) = self.lines.next_line()?;
        match parse_query(trimmed, lineno, byte) {
            Ok(e) => Some(e),
            Err(e) => {
                self.lines.fail(e);
                None
            }
        }
    }

    /// Refill `buf` (cleared first) with up to `max` queries in file
    /// order; returns the number appended, `0` when exhausted or after
    /// the first malformed record (distinguish via
    /// [`finish`](Self::finish)).
    pub fn fill_queries(&mut self, buf: &mut Vec<Edge>, max: usize) -> usize {
        buf.clear();
        while buf.len() < max {
            match self.next_query() {
                Some(e) => buf.push(e),
                None => break,
            }
        }
        buf.len()
    }

    /// Pull the next workload query (`src dst` or `src dst t_start
    /// t_end`), or `None` at end-of-input / first error.
    fn next_workload_query(&mut self) -> Option<WorkloadQuery> {
        let (trimmed, lineno, byte) = self.lines.next_line()?;
        match parse_workload_query(trimmed, lineno, byte) {
            Ok(q) => Some(q),
            Err(e) => {
                self.lines.fail(e);
                None
            }
        }
    }

    /// The windowed variant of [`fill_queries`](Self::fill_queries):
    /// refill `buf` (cleared first) with up to `max` workload queries —
    /// plain `src dst` rows become lifetime queries, `src dst t_start
    /// t_end` rows carry their inclusive interval — in file order, with
    /// the same line-validated error discipline (a 3-field row, a
    /// regressing interval, or trailing garbage stops the source;
    /// [`finish`](Self::finish) reports it with line + byte offset).
    pub fn fill_workload_queries(&mut self, buf: &mut Vec<WorkloadQuery>, max: usize) -> usize {
        buf.clear();
        while buf.len() < max {
            match self.next_workload_query() {
                Some(q) => buf.push(q),
                None => break,
            }
        }
        buf.len()
    }

    /// Consume the source and report whether it ended cleanly.
    pub fn finish(self) -> Result<(), StreamIoError> {
        self.lines.finish()
    }
}

/// Read a whole query workload from `r`.
pub fn read_queries<R: Read>(r: R) -> Result<Vec<Edge>, StreamIoError> {
    let mut source = QueryFileSource::from_reader(r);
    let mut out = Vec::new();
    while let Some(e) = source.next_query() {
        out.push(e);
    }
    source.finish()?;
    Ok(out)
}

/// Read a query workload from the file at `path`.
pub fn load_queries<P: AsRef<Path>>(path: P) -> Result<Vec<Edge>, StreamIoError> {
    read_queries(File::open(path)?)
}

/// Write a workload (`src dst` or `src dst t_start t_end` per line) to
/// `w` — the windowed superset of [`write_queries`].
pub fn write_workload<W: Write>(w: W, queries: &[WorkloadQuery]) -> Result<(), StreamIoError> {
    let mut out = BufWriter::new(w);
    writeln!(out, "# gsketch query workload: src dst [t_start t_end]")?;
    writeln!(out, "# queries: {}", queries.len())?;
    for q in queries {
        match q.window {
            None => writeln!(out, "{} {}", q.edge.src.0, q.edge.dst.0)?,
            Some((ts, te)) => writeln!(out, "{} {} {ts} {te}", q.edge.src.0, q.edge.dst.0)?,
        }
    }
    out.flush()?;
    Ok(())
}

/// Write a workload to the file at `path`.
pub fn save_workload<P: AsRef<Path>>(
    path: P,
    queries: &[WorkloadQuery],
) -> Result<(), StreamIoError> {
    write_workload(File::create(path)?, queries)
}

/// Read a whole (possibly windowed) workload from `r`.
pub fn read_workload<R: Read>(r: R) -> Result<Vec<WorkloadQuery>, StreamIoError> {
    let mut source = QueryFileSource::from_reader(r);
    let mut out = Vec::new();
    while let Some(q) = source.next_workload_query() {
        out.push(q);
    }
    source.finish()?;
    Ok(out)
}

/// Read a (possibly windowed) workload from the file at `path`.
pub fn load_workload<P: AsRef<Path>>(path: P) -> Result<Vec<WorkloadQuery>, StreamIoError> {
    read_workload(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_stream() -> Vec<StreamEdge> {
        vec![
            StreamEdge::unit(Edge::new(1u32, 2u32), 0),
            StreamEdge::weighted(Edge::new(2u32, 3u32), 1, 30),
            StreamEdge::unit(Edge::new(1u32, 2u32), 5),
        ]
    }

    #[test]
    fn round_trip_exact() {
        let stream = toy_stream();
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        let back = read_stream(&buf[..]).unwrap();
        assert_eq!(stream, back);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n1 2 0 1\n   \n# mid comment\n3 4 7 2\n";
        let stream = read_stream(text.as_bytes()).unwrap();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[1].edge, Edge::new(3u32, 4u32));
        assert_eq!(stream[1].weight, 2);
    }

    #[test]
    fn missing_field_reported_with_line() {
        let err = read_stream("1 2 0\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, reason } => {
                assert_eq!(line, 1);
                assert_eq!(byte, 0);
                assert!(reason.contains("weight"), "{reason}");
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn garbage_token_reported() {
        let err = read_stream("1 x 0 1\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse {
                line: 1, reason, ..
            } => assert!(reason.contains("dst")),
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn parse_errors_carry_byte_offset_of_line_start() {
        // 8-byte line, 8-byte line, then garbage at offset 16.
        let text = "1 2 0 1\n3 4 7 2\nbogus li\n";
        let err = read_stream(text.as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, .. } => {
                assert_eq!(line, 3);
                assert_eq!(byte, 16);
                assert_eq!(&text.as_bytes()[byte as usize..][..5], b"bogus");
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn trailing_fields_rejected() {
        let err = read_stream("1 2 0 1 99\n".as_bytes()).unwrap_err();
        assert!(matches!(err, StreamIoError::Parse { line: 1, .. }));
    }

    #[test]
    fn oversized_vertex_rejected() {
        let err = read_stream("99999999999 2 0 1\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { reason, .. } => assert!(reason.contains("u32")),
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn out_of_order_timestamps_rejected() {
        let err = read_stream("1 2 10 1\n3 4 5 1\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::OutOfOrder {
                line,
                byte,
                ts,
                prev,
            } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 9);
                assert_eq!(ts, 5);
                assert_eq!(prev, 10);
            }
            other => panic!("expected OutOfOrder, got {other}"),
        }
    }

    #[test]
    fn empty_input_is_empty_stream() {
        assert!(read_stream("".as_bytes()).unwrap().is_empty());
        assert!(read_stream("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("gstream_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.txt");
        let stream = toy_stream();
        save_stream(&path, &stream).unwrap();
        let back = load_stream(&path).unwrap();
        assert_eq!(stream, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_stream("/nonexistent/definitely/missing.txt").unwrap_err();
        assert!(matches!(err, StreamIoError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }

    #[test]
    fn display_messages_are_informative() {
        let e = StreamIoError::Parse {
            line: 3,
            byte: 40,
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("byte 40"));
        let e = StreamIoError::OutOfOrder {
            line: 9,
            byte: 120,
            ts: 1,
            prev: 2,
        };
        assert!(e.to_string().contains("line 9"));
        assert!(e.to_string().contains("byte 120"));
    }

    /// A stream several read buffers long round-trips exactly: records
    /// split across buffer refills parse like any other.
    #[test]
    fn long_stream_round_trips_exactly() {
        let stream: Vec<StreamEdge> = (0..1_000u64)
            .map(|t| {
                StreamEdge::weighted(Edge::new((t % 31) as u32, (t % 17) as u32), t, t % 3 + 1)
            })
            .collect();
        let mut text = Vec::new();
        write_stream(&mut text, &stream).unwrap();
        assert!(text.len() > 8 * 1024, "spans more than one read buffer");
        assert_eq!(read_stream(&text[..]).unwrap(), stream);
    }

    // ------------------------------------------------- query workloads

    #[test]
    fn query_workload_round_trips_exactly() {
        let queries = vec![
            Edge::new(1u32, 2u32),
            Edge::new(2u32, 3u32),
            Edge::new(1u32, 2u32), // duplicates are preserved
            Edge::new(u32::MAX, 0u32),
        ];
        let mut buf = Vec::new();
        write_queries(&mut buf, &queries).unwrap();
        assert_eq!(read_queries(&buf[..]).unwrap(), queries);
    }

    #[test]
    fn query_comments_and_blanks_ignored() {
        let text = "# workload\n\n1 2\n   \n# mid\n3 4\n";
        let q = read_queries(text.as_bytes()).unwrap();
        assert_eq!(q, vec![Edge::new(1u32, 2u32), Edge::new(3u32, 4u32)]);
    }

    #[test]
    fn query_errors_carry_line_and_byte_offset() {
        // "1 2\n" is 4 bytes; the bad line starts at byte 4.
        let err = read_queries("1 2\n5 x\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, reason } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 4);
                assert!(reason.contains("dst"), "{reason}");
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn query_trailing_fields_rejected() {
        let err = read_queries("1 2 3\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse {
                line: 1, reason, ..
            } => {
                assert!(reason.contains("trailing"), "{reason}")
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn query_oversized_vertex_rejected() {
        let err = read_queries("1 99999999999\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { reason, .. } => assert!(reason.contains("u32"), "{reason}"),
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn chunked_query_source_matches_eager_reader() {
        let queries: Vec<Edge> = (0..1_000u32).map(|i| Edge::new(i % 31, i % 17)).collect();
        let mut text = Vec::new();
        write_queries(&mut text, &queries).unwrap();
        let mut src = QueryFileSource::from_reader(&text[..]);
        let mut buf = Vec::new();
        let mut chunked = Vec::new();
        while src.fill_queries(&mut buf, 128) > 0 {
            assert!(buf.len() <= 128);
            chunked.extend_from_slice(&buf);
        }
        src.finish().unwrap();
        assert_eq!(chunked, queries);
    }

    #[test]
    fn chunked_query_source_reports_errors_at_finish() {
        let text = "1 2\n3 4\nbogus\n5 6\n";
        let mut src = QueryFileSource::from_reader(text.as_bytes());
        let mut buf = Vec::new();
        let mut n = 0;
        while src.fill_queries(&mut buf, 64) > 0 {
            n += buf.len();
        }
        assert_eq!(n, 2, "queries before the malformed line were delivered");
        let err = src.finish().unwrap_err();
        assert!(
            matches!(
                err,
                StreamIoError::Parse {
                    line: 3,
                    byte: 8,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_query_file_is_empty_workload() {
        assert!(read_queries("".as_bytes()).unwrap().is_empty());
        assert!(read_queries("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    // ------------------------------------------- windowed workloads

    #[test]
    fn windowed_workload_round_trips_exactly() {
        let wl = vec![
            WorkloadQuery::lifetime(Edge::new(1u32, 2u32)),
            WorkloadQuery::windowed(Edge::new(2u32, 3u32), 0, 99),
            WorkloadQuery::windowed(Edge::new(1u32, 2u32), 50, 50),
            WorkloadQuery::windowed(Edge::new(7u32, 8u32), 0, u64::MAX),
            WorkloadQuery::lifetime(Edge::new(u32::MAX, 0u32)),
        ];
        let mut buf = Vec::new();
        write_workload(&mut buf, &wl).unwrap();
        assert_eq!(read_workload(&buf[..]).unwrap(), wl);
    }

    #[test]
    fn workload_rows_mix_plain_and_windowed() {
        let text = "# wl\n1 2\n3 4 10 20\n\n5 6\n";
        let wl = read_workload(text.as_bytes()).unwrap();
        assert_eq!(
            wl,
            vec![
                WorkloadQuery::lifetime(Edge::new(1u32, 2u32)),
                WorkloadQuery::windowed(Edge::new(3u32, 4u32), 10, 20),
                WorkloadQuery::lifetime(Edge::new(5u32, 6u32)),
            ]
        );
    }

    #[test]
    fn workload_rejects_empty_interval_with_position() {
        // "1 2\n" = 4 bytes: the regressing interval starts at byte 4.
        let err = read_workload("1 2\n3 4 20 10\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, reason } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 4);
                assert!(reason.contains("empty interval"), "{reason}");
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn workload_rejects_three_and_five_field_rows() {
        let err = read_workload("1 2 10\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse {
                line: 1, reason, ..
            } => {
                assert!(reason.contains("t_end"), "{reason}")
            }
            other => panic!("expected Parse error, got {other}"),
        }
        let err = read_workload("1 2 10 20 30\n".as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse {
                line: 1, reason, ..
            } => {
                assert!(reason.contains("trailing"), "{reason}")
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn strict_query_surface_rejects_windowed_rows() {
        // The 2-field surface must not silently accept 4-field rows.
        let err = read_queries("1 2 10 20\n".as_bytes()).unwrap_err();
        assert!(matches!(err, StreamIoError::Parse { line: 1, .. }));
    }

    #[test]
    fn chunked_workload_source_matches_eager_reader() {
        let wl: Vec<WorkloadQuery> = (0..500u32)
            .map(|i| {
                if i % 3 == 0 {
                    WorkloadQuery::lifetime(Edge::new(i, i + 1))
                } else {
                    WorkloadQuery::windowed(Edge::new(i, i + 1), u64::from(i), u64::from(i) + 40)
                }
            })
            .collect();
        let mut text = Vec::new();
        write_workload(&mut text, &wl).unwrap();
        let mut src = QueryFileSource::from_reader(&text[..]);
        let mut buf = Vec::new();
        let mut chunked = Vec::new();
        while src.fill_workload_queries(&mut buf, 64) > 0 {
            assert!(buf.len() <= 64);
            chunked.extend_from_slice(&buf);
        }
        src.finish().unwrap();
        assert_eq!(chunked, wl);
    }

    // ------------------------- CRLF and missing-final-newline offsets

    /// Byte offsets must point at the offending line's first byte on
    /// CRLF-terminated input: each preceding `\r\n` counts two bytes.
    #[test]
    fn crlf_input_reports_line_start_offsets() {
        // "1 2 0 1\r\n" = 9 bytes → bad line 2 starts at byte 9.
        let text = "1 2 0 1\r\n3 x 0 1\r\n";
        let err = read_stream(text.as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, .. } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 9);
                assert_eq!(&text.as_bytes()[byte as usize..][..3], b"3 x");
            }
            other => panic!("expected Parse error, got {other}"),
        }
        // Same walker under the query surface: "1 2\r\n" = 5 bytes.
        let qtext = "1 2\r\n5 x\r\n";
        let err = read_queries(qtext.as_bytes()).unwrap_err();
        match err {
            StreamIoError::Parse { line, byte, .. } => {
                assert_eq!(line, 2);
                assert_eq!(byte, 5);
                assert_eq!(&qtext.as_bytes()[byte as usize..][..3], b"5 x");
            }
            other => panic!("expected Parse error, got {other}"),
        }
        // CRLF records that are *valid* parse identically to LF ones.
        let ok = read_stream("# h\r\n\r\n1 2 0 1\r\n3 4 7 2\r\n".as_bytes()).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1].weight, 2);
    }

    /// A final line without a newline is still a full record — and when
    /// malformed, its reported offset is the line start.
    #[test]
    fn final_line_without_newline_parses_and_reports_offsets() {
        // Valid unterminated final record.
        let ok = read_stream("1 2 0 1\n3 4 7 2".as_bytes()).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(read_queries("1 2\n3 4".as_bytes()).unwrap().len(), 2);
        // Malformed unterminated final record: offset = line start (8).
        let err = read_stream("1 2 0 1\nbogus".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StreamIoError::Parse {
                    line: 2,
                    byte: 8,
                    ..
                }
            ),
            "{err}"
        );
        let err = read_queries("1 2\nbogus".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StreamIoError::Parse {
                    line: 2,
                    byte: 4,
                    ..
                }
            ),
            "{err}"
        );
        // CRLF body with an unterminated final line (trailing \r only).
        let err = read_queries("1 2\r\n3 x\r".as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StreamIoError::Parse {
                    line: 2,
                    byte: 5,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn large_stream_round_trip() {
        let stream: Vec<StreamEdge> = (0..10_000u64)
            .map(|t| {
                StreamEdge::weighted(Edge::new((t % 97) as u32, (t % 89) as u32), t, t % 5 + 1)
            })
            .collect();
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        assert_eq!(read_stream(&buf[..]).unwrap(), stream);
    }
}
