//! Chunked stream sources: the producer-side dual of the unified ingest
//! surface (DESIGN.md §7).
//!
//! Item-at-a-time iterators are the wrong shape for a sharded consumer:
//! every arrival would cross the producer/consumer boundary (and its
//! synchronization) individually. [`EdgeSource`] instead hands out
//! **contiguous chunks** — the caller supplies the buffer, so a consumer
//! refills its own staging buffer a chunk at a time and then processes
//! the chunk without touching the source again.
//!
//! Implementations:
//!
//! * every `Iterator<Item = StreamEdge>` (blanket impl) — which covers
//!   all the generators in [`crate::gen`] (R-MAT, R-MAT traffic, DBLP,
//!   IP-attack, Erdős–Rényi, small-world) and ad-hoc adapters like
//!   `vec.into_iter()`;
//! * [`SliceSource`] — an in-memory stream replayed by `memcpy`;
//! * [`StreamFileSource`](crate::io::StreamFileSource) — the edge-list
//!   file reader, parsing incrementally instead of materializing the
//!   whole file.

use crate::edge::StreamEdge;

/// A producer of graph-stream arrivals in contiguous chunks.
///
/// The contract: `fill_chunk` clears `buf`, appends up to `max` arrivals
/// in stream order, and returns how many it appended; `0` means the
/// source is exhausted (callers may treat the first empty chunk as
/// end-of-stream). Successive calls hand out consecutive, disjoint spans
/// of the stream, so draining a source through any mix of chunk sizes
/// yields every arrival exactly once.
pub trait EdgeSource {
    /// Refill `buf` (cleared first) with up to `max` arrivals; returns
    /// the number appended, `0` when exhausted.
    fn fill_chunk(&mut self, buf: &mut Vec<StreamEdge>, max: usize) -> usize;

    /// Arrivals remaining, when the source knows (generators and slices
    /// do; file readers usually do not).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Every item-at-a-time generator is an [`EdgeSource`]: the chunk is
/// assembled by pulling the iterator. This is the adapter that lets the
/// synthetic generators feed the parallel pipeline unchanged.
impl<I: Iterator<Item = StreamEdge>> EdgeSource for I {
    fn fill_chunk(&mut self, buf: &mut Vec<StreamEdge>, max: usize) -> usize {
        buf.clear();
        buf.extend(self.take(max));
        buf.len()
    }

    fn remaining_hint(&self) -> Option<usize> {
        let (lo, hi) = self.size_hint();
        hi.filter(|&h| h == lo)
    }
}

/// An in-memory stream replayed as chunks (each `fill_chunk` is one
/// `memcpy` of the next span).
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [StreamEdge],
}

impl<'a> SliceSource<'a> {
    /// Replay `stream` from the beginning.
    pub fn new(stream: &'a [StreamEdge]) -> Self {
        Self { rest: stream }
    }
}

impl EdgeSource for SliceSource<'_> {
    fn fill_chunk(&mut self, buf: &mut Vec<StreamEdge>, max: usize) -> usize {
        buf.clear();
        let n = self.rest.len().min(max);
        let (head, tail) = self.rest.split_at(n);
        buf.extend_from_slice(head);
        self.rest = tail;
        n
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.rest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;
    use crate::gen::{RmatConfig, RmatGenerator};

    fn toy(n: u64) -> Vec<StreamEdge> {
        (0..n)
            .map(|t| StreamEdge::unit(Edge::new((t % 7) as u32, 1u32), t))
            .collect()
    }

    #[test]
    fn slice_source_drains_exactly_once() {
        let stream = toy(10);
        let mut src = SliceSource::new(&stream);
        assert_eq!(src.remaining_hint(), Some(10));
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        while src.fill_chunk(&mut buf, 3) > 0 {
            seen.extend_from_slice(&buf);
        }
        assert_eq!(seen, stream);
        assert_eq!(src.remaining_hint(), Some(0));
        assert_eq!(src.fill_chunk(&mut buf, 3), 0);
    }

    #[test]
    fn iterator_source_matches_collect() {
        let cfg = RmatConfig::gtgraph(6, 500, 9);
        let direct: Vec<StreamEdge> = RmatGenerator::new(cfg).collect();
        let mut gen = RmatGenerator::new(cfg);
        assert_eq!(gen.remaining_hint(), Some(500));
        let mut buf = Vec::new();
        let mut chunked = Vec::new();
        while gen.fill_chunk(&mut buf, 64) > 0 {
            assert!(buf.len() <= 64);
            chunked.extend_from_slice(&buf);
        }
        assert_eq!(chunked, direct);
    }

    #[test]
    fn empty_sources_report_exhaustion_immediately() {
        let mut buf = vec![StreamEdge::unit(Edge::new(1u32, 2u32), 0)];
        assert_eq!(SliceSource::new(&[]).fill_chunk(&mut buf, 8), 0);
        assert!(buf.is_empty(), "fill_chunk must clear the buffer");
        let mut it = std::iter::empty::<StreamEdge>();
        assert_eq!(it.fill_chunk(&mut buf, 8), 0);
    }
}
