//! Workload inputs, generated from the seed before any timing starts,
//! plus the exact answers the correctness checks compare against and
//! the input fingerprint.

use gsketch::WindowConfig;
use gsketch_bench::Dataset;
use gstream::fxhash::FxHashMap;
use gstream::sample::sample_iter;
use gstream::workload::{inject_absent_queries, uniform_distinct_queries, ZipfEdgeSampler};
use gstream::{Edge, ExactCounter, StreamEdge, ZipfRank};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synopsis budget of the two single-synopsis workloads.
pub const MEMORY_BYTES: usize = 8 << 20;
/// Reservoir data-sample fraction (what `gsketch build` draws).
pub const SAMPLE_FRAC: f64 = 0.05;
pub const DEPTH: usize = 1;
pub const MIN_WIDTH: usize = 64;
/// Zipf skew of the workload sample and the queries (§6.4).
pub const ZIPF_S: f64 = 1.1;
/// Share of `live-s2` queries that ask for edges the stream never had.
pub const ABSENT_FRAC: f64 = 0.25;
/// `live-s2`: write/read rounds.
pub const LIVE_CHUNKS: usize = 64;
/// `windowed-restart`: windows over the whole stream, memory per window,
/// windows per queried interval.
pub const WINDOWS: u64 = 64;
pub const WINDOW_BYTES: usize = 2 << 20;
pub const WINDOWS_PER_INTERVAL: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkS1,
    LiveS2,
    WindowedRestart,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BulkS1,
        Workload::LiveS2,
        Workload::WindowedRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkS1 => "bulk-s1",
            Workload::LiveS2 => "live-s2",
            Workload::WindowedRestart => "windowed-restart",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything one workload reads, generated from `(scale, seed)`.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The GTGraph R-MAT traffic stream; `ts` is the arrival index.
    pub stream: Vec<StreamEdge>,
    /// `bulk-s1` and `live-s2`: the data sample setup draws (drawn here
    /// once more only to fingerprint it).
    pub sample: Vec<StreamEdge>,
    /// `live-s2`: the Zipf workload sample.
    pub workload_sample: Vec<Edge>,
    /// Query batches in the order they are asked: one for `bulk-s1`, one
    /// per write chunk for `live-s2`, one per interval for
    /// `windowed-restart`.
    pub batches: Vec<Vec<Edge>>,
    /// Exact answer of every query at the time it is asked.
    pub exact: Vec<Vec<u64>>,
    /// Whether each query's edge never occurs in the stream.
    pub absent: Vec<Vec<bool>>,
    /// `live-s2`: arrivals per write chunk.
    pub chunk_len: usize,
    /// `windowed-restart`: window configuration and queried intervals.
    pub window: WindowConfig,
    pub intervals: Vec<(u64, u64)>,
    /// `(batch, query)` indices the accuracy metrics average over.
    pub present: Vec<(usize, usize)>,
}

/// The reservoir sample setup draws: `SAMPLE_FRAC` of the stream, seeded
/// like `gsketch build`.
pub fn draw_sample(stream: &[StreamEdge], seed: u64) -> Vec<StreamEdge> {
    let k = ((stream.len() as f64 * SAMPLE_FRAC) as usize).max(1);
    sample_iter(stream.iter().copied(), k, &mut StdRng::seed_from_u64(seed))
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale) as usize).max(floor)
}

impl Inputs {
    pub fn generate(workload: Workload, scale: f64, seed: u64) -> Self {
        let stream = Dataset::GtGraph.stream(scale, seed);
        let truth = ExactCounter::from_stream(&stream);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E_17);
        let mut inputs = Inputs {
            workload,
            seed,
            sample: Vec::new(),
            workload_sample: Vec::new(),
            batches: Vec::new(),
            exact: Vec::new(),
            absent: Vec::new(),
            chunk_len: 0,
            window: WindowConfig {
                span: (stream.len() as u64 / WINDOWS).max(1),
                memory_bytes_per_window: WINDOW_BYTES,
                sample_capacity: 256,
                seed,
            },
            intervals: Vec::new(),
            present: Vec::new(),
            stream: Vec::new(),
        };
        match workload {
            Workload::BulkS1 => {
                inputs.sample = draw_sample(&stream, seed);
                let n = scaled(4 << 20, scale, 20_000);
                inputs.batches = vec![uniform_distinct_queries(&truth, n, &mut rng)];
                inputs.exact = vec![inputs.batches[0]
                    .iter()
                    .map(|&q| truth.frequency(q))
                    .collect()];
            }
            Workload::LiveS2 => {
                inputs.sample = draw_sample(&stream, seed);
                // One shared random popularity ranking for the workload
                // sample and the queries, as `make_query_sets` draws them.
                let sampler = ZipfEdgeSampler::new(&truth, ZIPF_S, ZipfRank::Random, &mut rng);
                let wsize = Dataset::GtGraph.workload_sample_size(stream.len());
                inputs.workload_sample = sampler.draw(wsize, &mut rng);
                let per = scaled(1 << 16, scale, 2_000);
                let mut all = sampler.draw(per * LIVE_CHUNKS, &mut rng);
                inject_absent_queries(&truth, &mut all, ABSENT_FRAC, &mut rng);
                inputs.batches = all.chunks(per).map(<[Edge]>::to_vec).collect();
                inputs.chunk_len = stream.len().div_ceil(LIVE_CHUNKS);
                // The answer to a query after chunk i counts chunks 0..=i.
                let chunk_len = inputs.chunk_len;
                inputs.exact =
                    exact_answers(&stream, &inputs.batches, true, |i, _| Some(i / chunk_len));
            }
            Workload::WindowedRestart => {
                let span = inputs.window.span;
                let width = span * WINDOWS_PER_INTERVAL;
                let n_ivals = (WINDOWS / WINDOWS_PER_INTERVAL) as usize;
                inputs.intervals = (0..n_ivals as u64)
                    .map(|k| (k * width, (k + 1) * width - 1))
                    .collect();
                let sampler = ZipfEdgeSampler::new(&truth, ZIPF_S, ZipfRank::Random, &mut rng);
                let per = scaled(1 << 18, scale, 2_000);
                inputs.batches = (0..n_ivals).map(|_| sampler.draw(per, &mut rng)).collect();
                inputs.exact = exact_answers(&stream, &inputs.batches, false, |_, se| {
                    let b = (se.ts / width) as usize;
                    (b < n_ivals).then_some(b)
                });
            }
        }
        inputs.absent = inputs
            .batches
            .iter()
            .map(|b| b.iter().map(|&q| truth.frequency(q) == 0).collect())
            .collect();
        inputs.present = inputs.distinct_present();
        inputs.stream = stream;
        inputs
    }

    /// Total queries asked per job.
    pub fn queries(&self) -> u64 {
        self.batches.iter().map(|b| b.len() as u64).sum()
    }

    /// Indices `(batch, query)` of the queries the accuracy metrics
    /// average over: the first occurrence in its batch of every edge
    /// whose exact answer at the time it is asked is positive. Counting
    /// each distinct query once keeps a Zipf head that happens to share
    /// a counter with a heavy edge from being counted thousands of times.
    fn distinct_present(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (b, (qs, exact)) in self.batches.iter().zip(&self.exact).enumerate() {
            let mut seen = gstream::fxhash::FxHashSet::default();
            for (i, (&q, &x)) in qs.iter().zip(exact).enumerate() {
                if x > 0 && seen.insert(q) {
                    out.push((b, i));
                }
            }
        }
        out
    }

    /// FNV-1a over every generated input: stream, samples, queries,
    /// window layout.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.stream.len() as u64);
        for se in self.stream.iter().chain(&self.sample) {
            h.edge(se.edge);
            h.u64(se.ts);
            h.u64(se.weight);
        }
        for &e in self
            .workload_sample
            .iter()
            .chain(self.batches.iter().flatten())
        {
            h.edge(e);
        }
        h.u64(self.window.span);
        for &(a, b) in &self.intervals {
            h.u64(a);
            h.u64(b);
        }
        h.0
    }
}

/// Exact answers per batch: batch `b` counts the arrivals in bucket `b`,
/// or in buckets `0..=b` when `cumulative`. Buckets must not decrease
/// along the stream; arrivals without a bucket are skipped.
fn exact_answers(
    stream: &[StreamEdge],
    batches: &[Vec<Edge>],
    cumulative: bool,
    bucket_of: impl Fn(usize, &StreamEdge) -> Option<usize>,
) -> Vec<Vec<u64>> {
    let mut index: FxHashMap<Edge, usize> = FxHashMap::default();
    for &q in batches.iter().flatten() {
        let next = index.len();
        index.entry(q).or_insert(next);
    }
    let mut counts = vec![0u64; index.len()];
    let mut out: Vec<Vec<u64>> = Vec::with_capacity(batches.len());
    let close = |counts: &mut Vec<u64>, out: &mut Vec<Vec<u64>>| {
        out.push(
            batches[out.len()]
                .iter()
                .map(|q| counts[index[q]])
                .collect(),
        );
        if !cumulative {
            counts.fill(0);
        }
    };
    for (i, se) in stream.iter().enumerate() {
        let Some(b) = bucket_of(i, se) else { continue };
        while out.len() < b.min(batches.len()) {
            close(&mut counts, &mut out);
        }
        if let Some(&k) = index.get(&se.edge) {
            counts[k] += se.weight;
        }
    }
    while out.len() < batches.len() {
        close(&mut counts, &mut out);
    }
    out
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn edge(&mut self, e: Edge) {
        self.u64((u64::from(e.src.0) << 32) | u64::from(e.dst.0));
    }
}
