//! The three jobs. Each call drives the library's public API on the
//! calling thread, one call after the other, and returns the stage
//! times of one repetition plus what its checks found.
//!
//! Every public call is wrapped in a tracer span named after the module
//! it enters; stage spans (`stage.*`) group them and one `job` span
//! holds the stages, so the traced run can check that the stages add up
//! to the job.

use crate::inputs::{draw_sample, Inputs, Workload, DEPTH, MEMORY_BYTES, MIN_WIDTH, SAMPLE_FRAC};
use crate::trace::Tracer;
use gsketch::{
    load_windowed, save_gsketch, save_windowed, ConcurrentGSketch, EdgeEstimator, EdgeSink,
    GSketch, GSketchBuilder, IntervalEstimate, ReplayEngine, ReplayStats, SampleStats,
    ShardedIngest, SketchId, WindowedGSketch, WindowedReplay, DEFAULT_G0,
};
use gstream::Edge;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage names, in the order a job runs them.
pub const STAGES: [&str; 4] = [
    "stage.setup",
    "stage.ingest",
    "stage.checkpoint",
    "stage.query",
];

/// Queries per interval the windowed reload check re-asks.
const RELOAD_CHECK_QUERIES: usize = 2048;
/// `live-s2`: every n-th query is re-asked uncached after the last write.
const MEMO_CHECK_STRIDE: usize = 16;

/// Wall times of one repetition, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    pub setup: f64,
    pub ingest: f64,
    pub checkpoint: f64,
    pub query: f64,
    pub job: f64,
}

/// Correctness checks: operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What the kernel pass needs from a repetition: the synopsis' slot
/// widths, the workload's keys grouped by slot, the prefilter budget and
/// a counter vector for the slab codec.
#[derive(Debug, Clone, Default)]
pub struct KernelInput {
    pub widths: Vec<usize>,
    pub slot_keys: Vec<(u32, Vec<u64>)>,
    pub bloom_bytes: usize,
    pub cells: Vec<u64>,
}

/// One repetition's results.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub times: Times,
    pub checks: Checks,
    pub are: f64,
    pub effective_frac: f64,
    pub synopsis_bytes: u64,
    /// Per-layer counts and ratios (reported by the traced run).
    pub counters: BTreeMap<&'static str, f64>,
    /// Seconds of vertex statistics the `core.partition` span also
    /// covers (`live-s2`: `build_with_workload` computes them inside).
    pub vstats_in_partition_s: f64,
    /// Kernel-pass input, taken only in traced repetitions.
    pub kernel: Option<KernelInput>,
}

/// Answer buffers, reused by every repetition so that a job does not
/// page in fresh output memory each time.
#[derive(Debug, Default)]
pub struct Answers {
    edges: Vec<Vec<u64>>,
    intervals: Vec<Vec<IntervalEstimate>>,
}

/// Shared state of a run.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub tracer: &'a Tracer,
    /// Scratch directory for snapshot files.
    pub work: &'a Path,
    /// `windowed-restart`: the first-half snapshot every repetition
    /// restarts from.
    pub base_snapshot: Option<PathBuf>,
}

fn builder(seed: u64) -> GSketchBuilder {
    GSketch::builder()
        .memory_bytes(MEMORY_BYTES)
        .depth(DEPTH)
        .min_width(MIN_WIDTH)
        .sample_rate(SAMPLE_FRAC)
        .seed(seed)
}

/// Run `f` as stage `name`, adding its wall time to `acc`.
fn stage<R>(tr: &Tracer, name: &'static str, acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = tr.span(name, f);
    *acc += t.elapsed().as_secs_f64();
    r
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Eq. 13 average relative error and Eq. 14 effective fraction over
/// `(estimate, exact)` pairs with positive exact answers.
fn accuracy(pairs: impl Iterator<Item = (f64, u64)>) -> (f64, f64) {
    let (mut n, mut sum, mut effective) = (0usize, 0f64, 0usize);
    for (est, exact) in pairs {
        let e = gsketch::relative_error(est, exact as f64);
        n += 1;
        sum += e;
        effective += usize::from(e <= DEFAULT_G0);
    }
    let n = n.max(1) as f64;
    (sum / n, effective as f64 / n)
}

fn pack(e: Edge) -> u64 {
    (u64::from(e.src.0) << 32) | u64::from(e.dst.0)
}

/// Widths and per-slot distinct keys (sorted, as the ingest combiner
/// hands them to the arena) of a partitioned synopsis for the kernel pass.
fn kernel_input(gs: &GSketch, queries: &[Edge], cells: &[u64]) -> KernelInput {
    let mut by_slot: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for &q in queries {
        if let SketchId::Partition(p) = gs.route(q) {
            by_slot.entry(p).or_default().push(pack(q));
        }
    }
    for keys in by_slot.values_mut() {
        keys.sort_unstable();
        keys.dedup();
    }
    KernelInput {
        widths: gs.partition_loads().iter().map(|&(w, _)| w).collect(),
        slot_keys: by_slot.into_iter().collect(),
        bloom_bytes: gs.prefilter_bytes(),
        cells: cells.to_vec(),
    }
}

fn replay_counters(c: &mut BTreeMap<&'static str, f64>, names: [&'static str; 4], s: ReplayStats) {
    c.insert(names[0], s.hits as f64);
    c.insert(names[1], s.misses as f64);
    c.insert(names[2], s.invalidations as f64);
    c.insert(names[3], s.hits as f64 / (s.hits + s.misses).max(1) as f64);
}

pub fn run(ctx: &Ctx, answers: &mut Answers) -> Result<Rep, String> {
    let n = ctx.inputs.batches.len();
    answers.edges.resize_with(n, Vec::new);
    answers.intervals.resize_with(n, Vec::new);
    match ctx.inputs.workload {
        Workload::BulkS1 => bulk_s1(ctx, &mut answers.edges[0]),
        Workload::LiveS2 => live_s2(ctx, &mut answers.edges),
        Workload::WindowedRestart => windowed_restart(ctx, &mut answers.intervals),
    }
}

/// Scenario 1: sample, partition, one-owner sharded ingest, save, one
/// uncached batched replay of uniform present-edge queries.
fn bulk_s1(ctx: &Ctx, out: &mut Vec<u64>) -> Result<Rep, String> {
    let (inp, tr) = (ctx.inputs, ctx.tracer);
    let path = ctx.work.join(format!("bulk-s1-{}.gsk", std::process::id()));
    let queries = &inp.batches[0];
    let mut t = Times::default();
    let mut c = BTreeMap::new();

    let job = Instant::now();
    let (gs, report) = tr.span("job", || -> Result<_, String> {
        let gs = stage(tr, "stage.setup", &mut t.setup, || {
            let sample = tr.span("gstream.sample", || draw_sample(&inp.stream, inp.seed));
            let stats = tr.span("core.vstats", || SampleStats::from_data_sample(&sample));
            c.insert("core.vstats.vertices", stats.len() as f64);
            tr.span("core.partition", || {
                builder(inp.seed).build_from_stats(stats)
            })
        })
        .map_err(|e| err("build_from_stats", e))?;
        let (gs, report) = stage(tr, "stage.ingest", &mut t.ingest, || {
            let mut shared = tr.span("core.concurrent", || ConcurrentGSketch::from_gsketch(gs));
            let report = tr.span("core.pipeline", || {
                ShardedIngest::new(&mut shared, 1).run_slice(&inp.stream)
            });
            (tr.span("core.concurrent", || shared.into_gsketch()), report)
        });
        stage(tr, "stage.checkpoint", &mut t.checkpoint, || {
            tr.span("core.persist.save", || save_gsketch(&path, &gs))
        })
        .map_err(|e| err("save_gsketch", e))?;
        stage(tr, "stage.query", &mut t.query, || {
            tr.span("core.query.estimate_edges", || {
                gs.estimate_edges(queries, out)
            })
        });
        Ok((gs, report))
    })?;
    t.job = job.elapsed().as_secs_f64();

    let mut checks = Checks::default();
    checks.check(report.arrivals == inp.stream.len() as u64);
    checks.check(out.len() == queries.len());
    for (&est, &exact) in out.iter().zip(&inp.exact[0]) {
        checks.check(est >= exact);
    }
    let (are, effective_frac) = accuracy(
        inp.present
            .iter()
            .map(|&(_, i)| (out[i] as f64, inp.exact[0][i])),
    );
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| err("snapshot size", e))?
        .len();
    std::fs::remove_file(&path).ok();
    let synopsis_bytes = (gs.bytes() + gs.router_bytes()) as u64;

    c.insert("core.partition.leaves", gs.num_partitions() as f64);
    c.insert(
        "core.partition.outlier_traffic_frac",
        gs.outlier_weight() as f64 / gs.total_weight().max(1) as f64,
    );
    c.insert("core.pipeline.chunks", report.chunks as f64);
    c.insert("sketch.blocked_bloom.bytes", gs.prefilter_bytes() as f64);
    c.insert("core.persist.bytes_written", file_bytes as f64);
    c.insert("core.persist.file_bytes", file_bytes as f64);
    c.insert(
        "core.persist.file_per_synopsis_byte",
        file_bytes as f64 / synopsis_bytes as f64,
    );
    Ok(Rep {
        times: t,
        checks,
        are,
        effective_frac,
        synopsis_bytes,
        counters: c,
        vstats_in_partition_s: 0.0,
        kernel: tr.is_on().then(|| kernel_input(&gs, queries, out)),
    })
}

/// Scenario 2: data + workload sample, then equal write chunks through
/// the replay engine, each followed by a memoized Zipf query batch.
fn live_s2(ctx: &Ctx, outs: &mut [Vec<u64>]) -> Result<Rep, String> {
    let (inp, tr) = (ctx.inputs, ctx.tracer);
    let mut t = Times::default();
    let mut c = BTreeMap::new();
    let mut vstats_in_partition_s = 0.0;

    let job = Instant::now();
    let mut engine = tr.span("job", || -> Result<_, String> {
        let mut engine = stage(tr, "stage.setup", &mut t.setup, || {
            let sample = tr.span("gstream.sample", || draw_sample(&inp.stream, inp.seed));
            tr.span("core.partition", || {
                builder(inp.seed).build_with_workload(&sample, &inp.workload_sample)
            })
            .map(ReplayEngine::new)
        })
        .map_err(|e| err("build_with_workload", e))?;
        for (i, chunk) in inp.stream.chunks(inp.chunk_len).enumerate() {
            stage(tr, "stage.ingest", &mut t.ingest, || {
                tr.span("core.gsketch.ingest_batch", || engine.ingest_batch(chunk))
            });
            stage(tr, "stage.query", &mut t.query, || {
                tr.span("core.replay", || {
                    engine.estimate_edges(&inp.batches[i], &mut outs[i])
                })
            });
        }
        Ok(engine)
    })?;
    t.job = job.elapsed().as_secs_f64();
    let stats = engine.stats();

    let mut checks = Checks::default();
    let (mut absent, mut absent_zero) = (0u64, 0u64);
    for ((out, exact), missing) in outs.iter().zip(&inp.exact).zip(&inp.absent) {
        checks.check(out.len() == exact.len());
        for ((&est, &x), &miss) in out.iter().zip(exact).zip(missing) {
            checks.check(est >= x);
            absent += u64::from(miss);
            absent_zero += u64::from(miss && est == 0);
        }
    }
    // After the last write, memoized answers equal uncached ones.
    let sampled: Vec<Edge> = inp
        .batches
        .iter()
        .flatten()
        .step_by(MEMO_CHECK_STRIDE)
        .copied()
        .collect();
    let (mut cached, mut bare) = (Vec::new(), Vec::new());
    engine.estimate_edges(&sampled, &mut cached);
    engine.inner().estimate_edges(&sampled, &mut bare);
    checks.check(cached == bare);

    let (are, effective_frac) = accuracy(
        inp.present
            .iter()
            .map(|&(b, i)| (outs[b][i] as f64, inp.exact[b][i])),
    );
    let gs = engine.inner();
    let synopsis_bytes = (gs.bytes() + gs.router_bytes()) as u64;

    if tr.is_on() {
        // `build_with_workload` computes the vertex statistics inside the
        // partition call; time the same computation on its own and move
        // it from `core.partition` to `core.vstats`.
        let sample = draw_sample(&inp.stream, inp.seed);
        let t0 = Instant::now();
        let stats = tr.span("core.vstats", || {
            SampleStats::from_samples(&sample, &inp.workload_sample)
        });
        vstats_in_partition_s = t0.elapsed().as_secs_f64();
        c.insert("core.vstats.vertices", stats.len() as f64);
    }
    c.insert("core.partition.leaves", gs.num_partitions() as f64);
    c.insert(
        "core.partition.outlier_traffic_frac",
        gs.outlier_weight() as f64 / gs.total_weight().max(1) as f64,
    );
    c.insert("core.gsketch.ingest_batch.calls", inp.batches.len() as f64);
    replay_counters(
        &mut c,
        [
            "core.replay.hits",
            "core.replay.misses",
            "core.replay.invalidations",
            "core.replay.hit_rate",
        ],
        stats,
    );
    c.insert("sketch.blocked_bloom.bytes", gs.prefilter_bytes() as f64);
    c.insert(
        "sketch.blocked_bloom.absent_zero_frac",
        absent_zero as f64 / absent.max(1) as f64,
    );
    let kernel = tr.is_on().then(|| {
        let all: Vec<Edge> = inp.batches.iter().flatten().copied().collect();
        kernel_input(gs, &all, &outs[outs.len() - 1])
    });
    Ok(Rep {
        times: t,
        checks,
        are,
        effective_frac,
        synopsis_bytes,
        counters: c,
        vstats_in_partition_s,
        kernel,
    })
}

/// The untimed part of `windowed-restart`: the first half of the stream
/// into a windowed deployment, saved as the snapshot every repetition
/// restarts from.
pub fn prepare_windowed(inp: &Inputs, work: &Path) -> Result<PathBuf, String> {
    let path = work.join(format!("windowed-base-{}.wsnap", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut w = WindowedGSketch::new(
        inp.window,
        GSketch::builder().min_width(MIN_WIDTH).seed(inp.seed),
    )
    .map_err(|e| err("WindowedGSketch::new", e))?;
    w.ingest_batch(&inp.stream[..inp.stream.len() / 2]);
    save_windowed(&path, &w).map_err(|e| err("save_windowed (base)", e))?;
    Ok(path)
}

/// Restart from durable history: load, ingest the second half, append
/// the new windows, answer interval queries through the interval memo.
fn windowed_restart(ctx: &Ctx, outs: &mut [Vec<IntervalEstimate>]) -> Result<Rep, String> {
    let (inp, tr) = (ctx.inputs, ctx.tracer);
    let base = ctx.base_snapshot.as_ref().ok_or("no base snapshot")?;
    let path = ctx
        .work
        .join(format!("windowed-{}.wsnap", std::process::id()));
    std::fs::copy(base, &path).map_err(|e| err("copy base snapshot", e))?;
    let base_bytes = std::fs::metadata(base)
        .map_err(|e| err("snapshot size", e))?
        .len();
    let second_half = &inp.stream[inp.stream.len() / 2..];
    let mut t = Times::default();
    let mut c = BTreeMap::new();

    let job = Instant::now();
    let replay = tr.span("job", || -> Result<_, String> {
        let mut replay = stage(tr, "stage.setup", &mut t.setup, || {
            tr.span("core.persist.load", || load_windowed(&path))
                .map(WindowedReplay::new)
        })
        .map_err(|e| err("load_windowed", e))?;
        stage(tr, "stage.ingest", &mut t.ingest, || {
            tr.span("core.window.ingest", || replay.ingest_batch(second_half))
        });
        stage(tr, "stage.checkpoint", &mut t.checkpoint, || {
            tr.span("core.persist.save", || save_windowed(&path, replay.inner()))
        })
        .map_err(|e| err("save_windowed (append)", e))?;
        stage(tr, "stage.query", &mut t.query, || {
            for ((qs, &(ts, te)), out) in
                inp.batches.iter().zip(&inp.intervals).zip(outs.iter_mut())
            {
                tr.span("core.window.interval", || {
                    replay.estimate_interval_detailed_batch(qs, ts, te, out)
                });
            }
        });
        Ok(replay)
    })?;
    t.job = job.elapsed().as_secs_f64();
    let stats = replay.stats();
    let live = replay.inner();

    let mut checks = Checks::default();
    for (out, exact) in outs.iter().zip(&inp.exact) {
        checks.check(out.len() == exact.len());
        // Intervals cover whole windows, so each estimate is a sum of
        // one-sided window estimates.
        for (est, &x) in out.iter().zip(exact) {
            checks.check(est.value >= x as f64);
        }
    }
    // The appended file reloads to a state that answers exactly like the
    // instance that wrote it, and memoized answers equal uncached ones.
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| err("snapshot size", e))?
        .len();
    let reloaded = load_windowed(&path).map_err(|e| err("load_windowed (reload)", e))?;
    std::fs::remove_file(&path).ok();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for ((qs, &(ts, te)), out) in inp.batches.iter().zip(&inp.intervals).zip(outs.iter()) {
        let qs = &qs[..qs.len().min(RELOAD_CHECK_QUERIES)];
        live.estimate_interval_detailed_batch(qs, ts, te, &mut a);
        reloaded.estimate_interval_detailed_batch(qs, ts, te, &mut b);
        checks.check(a == b);
        checks.check(a[..] == out[..qs.len()]);
    }
    let (are, effective_frac) = accuracy(
        inp.present
            .iter()
            .map(|&(b, i)| (outs[b][i].value, inp.exact[b][i])),
    );
    let synopsis_bytes = live.bytes() as u64;

    c.insert("core.window.sealed", live.sealed_windows() as f64);
    c.insert("core.window.tiers", live.num_tiers() as f64);
    c.insert("core.window.distinct_intervals", inp.intervals.len() as f64);
    replay_counters(
        &mut c,
        [
            "core.replay.interval.hits",
            "core.replay.interval.misses",
            "core.replay.interval.invalidations",
            "core.replay.interval.hit_rate",
        ],
        stats,
    );
    c.insert(
        "core.persist.bytes_written",
        file_bytes.saturating_sub(base_bytes) as f64,
    );
    c.insert("core.persist.file_bytes", file_bytes as f64);
    c.insert(
        "core.persist.file_per_synopsis_byte",
        file_bytes as f64 / synopsis_bytes as f64,
    );

    let kernel = if tr.is_on() {
        Some(window_kernel_input(inp, outs)?)
    } else {
        None
    };
    Ok(Rep {
        times: t,
        checks,
        are,
        effective_frac,
        synopsis_bytes,
        counters: c,
        vstats_in_partition_s: 0.0,
        kernel,
    })
}

/// Kernel-pass input for `windowed-restart`: a synopsis built the way
/// each window builds its own, from a reservoir of the last window's
/// arrivals, and the interval queries' keys.
fn window_kernel_input(
    inp: &Inputs,
    outs: &[Vec<IntervalEstimate>],
) -> Result<KernelInput, String> {
    let tail = &inp.stream[inp.stream.len().saturating_sub(inp.window.span as usize)..];
    let sample = gstream::sample::sample_iter(
        tail.iter().copied(),
        inp.window.sample_capacity,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(inp.seed),
    );
    let window = GSketch::builder()
        .memory_bytes(inp.window.memory_bytes_per_window)
        .min_width(MIN_WIDTH)
        .seed(inp.seed)
        .build_from_sample(&sample)
        .map_err(|e| err("build_from_sample (kernel widths)", e))?;
    let all: Vec<Edge> = inp.batches.iter().flatten().copied().collect();
    let cells: Vec<u64> = outs.iter().flatten().map(|r| r.value as u64).collect();
    Ok(kernel_input(&window, &all, &cells))
}
