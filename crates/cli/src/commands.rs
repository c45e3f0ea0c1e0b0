//! The CLI subcommands, implemented against `io::Write` sinks so every
//! command is unit-testable without spawning a process.

use crate::args::{parse_bytes, ArgError, ParsedArgs};
use gsketch::{
    evaluate_edge_queries, load_windowed, load_windowed_horizon, save_gsketch, save_windowed,
    AdaptiveConfig, AdaptiveGSketch, EdgeSink, GSketch, IntervalEstimate, ReplayEngine,
    ShardedIngest, WindowConfig, WindowedGSketch, WindowedReplay, DEFAULT_G0,
};
use gstream::gen::{
    dblp, ipattack, DblpConfig, ErdosRenyiConfig, ErdosRenyiGenerator, IpAttackConfig, RmatConfig,
    RmatGenerator, RmatTrafficConfig, RmatTrafficGenerator, SmallWorldConfig, SmallWorldGenerator,
};
use gstream::sample::sample_iter;
use gstream::workload::{
    inject_absent_queries, uniform_distinct_queries, zipf_edge_queries, ZipfRank,
};
use gstream::{
    load_stream, save_queries, save_stream, Edge, ExactCounter, QueryFileSource, StreamEdge,
    VarianceStats, VertexId, WorkloadQuery,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

/// Top-level CLI error: argument problems or command failures.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// Anything that failed while running the command.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn run_err<E: std::fmt::Display>(e: E) -> CliError {
    CliError::Run(e.to_string())
}

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
gsketch — query estimation in graph streams (VLDB 2011 reproduction)

USAGE:
  gsketch generate <model> --out FILE [--arrivals N] [--vertices V] [--seed S]
      models: rmat | rmat-traffic | dblp | ipattack | erdos | smallworld
  gsketch stats <stream-file> [--top K]
  gsketch build <stream-file> --memory SIZE --out SNAPSHOT
      [--sample-frac F] [--depth D] [--min-width W] [--seed S]
      (ingests through the combining engine: hot edges fold in a cache
       before they touch the counters)
  gsketch query <snapshot> <src> <dst> [<src> <dst> ...] [--stream FILE]
      [--prefilter on|off]
      (--stream adds exact ground truth next to each estimate;
       --prefilter off bypasses the zero-frequency pre-filter, so
       absent keys report collision noise instead of exact zeros)
  gsketch query <snapshot> --workload FILE [--stream FILE] [--chunk N]
      [--cache on|off] [--detailed on|off] [--show K] [--prefilter on|off]
      (replays a query-workload file — one `src dst` query per line —
       through the batched engine, which spreads a long batch over the
       host's cores; unless --cache off, each chunk is deduplicated so a
       repeated edge is answered once; --stream reports accuracy vs
       exact truth; --detailed replays through the detailed batch
       instead — no --cache — and reports per-query confidence
       intervals, first K rows shown, default 10)
  gsketch snapshot <stream-file> --out FILE --window-span S
      [--window-memory SIZE] [--seed N] [--horizon-keep N]
      (builds a time-windowed synopsis over the stream and saves it as a
       durable windowed snapshot; when FILE already holds a snapshot of
       the same configuration, only the newly sealed windows are
       appended — O(new windows), not O(history); --horizon-keep keeps
       the N most recent sealed windows at full fidelity and coarsens
       older ones into exponentially-tiered merged sketches)
  gsketch query --snapshot FILE <src> <dst> [<src> <dst> ...]
      [--t-start A --t-end B] [--load-span A,B]
  gsketch query --snapshot FILE --workload WL [--chunk N] [--show K]
      [--cache on|off] [--load-span A,B]
      (time-travel queries from a windowed snapshot — no rebuild, no
       stream: answers any inclusive `[t_start, t_end]` interval with a
       confidence interval; workload replay answers each batch's
       distinct edges once unless --cache off; --load-span loads
       only the sealed windows overlapping `A,B` via the snapshot's
       byte-offset index — answers outside it are not valid)
  gsketch workload <stream-file> --out FILE [--queries N] [--zipf A]
      [--absent F] [--intervals SPAN[,ALIGN]] [--seed S]
      (draws a query workload over the stream's distinct edges: uniform
       by default, Zipf(A) by frequency rank with --zipf; --absent F
       replaces fraction F of the queries with never-ingested pairs —
       the sparse workload the zero-frequency pre-filter answers
       without touching a counter; --intervals attaches an inclusive
       `[t_start t_end]` window of SPAN timestamps to every query, its
       start drawn over multiples of ALIGN, default SPAN — the windowed
       rows `query --snapshot` replays)
  gsketch compare <stream-file> --memory SIZE [--queries N] [--depth D] [--seed S]
  gsketch adaptive <stream-file> --memory SIZE [--warmup N] [--queries N] [--seed S]
      (sample-free: the stream prefix replaces the data sample)
  gsketch structural <stream-file> [--top K] [--triangle-p P]
  gsketch help

SIZE accepts K/M/G suffixes (binary), e.g. 512K, 2M.";

/// Dispatch a full argument vector (without the program name).
pub fn dispatch<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        writeln!(out, "{USAGE}").map_err(run_err)?;
        return Ok(());
    };
    match cmd.as_str() {
        "generate" => cmd_generate(rest, out),
        "stats" => cmd_stats(rest, out),
        "build" => cmd_build(rest, out),
        "snapshot" => cmd_snapshot(rest, out),
        "query" => cmd_query(rest, out),
        "workload" => cmd_workload(rest, out),
        "compare" => cmd_compare(rest, out),
        "adaptive" => cmd_adaptive(rest, out),
        "structural" => cmd_structural(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(run_err)?;
            Ok(())
        }
        other => Err(CliError::Args(ArgError(format!(
            "unknown command `{other}` — run `gsketch help`"
        )))),
    }
}

fn cmd_generate<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &["out", "arrivals", "vertices", "seed", "alpha"],
    )?;
    let model = a.positional(0, "model")?.to_owned();
    let path: String = a.require("out")?;
    let arrivals: usize = a.get_or("arrivals", 100_000)?;
    let vertices: u32 = a.get_or("vertices", 10_000)?;
    let seed: u64 = a.get_or("seed", 42)?;
    // The generators assert their preconditions (they panic on a bad
    // config); check every one a flag can reach so it is an error instead.
    let need = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(CliError::Args(ArgError(format!("{model}: {what}"))))
        }
    };
    let stream: Vec<StreamEdge> = match model.as_str() {
        "rmat" => {
            let scale = (vertices.max(2) as f64).log2().ceil() as u32;
            RmatGenerator::new(RmatConfig::gtgraph(scale.clamp(1, 31), arrivals, seed)).generate()
        }
        "rmat-traffic" => {
            let scale = (vertices.max(2) as f64).log2().ceil() as u32;
            let mut cfg = RmatTrafficConfig::gtgraph(
                scale.clamp(1, 31),
                (arrivals / 4).max(10),
                arrivals,
                seed,
            );
            cfg.activity_alpha = a.get_or("alpha", 1.2)?;
            need(
                cfg.activity_alpha >= 0.0,
                "`--alpha` must be a non-negative number",
            )?;
            RmatTrafficGenerator::new(cfg).generate()
        }
        "dblp" => {
            need(vertices >= 2, "`--vertices` must be at least 2")?;
            need(
                arrivals >= 3,
                "`--arrivals` must be at least 3 (one paper per 3 arrivals)",
            )?;
            dblp::generate(DblpConfig {
                authors: vertices,
                papers: arrivals / 3, // ≈3 ordered pairs per paper on average
                seed,
                ..DblpConfig::default()
            })
        }
        "ipattack" => {
            need(arrivals >= 1, "`--arrivals` must be at least 1")?;
            let hosts = vertices.max(64);
            ipattack::generate(IpAttackConfig {
                hosts,
                arrivals,
                // Role counts scale with the host universe so small
                // universes still leave ordinary background hosts.
                scanners: (hosts / 32).max(1),
                attackers: (hosts / 16).max(1),
                scan_subnet: (hosts / 8).max(4),
                seed,
                ..IpAttackConfig::default()
            })
        }
        "erdos" => ErdosRenyiGenerator::new(ErdosRenyiConfig::new(vertices.max(2), arrivals, seed))
            .generate(),
        "smallworld" => {
            let mut cfg = SmallWorldConfig::new(vertices, arrivals, seed);
            need(
                vertices > cfg.k,
                &format!("`--vertices` must be at least {} (k + 1)", cfg.k + 1),
            )?;
            cfg.zipf_alpha = a.get_or("alpha", 1.2)?;
            need(
                cfg.zipf_alpha >= 0.0,
                "`--alpha` must be a non-negative number",
            )?;
            SmallWorldGenerator::new(cfg).generate()
        }
        other => {
            return Err(CliError::Args(ArgError(format!(
                "unknown model `{other}` (rmat, rmat-traffic, dblp, ipattack, erdos, smallworld)"
            ))))
        }
    };
    save_stream(&path, &stream).map_err(run_err)?;
    writeln!(out, "wrote {} arrivals to {path}", stream.len()).map_err(run_err)?;
    Ok(())
}

fn cmd_stats<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(raw.iter().cloned(), &["top"])?;
    let path = a.positional(0, "stream-file")?;
    let top: usize = a.get_or("top", 5)?;
    let stream = load_stream(path).map_err(run_err)?;
    let truth = ExactCounter::from_stream(&stream);
    let vs = VarianceStats::from_counts(&truth);
    let profile = truth.vertex_profile();
    writeln!(out, "arrivals:        {}", truth.arrivals()).map_err(run_err)?;
    writeln!(out, "total weight:    {}", truth.total_weight()).map_err(run_err)?;
    writeln!(out, "distinct edges:  {}", truth.distinct_edges()).map_err(run_err)?;
    writeln!(out, "source vertices: {}", profile.len()).map_err(run_err)?;
    writeln!(out, "variance ratio:  {:.3}  (σ_G/σ_V, §6.1)", vs.ratio()).map_err(run_err)?;
    let mut sources: Vec<_> = profile.iter().collect();
    sources.sort_unstable_by(|a, b| b.1.frequency.cmp(&a.1.frequency).then(a.0.cmp(b.0)));
    writeln!(out, "top {top} sources by weight:").map_err(run_err)?;
    for (v, p) in sources.into_iter().take(top) {
        writeln!(
            out,
            "  {v}: weight {} over {} distinct out-edges",
            p.frequency, p.out_degree
        )
        .map_err(run_err)?;
    }
    Ok(())
}

fn cmd_build<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &["memory", "out", "sample-frac", "depth", "min-width", "seed"],
    )?;
    let stream_path = a.positional(0, "stream-file")?;
    let memory = parse_bytes(&a.require::<String>("memory")?)?;
    let snapshot_path: String = a.require("out")?;
    let sample_frac: f64 = a.get_or("sample-frac", 0.05)?;
    if !(sample_frac > 0.0 && sample_frac <= 1.0) {
        return Err(CliError::Args(ArgError(
            "--sample-frac must be in (0, 1]".into(),
        )));
    }
    let depth: usize = a.get_or("depth", 1)?;
    let min_width: usize = a.get_or("min-width", 64)?;
    let seed: u64 = a.get_or("seed", 42)?;

    let stream = load_stream(stream_path).map_err(run_err)?;
    // cast: f64 -> usize truncates toward zero; sample_frac is validated
    // in (0, 1], so k <= stream.len(), and `.max(1)` floors it.
    let k = ((stream.len() as f64 * sample_frac) as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = sample_iter(stream.iter().copied(), k, &mut rng);
    let builder = GSketch::builder()
        .memory_bytes(memory)
        .depth(depth)
        .min_width(min_width)
        .sample_rate(sample_frac)
        .seed(seed);

    let mut sketch = builder.build_from_sample(&sample).map_err(run_err)?;
    ShardedIngest::new(&mut sketch, 1).run_slice(&stream);
    save_gsketch(&snapshot_path, &sketch).map_err(run_err)?;
    writeln!(
        out,
        "built {} partitions over {} bytes from a {}-edge sample; ingested {} arrivals; snapshot: {snapshot_path}",
        sketch.num_partitions(),
        sketch.bytes(),
        sample.len(),
        stream.len(),
    )
    .map_err(run_err)?;
    Ok(())
}

/// `snapshot`: build a time-windowed synopsis over the stream and save
/// it as a durable windowed snapshot. The build is deterministic for a
/// fixed configuration, so re-running against a grown stream file
/// reproduces the history already on disk — and `save_windowed` then
/// appends only the newly sealed windows (the file's existing record
/// bytes are never rewritten). A diverged history (different seed, span,
/// or stream prefix) is rejected instead of silently overwritten.
fn cmd_snapshot<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &[
            "out",
            "window-span",
            "window-memory",
            "seed",
            "horizon-keep",
        ],
    )?;
    let stream_path = a.positional(0, "stream-file")?;
    let path: String = a.require("out")?;
    let span: u64 = a.require("window-span")?;
    if span == 0 {
        return Err(CliError::Args(ArgError(
            "--window-span must be positive".into(),
        )));
    }
    let memory = parse_bytes(a.get("window-memory").unwrap_or("64K"))?;
    let seed: u64 = a.get_or("seed", 42)?;
    let cfg = WindowConfig {
        span,
        memory_bytes_per_window: memory,
        sample_capacity: 256,
        seed,
    };
    let builder = GSketch::builder().min_width(64).seed(seed);
    let mut windowed = match a.get("horizon-keep") {
        Some(_) => WindowedGSketch::with_horizon(cfg, builder, a.require("horizon-keep")?),
        None => WindowedGSketch::new(cfg, builder),
    }
    .map_err(run_err)?;
    let stream = load_stream(stream_path).map_err(run_err)?;
    windowed.try_ingest_batch(&stream).map_err(run_err)?;
    let appending = std::path::Path::new(&path).exists();
    save_windowed(&path, &windowed).map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    writeln!(
        out,
        "{} {} sealed window(s) of span {span} + the open window to {path}",
        if appending { "appended" } else { "wrote" },
        windowed.sealed_windows(),
    )
    .map_err(run_err)?;
    if windowed.horizon_keep().is_some() {
        writeln!(
            out,
            "horizon: {} tier(s) over {} coarsened window(s)",
            windowed.num_tiers(),
            windowed.coarsenings(),
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Restore a flat snapshot. A file of any other kind is rejected before
/// its body decodes, naming the kind found, the kind expected and the
/// file; a windowed snapshot gets a redirect to `query --snapshot`.
fn load_snapshot(path: &str) -> Result<GSketch, CliError> {
    let raw = match gsketch::RawSnapshot::open(path) {
        Ok(raw) => raw,
        Err(e) => {
            // A windowed snapshot is a line-oriented file the flat
            // envelope parser cannot read; peeking its first line turns
            // a parse error into a usable redirect.
            if let Some(kind) = peek_windowed_kind(path) {
                return Err(CliError::Run(format!(
                    "{path}: `{kind}` is a windowed snapshot; \
                     query it with `query --snapshot {path}`"
                )));
            }
            return Err(CliError::Run(format!("{path}: {e}")));
        }
    };
    raw.decode_gsketch()
        .map_err(|e| CliError::Run(format!("{path}: {e}")))
}

/// The kind tag of a windowed snapshot's envelope line, if `path` holds
/// one. Used only to improve errors: flat and windowed snapshots are
/// different formats, and pointing a command at the wrong one should
/// say so instead of surfacing a parse error.
fn peek_windowed_kind(path: &str) -> Option<String> {
    use std::io::BufRead;
    let file = std::fs::File::open(path).ok()?;
    let mut line = String::new();
    std::io::BufReader::new(file).read_line(&mut line).ok()?;
    let envelope = serde_json::parse(line.trim()).ok()?;
    let serde::Value::Map(fields) = envelope else {
        return None;
    };
    let kind = fields.iter().find_map(|(k, v)| match v {
        serde::Value::Str(s) if k == "kind" => Some(s.clone()),
        _ => None,
    })?;
    kind.starts_with("gsketch-windowed:").then_some(kind)
}

/// Restore a windowed snapshot fronted by the per-batch dedup replay
/// engine — optionally loading only the sealed windows overlapping
/// `load_span` through the footer index. The loader rejects any other
/// windowed kind, naming both.
fn load_windowed_replay(
    path: &str,
    load_span: Option<(u64, u64)>,
) -> Result<WindowedReplay, CliError> {
    if peek_windowed_kind(path).is_none() {
        // Not a windowed envelope: a flat snapshot, another format, or
        // not a snapshot at all. Let the flat opener classify it so
        // kind/version problems are reported precisely.
        return match gsketch::RawSnapshot::open(path) {
            Ok(raw) => Err(CliError::Run(format!(
                "{path}: `{}` is not a windowed snapshot (expected \
                 {}); query flat snapshots without --snapshot",
                raw.kind(),
                gsketch::WINDOWED_KIND,
            ))),
            Err(e) => Err(CliError::Run(format!("{path}: {e}"))),
        };
    }
    let w = match load_span {
        Some((ts, te)) => load_windowed_horizon(path, ts, te),
        None => load_windowed(path),
    }
    .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    Ok(WindowedReplay::new(w))
}

/// Parse an `on`/`off` switch option (this CLI's options always take a
/// value), with a default when absent.
fn parse_switch(a: &ParsedArgs, name: &str, default: bool) -> Result<bool, CliError> {
    match a.get(name) {
        None => Ok(default),
        Some("on" | "true" | "1" | "yes") => Ok(true),
        Some("off" | "false" | "0" | "no") => Ok(false),
        Some(other) => Err(CliError::Args(ArgError(format!(
            "bad value `{other}` for `--{name}` (use on or off)"
        )))),
    }
}

/// Replay a query-workload file against a snapshot through the batched
/// engine: queries are pulled in chunks from the line-validated
/// [`QueryFileSource`] and each chunk is answered as one batch. The
/// default chunk is large because a long batch is what the engine
/// spreads over the host's cores (smaller chunks only bound the staging
/// buffer).
fn replay_workload<W: Write>(
    a: &ParsedArgs,
    sketch: &GSketch,
    workload_path: &str,
    truth: Option<&ExactCounter>,
    out: &mut W,
) -> Result<(), CliError> {
    let chunk: usize = a.get_or::<usize>("chunk", 1 << 20)?.max(1);
    let detailed = parse_switch(a, "detailed", false)?;
    // The per-chunk dedup front is on by default; --cache off is the
    // bare batched engine (what `dbg --query-smoke` bit-compares
    // against). --detailed answers through the detailed batch, whose
    // rows carry per-slot bounds the dedup front does not copy.
    let cached = parse_switch(a, "cache", !detailed)?;
    if detailed && cached {
        return Err(CliError::Args(ArgError(
            "--detailed replays through the detailed batch; drop --cache on".into(),
        )));
    }
    // --show prints detailed rows; without --detailed there are none.
    if !detailed && a.get("show").is_some() {
        return Err(CliError::Args(ArgError(
            "--show prints per-query detailed rows; add --detailed on".into(),
        )));
    }
    let show: usize = a.get_or("show", 10)?;
    let mut source = QueryFileSource::open(workload_path).map_err(run_err)?;
    let mut engine = cached.then(|| ReplayEngine::new(sketch));
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk);
    let mut ests: Vec<u64> = Vec::new();
    let mut rows: Vec<gsketch::Estimate> = Vec::new();
    let mut queries = 0u64;
    let mut chunks = 0u64;
    let mut sum = 0u64;
    let mut err_sum = 0.0f64;
    let mut effective = 0usize;
    let mut bound_sum = 0.0f64;
    let mut min_confidence = 1.0f64;
    let mut shown = 0usize;
    while source.fill_queries(&mut buf, chunk) > 0 {
        if detailed {
            // One detailed batch answers values and confidence
            // intervals together — no second pass over the synopsis.
            sketch.estimate_detailed_batch(&buf, &mut rows);
            ests.clear();
            ests.extend(rows.iter().map(|r| r.value));
            for (q, r) in buf.iter().zip(&rows) {
                bound_sum += r.error_bound;
                min_confidence = min_confidence.min(r.confidence);
                if shown < show {
                    writeln!(
                        out,
                        "{q}: estimate {} (±{:.1} w.p. {:.3}) via {:?}",
                        r.value, r.error_bound, r.confidence, r.sketch
                    )
                    .map_err(run_err)?;
                    shown += 1;
                }
            }
        } else if let Some(engine) = engine.as_mut() {
            // Deduplicated replay: the chunk's distinct edges are
            // answered as one batch; repeats copy their answers.
            engine.estimate_edges(&buf, &mut ests);
        } else {
            sketch.estimate_batch(&buf, &mut ests);
        }
        queries += buf.len() as u64;
        chunks += 1;
        sum = ests.iter().fold(sum, |a, &v| a.saturating_add(v));
        if let Some(t) = truth {
            for (&q, &est) in buf.iter().zip(&ests) {
                // One definition of relative error workspace-wide
                // (Eq. 12): this must agree with the bench metrics.
                let e = gsketch::relative_error(est as f64, t.frequency(q) as f64);
                err_sum += e;
                if e <= DEFAULT_G0 {
                    effective += 1;
                }
            }
        }
    }
    source.finish().map_err(run_err)?;
    writeln!(out, "replayed {queries} queries in {chunks} chunk(s)").map_err(run_err)?;
    if let Some(engine) = &engine {
        let stats = engine.stats();
        let total = (stats.hits + stats.misses).max(1);
        writeln!(
            out,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            stats.hits as f64 * 100.0 / total as f64
        )
        .map_err(run_err)?;
    }
    writeln!(
        out,
        "estimate sum {sum}, mean {:.2}",
        sum as f64 / (queries.max(1)) as f64
    )
    .map_err(run_err)?;
    if detailed {
        writeln!(
            out,
            "confidence: mean bound ±{:.1}, min confidence {:.3}",
            bound_sum / (queries.max(1)) as f64,
            if queries == 0 { 0.0 } else { min_confidence },
        )
        .map_err(run_err)?;
    }
    if truth.is_some() {
        writeln!(
            out,
            "vs exact: avg rel err {:.3}, effective {effective} / {queries}",
            err_sum / (queries.max(1)) as f64,
        )
        .map_err(run_err)?;
    }
    Ok(())
}

/// Replay a workload whose rows may carry inclusive `[t_start t_end]`
/// columns; rows without a window ask over `[0, lifetime_end]`. Each
/// chunk is grouped by distinct interval and every group is answered as
/// one detailed batch by `answer(edges, t_start, t_end, rows)` — so
/// per-query confidence intervals come out of the same kernel passes
/// that answer the values. The first `show` rows are printed in file
/// order. Returns `(queries, windowed queries, summary line)`; the
/// caller prints its own header before the summary.
fn replay_interval_workload<W: Write>(
    workload_path: &str,
    chunk: usize,
    show: usize,
    lifetime_end: u64,
    mut answer: impl FnMut(&[Edge], u64, u64, &mut Vec<IntervalEstimate>),
    out: &mut W,
) -> Result<(u64, u64, String), CliError> {
    use std::collections::BTreeMap;
    let mut source = QueryFileSource::open(workload_path).map_err(run_err)?;
    let lifetime = (0u64, lifetime_end);
    let mut buf: Vec<WorkloadQuery> = Vec::with_capacity(chunk);
    let mut results: Vec<IntervalEstimate> = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut rows: Vec<IntervalEstimate> = Vec::new();
    let mut queries = 0u64;
    let mut windowed_queries = 0u64;
    let mut value_sum = 0.0f64;
    let mut bound_sum = 0.0f64;
    let mut min_confidence = 1.0f64;
    let mut shown = 0usize;
    while source.fill_workload_queries(&mut buf, chunk) > 0 {
        // Group the chunk by distinct interval so each interval's
        // queries are answered as one batch per overlapping window.
        let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        for (i, q) in buf.iter().enumerate() {
            groups
                .entry(q.window.unwrap_or(lifetime))
                .or_default()
                .push(i);
        }
        results.clear();
        results.resize(buf.len(), IntervalEstimate::default());
        for (&(t_start, t_end), idxs) in &groups {
            edges.clear();
            edges.extend(idxs.iter().map(|&i| buf[i].edge));
            answer(&edges, t_start, t_end, &mut rows);
            for (&i, row) in idxs.iter().zip(&rows) {
                results[i] = *row;
            }
        }
        for (q, r) in buf.iter().zip(&results) {
            queries += 1;
            windowed_queries += u64::from(q.window.is_some());
            value_sum += r.value;
            bound_sum += r.error_bound;
            min_confidence = min_confidence.min(r.confidence);
            if shown < show {
                match q.window {
                    Some((ts, te)) => writeln!(
                        out,
                        "{} [{ts}..{te}]: estimate {:.1} (±{:.1} w.p. {:.3})",
                        q.edge, r.value, r.error_bound, r.confidence
                    ),
                    None => writeln!(
                        out,
                        "{} [lifetime]: estimate {:.1} (±{:.1} w.p. {:.3})",
                        q.edge, r.value, r.error_bound, r.confidence
                    ),
                }
                .map_err(run_err)?;
                shown += 1;
            }
        }
    }
    source.finish().map_err(run_err)?;
    let summary = format!(
        "estimate sum {value_sum:.1}, mean {:.2}; mean bound ±{:.1}, min confidence {:.3}",
        value_sum / (queries.max(1)) as f64,
        bound_sum / (queries.max(1)) as f64,
        if queries == 0 { 0.0 } else { min_confidence },
    );
    Ok((queries, windowed_queries, summary))
}

/// Validate the query shape — inline `<src> <dst>` pairs or one
/// `--workload` file, never both — before touching the filesystem.
fn check_query_shape(a: &ParsedArgs, pairs: &[String]) -> Result<(), CliError> {
    match a.get("workload") {
        Some(_) if !pairs.is_empty() => Err(CliError::Args(ArgError(
            "--workload replays a file; drop the inline `<src> <dst>` pairs".into(),
        ))),
        None if pairs.is_empty() || !pairs.len().is_multiple_of(2) => Err(CliError::Args(
            ArgError("queries come as `<src> <dst>` pairs (or use --workload FILE)".into()),
        )),
        _ => Ok(()),
    }
}

/// Parse inline `<src> <dst>` vertex-id pairs into edges.
fn parse_pairs(pairs: &[String]) -> Result<Vec<Edge>, CliError> {
    let id = |s: &String| {
        s.parse::<u32>()
            .map_err(|_| CliError::Args(ArgError(format!("bad vertex id `{s}`"))))
    };
    pairs
        .chunks_exact(2)
        .map(|pair| Ok(Edge::new(id(&pair[0])?, id(&pair[1])?)))
        .collect()
}

/// `query --snapshot`: time-travel queries from a durable windowed
/// snapshot — no stream, no rebuild. The deployment is decoded from the
/// file (optionally only the sealed windows overlapping `--load-span`,
/// through the footer's byte-offset index) and fronted by the per-batch
/// dedup replay engine, so an interval batch that repeats an edge pays
/// for its answer once.
fn query_windowed_snapshot<W: Write>(
    a: &ParsedArgs,
    path: &str,
    out: &mut W,
) -> Result<(), CliError> {
    for flag in ["stream", "prefilter", "detailed"] {
        if a.get(flag).is_some() {
            return Err(CliError::Args(ArgError(format!(
                "--{flag} does not apply with --snapshot (the snapshot fixes the \
                 windowed deployment; replies are always detailed)"
            ))));
        }
    }
    let pairs = a.positionals();
    check_query_shape(a, pairs)?;
    if a.get("workload").is_some() {
        for flag in ["t-start", "t-end"] {
            if a.get(flag).is_some() {
                return Err(CliError::Args(ArgError(format!(
                    "--{flag} applies to inline pairs; workload rows carry their own \
                     `[t_start t_end]` columns"
                ))));
            }
        }
    } else {
        for flag in ["cache", "chunk", "show"] {
            if a.get(flag).is_some() {
                return Err(CliError::Args(ArgError(format!(
                    "--{flag} applies to workload replay; add --workload FILE"
                ))));
            }
        }
    }
    let load_span = match a.get("load-span") {
        None => None,
        Some(s) => {
            let bad = || {
                CliError::Args(ArgError(format!(
                    "bad value `{s}` for `--load-span` (use T_START,T_END, e.g. 0,5000)"
                )))
            };
            let (lo, hi) = s.split_once(',').ok_or_else(bad)?;
            let lo: u64 = lo.trim().parse().map_err(|_| bad())?;
            let hi: u64 = hi.trim().parse().map_err(|_| bad())?;
            if lo > hi {
                return Err(CliError::Args(ArgError(format!(
                    "--load-span start {lo} exceeds end {hi}"
                ))));
            }
            Some((lo, hi))
        }
    };
    let mut replay = load_windowed_replay(path, load_span)?;
    let windowed = replay.inner();
    let lifetime_end = windowed.lifetime_end();
    writeln!(
        out,
        "loaded {} sealed window(s), {} tier(s), and the open window from {path}",
        windowed.sealed_windows(),
        windowed.num_tiers(),
    )
    .map_err(run_err)?;
    if let (true, Some((lo, hi))) = (windowed.is_partial(), load_span) {
        writeln!(
            out,
            "partial load: only windows overlapping [{lo}, {hi}] are resident; \
             answers outside that span are not valid"
        )
        .map_err(run_err)?;
    }

    // Inline pairs: one detailed interval batch.
    let Some(workload_path) = a.get("workload") else {
        let t_start: u64 = a.get_or("t-start", 0)?;
        let t_end: u64 = a.get_or("t-end", u64::MAX)?;
        if t_start > t_end {
            return Err(CliError::Args(ArgError(format!(
                "--t-start {t_start} exceeds --t-end {t_end}"
            ))));
        }
        let edges = parse_pairs(pairs)?;
        let mut rows = Vec::new();
        replay.estimate_interval_detailed_batch(&edges, t_start, t_end, &mut rows);
        let windowed_ask = a.get("t-start").is_some() || a.get("t-end").is_some();
        for (e, r) in edges.iter().zip(&rows) {
            if windowed_ask {
                writeln!(
                    out,
                    "{e} [{t_start}..{t_end}]: estimate {:.1} (±{:.1} w.p. {:.3})",
                    r.value, r.error_bound, r.confidence
                )
            } else {
                writeln!(
                    out,
                    "{e} [lifetime]: estimate {:.1} (±{:.1} w.p. {:.3})",
                    r.value, r.error_bound, r.confidence
                )
            }
            .map_err(run_err)?;
        }
        return Ok(());
    };

    // Workload replay: each interval group is one detailed batch,
    // deduplicated unless --cache off.
    let cached = parse_switch(a, "cache", true)?;
    let chunk: usize = a.get_or::<usize>("chunk", 1 << 20)?.max(1);
    let show: usize = a.get_or("show", 10)?;
    let (queries, windowed_queries, summary) = replay_interval_workload(
        workload_path,
        chunk,
        show,
        lifetime_end,
        |edges, t_start, t_end, rows| {
            if cached {
                replay.estimate_interval_detailed_batch(edges, t_start, t_end, rows);
            } else {
                replay
                    .inner()
                    .estimate_interval_detailed_batch(edges, t_start, t_end, rows);
            }
        },
        out,
    )?;
    writeln!(
        out,
        "replayed {queries} queries ({windowed_queries} windowed) from the snapshot"
    )
    .map_err(run_err)?;
    if cached {
        let stats = replay.stats();
        let total = (stats.hits + stats.misses).max(1);
        writeln!(
            out,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            stats.hits as f64 * 100.0 / total as f64
        )
        .map_err(run_err)?;
    }
    writeln!(out, "{summary}").map_err(run_err)?;
    Ok(())
}

fn cmd_query<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &[
            "stream",
            "workload",
            "chunk",
            "cache",
            "detailed",
            "show",
            "prefilter",
            "snapshot",
            "t-start",
            "t-end",
            "load-span",
        ],
    )?;
    // Windowed-snapshot queries take the file from the flag, not a
    // positional, and have their own flag surface.
    if let Some(snap_path) = a.get("snapshot") {
        let snap_path = snap_path.to_owned();
        return query_windowed_snapshot(&a, &snap_path, out);
    }
    for flag in ["t-start", "t-end", "load-span"] {
        if a.get(flag).is_some() {
            return Err(CliError::Args(ArgError(format!(
                "--{flag} applies to windowed snapshot queries; add --snapshot FILE"
            ))));
        }
    }
    let snapshot_path = a.positional(0, "snapshot")?;
    let pairs = &a.positionals()[1..];
    check_query_shape(&a, pairs)?;
    // Replay-only flags must not be silently ignored by the inline
    // point-query mode.
    if a.get("workload").is_none() {
        for flag in ["chunk", "cache", "detailed", "show"] {
            if a.get(flag).is_some() {
                return Err(CliError::Args(ArgError(format!(
                    "--{flag} applies to workload replay; add --workload FILE"
                ))));
            }
        }
    }
    let mut sketch = load_snapshot(snapshot_path)?;
    sketch.set_prefilter(parse_switch(&a, "prefilter", true)?);
    let sketch = sketch;
    let truth = match a.get("stream") {
        Some(p) => Some(ExactCounter::from_stream(&load_stream(p).map_err(run_err)?)),
        None => None,
    };
    if let Some(workload_path) = a.get("workload") {
        return replay_workload(&a, &sketch, workload_path, truth.as_ref(), out);
    }
    for edge in parse_pairs(pairs)? {
        let est = sketch.estimate_detailed(edge);
        match &truth {
            Some(t) => writeln!(
                out,
                "{edge}: estimate {} (exact {}) via {:?}",
                est.value,
                t.frequency(edge),
                est.sketch
            ),
            None => writeln!(
                out,
                "{edge}: estimate {} (±{:.1} w.p. {:.3}) via {:?}",
                est.value, est.error_bound, est.confidence, est.sketch
            ),
        }
        .map_err(run_err)?;
    }
    Ok(())
}

/// Generate a query-workload file from a stream: `--queries` draws over
/// the distinct edges, uniform by default or Zipf(α) by frequency rank
/// with `--zipf` (the paper's §6.3/§6.4 query-set constructions), saved
/// in the `src dst` per-line format `query --workload` replays.
fn cmd_workload<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &["out", "queries", "zipf", "absent", "intervals", "seed"],
    )?;
    let stream_path = a.positional(0, "stream-file")?;
    let path: String = a.require("out")?;
    let n_queries: usize = a.get_or("queries", 10_000)?;
    let seed: u64 = a.get_or("seed", 42)?;
    let stream = load_stream(stream_path).map_err(run_err)?;
    let truth = ExactCounter::from_stream(&stream);
    if truth.distinct_edges() == 0 {
        return Err(CliError::Run(
            "stream has no edges to draw queries from".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Validate --absent up front, like --zipf: the injector's domain is
    // a library assert, and a bad fraction must be a CLI error, not a
    // panic (`--absent 1`, `--absent -0.5`, `--absent nan` all parse).
    let absent_frac = match a.get("absent") {
        Some(frac) => {
            let frac: f64 = frac
                .parse()
                .map_err(|e| CliError::Args(ArgError(format!("bad value for `--absent`: {e}"))))?;
            if !((0.0..1.0).contains(&frac) && frac.is_finite()) {
                return Err(CliError::Args(ArgError(format!(
                    "--absent fraction must be in [0, 1), got {frac}"
                ))));
            }
            frac
        }
        None => 0.0,
    };
    let (queries, how) = match a.get("zipf") {
        Some(alpha) => {
            let alpha: f64 = alpha
                .parse()
                .map_err(|e| CliError::Args(ArgError(format!("bad value for `--zipf`: {e}"))))?;
            // The Zipf sampler's domain is a library assert; a bad skew
            // must be a CLI error, not a panic (`--zipf 0`, `--zipf
            // -1`, and `--zipf inf` all parse as f64).
            if !(alpha > 0.0 && alpha.is_finite()) {
                return Err(CliError::Args(ArgError(format!(
                    "--zipf skew must be positive and finite, got {alpha}"
                ))));
            }
            (
                zipf_edge_queries(&truth, n_queries, alpha, ZipfRank::Frequency, &mut rng),
                format!("Zipf({alpha}) by frequency rank"),
            )
        }
        None => (
            uniform_distinct_queries(&truth, n_queries, &mut rng),
            "uniform".to_owned(),
        ),
    };
    let mut queries = queries;
    let n_absent = inject_absent_queries(&truth, &mut queries, absent_frac, &mut rng);
    // --intervals SPAN[,ALIGN]: attach an inclusive window of SPAN
    // timestamps to every query, starts drawn over multiples of ALIGN
    // (default SPAN, tiling the stream's lifetime). Validated here so a
    // degenerate span or alignment is a CLI error naming the flag, not
    // a library panic.
    if let Some(spec) = a.get("intervals") {
        let bad = |what: &str| {
            CliError::Args(ArgError(format!(
                "bad value `{spec}` for `--intervals`: {what} (use SPAN or SPAN,ALIGN, \
                 e.g. 1000 or 1000,250)"
            )))
        };
        let (span_s, align_s) = match spec.split_once(',') {
            Some((s, a)) => (s.trim(), Some(a.trim())),
            None => (spec.trim(), None),
        };
        let span: u64 = span_s.parse().map_err(|_| bad("span is not a number"))?;
        if span == 0 {
            return Err(bad("span must be positive"));
        }
        let align: u64 = match align_s {
            Some(s) => s.parse().map_err(|_| bad("alignment is not a number"))?,
            None => span,
        };
        if align == 0 {
            return Err(bad("alignment must be positive"));
        }
        let t_max = stream.iter().map(|se| se.ts).max().unwrap_or(0);
        let windowed =
            gstream::workload::windowed_interval_queries(&queries, span, align, t_max, &mut rng);
        gstream::save_workload(&path, &windowed).map_err(run_err)?;
        writeln!(
            out,
            "wrote {} edge queries ({how} over {} distinct edges, {n_absent} absent) \
             with [t_start t_end] windows of span {span} (align {align}) to {path}",
            windowed.len(),
            truth.distinct_edges()
        )
        .map_err(run_err)?;
        return Ok(());
    }
    save_queries(&path, &queries).map_err(run_err)?;
    writeln!(
        out,
        "wrote {} edge queries ({how} over {} distinct edges, {n_absent} absent) to {path}",
        queries.len(),
        truth.distinct_edges()
    )
    .map_err(run_err)?;
    Ok(())
}

fn cmd_compare<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &["memory", "queries", "depth", "seed", "sample-frac"],
    )?;
    let stream_path = a.positional(0, "stream-file")?;
    let memory = parse_bytes(&a.require::<String>("memory")?)?;
    let n_queries: usize = a.get_or("queries", 10_000)?;
    let depth: usize = a.get_or("depth", 1)?;
    let seed: u64 = a.get_or("seed", 42)?;
    let sample_frac: f64 = a.get_or("sample-frac", 0.05)?;

    let stream = load_stream(stream_path).map_err(run_err)?;
    let truth = ExactCounter::from_stream(&stream);
    let mut rng = StdRng::seed_from_u64(seed);
    // cast: f64 -> usize truncates toward zero; k is a sample size no
    // larger than stream.len() for sample_frac <= 1, floored to 1.
    let k = ((stream.len() as f64 * sample_frac) as usize).max(1);
    let sample = sample_iter(stream.iter().copied(), k, &mut rng);

    let builder = GSketch::builder()
        .memory_bytes(memory)
        .depth(depth)
        .min_width(64)
        .sample_rate(sample_frac)
        .seed(seed);
    let mut gl = GSketch::global(memory, depth, seed).map_err(run_err)?;
    gl.ingest(&stream);

    let queries = uniform_distinct_queries(&truth, n_queries, &mut rng);

    let mut gs = builder.build_from_sample(&sample).map_err(run_err)?;
    ShardedIngest::new(&mut gs, 1).run_slice(&stream);
    let acc_gs = evaluate_edge_queries(&gs, &queries, &truth, DEFAULT_G0);
    let acc_gl = evaluate_edge_queries(&gl, &queries, &truth, DEFAULT_G0);
    writeln!(
        out,
        "queries: {} uniform over distinct edges",
        queries.len()
    )
    .map_err(run_err)?;
    writeln!(
        out,
        "gSketch: avg rel err {:.3}, effective {} / {}  ({} partitions)",
        acc_gs.avg_relative_error,
        acc_gs.effective_queries,
        acc_gs.total_queries,
        gs.num_partitions(),
    )
    .map_err(run_err)?;
    writeln!(
        out,
        "Global : avg rel err {:.3}, effective {} / {}",
        acc_gl.avg_relative_error, acc_gl.effective_queries, acc_gl.total_queries,
    )
    .map_err(run_err)?;
    let gain = acc_gl.avg_relative_error / acc_gs.avg_relative_error.max(1e-9);
    writeln!(out, "gain   : {gain:.2}x").map_err(run_err)?;
    Ok(())
}

fn cmd_adaptive<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    let a = ParsedArgs::parse(
        raw.iter().cloned(),
        &["memory", "warmup", "queries", "depth", "seed"],
    )?;
    let stream_path = a.positional(0, "stream-file")?;
    let memory = parse_bytes(&a.require::<String>("memory")?)?;
    let n_queries: usize = a.get_or("queries", 10_000)?;
    let depth: usize = a.get_or("depth", 1)?;
    let seed: u64 = a.get_or("seed", 42)?;

    let stream = load_stream(stream_path).map_err(run_err)?;
    let warmup: u64 = a.get_or("warmup", (stream.len() as u64 / 20).max(1))?;
    let truth = ExactCounter::from_stream(&stream);

    let mut adaptive = AdaptiveGSketch::new(AdaptiveConfig {
        memory_bytes: memory,
        warmup_arrivals: warmup,
        warmup_memory_fraction: 0.15,
        depth,
        min_width: 64,
        expected_growth: (stream.len() as f64 / warmup as f64).max(1.0),
        seed,
        ..AdaptiveConfig::default()
    })
    .map_err(run_err)?;
    // The warm-up prefix replays arrival by arrival; the partitioned
    // remainder runs the combining engine (DESIGN.md §11), so the result
    // matches sequential ingest exactly.
    adaptive.ingest_batch(&stream);
    let mut gl = GSketch::global(memory, depth, seed).map_err(run_err)?;
    gl.ingest(&stream);

    let mut rng = StdRng::seed_from_u64(seed);
    let queries = uniform_distinct_queries(&truth, n_queries, &mut rng);
    let acc_ad = evaluate_edge_queries(&adaptive, &queries, &truth, DEFAULT_G0);
    let acc_gl = evaluate_edge_queries(&gl, &queries, &truth, DEFAULT_G0);
    writeln!(
        out,
        "warm-up: {warmup} arrivals, then {} partitions (no sample used)",
        adaptive.num_partitions(),
    )
    .map_err(run_err)?;
    writeln!(
        out,
        "adaptive: avg rel err {:.3}, effective {} / {}",
        acc_ad.avg_relative_error, acc_ad.effective_queries, acc_ad.total_queries,
    )
    .map_err(run_err)?;
    writeln!(
        out,
        "Global  : avg rel err {:.3}, effective {} / {}",
        acc_gl.avg_relative_error, acc_gl.effective_queries, acc_gl.total_queries,
    )
    .map_err(run_err)?;
    Ok(())
}

fn cmd_structural<W: Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    use structural::{ExactTriangleCounter, HeavyVertexTracker, PathAggregator, TriangleEstimator};
    let a = ParsedArgs::parse(raw.iter().cloned(), &["top", "triangle-p", "seed"])?;
    let stream_path = a.positional(0, "stream-file")?;
    let top: usize = a.get_or("top", 5)?;
    let p: f64 = a.get_or("triangle-p", 1.0)?;
    let seed: u64 = a.get_or("seed", 42)?;
    if !(p > 0.0 && p <= 1.0) {
        return Err(CliError::Args(ArgError(
            "--triangle-p must be in (0, 1]".into(),
        )));
    }
    let stream = load_stream(stream_path).map_err(run_err)?;

    if p >= 1.0 {
        let mut tri = ExactTriangleCounter::new();
        tri.ingest(&stream);
        writeln!(out, "triangles (exact): {}", tri.triangles()).map_err(run_err)?;
    } else {
        let mut tri = TriangleEstimator::new(p, seed);
        tri.ingest(&stream);
        writeln!(
            out,
            "triangles (DOULION p={p}): {:.0}  ({} edges kept)",
            tri.estimate(),
            tri.retained_edges()
        )
        .map_err(run_err)?;
    }

    let mut paths = PathAggregator::new();
    paths.ingest(&stream);
    writeln!(out, "total 2-paths: {}", paths.total_paths()).map_err(run_err)?;
    writeln!(out, "top {top} path hubs:").map_err(run_err)?;
    for (v, flow) in paths.top_hubs(top) {
        writeln!(out, "  {v}: through-flow {flow}").map_err(run_err)?;
    }

    let mut heavy = HeavyVertexTracker::new(64).map_err(run_err)?;
    heavy.ingest(&stream);
    writeln!(out, "sources above 5% of stream weight:").map_err(run_err)?;
    for h in heavy.heavy_sources(0.05) {
        writeln!(
            out,
            "  {}: ≤ {}{}",
            h.vertex,
            h.count,
            if h.guaranteed { " [guaranteed]" } else { "" }
        )
        .map_err(run_err)?;
    }

    // Scanner detection: heavy sources whose traffic is spread over many
    // distinct partners (distinct degree ≈ weight) rather than repeats.
    // The whole heavy-source list is degree-estimated as one batch.
    let mut degrees = structural::MultigraphDegrees::new(1024, 3, 10, seed).map_err(run_err)?;
    degrees.ingest(&stream);
    writeln!(out, "spread of heavy sources (distinct partners / weight):").map_err(run_err)?;
    let suspects: Vec<_> = heavy.heavy_sources(0.05).into_iter().take(top).collect();
    let vertices: Vec<VertexId> = suspects.iter().map(|h| h.vertex).collect();
    let mut partner_counts = Vec::new();
    degrees.out_degrees(&vertices, &mut partner_counts);
    for (h, &partners) in suspects.iter().zip(&partner_counts) {
        let spread = partners / h.count.max(1) as f64;
        writeln!(
            out,
            "  {}: ~{partners:.0} partners, spread {spread:.2}{}",
            h.vertex,
            if spread > 0.8 { "  [scanner-like]" } else { "" }
        )
        .map_err(run_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        dispatch(&owned, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gsketch_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn no_args_prints_usage() {
        let text = run(&[]).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&["help"]).unwrap().contains("USAGE"));
        assert!(run(&["--help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn generate_unknown_model_rejected() {
        let e = run(&["generate", "nope", "--out", &tmp("x.txt")]).unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn generate_then_stats_round_trip() {
        let path = tmp("gen_stats.txt");
        let text = run(&[
            "generate",
            "erdos",
            "--out",
            &path,
            "--arrivals",
            "5000",
            "--vertices",
            "100",
        ])
        .unwrap();
        assert!(text.contains("5000 arrivals"));
        let stats = run(&["stats", &path, "--top", "3"]).unwrap();
        assert!(stats.contains("arrivals:        5000"));
        assert!(stats.contains("variance ratio"));
    }

    #[test]
    fn all_models_generate() {
        for model in [
            "rmat",
            "rmat-traffic",
            "dblp",
            "ipattack",
            "erdos",
            "smallworld",
        ] {
            let path = tmp(&format!("model_{model}.txt"));
            let r = run(&[
                "generate",
                model,
                "--out",
                &path,
                "--arrivals",
                "2000",
                "--vertices",
                "64",
                "--seed",
                "3",
            ]);
            assert!(r.is_ok(), "model {model} failed: {:?}", r.err());
        }
    }

    /// Every generator precondition a flag can reach is an argument
    /// error naming the flag, not a generator panic.
    #[test]
    fn generate_rejects_out_of_range_flags() {
        for (model, flag, value) in [
            ("smallworld", "--vertices", "6"),
            ("smallworld", "--vertices", "1"),
            ("smallworld", "--alpha", "-1"),
            ("smallworld", "--alpha", "nan"),
            ("dblp", "--vertices", "1"),
            ("dblp", "--arrivals", "2"),
            ("ipattack", "--arrivals", "0"),
            ("rmat-traffic", "--alpha", "-1"),
            ("rmat-traffic", "--alpha", "nan"),
        ] {
            let path = tmp(&format!("bad_{model}.txt"));
            let e = run(&["generate", model, "--out", &path, flag, value]).unwrap_err();
            assert!(
                matches!(e, CliError::Args(_)),
                "{model} {flag} {value}: {e}"
            );
            assert!(e.to_string().contains(flag), "{model} {flag} {value}: {e}");
        }
        // The smallest accepted values generate.
        let path = tmp("edge_ok.txt");
        for args in [
            ["smallworld", "--vertices", "7"],
            ["dblp", "--arrivals", "3"],
            ["ipattack", "--arrivals", "1"],
        ] {
            let mut argv = vec!["generate", args[0], "--out", &path, args[1], args[2]];
            if args[1] == "--arrivals" {
                argv.extend(["--vertices", "100"]);
            }
            assert!(run(&argv).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn build_query_pipeline() {
        let stream = tmp("pipeline.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        let snap = tmp("pipeline.snapshot.json");
        let built = run(&[
            "build",
            &stream,
            "--memory",
            "64K",
            "--out",
            &snap,
            "--sample-frac",
            "0.2",
        ])
        .unwrap();
        assert!(built.contains("partitions"));
        // Query two edges, with ground truth attached.
        let q = run(&["query", &snap, "0", "1", "5", "6", "--stream", &stream]).unwrap();
        assert!(q.contains("estimate"));
        assert!(q.contains("exact"));
    }

    #[test]
    fn query_rejects_odd_pairs() {
        let e = run(&["query", "snap.json", "1"]).unwrap_err();
        assert!(e.to_string().contains("pairs"));
    }

    #[test]
    fn workload_generate_and_replay_round_trip() {
        let stream = tmp("wl.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        let snap = tmp("wl.snapshot.json");
        run(&[
            "build",
            &stream,
            "--memory",
            "64K",
            "--out",
            &snap,
            "--sample-frac",
            "0.2",
        ])
        .unwrap();
        let wl = tmp("wl.queries.txt");
        let gen = run(&["workload", &stream, "--out", &wl, "--queries", "5000"]).unwrap();
        assert!(gen.contains("5000 edge queries"), "{gen}");
        // Batched replay, with and without truth, in one chunk and in
        // many: the reported sums must agree (bit-exact parity).
        let seq = run(&["query", &snap, "--workload", &wl]).unwrap();
        assert!(seq.contains("replayed 5000 queries in 1 chunk(s)"), "{seq}");
        let par = run(&["query", &snap, "--workload", &wl, "--chunk", "512"]).unwrap();
        assert!(par.contains("in 10 chunk(s)"), "{par}");
        let sum_line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("estimate sum"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(sum_line(&seq), sum_line(&par));
        let with_truth = run(&["query", &snap, "--workload", &wl, "--stream", &stream]).unwrap();
        assert!(with_truth.contains("avg rel err"), "{with_truth}");
    }

    /// No command takes `--threads`: the batched read picks its own
    /// worker count and ingest runs one combining engine, so the flag is
    /// an unknown option everywhere, not a silent no-op.
    #[test]
    fn workload_replay_rejects_threads() {
        let stream = tmp("wl_zero_threads.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "5000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let snap = tmp("wl_zero_threads.snapshot.json");
        run(&["build", &stream, "--memory", "32K", "--out", &snap]).unwrap();
        let wl = tmp("wl_zero_threads.queries.txt");
        run(&["workload", &stream, "--out", &wl, "--queries", "500"]).unwrap();
        let out = tmp("wl_zero_threads.rejected");
        let commands: [&[&str]; 5] = [
            &["query", &snap, "--workload", &wl],
            &["build", &stream, "--memory", "32K", "--out", &out],
            &["snapshot", &stream, "--out", &out, "--window-span", "1000"],
            &["compare", &stream, "--memory", "32K"],
            &["adaptive", &stream, "--memory", "32K"],
        ];
        for args in commands {
            let args: Vec<&str> = args.iter().copied().chain(["--threads", "2"]).collect();
            let e = run(&args).unwrap_err();
            assert!(
                e.to_string().contains("unknown option `--threads`"),
                "{}: {e}",
                args[0]
            );
        }
        assert!(!std::path::Path::new(&out).exists());
    }

    #[test]
    fn workload_zipf_flag_and_replay_reject_garbage() {
        let stream = tmp("wl_zipf.txt");
        run(&[
            "generate",
            "erdos",
            "--out",
            &stream,
            "--arrivals",
            "5000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let wl = tmp("wl_zipf.queries.txt");
        let gen = run(&[
            "workload",
            &stream,
            "--out",
            &wl,
            "--queries",
            "500",
            "--zipf",
            "1.5",
        ])
        .unwrap();
        assert!(gen.contains("Zipf(1.5)"), "{gen}");
        let snap = tmp("wl_zipf.snapshot.json");
        run(&["build", &stream, "--memory", "16K", "--out", &snap]).unwrap();
        // Corrupt the workload: replay must fail with line + byte offset.
        std::fs::write(&wl, "1 2\nbogus line\n").unwrap();
        let e = run(&["query", &snap, "--workload", &wl]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("byte 4"), "{msg}");
        // Inline pairs and --workload are mutually exclusive.
        let e = run(&["query", &snap, "1", "2", "--workload", &wl]).unwrap_err();
        assert!(e.to_string().contains("drop the inline"), "{e}");
    }

    /// The dedup front must report the same sums as the bare baseline
    /// (bit-exact), and answer repeats on a repeat-heavy workload.
    #[test]
    fn cached_replay_matches_uncached_replay() {
        let stream = tmp("cached.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        let snap = tmp("cached.snapshot.json");
        run(&["build", &stream, "--memory", "64K", "--out", &snap]).unwrap();
        let wl = tmp("cached.queries.txt");
        run(&[
            "workload",
            &stream,
            "--out",
            &wl,
            "--queries",
            "5000",
            "--zipf",
            "1.1",
        ])
        .unwrap();
        let uncached = run(&["query", &snap, "--workload", &wl, "--cache", "off"]).unwrap();
        let cached = run(&["query", &snap, "--workload", &wl, "--chunk", "512"]).unwrap();
        let sum_line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("estimate sum"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(sum_line(&uncached), sum_line(&cached));
        assert!(!uncached.contains("cache:"), "{uncached}");
        assert!(cached.contains("hit rate"), "{cached}");
        // A Zipf workload repeats its head within a chunk: the dedup
        // front must answer repeats.
        let hits: u64 = cached
            .lines()
            .find(|l| l.starts_with("cache:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(hits > 0, "{cached}");
    }

    /// `workload --absent` injects never-ingested pairs (validated like
    /// `--zipf`), and `query --prefilter` toggles the read-side filter:
    /// absent queries answer exactly zero with it on, so the estimate
    /// sum can only drop relative to the unfiltered replay.
    #[test]
    fn absent_workload_and_prefilter_toggle() {
        let stream = tmp("absent.txt");
        run(&[
            "generate",
            "erdos",
            "--out",
            &stream,
            "--arrivals",
            "5000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let snap = tmp("absent.snapshot.json");
        run(&["build", &stream, "--memory", "64K", "--out", &snap]).unwrap();
        let wl = tmp("absent.queries.txt");
        let gen = run(&[
            "workload",
            &stream,
            "--out",
            &wl,
            "--queries",
            "400",
            "--absent",
            "0.5",
        ])
        .unwrap();
        assert!(gen.contains("200 absent"), "{gen}");
        let sum_of = |text: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with("estimate sum"))
                .and_then(|l| l.split([' ', ',']).nth(2))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        let on = run(&["query", &snap, "--workload", &wl, "--cache", "off"]).unwrap();
        let off = run(&[
            "query",
            &snap,
            "--workload",
            &wl,
            "--cache",
            "off",
            "--prefilter",
            "off",
        ])
        .unwrap();
        assert!(
            sum_of(&on) <= sum_of(&off),
            "filtered sum exceeds unfiltered: {on} vs {off}"
        );
        // Bad fractions are CLI errors naming the flag, like --zipf.
        for bad in ["1", "1.5", "-0.1", "nan"] {
            let e = run(&[
                "workload",
                &stream,
                "--out",
                &wl,
                "--queries",
                "10",
                "--absent",
                bad,
            ])
            .unwrap_err();
            assert!(e.to_string().contains("--absent"), "{bad}: {e}");
        }
        // Bad switch values and incompatible combos name the flag too.
        let e = run(&["query", &snap, "1", "2", "--prefilter", "maybe"]).unwrap_err();
        assert!(e.to_string().contains("--prefilter"), "{e}");
    }

    /// --detailed replays through the detailed batch: per-query
    /// confidence intervals plus a summary, same estimate sum.
    #[test]
    fn detailed_replay_reports_confidence_intervals() {
        let stream = tmp("detailed.txt");
        run(&[
            "generate",
            "erdos",
            "--out",
            &stream,
            "--arrivals",
            "8000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let snap = tmp("detailed.snapshot.json");
        run(&["build", &stream, "--memory", "32K", "--out", &snap]).unwrap();
        let wl = tmp("detailed.queries.txt");
        run(&["workload", &stream, "--out", &wl, "--queries", "500"]).unwrap();
        let text = run(&[
            "query",
            &snap,
            "--workload",
            &wl,
            "--detailed",
            "on",
            "--show",
            "3",
        ])
        .unwrap();
        assert!(text.contains("w.p."), "{text}");
        assert!(text.contains("mean bound"), "{text}");
        assert_eq!(text.matches("w.p.").count(), 3, "--show 3 rows: {text}");
        // Mixing an explicit cache with the detailed path is ambiguous.
        let e = run(&[
            "query",
            &snap,
            "--workload",
            &wl,
            "--detailed",
            "on",
            "--cache",
            "on",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("detailed"), "{e}");
        // Flags a mode cannot honor are rejected, not silently ignored.
        let e = run(&[
            "query",
            &snap,
            "--workload",
            &wl,
            "--detailed",
            "on",
            "--threads",
            "8",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("--threads"), "{e}");
        let e = run(&["query", &snap, "--workload", &wl, "--show", "5"]).unwrap_err();
        assert!(e.to_string().contains("--detailed"), "{e}");
        let e = run(&["query", &snap, "--workload", &wl, "--seed", "7"]).unwrap_err();
        assert!(e.to_string().contains("unknown option `--seed`"), "{e}");
        // Replay-only flags are rejected by the inline point-query mode.
        let e = run(&["query", &snap, "1", "2", "--cache", "off"]).unwrap_err();
        assert!(e.to_string().contains("--workload"), "{e}");
        let e = run(&["query", &snap, "1", "2", "--detailed", "on"]).unwrap_err();
        assert!(e.to_string().contains("--workload"), "{e}");
    }

    /// The end-to-end windowed path: a stream becomes a windowed
    /// snapshot, and workload rows carrying `[t_start t_end]` columns
    /// replay against it and report per-query confidence intervals.
    #[test]
    fn windowed_workload_replays_end_to_end() {
        let stream = tmp("windowed.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        // A workload mixing lifetime and windowed rows, written through
        // the library so the format is the canonical one.
        let edges = gstream::load_stream(&stream).unwrap();
        let horizon = edges.last().unwrap().ts;
        let wl = tmp("windowed.queries.txt");
        gstream::save_workload(
            &wl,
            &[
                WorkloadQuery::lifetime(edges[0].edge),
                WorkloadQuery::windowed(edges[1].edge, 0, horizon / 2),
                WorkloadQuery::windowed(edges[2].edge, horizon / 4, horizon),
                WorkloadQuery::windowed(edges[0].edge, 0, u64::MAX),
            ],
        )
        .unwrap();
        let wsnap = tmp("windowed.batched.wsnap");
        let _ = std::fs::remove_file(&wsnap);
        run(&[
            "snapshot",
            &stream,
            "--out",
            &wsnap,
            "--window-span",
            "1000",
            "--window-memory",
            "16K",
        ])
        .unwrap();
        let text = run(&["query", "--snapshot", &wsnap, "--workload", &wl]).unwrap();
        assert!(text.contains("[lifetime]"), "{text}");
        assert!(text.contains("w.p."), "{text}");
        assert!(text.contains("replayed 4 queries (3 windowed)"), "{text}");
        // Every row reports a confidence interval.
        assert_eq!(text.matches("w.p.").count(), 4, "{text}");
        // `snapshot` ingests through the combining engine per window
        // epoch, which is bit-identical to the sequential deployment
        // (`snapshot`'s configuration, one `try_insert` per arrival), so
        // the whole report matches once the file name is masked.
        let seq_snap = tmp("windowed.sequential.wsnap");
        let _ = std::fs::remove_file(&seq_snap);
        let cfg = WindowConfig {
            span: 1000,
            memory_bytes_per_window: 16 << 10,
            sample_capacity: 256,
            seed: 42,
        };
        let mut seq = WindowedGSketch::new(cfg, GSketch::builder().min_width(64).seed(42)).unwrap();
        for se in &edges {
            seq.try_insert(*se).unwrap();
        }
        save_windowed(&seq_snap, &seq).unwrap();
        let seq_text = run(&["query", "--snapshot", &seq_snap, "--workload", &wl]).unwrap();
        assert_eq!(
            seq_text.replace("windowed.sequential", "windowed.batched"),
            text,
            "batched windowed ingest diverged"
        );
    }

    #[test]
    fn windowed_replay_rejects_bad_flag_combinations() {
        // Windowed replay runs from a snapshot (`snapshot` then
        // `query --snapshot`); `query` builds no windowed synopsis.
        let e = run(&["query", "s.txt", "--window-span", "100"]).unwrap_err();
        assert!(
            e.to_string().contains("unknown option `--window-span`"),
            "{e}"
        );
    }

    #[test]
    fn workload_rejects_degenerate_zipf_skew() {
        let stream = tmp("zipf_domain.txt");
        run(&[
            "generate",
            "erdos",
            "--out",
            &stream,
            "--arrivals",
            "2000",
            "--vertices",
            "50",
        ])
        .unwrap();
        for bad in ["0", "-1.5", "inf", "NaN"] {
            let e = run(&[
                "workload",
                &stream,
                "--out",
                &tmp("zipf_domain.out.txt"),
                "--zipf",
                bad,
            ])
            .unwrap_err();
            assert!(
                e.to_string().contains("positive and finite"),
                "--zipf {bad}: {e}"
            );
        }
    }

    #[test]
    fn compare_reports_gain() {
        let stream = tmp("compare.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "30000",
            "--vertices",
            "300",
        ])
        .unwrap();
        let text = run(&["compare", &stream, "--memory", "16K", "--queries", "2000"]).unwrap();
        assert!(text.contains("gSketch"));
        assert!(text.contains("Global"));
        assert!(text.contains("gain"));
    }

    #[test]
    fn adaptive_command_reports_both_systems() {
        let stream = tmp("adaptive.txt");
        run(&[
            "generate",
            "rmat-traffic",
            "--out",
            &stream,
            "--arrivals",
            "30000",
            "--vertices",
            "1024",
        ])
        .unwrap();
        let text = run(&[
            "adaptive",
            &stream,
            "--memory",
            "32K",
            "--warmup",
            "3000",
            "--queries",
            "2000",
        ])
        .unwrap();
        assert!(text.contains("partitions (no sample used)"));
        assert!(text.contains("adaptive: avg rel err"));
        assert!(text.contains("Global  : avg rel err"));
    }

    #[test]
    fn structural_reports_triangles_and_hubs() {
        let stream = tmp("structural.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "10000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let text = run(&["structural", &stream, "--top", "3"]).unwrap();
        assert!(text.contains("triangles (exact)"));
        assert!(text.contains("2-paths"));
        let sampled = run(&["structural", &stream, "--triangle-p", "0.5"]).unwrap();
        assert!(sampled.contains("DOULION"));
    }

    #[test]
    fn build_query_round_trips() {
        let stream = tmp("round_trip.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "10000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let snap = tmp("round_trip.json");
        let built = run(&[
            "build",
            &stream,
            "--memory",
            "64K",
            "--out",
            &snap,
            "--sample-frac",
            "0.2",
        ])
        .unwrap();
        assert!(built.contains("partitions over"), "{built}");
        let q = run(&["query", &snap, "0", "1", "--stream", &stream]).unwrap();
        assert!(q.contains("estimate"), "{q}");
    }

    /// `build` ingests through the combining engine; its snapshot is
    /// byte-identical to one built from the same sample and ingested
    /// arrival by arrival, and answers queries identically.
    #[test]
    fn build_with_threads_matches_sequential_build() {
        let stream = tmp("threads.txt");
        run(&[
            "generate",
            "rmat-traffic",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "512",
        ])
        .unwrap();
        let snap_seq = tmp("threads.seq.json");
        let snap_par = tmp("threads.par.json");
        let built = run(&[
            "build", &stream, "--memory", "64K", "--out", &snap_par, "--seed", "9",
        ])
        .unwrap();
        assert!(built.contains("ingested 20000 arrivals;"), "{built}");
        // `build`'s defaults: a 5% sample, depth 1, min width 64.
        let edges = load_stream(&stream).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let sample = sample_iter(edges.iter().copied(), edges.len() / 20, &mut rng);
        let mut seq = GSketch::builder()
            .memory_bytes(64 << 10)
            .depth(1)
            .min_width(64)
            .sample_rate(0.05)
            .seed(9)
            .build_from_sample(&sample)
            .unwrap();
        seq.ingest(&edges);
        save_gsketch(&snap_seq, &seq).unwrap();
        assert!(std::fs::read(&snap_seq).unwrap() == std::fs::read(&snap_par).unwrap());
        // Same stream, same seed: the combining engine must answer
        // queries identically to the sequential build.
        let q_seq = run(&["query", &snap_seq, "0", "1", "3", "7"]).unwrap();
        let q_par = run(&["query", &snap_par, "0", "1", "3", "7"]).unwrap();
        assert_eq!(q_seq, q_par);
    }

    /// `compare` runs end to end on a small stream.
    #[test]
    fn compare_accepts_threads_flag() {
        let stream = tmp("compare_threads.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "10000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let text = run(&["compare", &stream, "--memory", "16K", "--queries", "500"]).unwrap();
        assert!(text.contains("gain"));
    }

    /// There is one synopsis, so `--backend` is an unknown option on
    /// both commands that used to take it.
    #[test]
    fn backend_flag_is_gone() {
        let build = ["build", "x.txt", "--memory", "64K", "--out", "y.json"];
        let compare = ["compare", "x.txt", "--memory", "64K"];
        for args in [&build[..], &compare[..]] {
            let args: Vec<&str> = args.iter().copied().chain(["--backend", "arena"]).collect();
            let e = run(&args).unwrap_err();
            assert!(e.to_string().contains("unknown option `--backend`"), "{e}");
        }
    }

    #[test]
    fn build_validates_sample_frac() {
        let e = run(&[
            "build",
            "x.txt",
            "--memory",
            "64K",
            "--out",
            "y.json",
            "--sample-frac",
            "0",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("sample-frac"));
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let e = run(&["stats", "/definitely/not/here.txt"]).unwrap_err();
        assert!(matches!(e, CliError::Run(_)));
    }

    /// The full durable-windowed pipeline: snapshot a stream, append the
    /// grown stream to the same file, and answer time-travel queries
    /// from the snapshot — inline pairs and a deduplicated workload replay.
    #[test]
    fn snapshot_build_append_and_time_travel_query() {
        let full = tmp("snap_pipeline.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &full,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        // A proper prefix of the same stream, so the snapshot command's
        // deterministic rebuild reproduces the on-disk history exactly.
        let edges = gstream::load_stream(&full).unwrap();
        let prefix = tmp("snap_pipeline.prefix.txt");
        gstream::save_stream(&prefix, &edges[..edges.len() / 2]).unwrap();
        let snap = tmp("snap_pipeline.wsnap.json");
        let _ = std::fs::remove_file(&snap);
        let first = run(&[
            "snapshot",
            &prefix,
            "--out",
            &snap,
            "--window-span",
            "1000",
            "--window-memory",
            "16K",
        ])
        .unwrap();
        assert!(first.starts_with("wrote"), "{first}");
        let bytes_before = std::fs::metadata(&snap).unwrap().len();
        let second = run(&[
            "snapshot",
            &full,
            "--out",
            &snap,
            "--window-span",
            "1000",
            "--window-memory",
            "16K",
        ])
        .unwrap();
        assert!(second.starts_with("appended"), "{second}");
        assert!(
            std::fs::metadata(&snap).unwrap().len() > bytes_before,
            "append must extend the file"
        );
        // A diverged configuration is rejected, not silently rewritten.
        let e = run(&[
            "snapshot",
            &full,
            "--out",
            &snap,
            "--window-span",
            "1000",
            "--window-memory",
            "16K",
            "--seed",
            "7",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("append"), "{e}");
        // Inline time-travel queries: lifetime and an explicit interval.
        let horizon = edges.last().unwrap().ts;
        let q = run(&["query", "--snapshot", &snap, "0", "1", "5", "6"]).unwrap();
        assert!(q.contains("[lifetime]"), "{q}");
        let qi = run(&[
            "query",
            "--snapshot",
            &snap,
            "0",
            "1",
            "--t-start",
            "0",
            "--t-end",
            &(horizon / 2).to_string(),
        ])
        .unwrap();
        assert!(qi.contains(&format!("[0..{}]", horizon / 2)), "{qi}");
    }

    /// `workload --intervals` + `query --snapshot --workload`: the
    /// dedup front answers repeats within each interval batch, and the
    /// cached replay is bit-identical to the uncached baseline.
    #[test]
    fn snapshot_workload_replay_hits_interval_memo() {
        let stream = tmp("snap_wl.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        let snap = tmp("snap_wl.wsnap.json");
        let _ = std::fs::remove_file(&snap);
        run(&[
            "snapshot",
            &stream,
            "--out",
            &snap,
            "--window-span",
            "1000",
            "--window-memory",
            "16K",
        ])
        .unwrap();
        let wl = tmp("snap_wl.queries.txt");
        let gen = run(&[
            "workload",
            &stream,
            "--out",
            &wl,
            "--queries",
            "4000",
            "--zipf",
            "1.1",
            "--intervals",
            "4000,2000",
        ])
        .unwrap();
        assert!(gen.contains("windows of span 4000 (align 2000)"), "{gen}");
        let cached = run(&["query", "--snapshot", &snap, "--workload", &wl]).unwrap();
        let uncached = run(&[
            "query",
            "--snapshot",
            &snap,
            "--workload",
            &wl,
            "--cache",
            "off",
        ])
        .unwrap();
        let sum_line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("estimate sum"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(sum_line(&cached), sum_line(&uncached));
        assert!(cached.contains("hit rate"), "{cached}");
        assert!(!uncached.contains("cache:"), "{uncached}");
        // A Zipf head repeats within each interval batch ⇒ hits.
        let hits: u64 = cached
            .lines()
            .find(|l| l.starts_with("cache:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(hits > 0, "{cached}");
        // Degenerate interval specs are CLI errors naming the flag.
        for bad in ["0", "abc", "100,0", "100,"] {
            let e = run(&[
                "workload",
                &stream,
                "--out",
                &wl,
                "--queries",
                "10",
                "--intervals",
                bad,
            ])
            .unwrap_err();
            assert!(e.to_string().contains("--intervals"), "{bad}: {e}");
        }
    }

    /// `--horizon-keep` coarsens old windows into tiers; `--load-span`
    /// loads a horizon slice and flags the instance partial.
    #[test]
    fn snapshot_horizon_and_partial_load() {
        let stream = tmp("snap_horizon.txt");
        run(&[
            "generate",
            "smallworld",
            "--out",
            &stream,
            "--arrivals",
            "20000",
            "--vertices",
            "200",
        ])
        .unwrap();
        let snap = tmp("snap_horizon.wsnap.json");
        let _ = std::fs::remove_file(&snap);
        let built = run(&[
            "snapshot",
            &stream,
            "--out",
            &snap,
            "--window-span",
            "500",
            "--window-memory",
            "16K",
            "--horizon-keep",
            "3",
        ])
        .unwrap();
        assert!(built.contains("tier(s)"), "{built}");
        let q = run(&["query", "--snapshot", &snap, "0", "1"]).unwrap();
        assert!(q.contains("tier(s)"), "{q}");
        // Horizon-limited load: resident inside the span, flagged partial.
        let flat = tmp("snap_horizon.flat.json");
        let _ = std::fs::remove_file(&flat);
        run(&[
            "snapshot",
            &stream,
            "--out",
            &flat,
            "--window-span",
            "500",
            "--window-memory",
            "16K",
        ])
        .unwrap();
        let part = run(&[
            "query",
            "--snapshot",
            &flat,
            "0",
            "1",
            "--load-span",
            "0,900",
            "--t-start",
            "0",
            "--t-end",
            "900",
        ])
        .unwrap();
        assert!(part.contains("partial load"), "{part}");
        // And the bad spellings are named.
        let e = run(&["query", "--snapshot", &flat, "0", "1", "--load-span", "900"]).unwrap_err();
        assert!(e.to_string().contains("--load-span"), "{e}");
    }

    /// Pointing a command at the wrong snapshot format gives a redirect
    /// naming the kind found, not a parse error (the fall-through fix).
    #[test]
    fn snapshot_kind_errors_name_found_and_expected() {
        let stream = tmp("snap_kinds.txt");
        run(&[
            "generate",
            "erdos",
            "--out",
            &stream,
            "--arrivals",
            "5000",
            "--vertices",
            "100",
        ])
        .unwrap();
        let wsnap = tmp("snap_kinds.wsnap.json");
        let _ = std::fs::remove_file(&wsnap);
        run(&[
            "snapshot",
            &stream,
            "--out",
            &wsnap,
            "--window-span",
            "1000",
        ])
        .unwrap();
        let flat = tmp("snap_kinds.flat.json");
        run(&["build", &stream, "--memory", "16K", "--out", &flat]).unwrap();
        // Windowed file through the flat path: redirected to --snapshot.
        let e = run(&["query", &wsnap, "0", "1"]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("--snapshot"), "{msg}");
        assert!(msg.contains("gsketch-windowed:cm-arena"), "{msg}");
        // Flat file through the windowed path: named, with the fix.
        let e = run(&["query", "--snapshot", &flat, "0", "1"]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("not a windowed snapshot"), "{msg}");
        assert!(msg.contains("gsketch:cm-arena"), "{msg}");
        // Unknown kind in a flat envelope: found + expected + path.
        let bogus = tmp("snap_kinds.bogus.json");
        std::fs::write(
            &bogus,
            "{\"format_version\":2,\"kind\":\"gsketch:bogus\",\"sketch\":{}}",
        )
        .unwrap();
        let e = run(&["query", &bogus, "0", "1"]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("gsketch:bogus"), "{msg}");
        assert!(msg.contains("expected `gsketch:cm-arena`"), "{msg}");
        assert!(msg.contains("snap_kinds.bogus.json"), "{msg}");
        // Fresh snapshots carry exactly the arena kind tags.
        let flat_text = std::fs::read_to_string(&flat).unwrap();
        let wsnap_text = std::fs::read_to_string(&wsnap).unwrap();
        let tag = |kind: &str| format!("\"kind\":\"{kind}\"");
        assert!(flat_text.contains(&tag("gsketch:cm-arena")));
        assert!(wsnap_text
            .lines()
            .next()
            .unwrap()
            .contains(&tag("gsketch-windowed:cm-arena")));
        // Retired kinds: a real snapshot whose tag names a deleted
        // layout is refused by kind, naming the kind found and the file.
        for retired in ["gsketch:countmin", "gsketch:countsketch"] {
            let path = tmp(&format!("snap_kinds.{retired}.json"));
            let text = flat_text.replacen(&tag("gsketch:cm-arena"), &tag(retired), 1);
            std::fs::write(&path, text).unwrap();
            let e = run(&["query", &path, "0", "1"]).unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains(retired), "{msg}");
            assert!(msg.contains("expected `gsketch:cm-arena`"), "{msg}");
            assert!(msg.contains(&path), "{msg}");
        }
        let wcs = tmp("snap_kinds.wcs.json");
        let text = wsnap_text.replacen(
            &tag("gsketch-windowed:cm-arena"),
            &tag("gsketch-windowed:countsketch"),
            1,
        );
        std::fs::write(&wcs, text).unwrap();
        let e = run(&["query", "--snapshot", &wcs, "0", "1"]).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("gsketch-windowed:countsketch"), "{msg}");
        assert!(msg.contains("gsketch-windowed:cm-arena"), "{msg}");
        assert!(msg.contains(&wcs), "{msg}");
        // Snapshot-only flags are rejected outside --snapshot.
        let e = run(&["query", &flat, "0", "1", "--t-start", "5"]).unwrap_err();
        assert!(e.to_string().contains("--snapshot"), "{e}");
        let e = run(&[
            "query",
            "--snapshot",
            &wsnap,
            "0",
            "1",
            "--prefilter",
            "off",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("--prefilter"), "{e}");
        // Zero-span snapshots are rejected up front.
        let e = run(&["snapshot", &stream, "--out", &wsnap, "--window-span", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
    }
}
