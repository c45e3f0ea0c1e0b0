//! `perfbench`: the end-to-end benchmark of the gSketch workspace.
//!
//! ```text
//! perfbench --workload <bulk-s1|live-s2|windowed-restart> --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, checks their
//! fingerprint, then repeats the workload's job — one caller on one
//! thread, each library call starting when the previous one returned —
//! for `S` seconds, checking every answer. Prints every metric by name
//! with its unit, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics (medians over repetitions); `--trace 1`
//! alternates traced and untraced repetitions and reports per-layer
//! metrics from the spans, the stage-sum remainder, the tracing
//! overhead and a kernel pass. See README.md.

mod host;
mod inputs;
mod jobs;
mod kernels;
mod trace;

use inputs::{Inputs, Workload};
use jobs::{Checks, Ctx, Rep, STAGES};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <bulk-s1|live-s2|windowed-restart> --seed N \
                     --seconds S --trace 0|1 [--scale F] [--print-fingerprint]";

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_arrivals_per_s", "1/s"),
    ("query_per_s", "1/s"),
    ("job_s", "s"),
    ("are", "ratio"),
    ("effective_query_frac", "frac"),
    ("synopsis_bytes", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json. A layer
/// the workload does not enter reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("gstream.sample.s", "s"),
    ("core.vstats.s", "s"),
    ("core.vstats.vertices", "count"),
    ("core.partition.s", "s"),
    ("core.partition.leaves", "count"),
    ("core.partition.outlier_traffic_frac", "frac"),
    ("core.concurrent.s", "s"),
    ("core.pipeline.s", "s"),
    ("core.pipeline.chunks", "count"),
    ("core.pipeline.ns_per_arrival", "ns"),
    ("core.gsketch.ingest_batch.s", "s"),
    ("core.gsketch.ingest_batch.calls", "count"),
    ("core.gsketch.ns_per_arrival", "ns"),
    ("core.query.estimate_edges.s", "s"),
    ("core.query.ns_per_query", "ns"),
    ("core.replay.s", "s"),
    ("core.replay.hits", "count"),
    ("core.replay.misses", "count"),
    ("core.replay.invalidations", "count"),
    ("core.replay.hit_rate", "frac"),
    ("core.replay.interval.hits", "count"),
    ("core.replay.interval.misses", "count"),
    ("core.replay.interval.invalidations", "count"),
    ("core.replay.interval.hit_rate", "frac"),
    ("core.window.ingest.s", "s"),
    ("core.window.sealed", "count"),
    ("core.window.tiers", "count"),
    ("core.window.interval.s", "s"),
    ("core.window.distinct_intervals", "count"),
    ("core.persist.load.s", "s"),
    ("core.persist.save.s", "s"),
    ("core.persist.bytes_written", "B"),
    ("core.persist.file_bytes", "B"),
    ("core.persist.file_per_synopsis_byte", "ratio"),
    ("sketch.blocked_bloom.bytes", "B"),
    ("sketch.blocked_bloom.absent_zero_frac", "frac"),
    ("sketch.arena.add_batch.ns_per_key", "ns"),
    ("sketch.arena.estimate_batch.ns_per_key", "ns"),
    ("sketch.blocked_bloom.contains_batch.ns_per_key", "ns"),
    ("sketch.slab.decode.bytes_per_s", "B/s"),
    ("stage.setup.s", "s"),
    ("stage.ingest.s", "s"),
    ("stage.checkpoint.s", "s"),
    ("stage.query.s", "s"),
    ("job.traced_s", "s"),
    ("job.untraced_s", "s"),
    ("job.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Untraced (and, with `--trace 1`, traced) repetitions every run makes
/// at least, after one warm-up repetition.
const MIN_REPS: usize = 3;
/// Stage spans must sum to the job span within this share of it.
const STAGE_SUM_TOLERANCE: f64 = 0.02;
/// Fingerprint every run checks, whatever its seed: the inputs at this
/// scale and seed.
const REFERENCE: (f64, u64) = (0.01, 1);
/// Recorded input fingerprints: `<workload> <scale> <seed> <hex>`.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");
/// Scratch files (snapshots, span dumps), relative to the working
/// directory.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    print_fingerprint: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut scale, mut print_fingerprint) = (1.0, false);
        while let Some(flag) = it.next() {
            if flag == "--print-fingerprint" {
                print_fingerprint = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
                "--scale" => scale = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(scale > 0.0 && scale <= 1.0) {
            return Err("--scale must be in (0, 1]".to_owned());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            scale,
            print_fingerprint,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn recorded_fingerprint(w: Workload, scale: f64, seed: u64) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [name, s, n, hex]
                if name == w.name() && s == scale.to_string() && n == seed.to_string() =>
            {
                u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
            }
            _ => None,
        }
    })
}

/// Fail when the generators or samplers no longer produce the recorded
/// inputs: always for the reference scale and seed, and for this run's
/// scale and seed when they are recorded.
fn check_fingerprints(args: &Args, inputs: &Inputs) -> Result<u64, String> {
    let (ref_scale, ref_seed) = REFERENCE;
    let expected = recorded_fingerprint(args.workload, ref_scale, ref_seed)
        .ok_or("no reference fingerprint recorded")?;
    let actual = Inputs::generate(args.workload, ref_scale, ref_seed).fingerprint();
    if actual != expected {
        return Err(format!(
            "input fingerprint changed at the reference scale {ref_scale} seed {ref_seed}: \
             {actual:#018x}, recorded {expected:#018x}; the stream generator, samplers or query \
             generators no longer produce the benchmark's inputs"
        ));
    }
    let fp = inputs.fingerprint();
    match recorded_fingerprint(args.workload, args.scale, args.seed) {
        Some(rec) if rec != fp => Err(format!(
            "input fingerprint changed for seed {}: {fp:#018x}, recorded {rec:#018x}",
            args.seed
        )),
        _ => Ok(fp),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.scale, args.seed);
    if args.print_fingerprint {
        println!(
            "{} {} {} {:#018x}",
            w.name(),
            args.scale,
            args.seed,
            inputs.fingerprint()
        );
        return Ok(());
    }
    let fp = check_fingerprints(args, &inputs)?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    println!("# host {}", host::fingerprint());
    println!(
        "# inputs fingerprint={fp:#018x} arrivals={} queries={}",
        inputs.stream.len(),
        inputs.queries()
    );

    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let base_snapshot = match w {
        Workload::WindowedRestart => Some(jobs::prepare_windowed(&inputs, work)?),
        _ => None,
    };
    let tracer = Tracer::new();
    let ctx = Ctx {
        inputs: &inputs,
        tracer: &tracer,
        work,
        base_snapshot,
    };
    let result = measure(args, &ctx);
    if let Some(base) = &ctx.base_snapshot {
        std::fs::remove_file(base).ok();
    }
    let (checks, metrics) = result?;
    if !tracer.is_empty() {
        let path = work.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }

    let units: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut checks = checks;
    let mut json = Vec::new();
    for (name, unit) in units {
        let mut value = metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            checks.check(false);
            value = 0.0;
        }
        println!("metric {name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json.join(", ")
    );
    Ok(())
}

/// Repeat the job for the run's seconds and turn the repetitions into
/// metrics.
fn measure(args: &Args, ctx: &Ctx) -> Result<(Checks, BTreeMap<&'static str, f64>), String> {
    let mut checks = Checks::default();
    let absorb = |rep: &Rep, checks: &mut Checks| {
        checks.attempted += rep.checks.attempted;
        checks.failed += rep.checks.failed;
    };
    // One warm-up repetition: checked, not timed.
    let mut answers = jobs::Answers::default();
    let warm = jobs::run(ctx, &mut answers)?;
    absorb(&warm, &mut checks);

    let (mut plain, mut traced): (Vec<Rep>, Vec<(u32, Rep)>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut run_id = 1u32;
    let mut kernel = None;
    while plain.len() < MIN_REPS
        || (args.trace && traced.len() < MIN_REPS)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let on = args.trace && run_id.is_multiple_of(2);
        ctx.tracer.set(on, run_id);
        let rep = jobs::run(ctx, &mut answers);
        ctx.tracer.set(false, run_id);
        // A library error fails the run's remaining repetitions.
        let mut rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: {e}");
                checks.check(false);
                break;
            }
        };
        absorb(&rep, &mut checks);
        // Keep only the latest kernel input: each holds every query key.
        if rep.kernel.is_some() {
            kernel = rep.kernel.take();
        }
        if on {
            traced.push((run_id, rep));
        } else {
            plain.push(rep);
        }
        run_id += 1;
    }
    if plain.is_empty() {
        return Err("no repetition completed".to_owned());
    }
    // Accuracy and sizes are fixed by the seed: every repetition agrees.
    for rep in plain.iter().chain(traced.iter().map(|(_, r)| r)) {
        checks.check(
            rep.are.to_bits() == warm.are.to_bits()
                && rep.effective_frac.to_bits() == warm.effective_frac.to_bits()
                && rep.synopsis_bytes == warm.synopsis_bytes,
        );
    }

    let inp = ctx.inputs;
    let arrivals = match inp.workload {
        Workload::WindowedRestart => inp.stream.len() - inp.stream.len() / 2,
        _ => inp.stream.len(),
    } as f64;
    let queries = inp.queries() as f64;
    let med = |f: fn(&Rep) -> f64| median(plain.iter().map(f).collect());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", med(|r| r.times.setup));
    m.insert("ingest_arrivals_per_s", arrivals / med(|r| r.times.ingest));
    m.insert("query_per_s", queries / med(|r| r.times.query));
    m.insert("job_s", med(|r| r.times.job));
    m.insert("are", warm.are);
    m.insert("effective_query_frac", warm.effective_frac);
    m.insert("synopsis_bytes", warm.synopsis_bytes as f64);
    m.insert("peak_rss_mib", host::peak_rss_mib());
    eprintln!(
        "perfbench: {} untraced and {} traced repetitions in {:.1} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    if !args.trace {
        return Ok((checks, m));
    }

    // Per-layer metrics: medians over the traced repetitions.
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (run_id, rep) in &traced {
        let tr = ctx.tracer;
        let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, self_s) in tr.self_times(*run_id) {
            if name != "job" && !name.starts_with("stage.") {
                let shared = if name == "core.partition" {
                    rep.vstats_in_partition_s
                } else {
                    0.0
                };
                layer.insert(metric_name(name), self_s - shared);
            }
        }
        let job = tr.total(*run_id, "job");
        let stages: f64 = STAGES.iter().map(|s| tr.total(*run_id, s)).sum();
        for s in STAGES {
            layer.insert(metric_name(s), tr.total(*run_id, s));
        }
        let unattributed = job - stages;
        checks.check(unattributed.abs() <= STAGE_SUM_TOLERANCE * job);
        layer.insert("job.unattributed_s", unattributed);
        layer.insert("job.traced_s", job);
        let get = |l: &BTreeMap<&str, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
        layer.insert(
            "core.pipeline.ns_per_arrival",
            get(&layer, "core.pipeline.s") * 1e9 / arrivals,
        );
        layer.insert(
            "core.gsketch.ns_per_arrival",
            get(&layer, "core.gsketch.ingest_batch.s") * 1e9 / arrivals,
        );
        layer.insert(
            "core.query.ns_per_query",
            get(&layer, "core.query.estimate_edges.s") * 1e9 / queries,
        );
        layer.extend(rep.counters.iter().map(|(k, v)| (*k, *v)));
        for (k, v) in layer {
            per_rep.entry(k).or_default().push(v);
        }
    }
    m = per_rep.into_iter().map(|(k, v)| (k, median(v))).collect();
    let untraced_job = median(plain.iter().map(|r| r.times.job).collect());
    m.insert("job.untraced_s", untraced_job);
    m.insert("trace.overhead_s", m["job.traced_s"] - untraced_job);

    let kernel = kernel.ok_or("no traced repetition")?;
    let kernel_run = u32::MAX;
    ctx.tracer.set(true, kernel_run);
    let kernels = kernels::run(&kernel, inp.seed, ctx.tracer);
    ctx.tracer.set(false, kernel_run);
    m.extend(kernels?);
    m.insert("trace.spans", ctx.tracer.len() as f64);
    Ok((checks, m))
}

/// The metric a span's self time is reported under: `<span>.s`.
fn metric_name(span: &'static str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(m, _)| m.strip_suffix(".s") == Some(span))
        .map_or(span, |(m, _)| m)
}
