//! Time-window experiment: the paper's §5 coarse interval scheme
//! (per-window gSketches seeded by reservoir hand-off, `WindowedGSketch`),
//! reporting the per-interval edge-query error against exact counts.

use gsketch::{GSketch, WindowConfig, WindowedGSketch};
use gsketch_bench::harness::EXPERIMENT_SEED;
use gsketch_bench::*;
use gstream::ExactCounter;

fn main() {
    let bundle = load(Dataset::IpAttack);
    let stream = &bundle.stream;
    let horizon = stream.last().map(|se| se.ts + 1).unwrap_or(1);
    let n_windows = 8u64;
    let span = horizon.div_ceil(n_windows);
    let per_window_bytes = 256 << 10;

    // Paper scheme: one partitioned sketch per sealed window.
    let mut windowed = WindowedGSketch::new(
        WindowConfig {
            span,
            memory_bytes_per_window: per_window_bytes,
            sample_capacity: 20_000,
            seed: EXPERIMENT_SEED,
        },
        GSketch::builder().min_width(64).depth(1),
    )
    .expect("valid window config");
    for se in stream {
        windowed.try_insert(*se).expect("in-order stream");
    }

    // Query: per-edge frequency inside each aligned interval.
    let mut t = Table::new(
        "Window — per-interval edge-query avg rel err: windowed gSketch (IP Attack)",
        &["interval", "windowed gSketch", "interval arrivals"],
    );
    let mut rng_seed = EXPERIMENT_SEED;
    for w in 0..n_windows {
        let (t0, t1) = (w * span, ((w + 1) * span).min(horizon));
        let lo = stream.partition_point(|se| se.ts < t0);
        let hi = stream.partition_point(|se| se.ts < t1);
        let slice = &stream[lo..hi];
        if slice.is_empty() {
            continue;
        }
        let truth = ExactCounter::from_stream(slice);
        // Sample up to 2 000 distinct edges of this interval as queries.
        rng_seed = rng_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut queries: Vec<_> = truth.iter().map(|(e, _)| e).collect();
        queries.sort_unstable();
        let step = (queries.len() / 2_000).max(1);
        let queries: Vec<_> = queries.into_iter().step_by(step).collect();

        let mut err_w = 0.0f64;
        for &q in &queries {
            let f = truth.frequency(q) as f64;
            err_w += (windowed.estimate_interval(q, t0, t1) - f).abs() / f;
        }
        let n = queries.len() as f64;
        t.row(vec![
            format!("[{t0}, {t1})"),
            fmt_f(err_w / n),
            slice.len().to_string(),
        ]);
    }
    t.print();
}
