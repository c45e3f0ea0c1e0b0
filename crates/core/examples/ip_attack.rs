//! Network-intrusion scenario (paper §1, application 2): estimate attack
//! frequencies between IP pairs on a sensor stream that mixes port
//! scanners, sustained attacks, and background noise. Also demonstrates
//! the outlier sketch: IPs never seen in the data sample still get
//! estimates.
//!
//! Run with: `cargo run --release -p gsketch-core --example ip_attack`

use gsketch::{evaluate_edge_queries, EdgeSink, GSketch, SketchId, DEFAULT_G0};
use gstream::gen::{ipattack, IpAttackConfig};
use gstream::workload::uniform_distinct_queries;
use gstream::ExactCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let stream = ipattack::generate(IpAttackConfig {
        hosts: 20_000,
        arrivals: 1_000_000,
        scanners: 20,
        attackers: 300,
        scan_subnet: 1_500,
        seed: 3,
        ..IpAttackConfig::default()
    });
    let truth = ExactCounter::from_stream(&stream);
    println!(
        "sensor feed: {} packets over {} distinct IP pairs",
        truth.arrivals(),
        truth.distinct_edges()
    );

    // The paper uses the first day of traffic as the data sample; we use
    // the same idea with a 12% prefix.
    let sample = &stream[..stream.len() * 12 / 100];
    let rate = sample.len() as f64 / stream.len() as f64;

    let memory = 512 * 1024;
    let mut gs = GSketch::builder()
        .memory_bytes(memory)
        .depth(1)
        .min_width(64)
        .sample_rate(rate)
        .build_from_sample_calibrated(sample, &stream)
        .expect("valid configuration");
    gs.ingest(&stream);
    let mut global = GSketch::global(memory, 1, 5).expect("valid configuration");
    global.ingest(&stream);

    let mut rng = StdRng::seed_from_u64(17);
    let queries = uniform_distinct_queries(&truth, 5_000, &mut rng);
    let a = evaluate_edge_queries(&gs, &queries, &truth, DEFAULT_G0);
    let b = evaluate_edge_queries(&global, &queries, &truth, DEFAULT_G0);
    println!(
        "\n'How many times did X attack Y?' over {} queries:",
        queries.len()
    );
    println!(
        "gSketch: avg rel err {:.2}, effective {}",
        a.avg_relative_error, a.effective_queries
    );
    println!(
        "Global : avg rel err {:.2}, effective {}",
        b.avg_relative_error, b.effective_queries
    );

    // Outlier behaviour: count queries served by the outlier sketch and
    // their separate accuracy (the §6.6 robustness check).
    let outlier_queries: Vec<_> = queries
        .iter()
        .copied()
        .filter(|q| matches!(gs.route(*q), SketchId::Outlier))
        .collect();
    let o = evaluate_edge_queries(&gs, &outlier_queries, &truth, DEFAULT_G0);
    println!(
        "\noutlier sketch served {} of {} queries at avg rel err {:.2} \
         (vs {:.2} overall) — unsampled IPs remain answerable",
        outlier_queries.len(),
        queries.len(),
        o.avg_relative_error,
        a.avg_relative_error
    );

    // The heaviest attack pair is estimated almost exactly.
    let (heavy, f) = truth.iter().max_by_key(|&(_, f)| f).expect("non-empty");
    println!(
        "\nheaviest attack pair {heavy}: true {f}, gSketch {}, Global {}",
        gs.estimate(heavy),
        global.estimate(heavy)
    );
}
