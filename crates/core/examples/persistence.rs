//! Persistence: snapshot a live gSketch to disk and restore it in a
//! "new process", with estimates and routing intact.
//!
//! Run with: `cargo run --release -p gsketch-core --example persistence`

use gsketch::{load_gsketch, save_gsketch, EdgeSink, GSketch};
use gstream::gen::{SmallWorldConfig, SmallWorldGenerator};
use gstream::sample::sample_iter;
use gstream::Edge;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Day 1: build from a sample, ingest the morning's traffic.
    let stream: Vec<_> =
        SmallWorldGenerator::new(SmallWorldConfig::new(2_000, 200_000, 3)).collect();
    let mut rng = StdRng::seed_from_u64(42);
    let sample = sample_iter(stream.iter().copied(), 10_000, &mut rng);
    let mut sketch = GSketch::builder()
        .memory_bytes(128 * 1024)
        .min_width(64)
        .sample_rate(10_000.0 / stream.len() as f64)
        .build_from_sample(&sample)
        .expect("valid configuration");
    let midpoint = stream.len() / 2;
    sketch.ingest(&stream[..midpoint]);

    // Snapshot at the shift change.
    let path = std::env::temp_dir().join("gsketch_example_snapshot.json");
    save_gsketch(&path, &sketch).expect("snapshot written");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot exists").len();
    println!(
        "snapshotted {} partitions / {} counter bytes into {} bytes of JSON",
        sketch.num_partitions(),
        sketch.bytes(),
        snapshot_bytes,
    );

    // Day 2 (a different process, in spirit): restore and keep ingesting.
    let mut restored = load_gsketch(&path).expect("snapshot read");
    restored.ingest(&stream[midpoint..]);
    sketch.ingest(&stream[midpoint..]); // reference: the never-stopped sketch

    // The restored sketch is indistinguishable from one that never stopped.
    let mut checked = 0;
    for se in stream.iter().step_by(997) {
        assert_eq!(restored.estimate(se.edge), sketch.estimate(se.edge));
        assert_eq!(restored.route(se.edge), sketch.route(se.edge));
        checked += 1;
    }
    println!("restored sketch matches the uninterrupted one on {checked} probes");

    let probe = Edge::new(0u32, 1u32);
    println!(
        "probe {probe}: estimate {} via {:?}",
        restored.estimate(probe),
        restored.route(probe),
    );
    std::fs::remove_file(&path).ok();
}
