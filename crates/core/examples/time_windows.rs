//! Dynamic queries over time windows (paper §5): the timeline is divided
//! into intervals, each window gets its own partitioned sketch, and the
//! partitioning of every window is driven by a reservoir sample of the
//! previous one. Interval queries extrapolate across overlapping windows.
//!
//! Run with: `cargo run --release -p gsketch-core --example time_windows`

use gsketch::{GSketch, WindowConfig, WindowedGSketch};
use gstream::{Edge, StreamEdge};

fn main() {
    // Four "days" of traffic, 10_000 ticks each. Edge (1,2) is busy in
    // the mornings of every day; edge (3,4) only exists on day 3.
    let day = 10_000u64;
    let mut w = WindowedGSketch::new(
        WindowConfig {
            span: day,
            memory_bytes_per_window: 64 * 1024,
            sample_capacity: 2_000,
            seed: 11,
        },
        GSketch::builder().min_width(16),
    )
    .expect("valid configuration");

    for d in 0..4u64 {
        for t in 0..day {
            let ts = d * day + t;
            if t < day / 2 {
                w.try_insert(StreamEdge::unit(Edge::new(1u32, 2u32), ts))
                    .unwrap();
            }
            if d == 2 {
                w.try_insert(StreamEdge::unit(Edge::new(3u32, 4u32), ts))
                    .unwrap();
            }
            // Background chatter.
            w.try_insert(StreamEdge::unit(
                Edge::new((ts % 97) as u32 + 10, (ts % 89) as u32 + 200),
                ts,
            ))
            .unwrap();
        }
    }

    let busy = Edge::new(1u32, 2u32);
    let day3 = Edge::new(3u32, 4u32);

    println!("windows sealed: {}", w.sealed_windows());
    println!("\nedge (1,2) — true 5_000/day:");
    for d in 0..4u64 {
        println!(
            "  day {}: estimated {:.0}",
            d,
            w.estimate_interval(busy, d * day, (d + 1) * day - 1)
        );
    }
    println!(
        "  lifetime: estimated {:.0} (true 20_000)",
        w.estimate_lifetime(busy)
    );

    println!("\nedge (3,4) — exists only on day 2 (true 10_000 that day):");
    for d in 0..4u64 {
        println!(
            "  day {}: estimated {:.0}",
            d,
            w.estimate_interval(day3, d * day, (d + 1) * day - 1)
        );
    }

    // Partial-window extrapolation: half of day 0.
    println!(
        "\nedge (1,2) over the first half of day 0: estimated {:.0} (true 5_000; \
         extrapolation assumes uniform arrival within the window)",
        w.estimate_interval(busy, 0, day / 2 - 1)
    );
    println!("\ntotal memory across windows: {} bytes", w.bytes());
}
