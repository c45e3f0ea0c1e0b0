//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. width allocation: probe-calibrated (∝ distinct edges) vs the
//!    paper's literal equal-split tree (with/without redistribution of
//!    Theorem-1 savings) vs the closed-form √(F̃·A) optimum on sample
//!    statistics alone;
//! 2. sketch depth d ∈ {1, 3, 5} for both systems (the min-over-rows
//!    operator compresses both systems' errors and their gap);
//! 3. sample-rate extrapolation of vertex statistics on/off;
//! 4. classic vs conservative update on a one-slot arena at d = 3, the
//!    adaptive deployment's warm-up synopsis (at d = 1 the two policies
//!    coincide, so the comparison needs more than one row).

use gsketch::{evaluate_edge_queries, EdgeSink, GSketch, WidthAllocation, DEFAULT_G0};
use gsketch_bench::harness::{calibration_probe, EXPERIMENT_MIN_WIDTH};
use gsketch_bench::*;
use sketch::CmArena;

fn main() {
    let ds = Dataset::Dblp;
    let bundle = load(ds);
    let sets = make_query_sets(&bundle, Scenario::DataOnly, EXPERIMENT_SEED);
    let sample = ds.data_sample(&bundle.stream, EXPERIMENT_SEED);
    let rate = sample.len() as f64 / bundle.stream.len() as f64;
    let probe = calibration_probe(&bundle.stream);
    let mem = 512 << 10;

    let base = || {
        GSketch::builder()
            .memory_bytes(mem)
            .depth(1)
            .min_width(EXPERIMENT_MIN_WIDTH)
            .sample_rate(rate)
            .seed(EXPERIMENT_SEED)
    };
    let eval = |gs: &GSketch| {
        evaluate_edge_queries(gs, &sets.edges, &bundle.truth, DEFAULT_G0).avg_relative_error
    };

    // --- 1. width allocation policies.
    let mut t = Table::new(
        format!(
            "Ablation 1 — width allocation (DBLP, {}, d=1)",
            fmt_bytes(mem)
        ),
        &["policy", "avg rel err", "partitions"],
    );
    {
        let mut gs = base()
            .build_from_sample_calibrated(&sample, &probe)
            .unwrap();
        gs.ingest(&bundle.stream);
        t.row(vec![
            "probe-calibrated (default)".into(),
            fmt_f(eval(&gs)),
            gs.num_partitions().to_string(),
        ]);
        let mut gs = base().build_from_sample(&sample).unwrap();
        gs.ingest(&bundle.stream);
        t.row(vec![
            "sample-only sqrt(F*A) optimum".into(),
            fmt_f(eval(&gs)),
            gs.num_partitions().to_string(),
        ]);
        let mut gs = base()
            .allocation(WidthAllocation::EqualSplit)
            .build_from_sample(&sample)
            .unwrap();
        gs.ingest(&bundle.stream);
        t.row(vec![
            "paper equal-split + redistribution".into(),
            fmt_f(eval(&gs)),
            gs.num_partitions().to_string(),
        ]);
        let mut gs = base()
            .allocation(WidthAllocation::EqualSplit)
            .redistribute(false)
            .build_from_sample(&sample)
            .unwrap();
        gs.ingest(&bundle.stream);
        t.row(vec![
            "paper equal-split, no redistribution".into(),
            fmt_f(eval(&gs)),
            gs.num_partitions().to_string(),
        ]);
    }
    t.print();

    // --- 2. depth sensitivity for both systems.
    let mut t = Table::new(
        format!("Ablation 2 — sketch depth d (DBLP, {})", fmt_bytes(mem)),
        &["depth", "Global Sketch", "gSketch", "gain"],
    );
    for depth in [1usize, 3, 5] {
        let mut gs = base()
            .depth(depth)
            .build_from_sample_calibrated(&sample, &probe)
            .unwrap();
        gs.ingest(&bundle.stream);
        let mut gl = GSketch::global(mem, depth, EXPERIMENT_SEED).unwrap();
        gl.ingest(&bundle.stream);
        let ge = eval(&gs);
        let le =
            evaluate_edge_queries(&gl, &sets.edges, &bundle.truth, DEFAULT_G0).avg_relative_error;
        t.row(vec![
            depth.to_string(),
            fmt_f(le),
            fmt_f(ge),
            format!("{:.2}x", le / ge.max(1e-9)),
        ]);
    }
    t.print();

    // --- 3. sample-rate extrapolation.
    let mut t = Table::new(
        format!(
            "Ablation 3 — vertex-statistics extrapolation (DBLP, {}, d=1)",
            fmt_bytes(mem)
        ),
        &["extrapolation", "avg rel err", "partitions"],
    );
    for (label, r) in [("1/rate (default)", rate), ("off (paper literal)", 1.0)] {
        let mut gs = GSketch::builder()
            .memory_bytes(mem)
            .depth(1)
            .min_width(EXPERIMENT_MIN_WIDTH)
            .sample_rate(r)
            .seed(EXPERIMENT_SEED)
            .build_from_sample_calibrated(&sample, &probe)
            .unwrap();
        gs.ingest(&bundle.stream);
        t.row(vec![
            label.into(),
            fmt_f(eval(&gs)),
            gs.num_partitions().to_string(),
        ]);
    }
    t.print();

    // --- 4. update policy on the warm-up synopsis: a one-slot arena at
    // the builder's and the adaptive config's default depth.
    let mut t = Table::new(
        "Ablation 4 — update policy on a one-slot arena over the raw edge stream (width 8192, d=3)",
        &["policy", "avg rel err"],
    );
    for (label, conservative) in [("classic", false), ("conservative", true)] {
        let mut cm = CmArena::new(8192, 3, EXPERIMENT_SEED).unwrap();
        for se in &bundle.stream {
            if conservative {
                cm.update_slot_conservative(0, se.edge.key(), se.weight);
            } else {
                cm.update_slot(0, se.edge.key(), se.weight);
            }
        }
        let mut sum = 0.0;
        for &q in &sets.edges {
            let tru = bundle.truth.frequency(q) as f64;
            sum += cm.estimate_slot(0, q.key()) as f64 / tru - 1.0;
        }
        t.row(vec![label.into(), fmt_f(sum / sets.edges.len() as f64)]);
    }
    t.print();

    // --- 5. structure presence: the §3.3 premise tested directly.
    // gSketch's gain should track the stream's structural properties:
    // none on a uniform stream, large when per-source frequencies are
    // homogeneous and cross-source activity is skewed.
    structure_ablation();
}

/// Gain vs structure: uniform (no skew, no similarity), raw R-MAT
/// (product-form frequencies: skew without local similarity), and the
/// traffic model (both properties).
fn structure_ablation() {
    use gstream::gen::{
        ErdosRenyiConfig, ErdosRenyiGenerator, RmatConfig, RmatGenerator, RmatTrafficConfig,
        RmatTrafficGenerator,
    };
    use gstream::workload::uniform_distinct_queries;
    use gstream::{ExactCounter, VarianceStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let scale = experiment_scale();
    let arrivals = ((2_000_000.0 * scale) as usize).max(10_000);
    let mem = 256 << 10;
    let streams: Vec<(&str, Vec<gstream::StreamEdge>)> = vec![
        (
            "uniform (no structure)",
            ErdosRenyiGenerator::new(ErdosRenyiConfig::new(4_096, arrivals, 7)).generate(),
        ),
        (
            "raw R-MAT (skew, no local similarity)",
            RmatGenerator::new(RmatConfig::gtgraph(12, arrivals, 7)).generate(),
        ),
        ("R-MAT traffic (skew + local similarity)", {
            let mut cfg = RmatTrafficConfig::gtgraph(12, arrivals / 4, arrivals, 7);
            cfg.activity_alpha = 1.2;
            RmatTrafficGenerator::new(cfg).generate()
        }),
    ];

    let mut t = Table::new(
        format!(
            "Ablation 5 — gain vs stream structure ({} arrivals, {}, d=1)",
            arrivals,
            fmt_bytes(mem)
        ),
        &["stream", "variance ratio", "Global", "gSketch", "gain"],
    );
    for (label, stream) in &streams {
        let truth = ExactCounter::from_stream(stream);
        let ratio = VarianceStats::from_counts(&truth).ratio();
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
        let sample =
            gstream::sample::sample_iter(stream.iter().copied(), stream.len() / 20, &mut rng);
        let queries = uniform_distinct_queries(&truth, 10_000, &mut rng);
        let mut gs = GSketch::builder()
            .memory_bytes(mem)
            .depth(1)
            .min_width(EXPERIMENT_MIN_WIDTH)
            .sample_rate(0.05)
            .seed(EXPERIMENT_SEED)
            .build_from_sample(&sample)
            .unwrap();
        gs.ingest(stream);
        let mut gl = GSketch::global(mem, 1, EXPERIMENT_SEED).unwrap();
        gl.ingest(stream);
        let a = evaluate_edge_queries(&gs, &queries, &truth, DEFAULT_G0).avg_relative_error;
        let b = evaluate_edge_queries(&gl, &queries, &truth, DEFAULT_G0).avg_relative_error;
        t.row(vec![
            (*label).into(),
            fmt_f(ratio),
            fmt_f(b),
            fmt_f(a),
            format!("{:.2}x", b / a.max(1e-9)),
        ]);
    }
    t.print();
}
