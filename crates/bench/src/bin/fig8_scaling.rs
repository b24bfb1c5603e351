//! Reproduces **Figure 8** (§8.5): Tiptoe's analytic per-query cost
//! scaling to 1–10 billion documents — server computation, pre-query
//! (token) communication, and online (ranking + URL) communication —
//! with the paper's reference corpus sizes marked.
//!
//! The paper computes this figure analytically from its measured
//! 364M-document point; we do the same, calibrating the word-op
//! throughput from a measured matrix-vector product on this machine.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin fig8_scaling
//! ```

use std::time::Instant;

use rand::Rng;
use tiptoe_core::analysis::ScalingModel;
use tiptoe_math::matrix::{scan, Mat};
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::stats::fmt_bytes;

/// Measures this machine's 64-bit MAC throughput on the SimplePIR
/// apply kernel (the number the paper's r5 instances deliver from DRAM
/// bandwidth).
fn calibrate_ops_per_second() -> f64 {
    let mut rng = seeded_rng(1);
    let (rows, cols) = (512usize, 8192usize);
    let db = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..16u32));
    let v: Vec<u64> = (0..cols).map(|_| rng.gen()).collect();
    // Warm up, then measure.
    let _ = scan(&db, &[&v], 1);
    let reps = 8;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(scan(&db, &[std::hint::black_box(&v)], 1));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    (2.0 * (rows * cols * reps) as f64) / elapsed
}

fn main() {
    let ops = calibrate_ops_per_second();
    println!("calibrated MAC throughput: {:.2e} word-ops/core-s\n", ops);
    let mut model = ScalingModel::text();
    model.ops_per_core_second = ops;
    let core_seconds = |n| model.core_seconds(n).iter().sum::<f64>();
    let total_bytes = |n| model.shape(n).query_bytes().total_bytes();

    println!("== Figure 8: analytic Tiptoe per-query cost vs corpus size (text) ==");
    println!(
        "{:>14} {:>14} {:>14} {:>16} {:>14}",
        "docs", "compute", "comm(token)", "comm(rank+URL)", "total comm"
    );
    let mut marks: Vec<(u64, &str)> = vec![
        (364_000_000, "<- C4 crawl (measured point in the paper)"),
        (3_000_000_000, "<- Library of Congress web archive"),
        (8_000_000_000, "<- Google Knowledge Graph entities"),
        (10_000_000_000, ""),
    ];
    for i in 1..=10u64 {
        marks.push((i * 1_000_000_000, ""));
    }
    marks.sort_unstable_by_key(|(n, _)| *n);
    marks.dedup_by_key(|(n, _)| *n);
    for (n, label) in marks {
        println!(
            "{:>14} {:>12.0} s {:>14} {:>16} {:>14} {}",
            n,
            core_seconds(n),
            fmt_bytes(model.shape(n).query_bytes().offline_bytes()),
            fmt_bytes(model.shape(n).query_bytes().online_bytes()),
            fmt_bytes(total_bytes(n)),
            label
        );
    }
    println!("\npaper reference: at 8 billion docs ≈ 1 900 core-s and ≈ 140 MiB total.");
    let n8 = 8_000_000_000u64;
    println!(
        "ours at 8 billion docs: {:.0} core-s and {} total.",
        core_seconds(n8),
        fmt_bytes(total_bytes(n8))
    );
    println!("\nShapes: compute grows linearly in N; communication ~ sqrt(N).");
    let r_compute = core_seconds(10_000_000_000) / core_seconds(1_000_000_000);
    let r_comm = total_bytes(10_000_000_000) as f64 / total_bytes(1_000_000_000) as f64;
    println!("10x docs -> {r_compute:.1}x compute, {r_comm:.1}x communication");
}
