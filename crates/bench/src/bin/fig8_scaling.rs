//! Reproduces **Figure 8** (§8.5): Tiptoe's analytic per-query cost
//! scaling to 1–10 billion documents — server computation, pre-query
//! (token) communication, and online (ranking + URL) communication —
//! with the paper's reference corpus sizes marked.
//!
//! The paper computes this figure analytically from its measured
//! 364M-document point; we do the same, calibrating the word-op
//! throughput from a measured ranking scan on this machine: one thread
//! over a synthetic `i8` matrix whose entries span the text quantizer's
//! signed range.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin fig8_scaling
//! ```

use rand::Rng;
use tiptoe_bench::measure::scan_ops_per_core_second;
use tiptoe_core::analysis::ScalingModel;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_math::matrix::Mat;
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::stats::fmt_bytes;

/// A synthetic ranking matrix of `rows × cols` entries drawn from the
/// text deployment's signed quantized range `[−2^b, 2^b]`.
fn text_rank_matrix(rows: usize, cols: usize) -> Mat<i8> {
    let bound = 1i8 << TiptoeConfig::text(1, 0).quant_bits;
    let mut rng = seeded_rng(1);
    Mat::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

fn main() {
    let ops = scan_ops_per_core_second(&text_rank_matrix(512, 8192));
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
