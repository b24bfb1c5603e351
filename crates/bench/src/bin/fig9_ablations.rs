//! Reproduces **Figure 9** (§8.6): the impact of Tiptoe's
//! optimizations ➊–➏ on search quality (measured MRR@100 on the
//! synthetic benchmark) versus per-query communication and server
//! computation (analytic at C4 scale, exactly as the paper reports
//! "expected performance for Tiptoe without some optimizations").
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin fig9_ablations [docs] [queries]
//! ```

use tiptoe_bench::{evaluate_variant, fmt_mrr, AblationFlags, VariantConfig};
use tiptoe_core::analysis::{CoeusModel, ScalingModel, C4_DOCS, URL_BYTES};
use tiptoe_core::config::TiptoeConfig;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_math::stats::fmt_bytes;

/// Analytic per-query cost of a variant at C4 scale.
///
/// Constants follow the paper's accounting:
/// - Without clustering (➊), the client downloads one 8-byte score per
///   document ("communication similar to that of Coeus's query
///   scoring") and retrieves the top-100 URLs with a SEAL-PIR-like
///   scheme whose per-retrieval compute is ~50 (heavier ring ops)
///   times the SimplePIR byte-scan.
/// - With clustering (➋+), costs follow [`ScalingModel`] of the text
///   deployment with the variant's dimension and dual assignment.
/// - Without the chunk restriction (➋), the client runs 100 separate
///   SimplePIR URL retrievals instead of 1 ("the client must run
///   SimplePIR to individually retrieve each of the 100 URLs").
/// - Without dual assignment (➎ off), each cluster holds its own
///   documents only.
/// - Without PCA (➏ off), d = 768 instead of 192: ~2× total cost in
///   the paper (bandwidth and computation "by roughly 2×").
fn variant_cost(flags: AblationFlags, ops_per_core_second: f64) -> (u64, f64) {
    let n = C4_DOCS;
    let mut config = TiptoeConfig::text(n as usize, 0);
    if !flags.pca {
        config.d_reduced = config.d_embed;
    }
    if !flags.dual_assign {
        config.cluster.dual_assign_frac = 0.0;
    }
    let url_retrievals = if flags.chunk_restrict { 1u64 } else { 100 };
    if !flags.clustering {
        // ➊: every score travels; URL fetches use an expensive
        // FHE-composed PIR (SEAL-PIR-like, per the Figure 9 caption).
        let comm = n * 8 + url_retrievals * (512 << 10);
        let ranking_ops = 2.0 * n as f64 * config.d_reduced as f64;
        let url_ops = url_retrievals as f64 * (URL_BYTES * n) as f64 * 50.0;
        return (comm, (ranking_ops + url_ops) / ops_per_core_second);
    }
    let model = ScalingModel::new(&config, ops_per_core_second);
    let b = model.shape(n).query_bytes();
    let comm = b.total_bytes() + (url_retrievals - 1) * (b.url_up + b.url_down);
    let [rank, url, token] = model.core_seconds(n);
    (comm, rank + url_retrievals as f64 * url + token)
}

fn main() {
    let docs: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4000);
    let queries: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(300);
    println!("== Figure 9: impact of optimizations ({docs} docs, {queries} queries) ==\n");

    let corpus = generate(&CorpusConfig::small(docs, 99), queries);
    let embedder = TextEmbedder::paper_text(99);
    let vconf = VariantConfig { d_reduced: 192, ..Default::default() };
    let ops = 2e9;

    println!(
        "{:<30} {:>8} {:>12} {:>14} {:>10} {:>8}",
        "variant", "MRR@100", "comm @C4", "compute @C4", "clu-hit", "d"
    );
    let mut rows = Vec::new();
    for (name, flags) in AblationFlags::figure9_sequence() {
        let outcome = evaluate_variant(&corpus, &embedder, flags, &vconf);
        let (comm, core_s) = variant_cost(flags, ops);
        println!(
            "{:<30} {:>8} {:>12} {:>11.0} cs {:>9.1}% {:>8}",
            name,
            fmt_mrr(outcome.report.mrr),
            fmt_bytes(comm),
            core_s,
            100.0 * outcome.cluster_hit_rate,
            outcome.d_active,
        );
        rows.push((name, outcome, comm, core_s));
    }

    println!("\nCoeus reference point: {} comm, {:.0} core-s at C4 scale",
        fmt_bytes(CoeusModel::comm_bytes(C4_DOCS)),
        CoeusModel::core_seconds(C4_DOCS));

    println!("\n-- paper-shape checks --");
    let mrr = |i: usize| rows[i].1.report.mrr;
    let comm = |i: usize| rows[i].2;
    let compute = |i: usize| rows[i].3;
    let checks: [(&str, bool); 6] = [
        ("clustering shrinks communication >= 10x (paper: 20x)", comm(0) / comm(1) >= 10),
        ("clustering costs quality (paper: -0.2 MRR)", mrr(1) < mrr(0)),
        ("chunk restriction cheapens URL step, costs some MRR",
            comm(2) < comm(1) && mrr(2) <= mrr(1) + 1e-9),
        ("semantic batches recover MRR at no cost (paper: +0.04)",
            mrr(3) >= mrr(2) - 0.005 && comm(3) == comm(2)),
        // The paper's ➎ effect is +0.015 MRR — inside measurement noise
        // at this corpus scale; assert the change is marginal and the
        // cluster-hit bound does not degrade.
        ("dual assignment is cost-bounded and ~quality-neutral (paper: +0.015)",
            (mrr(4) - mrr(3)).abs() <= 0.02
                && rows[4].1.cluster_hit_rate >= rows[3].1.cluster_hit_rate - 1e-9),
        ("PCA halves cost (paper: ~2x) at small MRR loss (paper: -0.02)",
            compute(5) < compute(4) * 0.6 && mrr(5) >= mrr(4) - 0.1),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    println!(
        "\nOverall: optimizations cut communication {:.0}x and compute {:.0}x\n\
         (paper: two orders / one order of magnitude) for an MRR drop of {:.3}\n\
         (paper: 0.2).",
        comm(0) as f64 / comm(5) as f64,
        compute(0) / compute(5),
        mrr(0) - mrr(5),
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}
