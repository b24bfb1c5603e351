//! Reproduces **Table 7** (§8.4): the full Tiptoe cost breakdown —
//! index preprocessing, client downloads, per-phase communication,
//! client preprocessing time, per-phase latency, and throughput.
//!
//! Measured with production cryptographic parameters at a scaled-down
//! corpus; each block prints the paper's 364M-document reference value
//! alongside.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin table7_breakdown [docs]
//! ```

use tiptoe_bench::measure::{image_deployment, measure, text_deployment};
use tiptoe_math::stats::{fmt_bytes, fmt_seconds};
use tiptoe_net::LinkModel;

fn main() {
    tiptoe_obs::init_from_env();
    let docs: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4096);
    println!("== Table 7: Tiptoe cost breakdown (text search) ==\n");
    println!("measuring at {docs} documents with production crypto ...\n");
    let m = measure(text_deployment(docs, 3, 11), 3);
    let link = LinkModel::paper();

    println!("corpus size:        {} documents (paper: 364M)", m.docs);
    let d = m.config.d_reduced;
    println!("embedding dim:      {d} (paper: 192)");
    println!("clusters:           {} of ≈{} docs", m.shape.m / d, m.shape.rows);

    println!("\n-- index preprocessing (paper: 0.013 core-s/doc total) --");
    let stage = |name: &str, d: std::time::Duration| {
        println!("  {:<18} {:>12} ({:.2e} core-s/doc)", name, fmt_seconds(d.as_secs_f64()),
            d.as_secs_f64() / m.docs as f64);
    };
    stage("embed", m.report.embed);
    stage("build centroids", m.report.cluster);
    stage("balance, PCA", m.report.pca);
    stage("matrix layout", m.report.layout);
    stage("URL batching", m.report.urls);
    stage("crypto", m.report.crypto);
    println!(
        "  {:<18} {:>12} ({:.4} core-s/doc)",
        "total",
        fmt_seconds(m.report.total().as_secs_f64()),
        m.report.core_seconds_per_doc(m.docs)
    );

    println!("\n-- client download (one-time) --");
    println!("  model:     {:>12}   (paper: 0.27 GiB)", fmt_bytes(m.meta.model_bytes));
    println!("  centroids: {:>12}   (paper: 0.02 GiB)", fmt_bytes(m.meta.centroid_bytes));
    println!("  PCA:       {:>12}   (paper: 0.6 MiB)", fmt_bytes(m.meta.pca_bytes));
    println!("  total:     {:>12}", fmt_bytes(m.meta.setup_download_bytes()));

    let c = &m.cost;
    println!("\n-- communication per query (measured; paper @364M) --");
    println!("  up,   token:   {:>12}   (paper: 32.4 MiB)", fmt_bytes(c.token_up));
    println!("  up,   ranking: {:>12}   (paper: 11.6 MiB)", fmt_bytes(c.rank_up));
    println!("  up,   URL:     {:>12}   (paper:  2.4 MiB)", fmt_bytes(c.url_up));
    println!("  down, token:   {:>12}   (paper:  9.8 MiB)", fmt_bytes(c.token_down));
    println!("  down, ranking: {:>12}   (paper:  0.5 MiB)", fmt_bytes(c.rank_down));
    println!("  down, URL:     {:>12}   (paper:  0.1 MiB)", fmt_bytes(c.url_down));
    println!(
        "  offline share: {:>11.0}%   (paper: 74%)",
        100.0 * c.offline_bytes() as f64 / c.total_bytes() as f64
    );

    println!("\n-- client preprocessing per query --");
    println!(
        "  {:>12}   (paper: 37.7 s/query)",
        fmt_seconds(c.client_preproc.as_secs_f64())
    );

    println!("\n-- query latency (100 Mbit/s + 50 ms RTT link; paper values @364M) --");
    let token_lat = c.token_latency(&link);
    let rank_lat = link.phase_latency(c.rank_up, c.rank_down, c.rank_server.wall);
    let url_lat = link.phase_latency(c.url_up, c.url_down, c.url_server.wall);
    println!("  token:     {:>12}   (paper: 6.5 s)", fmt_seconds(token_lat.as_secs_f64()));
    println!("  ranking:   {:>12}   (paper: 1.9 s)", fmt_seconds(rank_lat.as_secs_f64()));
    println!("  URL:       {:>12}   (paper: 0.6 s)", fmt_seconds(url_lat.as_secs_f64()));
    println!(
        "  perceived: {:>12}   (paper: 2.7 s)",
        fmt_seconds(c.perceived_latency(&link).as_secs_f64())
    );

    println!("\n-- throughput (queries/s at the paper's vCPU allocation) --");
    // The paper allocates 32 vCPUs to token generation, 160 to ranking,
    // 16 to URL retrieval for text search.
    let tput = |vcpus: f64, cpu: std::time::Duration| vcpus / cpu.as_secs_f64().max(1e-9);
    println!(
        "  token (32 vCPU):    {:>8.1} q/s   (paper: 0.5 q/s @364M)",
        tput(32.0, c.token_server.cpu)
    );
    println!(
        "  ranking (160 vCPU): {:>8.1} q/s   (paper: 2.9 q/s @364M)",
        tput(160.0, c.rank_server.cpu)
    );
    println!(
        "  URL (16 vCPU):      {:>8.1} q/s   (paper: 5.0 q/s @364M)",
        tput(16.0, c.url_server.cpu)
    );
    // Extrapolated to the paper's 364M-document corpus with the model
    // calibrated on this run. Token work scales with the hint units
    // (`chunks × limbs × n` NTT-pointwise passes), so the measured
    // token CPU is scaled by the two shapes' token work.
    let model = m.scaling_model();
    let n = tiptoe_core::analysis::C4_DOCS;
    let token_scale = model.shape(n).ops()[2] / m.shape.ops()[2];
    let token_core_s = c.token_server.cpu.as_secs_f64() * token_scale;
    let [rank_core_s, url_core_s, _] = model.core_seconds(n);
    println!("  -- extrapolated to 364M docs --");
    println!("  token (32 vCPU):    {:>8.1} q/s", 32.0 / token_core_s);
    println!("  ranking (160 vCPU): {:>8.1} q/s", 160.0 / rank_core_s);
    println!("  URL (16 vCPU):      {:>8.1} q/s", 16.0 / url_core_s);

    println!("\n-- server state --");
    println!("  index + hints: {}", fmt_bytes(m.server_bytes));

    // --- Image column (Table 7 right): CLIP-like 512-d latents, PCA
    //     to 384, p = 2^15, at a quarter of the text scale.
    let img_docs = (docs / 2).max(512);
    println!("\n== image search column ({img_docs} images) ==");
    let im = measure(image_deployment(img_docs, 2, 12), 2);
    let ic = &im.cost;
    println!("  embedding dim:   {} (paper: 384)", im.config.d_reduced);
    println!("  up,   token:   {:>12}   (paper: 32.4 MiB)", fmt_bytes(ic.token_up));
    println!("  up,   ranking: {:>12}   (paper: 16.2 MiB @400M)", fmt_bytes(ic.rank_up));
    println!("  down, ranking: {:>12}   (paper:  1.0 MiB @400M)", fmt_bytes(ic.rank_down));
    println!(
        "  image/text ranking-upload ratio: {:.2} (paper: 16.2/11.6 = 1.40)",
        ic.rank_up as f64 / c.rank_up as f64 * (docs as f64 / img_docs as f64).sqrt()
    );

    // Shape checks.
    println!("\n-- paper-shape checks --");
    let checks: [(&str, bool); 4] = [
        ("token upload dominated by Enc2(s) ≈ 32 MiB (paper: 32.4 MiB)",
            (30u64 << 20..=35u64 << 20).contains(&c.token_up)),
        ("token phase is the most expensive phase",
            c.token_server.cpu >= c.rank_server.cpu && c.token_server.cpu >= c.url_server.cpu),
        ("ranking download is small (scores only)", c.rank_down < c.token_down),
        ("client preprocessing far exceeds online client work",
            c.client_preproc > c.client_time),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
