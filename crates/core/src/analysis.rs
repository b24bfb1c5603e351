//! Analytic cost models behind the paper's comparisons: Coeus
//! query-scoring (Table 6), client-side search indexes (Table 6),
//! Tiptoe's own size and work model (the client's ledger, Tables 6–7,
//! Figures 8–9), and the non-colluding two-server estimate (§9).
//!
//! Tiptoe's message sizes are written once, in functions next to the
//! wire types' encoders (`LweCiphertext::wire_len`,
//! `EncryptedSecret::wire_len`, `QueryToken::wire_len`,
//! `scheme::answer_byte_len`). A [`DeploymentShape`] holds what they
//! take, read off a built instance or derived from a [`TiptoeConfig`]
//! at any corpus size by [`ScalingModel`], and
//! [`DeploymentShape::query_bytes`] adds them up. Every other constant
//! cites where in the paper it comes from.

use tiptoe_embed::Embedder;
use tiptoe_lwe::{scheme, LweCiphertext};
use tiptoe_pir::BitPacker;
use tiptoe_underhood::{EncryptedSecret, QueryToken, Underhood};

use crate::client::QueryCost;
use crate::config::TiptoeConfig;
use crate::instance::TiptoeInstance;

/// The paper's corpus sizes.
pub const C4_DOCS: u64 = 364_000_000;
/// LAION-400M image count.
pub const LAION_DOCS: u64 = 400_000_000;
/// Wikipedia article count in Coeus's evaluation.
pub const WIKIPEDIA_DOCS: u64 = 5_000_000;
/// Compressed bytes per URL: the paper's 7.4 GiB of compressed URLs
/// for the 364M-document C4 crawl (Table 6).
pub const URL_BYTES: u64 = 22;

/// AWS list prices used in Table 6.
pub mod aws {
    /// r5.xlarge (4 vCPU): $0.252/hour.
    pub const R5_XLARGE_HOURLY: f64 = 0.252;
    /// Egress bandwidth: $0.09/GiB.
    pub const EGRESS_PER_GIB: f64 = 0.09;
    /// Per-core-hour rate implied by Table 6's Coeus row
    /// ($0.059/query at 12 900 core-s): Coeus's reported costs come
    /// from its own deployment, not r5 list prices.
    pub const COEUS_PER_CORE_HOUR: f64 = 0.059 * 3600.0 / 12_900.0;

    /// Dollar cost of `core_seconds` of compute (r5 family pricing is
    /// uniform per vCPU-hour) plus `egress_bytes` of download.
    pub fn query_cost(core_seconds: f64, egress_bytes: u64) -> f64 {
        let per_core_hour = R5_XLARGE_HOURLY / 4.0;
        core_seconds / 3600.0 * per_core_hour
            + egress_bytes as f64 / (1u64 << 30) as f64 * EGRESS_PER_GIB
    }
}

/// Coeus query-scoring cost model (§8.4).
///
/// "We estimate that, searching over N documents, Coeus's
/// query-scoring requires 10.66·N bytes of communication" and, scaling
/// the reported 12 900 core-seconds on 5M Wikipedia articles linearly,
/// `12 900 · N / 5M` core-seconds.
#[derive(Debug, Clone, Copy)]
pub struct CoeusModel;

impl CoeusModel {
    /// Per-query communication in bytes.
    pub fn comm_bytes(n_docs: u64) -> u64 {
        (10.66 * n_docs as f64) as u64
    }

    /// Per-query server compute in core-seconds.
    pub fn core_seconds(n_docs: u64) -> f64 {
        12_900.0 * n_docs as f64 / WIKIPEDIA_DOCS as f64
    }

    /// Per-query AWS cost in dollars, at the per-core rate implied by
    /// Coeus's own reported numbers (Table 6).
    pub fn aws_cost(n_docs: u64) -> f64 {
        Self::core_seconds(n_docs) / 3600.0 * aws::COEUS_PER_CORE_HOUR
            + Self::comm_bytes(n_docs) as f64 / (1u64 << 30) as f64 * aws::EGRESS_PER_GIB
    }
}

/// Client-side-index baselines (Table 6 and §8.3).
#[derive(Debug, Clone, Copy)]
pub struct ClientIndexModel;

impl ClientIndexModel {
    /// Bytes to store Tiptoe's own index locally: quantized embeddings
    /// (d × 4 bits) plus compressed URLs (~22 B each). The paper
    /// reports 48 GiB for text (364M docs, d = 192) and 98 GiB for
    /// images (400M docs, d = 384).
    pub fn tiptoe_index_bytes(n_docs: u64, d: usize) -> u64 {
        let embeddings = n_docs * (d as u64) / 2; // 4 bits per dimension
        let urls = n_docs * URL_BYTES;
        let per_doc_overhead = n_docs * 8; // ids + cluster bookkeeping
        embeddings + urls + per_doc_overhead
    }

    /// BM25 index estimate: the paper scales the Anserini MS MARCO
    /// index to 4.6 TiB at C4 size (≈13.5 KiB/doc).
    pub fn bm25_index_bytes(n_docs: u64) -> u64 {
        (n_docs as f64 * (4.6 * (1u64 << 40) as f64 / C4_DOCS as f64)) as u64
    }

    /// ColBERT index estimate: 6.4 TiB at C4 size (≈18.9 KiB/doc);
    /// PLAID compresses this to ≈0.9 TiB.
    pub fn colbert_index_bytes(n_docs: u64) -> u64 {
        (n_docs as f64 * (6.4 * (1u64 << 40) as f64 / C4_DOCS as f64)) as u64
    }

    /// Compressed-URL-only lower bound: [`URL_BYTES`] a URL, 7.4 GiB at
    /// C4 size.
    pub fn url_only_bytes(n_docs: u64) -> u64 {
        n_docs * URL_BYTES
    }
}

/// What fixes the size of every message of one query. The pairs are
/// `[ranking, URL]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeploymentShape {
    /// Ranking upload dimension `m = d·C`.
    pub m: usize,
    /// Ranking matrix rows: the scores one query downloads.
    pub rows: usize,
    /// URL records: one PIR column per URL batch.
    pub url_records: usize,
    /// URL matrix rows: one record as the packer lays it out.
    pub url_rows: usize,
    /// 16-bit limbs a token hint entry splits into.
    pub limbs: [usize; 2],
    /// Token hint columns: each service's secret dimension `n`.
    pub n: [usize; 2],
    /// Ciphertexts in the token upload: the client secret's `max_n`.
    pub max_n: usize,
    /// Outer ring degree `N`.
    pub ring: usize,
    /// Bits a token coefficient is switched down to.
    pub log_q2: u32,
}

impl DeploymentShape {
    /// `config`'s shape under its schemes `uh`, before any matrix.
    fn empty(config: &TiptoeConfig, uh: [&Underhood; 2]) -> Self {
        Self {
            limbs: uh.map(|u| u.limb_count() as usize),
            n: uh.map(|u| u.lwe().n),
            max_n: config.max_n(),
            ring: config.rlwe.degree,
            log_q2: config.switch_log_q2,
            ..Self::default()
        }
    }

    /// The shape of a built instance.
    pub fn of<E: Embedder>(instance: &TiptoeInstance<E>) -> Self {
        let (ranking, url) = (&instance.ranking, &instance.url);
        let (m, rows) = (ranking.upload_dim(), ranking.rows());
        let (url_records, url_rows) = (url.database().num_records(), url.database().rows());
        let empty = Self::empty(&instance.config, [ranking.underhood(), url.underhood()]);
        Self { m, rows, url_records, url_rows, ..empty }
    }

    /// Token hint chunks of `N` rows.
    pub fn chunks(&self) -> [usize; 2] {
        [self.rows, self.url_rows].map(|rows| Underhood::hint_chunks(rows, self.ring))
    }

    /// The bytes one query moves: the byte fields of the [`QueryCost`]
    /// the client records (its timings are zero).
    pub fn query_bytes(&self) -> QueryCost {
        let chunks = self.chunks();
        let token =
            |i: usize| QueryToken::wire_len(chunks[i], self.limbs[i], self.ring, self.log_q2);
        QueryCost {
            token_up: EncryptedSecret::wire_len(self.max_n, self.ring),
            token_down: token(0) + token(1),
            rank_up: LweCiphertext::<u64>::wire_len(self.m),
            rank_down: scheme::answer_byte_len::<u64>(self.rows),
            url_up: LweCiphertext::<u32>::wire_len(self.url_records),
            url_down: scheme::answer_byte_len::<u32>(self.url_rows),
            ..QueryCost::default()
        }
    }

    /// Word operations of one query, `[ranking scan, URL scan, token]`:
    /// a multiply and an add per matrix entry and per hint word into
    /// both halves of each `(chunk, limb)` ciphertext.
    pub fn ops(&self) -> [f64; 3] {
        let chunks = self.chunks();
        let token = |i: usize| 4 * chunks[i] * self.limbs[i] * self.n[i] * self.ring;
        [2 * self.rows * self.m, 2 * self.url_rows * self.url_records, token(0) + token(1)]
            .map(|ops| ops as f64)
    }
}

/// The Figure 8 / §8.5 scaling model: a deployment's shape and work at
/// any corpus size, derived from its [`TiptoeConfig`]. `N` documents
/// fall into `C = ⌈√(N/d)⌉` clusters, the count that balances the
/// upload `d·C` against the download `N/C` ("if the dimension d grows
/// large, we can take C ≈ √(N/d)", §4.2), of `⌈N·(1 + f)/C⌉` rows
/// under dual-assignment fraction `f`. As in `PirDatabase`, each
/// cluster's URLs form batches of `urls_per_batch`, one column a
/// batch, whose [`URL_BYTES`] a URL are packed into the rows.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    /// Word ops per core-second, calibrated from a measured run (the
    /// presets take 2·10⁹).
    pub ops_per_core_second: f64,
    config: TiptoeConfig,
    empty: DeploymentShape,
}

impl ScalingModel {
    /// The model of `config`'s deployment.
    pub fn new(config: &TiptoeConfig, ops_per_core_second: f64) -> Self {
        let scheme = |lwe| Underhood::with_outer(lwe, config.rlwe, config.switch_log_q2);
        let schemes = [scheme(config.rank_lwe), scheme(config.url_lwe)];
        let empty = DeploymentShape::empty(config, [&schemes[0], &schemes[1]]);
        Self { ops_per_core_second, config: config.clone(), empty }
    }

    /// The paper's text deployment ([`TiptoeConfig::text`]).
    pub fn text() -> Self {
        Self::new(&TiptoeConfig::text(C4_DOCS as usize, 0), 2e9)
    }

    /// The paper's image deployment ([`TiptoeConfig::image`]).
    pub fn image() -> Self {
        Self::new(&TiptoeConfig::image(LAION_DOCS as usize, 0), 2e9)
    }

    /// Cluster count `C = ⌈√(N/d)⌉`.
    pub fn clusters(&self, n_docs: u64) -> u64 {
        ((n_docs as f64 / self.config.d_reduced as f64).sqrt().ceil() as u64).max(1)
    }

    /// The deployment's shape at `n_docs` documents.
    pub fn shape(&self, n_docs: u64) -> DeploymentShape {
        let c = self.clusters(n_docs) as usize;
        let dual = 1.0 + f64::from(self.config.cluster.dual_assign_frac);
        let rows = (n_docs as f64 * dual / c as f64).ceil() as usize;
        let batch = self.config.urls_per_batch;
        let (m, url_records) = (self.config.d_reduced * c, c * rows.div_ceil(batch));
        let record_bytes = rows.min(batch) * URL_BYTES as usize;
        let url_rows = BitPacker::new(self.config.url_lwe.p).entries_for(record_bytes);
        DeploymentShape { m, rows, url_records, url_rows, ..self.empty }
    }

    /// Server core-seconds per query, `[ranking, URL, token]`.
    pub fn core_seconds(&self, n_docs: u64) -> [f64; 3] {
        self.shape(n_docs).ops().map(|ops| ops / self.ops_per_core_second)
    }
}

/// The §9 non-colluding two-server estimate: secret-share the query
/// with a distributed point function instead of encrypting it.
/// "We estimate that the per-query communication on the C4 data set
/// would be roughly 1 MiB (instead of Tiptoe's 56.9 MiB)."
pub fn non_colluding_bytes(model: &ScalingModel, n_docs: u64) -> u64 {
    let clusters = model.clusters(n_docs);
    // Per server: a DPF key of ~λ·log2(C) bits plus the d-dim plain
    // query share, and the plain inner-product scores down.
    let dpf_key = 16 * (64 - u64::from(clusters.leading_zeros()) + 1);
    let up_per_server = dpf_key + (model.config.d_reduced as u64) * 2;
    let down_per_server = model.shape(n_docs).rows as u64 * 4;
    2 * (up_per_server + down_per_server)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coeus_at_c4_scale_matches_paper_estimates() {
        // §8.4: "more than 3 GiB of traffic, 900 000 core-seconds, and
        // $4.00 in AWS cost".
        let comm = CoeusModel::comm_bytes(C4_DOCS);
        assert!(comm > 3 * (1u64 << 30), "comm {comm}");
        let core_s = CoeusModel::core_seconds(C4_DOCS);
        assert!((900_000.0..=1_000_000.0).contains(&core_s), "core-s {core_s}");
        let cost = CoeusModel::aws_cost(C4_DOCS);
        assert!((3.0..=6.0).contains(&cost), "cost {cost}");
    }

    #[test]
    fn coeus_at_wikipedia_matches_reported_numbers() {
        // Table 6's Coeus row: 50 MiB/query, 12 900 core-s.
        let comm = CoeusModel::comm_bytes(WIKIPEDIA_DOCS);
        assert!((45u64 << 20..=56u64 << 20).contains(&comm), "comm {comm}");
        assert!((CoeusModel::core_seconds(WIKIPEDIA_DOCS) - 12_900.0).abs() < 1.0);
    }

    #[test]
    fn client_index_sizes_match_table_6() {
        // 48 GiB text / 98 GiB image.
        let text = ClientIndexModel::tiptoe_index_bytes(C4_DOCS, 192);
        assert!((38u64 << 30..=56u64 << 30).contains(&text), "text {text}");
        let image = ClientIndexModel::tiptoe_index_bytes(LAION_DOCS, 384);
        assert!((75u64 << 30..=110u64 << 30).contains(&image), "image {image}");
        // 4.6 TiB BM25, 6.4 TiB ColBERT, 7.4 GiB URL floor at C4 size.
        assert_eq!(ClientIndexModel::bm25_index_bytes(C4_DOCS), (4.6 * (1u64 << 40) as f64) as u64);
        assert!(ClientIndexModel::colbert_index_bytes(C4_DOCS) > ClientIndexModel::bm25_index_bytes(C4_DOCS));
        let urls = ClientIndexModel::url_only_bytes(C4_DOCS);
        assert!((7u64 << 30..8u64 << 30).contains(&urls), "urls {urls}");
    }

    #[test]
    fn scaling_model_reproduces_figure_8_shape() {
        let model = ScalingModel::text();
        let core_seconds = |n| model.core_seconds(n).iter().sum::<f64>();
        // §8.5: "on a corpus of 8 billion documents, a Tiptoe search
        // query would require roughly 1 900 core-seconds and 140 MiB of
        // communication".
        let core_s = core_seconds(8_000_000_000);
        assert!((1_000.0..=4_000.0).contains(&core_s), "core-s {core_s}");
        let comm = model.shape(8_000_000_000).query_bytes().total_bytes();
        assert!((90u64 << 20..=200u64 << 20).contains(&comm), "comm {}", comm >> 20);
        // Compute grows linearly, communication sub-linearly.
        let c1 = core_seconds(1_000_000_000);
        let c10 = core_seconds(10_000_000_000);
        assert!((9.0..=11.0).contains(&(c10 / c1)));
        let b1 = model.shape(1_000_000_000).query_bytes().total_bytes();
        let b10 = model.shape(10_000_000_000).query_bytes().total_bytes();
        assert!((b10 as f64 / b1 as f64) < 5.0, "communication must scale sublinearly");
    }

    #[test]
    fn non_colluding_estimate_is_about_one_mebibyte() {
        let bytes = non_colluding_bytes(&ScalingModel::text(), C4_DOCS);
        assert!(
            ((1u64 << 19)..(4u64 << 20)).contains(&bytes),
            "got {} KiB",
            bytes >> 10
        );
    }

    #[test]
    fn aws_pricing_matches_table_6_footnote() {
        // 145 core-s + ~57 MiB ≈ $0.003 + egress ≈ $0.008 total.
        let tiptoe_text = aws::query_cost(145.0, 57 << 20);
        assert!((0.002..=0.02).contains(&tiptoe_text), "got {tiptoe_text}");
    }
}
