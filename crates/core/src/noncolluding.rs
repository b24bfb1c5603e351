//! The non-colluding two-server mode (paper §9, "Reducing
//! communication with non-colluding services").
//!
//! When the client may assume two deployments that do not collude,
//! encryption is unnecessary: the client splits its Figure 10 query
//! vector `q̃` into two DPF keys, each server expands its key into a
//! pseudorandom share `q̃_w` and runs the §4 nearest-neighbor scan *in
//! plaintext* (`a_w = M · q̃_w`), and the client adds the two answers.
//! "No server-to-server communication would be necessary, as the
//! servers only perform linear operations." URL fetching works the
//! same way with a 1-bit DPF (two-server PIR).
//!
//! Each server's view is a single pseudorandom key — independent of
//! both the query embedding and the cluster index — so query privacy
//! holds against either server alone (and fails only if they collude,
//! which is exactly the §9 trust assumption). Per-query communication
//! drops from Tiptoe's tens of MiB to ~1 MiB at C4 scale because no
//! lattice ciphertext expansion is paid.

use rand::Rng;
use tiptoe_dpf::{eval as dpf_eval, full_eval, generate as dpf_generate, DpfKey};
use tiptoe_embed::quantize::Quantizer;
use tiptoe_embed::vector::normalize;
use tiptoe_math::matrix::{scan, Mat};
use tiptoe_math::zq::center;
use tiptoe_pir::BitPacker;

use crate::batch::IndexArtifacts;
use crate::config::TiptoeConfig;

/// One of the two (identical, replicated) plaintext servers.
pub struct TwoServerReplica {
    /// Ranking matrix: `rows × d·C_padded`, entries are signed
    /// quantized embeddings embedded in `Z_{2^32}`.
    rank: Mat<u32>,
    /// URL matrix: packed-record columns, as in the PIR database.
    urls: Mat<u32>,
    d: usize,
    clusters: usize,
    /// Padded cluster-domain size (`2^height ≥ clusters`).
    cluster_domain: u32,
    /// Padded record-domain size.
    record_domain: u32,
    record_bytes: usize,
    packer: BitPacker,
}

/// Builds the two replicas' shared state from batch artifacts.
///
/// Returns a single replica; a deployment clones it onto two
/// non-colluding providers (the state is identical by construction).
pub fn build_replica(config: &TiptoeConfig, artifacts: &IndexArtifacts) -> TwoServerReplica {
    let quant = config.quantizer();
    let d = config.d_reduced;
    let clusters = artifacts.clustering.num_clusters();
    let rows = artifacts.meta.rows;
    let cluster_domain = clusters.next_power_of_two().trailing_zeros();
    let mut rank: Mat<u32> = Mat::zeros(rows, d << cluster_domain);
    for (ci, members) in artifacts.clustering.members.iter().enumerate() {
        for (row, &doc) in members.iter().enumerate() {
            let signed = quant.to_signed(&artifacts.reduced_embeddings[doc as usize]);
            for (j, &v) in signed.iter().enumerate() {
                rank.set(row, ci * d + j, v as i32 as u32);
            }
        }
    }

    // URL records: identical payloads to the single-server PIR
    // database, but over Z_{2^32} shares instead of LWE ciphertexts.
    let packer = BitPacker::new(config.url_lwe.p);
    let record_bytes =
        artifacts.url_batches.iter().map(|b| b.compressed.len()).max().unwrap_or(1);
    let records = artifacts.url_batches.len().max(1);
    let record_domain = records.next_power_of_two().trailing_zeros();
    let url_rows = packer.entries_for(record_bytes);
    let mut urls: Mat<u32> = Mat::zeros(url_rows, 1 << record_domain);
    let mut column = Vec::new();
    for (c, batch) in artifacts.url_batches.iter().enumerate() {
        column.clear();
        packer.pack_into(&batch.compressed, record_bytes, &mut column);
        for (r, &e) in column.iter().enumerate() {
            urls.set(r, c, e);
        }
    }

    TwoServerReplica {
        rank,
        urls,
        d,
        clusters,
        cluster_domain,
        record_domain,
        record_bytes,
        packer,
    }
}

impl TwoServerReplica {
    /// Number of clusters served.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Scores returned per ranking query.
    pub fn rows(&self) -> usize {
        self.rank.rows()
    }

    /// Answers a ranking query share: expands the DPF key into `q̃_w`
    /// and computes the plaintext product `M · q̃_w` (the same §4 scan,
    /// no cryptography). Touches the whole matrix, so the access
    /// pattern is share-independent.
    ///
    /// # Panics
    ///
    /// Panics if the key's domain/block disagree with the matrix.
    pub fn answer_ranking(&self, key: &DpfKey) -> Vec<u32> {
        assert_eq!(key.block_len(), self.d, "block must be the embedding dimension");
        assert_eq!(
            key.domain_size() * self.d,
            self.rank.cols(),
            "key domain must cover the padded cluster space"
        );
        let share = full_eval(key);
        scan(&self.rank, &[&share], 1).pop().expect("one answer per share")
    }

    /// Answers a URL query share (two-server PIR over `Z_{2^32}`).
    ///
    /// # Panics
    ///
    /// Panics if the key's domain/block disagree with the URL matrix.
    pub fn answer_urls(&self, key: &DpfKey) -> Vec<u32> {
        assert_eq!(key.block_len(), 1, "URL selection uses 1-value blocks");
        assert_eq!(key.domain_size(), self.urls.cols(), "key domain must cover records");
        let share = full_eval(key);
        scan(&self.urls, &[&share], 1).pop().expect("one answer per share")
    }
}

/// Per-query communication of the two-server protocol (both servers).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoServerCost {
    /// Total upload (two ranking keys + two URL keys).
    pub up: u64,
    /// Total download (two score shares + two record shares).
    pub down: u64,
}

impl TwoServerCost {
    /// Total traffic.
    pub fn total(&self) -> u64 {
        self.up + self.down
    }
}

/// Results of a two-server private search.
pub struct TwoServerResults {
    /// The searched cluster (client-side secret, exposed for tests).
    pub cluster: usize,
    /// `(doc, url, score)` hits, best first.
    pub hits: Vec<(u32, String, f32)>,
    /// Exact communication.
    pub cost: TwoServerCost,
}

/// Runs one private search against two non-colluding replicas.
///
/// `servers` are the two (physically separate) replicas; in this
/// simulation they are two references to identical state.
pub fn search_two_server<R: Rng + ?Sized>(
    config: &TiptoeConfig,
    artifacts: &IndexArtifacts,
    servers: [&TwoServerReplica; 2],
    query_embedding_raw: &[f32],
    k: usize,
    rng: &mut R,
) -> TwoServerResults {
    let quant = Quantizer::new(config.quant_bits, config.rank_lwe.p);
    let mut q = artifacts.pca.project(query_embedding_raw);
    normalize(&mut q);
    let cluster = artifacts.clustering.nearest_centroid(&q);
    let beta: Vec<u32> = quant.to_signed(&q).iter().map(|&v| v as i32 as u32).collect();

    // Ranking: share the Figure 10 vector via DPF.
    let replica = servers[0];
    let (k0, k1) = dpf_generate(replica.cluster_domain, cluster, &beta, rng);
    let mut cost = TwoServerCost { up: k0.byte_len() + k1.byte_len(), down: 0 };
    let a0 = servers[0].answer_ranking(&k0);
    let a1 = servers[1].answer_ranking(&k1);
    cost.down += (a0.len() + a1.len()) as u64 * 4;
    let members = &artifacts.clustering.members[cluster];
    let scores: Vec<i64> = a0
        .iter()
        .zip(a1.iter())
        .take(members.len())
        .map(|(&x, &y)| center(x.wrapping_add(y) as u64, 1 << 32))
        .collect();
    let best_row = scores.iter().enumerate().max_by_key(|(_, &s)| s).map(|(i, _)| i).unwrap_or(0);

    // URL batch: two-server PIR with a 1-valued DPF.
    let batch_idx = artifacts.meta.batch_of(cluster, best_row);
    let (u0, u1) = dpf_generate(replica.record_domain, batch_idx, &[1u32], rng);
    cost.up += u0.byte_len() + u1.byte_len();
    let r0 = servers[0].answer_urls(&u0);
    let r1 = servers[1].answer_urls(&u1);
    cost.down += (r0.len() + r1.len()) as u64 * 4;
    let entries: Vec<u32> =
        r0.iter().zip(r1.iter()).map(|(&x, &y)| x.wrapping_add(y)).collect();
    let payload = replica.packer.unpack(&entries, replica.record_bytes);
    let decoded = crate::batch::CompressedUrlBatch::decode_payload(&payload).unwrap_or_default();

    let upb = artifacts.meta.urls_per_batch as usize;
    let first_row = (best_row / upb) * upb;
    let scale2 = (quant.encoder().scale() * quant.encoder().scale()) as f32;
    let mut hits: Vec<(u32, String, f32)> = decoded
        .into_iter()
        .enumerate()
        .filter_map(|(offset, (doc, url))| {
            let score = *scores.get(first_row + offset)?;
            Some((doc, url, score as f32 / scale2))
        })
        .collect();
    hits.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    hits.truncate(k);

    TwoServerResults { cluster, hits, cost }
}

/// A sanity check used by `dpf_eval` consumers in tests.
pub fn reconstruct_point(k0: &DpfKey, k1: &DpfKey, x: usize) -> Vec<u32> {
    dpf_eval(k0, x)
        .into_iter()
        .zip(dpf_eval(k1, x))
        .map(|(a, b)| a.wrapping_add(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;
    use tiptoe_embed::Embedder;
    use tiptoe_math::rng::seeded_rng;

    use crate::batch::run_batch_jobs;
    use crate::instance::TiptoeInstance;

    fn setup() -> (TiptoeConfig, IndexArtifacts, TwoServerReplica, TextEmbedder,
                   tiptoe_corpus::synth::Corpus) {
        let corpus = generate(&CorpusConfig::small(220, 67), 20);
        let config = TiptoeConfig::test_small(220, 67);
        let embedder = TextEmbedder::new(config.d_embed, 67, 0);
        let artifacts = run_batch_jobs(&config, &embedder, &corpus);
        let replica = build_replica(&config, &artifacts);
        (config, artifacts, replica, embedder, corpus)
    }

    #[test]
    fn two_server_search_returns_valid_urls() {
        let (config, artifacts, replica, embedder, corpus) = setup();
        let mut rng = seeded_rng(1);
        let q_raw = embedder.embed_text(&corpus.queries[0].text);
        let results = search_two_server(&config, &artifacts, [&replica, &replica], &q_raw, 10, &mut rng);
        assert!(!results.hits.is_empty());
        for (doc, url, _) in &results.hits {
            assert_eq!(url, &corpus.docs[*doc as usize].url);
        }
        for w in results.hits.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn two_server_matches_single_server_ranking() {
        // The two modes share the selection pipeline, so the chosen
        // cluster and top documents must agree.
        let (config, _, replica, embedder, corpus) = setup();
        let instance = TiptoeInstance::build(&config, embedder.clone(), &corpus);
        let mut client = instance.new_client(1);
        let mut rng = seeded_rng(2);
        for q in corpus.queries.iter().take(5) {
            let single = client.search(&instance, &q.text, 8);
            let q_raw = embedder.embed_text(&q.text);
            let double = search_two_server(
                &config,
                &instance.artifacts,
                [&replica, &replica],
                &q_raw,
                8,
                &mut rng,
            );
            assert_eq!(single.cluster, double.cluster, "cluster selection diverged");
            let s_docs: Vec<u32> = single.hits.iter().map(|h| h.doc).collect();
            let d_docs: Vec<u32> = double.hits.iter().map(|(d, _, _)| *d).collect();
            assert_eq!(s_docs, d_docs, "rankings diverged for {:?}", q.text);
        }
    }

    #[test]
    fn two_server_traffic_is_far_below_single_server() {
        let (config, artifacts, replica, embedder, corpus) = setup();
        let mut rng = seeded_rng(3);
        let q_raw = embedder.embed_text(&corpus.queries[0].text);
        let two =
            search_two_server(&config, &artifacts, [&replica, &replica], &q_raw, 5, &mut rng);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let mut client = instance.new_client(2);
        let one = client.search(&instance, &corpus.queries[0].text, 5);
        assert!(
            two.cost.total() * 10 < one.cost.total_bytes(),
            "two-server {} vs single-server {}",
            two.cost.total(),
            one.cost.total_bytes()
        );
    }

    #[test]
    fn query_shares_have_query_independent_sizes() {
        let (config, artifacts, replica, embedder, corpus) = setup();
        let mut rng = seeded_rng(4);
        let a = search_two_server(
            &config,
            &artifacts,
            [&replica, &replica],
            &embedder.embed_text(&corpus.queries[0].text),
            5,
            &mut rng,
        );
        let b = search_two_server(
            &config,
            &artifacts,
            [&replica, &replica],
            &embedder.embed_text("completely different planets galaxy"),
            5,
            &mut rng,
        );
        assert_eq!(a.cost.up, b.cost.up);
        assert_eq!(a.cost.down, b.cost.down);
    }
}
