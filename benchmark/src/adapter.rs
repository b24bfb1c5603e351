//! The only file of the benchmark that names `tiptoe_*` items.
//!
//! Everything the benchmark asks of the program goes through the public
//! calls listed in `benchmark/README.md` ("Frozen surface"). A change
//! that renames or removes one of them edits this file and nothing else
//! in `benchmark/`, and is its own `benchmark` issue.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_core::client::{SearchResults, TiptoeClient};
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_core::serving::ServingPlane;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_embed::vector::{dot, normalize};
use tiptoe_embed::Embedder;
use tiptoe_lwe::LweCiphertext;
use tiptoe_math::rng::{derive_seed, seeded_rng};
use tiptoe_pir::PirClient;
use tiptoe_underhood::{ClientKey, EncryptedSecret};

use crate::spans::SpanLog;

/// Held-out queries generated with each corpus.
pub const QUERIES: usize = 64;
/// Results asked of every search.
const TOP_K: usize = 10;

pub type Plane<'a> = ServingPlane<'a>;
pub type Client = TiptoeClient;

/// The two deployments. Presets are used as the program ships them; the
/// benchmark sets only the corpus size and the seed.
#[derive(Clone, Copy)]
pub enum Preset {
    /// `TiptoeConfig::text(4096)`: the paper's lattice parameters.
    Prod,
    /// `TiptoeConfig::test_small(65536)`: cheap crypto, many clusters, a
    /// ranking matrix larger than the last-level cache.
    Wide,
}

pub struct Deployment {
    corpus: Corpus,
    inst: TiptoeInstance<TextEmbedder>,
}

/// One search's outcome, in the benchmark's own terms.
#[derive(PartialEq)]
pub struct Found {
    pub cluster: usize,
    /// `(doc, url, score)`, best first.
    pub hits: Vec<(u32, String, f32)>,
}

impl Deployment {
    pub fn build(preset: Preset, seed: u64) -> Self {
        let (docs, config, embedder) = match preset {
            Preset::Prod => (
                4096,
                TiptoeConfig::text(4096, seed),
                TextEmbedder::paper_text(seed),
            ),
            Preset::Wide => {
                let config = TiptoeConfig::test_small(65536, seed);
                let embedder = TextEmbedder::new(config.d_embed, seed, 0);
                (65536, config, embedder)
            }
        };
        let corpus = generate(&CorpusConfig::small(docs, seed), QUERIES);
        let inst = TiptoeInstance::build(&config, embedder, &corpus);
        Self { corpus, inst }
    }

    pub fn plane(&self) -> Plane<'_> {
        self.inst.serving_plane()
    }

    pub fn client(&self, seed: u64) -> Client {
        self.inst.new_client(seed)
    }

    pub fn query_text(&self, idx: usize) -> &str {
        &self.corpus.queries[idx].text
    }

    /// Seconds the program reports for the batch jobs (embed, PCA,
    /// cluster, layout, URL batches), the ranking service's
    /// preprocessing and the URL service's, as `build` ran them.
    pub fn build_stage_seconds(&self) -> (f64, f64, f64) {
        let r = &self.inst.artifacts.report;
        let index = r.embed + r.pca + r.cluster + r.layout + r.urls;
        (
            index.as_secs_f64(),
            self.inst.ranking.preproc_time.as_secs_f64(),
            self.inst.url.preproc_time.as_secs_f64(),
        )
    }

    /// Bytes of ranking matrix one query scans (`rows × cols × 4`).
    pub fn scan_bytes(&self) -> usize {
        self.inst.ranking.rows() * self.inst.ranking.upload_dim() * 4
    }

    /// One line describing the deployment's shape, for the results file.
    pub fn shape_json(&self) -> String {
        let m = &self.inst.artifacts.meta;
        format!(
            "{{\"docs\":{},\"clusters\":{},\"rows\":{},\"upload_dim\":{},\"shards\":{},\
             \"url_batches\":{},\"server_bytes\":{}}}",
            self.corpus.docs.len(),
            m.c,
            self.inst.ranking.rows(),
            self.inst.ranking.upload_dim(),
            self.inst.ranking.num_shards(),
            m.num_batches,
            self.inst.server_storage_bytes()
        )
    }

    /// Checks a search against the plaintext pipeline: the cluster is the
    /// nearest centroid, the top three scores are the quantized dot
    /// products, and every URL is the corpus's URL for that document.
    pub fn check_against_plaintext(&self, query: usize, found: &Found) -> Result<(), String> {
        let inst = &self.inst;
        let quant = inst.config.quantizer();
        let q = self.reduce(self.query_text(query));
        let cluster = nearest_centroid(&inst.artifacts.meta.centroids, &q);
        if found.cluster != cluster {
            return Err(format!(
                "query {query}: cluster {} != plaintext {cluster}",
                found.cluster
            ));
        }
        let q_zp = quant.to_zp(&q);
        let scale = quant.encoder().scale() as f32;
        for (doc, _, score) in found.hits.iter().take(3) {
            let d_zp = quant.to_zp(&inst.artifacts.reduced_embeddings[*doc as usize]);
            let want = quant.quantized_dot(&d_zp, &q_zp);
            let got = (score * scale * scale).round() as i64;
            if got != want {
                return Err(format!(
                    "query {query}: doc {doc} scored {got}, plaintext {want}"
                ));
            }
        }
        self.check_urls(query, found)
    }

    /// Every hit's URL is the corpus's URL for that document, and a
    /// search returns at least one hit.
    pub fn check_urls(&self, query: usize, found: &Found) -> Result<(), String> {
        if found.hits.is_empty() {
            return Err(format!("query {query}: no hits"));
        }
        for (doc, url, _) in &found.hits {
            if self.corpus.docs[*doc as usize].url != *url {
                return Err(format!("query {query}: doc {doc} came back with URL {url}"));
            }
        }
        Ok(())
    }

    /// Embed, project, normalize: the client's view of a query string.
    fn reduce(&self, text: &str) -> Vec<f32> {
        let raw = self.inst.embedder.embed_text(text);
        let mut q = self.inst.artifacts.pca.project(&raw);
        normalize(&mut q);
        q
    }
}

/// The order in which a run issues the corpus's queries.
pub fn query_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..QUERIES).collect();
    order.shuffle(&mut seeded_rng(derive_seed(seed, 0x0bde5)));
    order
}

fn nearest_centroid(centroids: &[Vec<f32>], q: &[f32]) -> usize {
    let mut best = (0usize, f32::NEG_INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let s = dot(c, q);
        if s > best.1 {
            best = (i, s);
        }
    }
    best.0
}

fn found_from(results: SearchResults) -> Found {
    Found {
        cluster: results.cluster,
        hits: results
            .hits
            .into_iter()
            .map(|h| (h.doc, h.url, h.score))
            .collect(),
    }
}

/// The offline half of a query cycle; returns the bytes it moved.
pub fn fetch_token(client: &mut Client, dep: &Deployment, plane: &Plane<'_>) -> u64 {
    client
        .fetch_token_via(&dep.inst, Some(plane))
        .offline_bytes()
}

/// The online half, with a token in hand; returns the hits and the bytes
/// on the latency-critical path.
pub fn search(
    client: &mut Client,
    dep: &Deployment,
    plane: &Plane<'_>,
    query: usize,
) -> Result<(Found, u64), String> {
    assert!(
        client.tokens_available() > 0,
        "search is timed with a token in hand"
    );
    let results = client
        .try_search_served(&dep.inst, dep.query_text(query), TOP_K, plane)
        .map_err(|e| format!("query {query}: {e:?}"))?;
    let bytes = results.cost.online_bytes();
    Ok((found_from(results), bytes))
}

/// One server-side operation: a ranking ciphertext and a URL ciphertext,
/// with the answers the services give when called directly.
pub struct ServeRequest {
    rank_ct: LweCiphertext<u64>,
    url_ct: LweCiphertext<u32>,
    want_rank: Vec<u64>,
    want_url: Vec<u32>,
}

impl ServeRequest {
    fn new(dep: &Deployment, rank_ct: LweCiphertext<u64>, url_ct: LweCiphertext<u32>) -> Self {
        let want_rank = dep.inst.ranking.answer(&rank_ct).0;
        let want_url = dep.inst.url.answer(&url_ct).0;
        Self {
            rank_ct,
            url_ct,
            want_rank,
            want_url,
        }
    }

    /// Bytes up and down for both phases, as the client accounts them.
    pub fn wire_bytes(&self) -> u64 {
        self.rank_ct.byte_len()
            + (self.want_rank.len() * 8) as u64
            + self.url_ct.byte_len()
            + (self.want_url.len() * 4) as u64
    }
}

/// Answers one request through the plane; `false` if either answer
/// differs from the direct one in any bit.
pub fn serve(dep: &Deployment, plane: &Plane<'_>, req: &ServeRequest) -> bool {
    let rank = dep.inst.ranking.answer_via(&req.rank_ct, Some(plane)).0;
    let url = plane.url_answer(req.url_ct.clone());
    rank == req.want_rank && url == req.want_url
}

/// [`serve`] with a span around each service.
pub fn staged_serve(
    dep: &Deployment,
    plane: &Plane<'_>,
    req: &ServeRequest,
    log: &mut SpanLog,
) -> bool {
    log.next_op();
    let op = log.open("serve");
    let rank = log.stage("ranking.answer", || {
        dep.inst.ranking.answer_via(&req.rank_ct, Some(plane)).0
    });
    let url = log.stage("url.answer", || plane.url_answer(req.url_ct.clone()));
    log.close(op);
    rank == req.want_rank && url == req.want_url
}

/// Single-thread probes of the layers under the plane, one span each.
/// Returns `false` if a direct answer differs from the reference.
pub fn probe_layers(
    dep: &Deployment,
    plane: &Plane<'_>,
    req: &ServeRequest,
    direct_first: bool,
    log: &mut SpanLog,
) -> bool {
    let ranking = &dep.inst.ranking;
    log.next_op();
    // The second of the two finds the matrix warm, so they take turns.
    let mut direct = Vec::new();
    let mut via = Vec::new();
    for first in [direct_first, !direct_first] {
        if first {
            direct = log.stage("ranking.answer_direct", || ranking.answer(&req.rank_ct).0);
        } else {
            via = log.stage("ranking.answer_solo", || {
                ranking.answer_via(&req.rank_ct, Some(plane)).0
            });
        }
    }
    let url = log.stage("pir.answer", || dep.inst.url.answer(&req.url_ct).0);
    for shard in 0..ranking.num_shards() {
        let (lo, hi) = ranking.shard_columns(shard);
        let chunk = &req.rank_ct.c[lo..hi];
        log.stage("lwe.scan", || ranking.shard_answer(shard, chunk));
        let four = vec![chunk.to_vec(); 4];
        log.stage("lwe.scan_b4", || ranking.shard_answer_many(shard, &four));
    }
    direct == req.want_rank && via == req.want_rank && url == req.want_url
}

/// Drives one query cycle stage by stage through the public calls that
/// `fetch_token_via` and `try_search_served` make, a span around each.
pub struct Replayer<'a> {
    dep: &'a Deployment,
    plane: &'a Plane<'a>,
    rng: StdRng,
}

impl<'a> Replayer<'a> {
    pub fn new(dep: &'a Deployment, plane: &'a Plane<'a>, seed: u64) -> Self {
        Self {
            dep,
            plane,
            rng: seeded_rng(derive_seed(seed, 0x5e91a7)),
        }
    }

    /// Returns the hits, the token bytes moved, and the cycle's two
    /// ciphertexts as a [`ServeRequest`].
    pub fn cycle(&mut self, query: usize, log: &mut SpanLog) -> (Found, u64, ServeRequest) {
        let dep = self.dep;
        let inst = &dep.inst;
        let (plane, rng) = (self.plane, &mut self.rng);
        let meta = &inst.artifacts.meta;
        let quant = inst.config.quantizer();
        let uh_rank = inst.ranking.underhood();
        let uh_url = inst.url.underhood();
        let max_n = inst.config.rank_lwe.n.max(inst.config.url_lwe.n);
        log.next_op();

        let token = log.open("token");
        let key = log.stage("underhood.keygen", || {
            ClientKey::generate(uh_rank, max_n, rng)
        });
        let secret = log.stage("underhood.secret_encrypt", || {
            EncryptedSecret::encrypt(uh_rank, &key, rng)
        });
        let expanded = log.stage("underhood.secret_expand", || secret.expand(uh_rank));
        let rank_token = log.stage("ranking.token_gen", || {
            inst.ranking.generate_token_expanded(&expanded).0
        });
        let url_token = log.stage("url.token_gen", || {
            inst.url.generate_token_expanded(&expanded).0
        });
        let (mut rank_hs, mut url_hs) = log.stage("underhood.token_decode", || {
            (
                uh_rank.decode_token::<u64>(&key, &rank_token),
                uh_url.decode_token::<u32>(&key, &url_token),
            )
        });
        log.close(token);
        let token_bytes = secret.byte_len() + rank_token.byte_len() + url_token.byte_len();

        let online = log.open("query");
        let q = log.stage("embed.query", || dep.reduce(dep.query_text(query)));
        let cluster = log.stage("cluster.route", || nearest_centroid(&meta.centroids, &q));
        let rank_ct = log.stage("underhood.encrypt_query", || {
            let mut v = vec![0u64; meta.ranking_upload_dim()];
            for (j, &x) in quant.to_zp(&q).iter().enumerate() {
                v[cluster * meta.d + j] = x as u64;
            }
            uh_rank.encrypt_query::<u64, _>(&key, &inst.ranking.public_matrix(), &v, rng)
        });
        let applied = log.stage("ranking.answer", || {
            inst.ranking.answer_via(&rank_ct, Some(plane)).0
        });
        let scores: Vec<i64> = log.stage("underhood.decrypt", || {
            uh_rank
                .decrypt(&mut rank_hs, &applied)
                .iter()
                .take(meta.cluster_sizes[cluster] as usize)
                .map(|&s| quant.encoder().decode_signed(s))
                .collect()
        });
        let best_row = scores
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map_or(0, |(row, _)| row);
        let pir = PirClient::new(uh_url, &key);
        let url_ct = log.stage("pir.query", || {
            pir.query(
                &inst.url.public_matrix(),
                meta.num_batches,
                meta.batch_of(cluster, best_row),
                rng,
            )
        });
        let answer = log.stage("url.answer", || plane.url_answer(url_ct.clone()));
        let record = log
            .stage("pir.recover", || {
                pir.recover(inst.url.database(), &mut url_hs, &answer)
            })
            .expect("a well-formed PIR answer");
        let hits = log.stage("corpus.url_decode", || {
            let entries = CompressedUrlBatch::decode_payload(&record).expect("a well-formed batch");
            let per_batch = meta.urls_per_batch as usize;
            let first_row = (best_row / per_batch) * per_batch;
            let scale = quant.encoder().scale() as f32;
            let mut hits: Vec<(u32, String, f32)> = entries
                .into_iter()
                .enumerate()
                .filter_map(|(offset, (doc, url))| {
                    let score = *scores.get(first_row + offset)?;
                    Some((doc, url, score as f32 / (scale * scale)))
                })
                .collect();
            hits.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            hits.truncate(TOP_K);
            hits
        });
        log.close(online);

        (
            Found { cluster, hits },
            token_bytes,
            ServeRequest::new(dep, rank_ct, url_ct),
        )
    }
}

/// The coalescer lanes' totals, from the program's own metrics registry.
pub struct LaneCounts {
    /// Batches flushed.
    pub flushes: u64,
    /// Requests in those batches.
    pub requests: u64,
    /// Microseconds the flush kernels ran.
    pub flush_us: u64,
}

impl LaneCounts {
    pub fn now() -> Self {
        let snap = tiptoe_obs::metrics().snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let (flushes, requests) = hist("net.coalesce.batch_size");
        let (_, flush_us) = hist("net.coalesce.flush_us");
        Self {
            flushes,
            requests,
            flush_us,
        }
    }

    /// What the lanes did between `earlier` and `self`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            flushes: self.flushes - earlier.flushes,
            requests: self.requests - earlier.requests,
            flush_us: self.flush_us - earlier.flush_us,
        }
    }
}
