//! The Tiptoe client (paper §3.2 "Search queries with Tiptoe").
//!
//! A client downloads the embedding model, the PCA projection, and the
//! cluster centroids once; fetches single-use query tokens ahead of
//! time, computing with each the `A·s + e` pads of both query
//! ciphertexts under the token's key (§6.3); and then, per query:
//!
//! 1. embeds its query string locally, projects (PCA), normalizes, and
//!    quantizes it;
//! 2. selects the nearest cluster `i*` from its local centroid cache;
//! 3. seals `q̃` in block `i*` into the ranking pad, uploads that
//!    `Enc(q̃)` to the ranking service and decrypts the returned
//!    per-member scores with the ranking token;
//! 4. computes which URL batch holds the best-scoring member and
//!    retrieves it from the URL service via PIR with a URL token;
//! 5. outputs the top-`k` URLs of that batch, ordered by score.
//!
//! Every message's exact size is recorded in the instance's
//! [`tiptoe_net::Transcript`] and summarized per query in
//! [`QueryCost`].
//!
//! There is one query body, [`TiptoeClient::query`]; what varies
//! between callers is the three fields of [`QueryOptions`] (how many
//! clusters to probe, a fault plan, a serving plane).
//! [`TiptoeClient::search`] and [`TiptoeClient::try_search_served`]
//! are its two shorthands.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use tiptoe_embed::pca::Pca;
use tiptoe_embed::quantize::Quantizer;
use tiptoe_embed::vector::normalize;
use tiptoe_embed::Embedder;
use tiptoe_lwe::QueryPad;
use tiptoe_math::par::timed_cores;
use tiptoe_math::rng::{derive_seed, seeded_rng};
use tiptoe_net::{
    DeadlineBudget, FaultPlan, FaultReport, Ledger, LinkModel, ParallelTiming, Phase, ServeError,
};
use tiptoe_obs::clock::timed;
use tiptoe_obs::recorder::{self, result_code, EventKind};
use tiptoe_obs::timed_span;
use tiptoe_pir::PirClient;
use tiptoe_underhood::{ClientKey, DecodedToken, EncryptedSecret};

use crate::analysis::DeploymentShape;
use crate::batch::ClientMetadata;
use crate::instance::TiptoeInstance;
use crate::serving::ServingPlane;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedUrl {
    /// Original document ID.
    pub doc: u32,
    /// Document URL.
    pub url: String,
    /// Approximate inner-product score (dequantized).
    pub score: f32,
}

/// Exact per-phase costs of one query (the columns of Table 7).
#[derive(Debug, Clone, Default)]
pub struct QueryCost {
    /// Token-phase upload (the encrypted secret; pre-query).
    pub token_up: u64,
    /// Token-phase download (ranking + URL tokens; pre-query).
    pub token_down: u64,
    /// Ranking upload (the query ciphertext).
    pub rank_up: u64,
    /// Ranking download (encrypted scores).
    pub rank_down: u64,
    /// URL-service upload.
    pub url_up: u64,
    /// URL-service download.
    pub url_down: u64,
    /// Server time for token generation (pre-query).
    pub token_server: ParallelTiming,
    /// Server time for the ranking answer.
    pub rank_server: ParallelTiming,
    /// Server time for the PIR answer.
    pub url_server: ParallelTiming,
    /// Client-local compute on the critical path (embed, select,
    /// seal the query pads, decrypt, decompress).
    pub client_time: Duration,
    /// Client-local compute off the critical path (key generation,
    /// token decode, the query pads).
    pub client_preproc: Duration,
    /// Retry, timeout, hedge and corruption accounting of the ranking
    /// fan-out (one attempt per shard and nothing else under a
    /// disabled fault policy).
    pub rank_faults: FaultReport,
    /// The same accounting for the URL phase.
    pub url_faults: FaultReport,
}

impl QueryCost {
    /// Bytes on the latency-critical path (after the query is known).
    pub fn online_bytes(&self) -> u64 {
        self.rank_up + self.rank_down + self.url_up + self.url_down
    }

    /// Bytes exchanged before the query is known.
    pub fn offline_bytes(&self) -> u64 {
        self.token_up + self.token_down
    }

    /// Total traffic (the paper's "56.9 MiB, 74% ahead of time").
    pub fn total_bytes(&self) -> u64 {
        self.online_bytes() + self.offline_bytes()
    }

    /// Total server compute, in core-seconds.
    pub fn server_core_seconds(&self) -> f64 {
        (self.token_server.cpu + self.rank_server.cpu + self.url_server.cpu).as_secs_f64()
    }

    /// Client-perceived latency under a link model: the ranking phase
    /// plus the URL phase plus local client work (the token phase
    /// happened before the user typed the query).
    pub fn perceived_latency(&self, link: &LinkModel) -> Duration {
        link.phase_latency(self.rank_up, self.rank_down, self.rank_server.wall)
            + link.phase_latency(self.url_up, self.url_down, self.url_server.wall)
            + self.client_time
    }

    /// Latency of the (pre-query) token phase.
    pub fn token_latency(&self, link: &LinkModel) -> Duration {
        link.phase_latency(self.token_up, self.token_down, self.token_server.wall)
            + self.client_preproc
    }
}

/// A prefetched, single-use token pair (ranking + URL) together with
/// the **fresh** client key it was generated for and the two query pads
/// `A·s + e` under that key. §6.3: a token — and therefore its inner
/// secret — is consumed by exactly one query; reusing the secret for a
/// second query ciphertext would break semantic security, so every
/// fetch samples a new key, and a query seals the pads of the token it
/// consumes. Tokens are "usable until the document corpus changes"
/// (§6.3); a pad goes stale with its token after an update, since the
/// upload dimension it was computed for may have changed.
struct PreparedTokens {
    key: ClientKey,
    rank: DecodedToken<u64>,
    url: DecodedToken<u32>,
    rank_pad: QueryPad<u64>,
    url_pad: QueryPad<u32>,
    cost: QueryCost,
}

/// Results of one private search.
#[derive(Debug, Clone)]
pub struct SearchResults {
    /// The cluster the client searched (its own secret; exposed for
    /// evaluation only).
    pub cluster: usize,
    /// Top URLs from the fetched batch, best first.
    pub hits: Vec<RankedUrl>,
    /// Exact costs of this query.
    pub cost: QueryCost,
}

/// The settable axes of one [`TiptoeClient::query`]. The default is
/// the direct, single-probe, healthy query of
/// [`TiptoeClient::search`].
#[derive(Clone, Copy)]
pub struct QueryOptions<'a> {
    /// Clusters searched, nearest first (paper §8.2); the hits of all
    /// probes are merged. Every probe is a full protocol round with
    /// its own token.
    pub probes: usize,
    /// An explicit fault plan: the rounds run through the fault-aware
    /// dispatcher (timeouts, retries, hedging per the instance's
    /// [`tiptoe_net::FaultPolicy`], which must be enabled), and
    /// [`QueryCost::rank_faults`] and [`QueryCost::url_faults`] report
    /// what recovery cost. A shard the policy cannot recover fails the
    /// query with [`ServeError::ShardFailed`]. `None` is the benign
    /// plan.
    pub faults: Option<&'a FaultPlan>,
    /// The serving plane to go through: shard compute (and any token
    /// fetch) is routed through its batch coalescers, under its
    /// admission control and deadline budget where the plane has
    /// them. `None` calls the services directly.
    pub plane: Option<&'a ServingPlane<'a>>,
}

impl Default for QueryOptions<'_> {
    fn default() -> Self {
        Self { probes: 1, faults: None, plane: None }
    }
}

/// The Tiptoe client state.
pub struct TiptoeClient {
    /// Inner secret dimension for fresh per-token keys.
    max_n: usize,
    pca: Pca,
    meta: ClientMetadata,
    quant: Quantizer,
    rng: StdRng,
    tokens: VecDeque<PreparedTokens>,
    /// One-time setup download (model + centroids + PCA).
    pub setup_bytes: u64,
}

impl TiptoeClient {
    /// Creates a client: generates keys and "downloads" the metadata
    /// bundle (recorded in the instance transcript under `setup`).
    pub fn new<E: Embedder>(instance: &TiptoeInstance<E>, seed: u64) -> Self {
        let meta = instance.artifacts.meta.clone();
        let setup_bytes = meta.setup_download_bytes();
        instance.transcript.record_down(Phase::Setup, setup_bytes);
        let rng = seeded_rng(derive_seed(seed, 0xc11e27));
        // One inner ternary secret serves both services per token
        // (§A.3); a *fresh* one is sampled per token (§6.3).
        Self {
            max_n: instance.config.max_n(),
            pca: instance.artifacts.pca.clone(),
            meta,
            quant: instance.config.quantizer(),
            rng,
            tokens: VecDeque::new(),
            setup_bytes,
        }
    }

    /// Number of unused prefetched tokens.
    pub fn tokens_available(&self) -> usize {
        self.tokens.len()
    }

    /// Prefetches one query token pair (§6.3, off the critical path):
    /// uploads the encrypted secret once, downloads the ranking and URL
    /// tokens, and computes both query pads under the token's key.
    /// Returns the cost of the fetch.
    pub fn fetch_token<E: Embedder>(&mut self, instance: &TiptoeInstance<E>) -> QueryCost {
        self.fetch_token_via(instance, None)
    }

    /// [`TiptoeClient::fetch_token`] through a serving plane: the
    /// server-side hint evaluation goes through the plane's coalescing
    /// token lane, so token fetches issued by concurrent clients share
    /// one pass over each service's hint polynomials. Tokens are
    /// bit-identical to the direct fetch.
    pub fn fetch_token_via<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        serving: Option<&ServingPlane<'_>>,
    ) -> QueryCost {
        // A *standalone* prefetch (one happening outside a query
        // round, e.g. in the background between queries) is its own
        // tracing boundary: without this, its spans — notably
        // `rank.token` — would pile into the previous query's
        // buffer and never be exported. The query
        // scope also gives the prefetch its own flight-recorder
        // timeline (adopting the surrounding query's when nested).
        let standalone = tiptoe_obs::enabled() && tiptoe_obs::current_span().is_none();
        let _scope = tiptoe_obs::query_scope();
        let cost = self.fetch_token_inner(instance, serving);
        if standalone {
            tiptoe_obs::export::export_query_artifacts();
        }
        cost
    }

    /// The token fetch proper (see [`Self::fetch_token`]).
    fn fetch_token_inner<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        serving: Option<&ServingPlane<'_>>,
    ) -> QueryCost {
        let _span = tiptoe_obs::span("client.token_fetch");
        let mut cost = QueryCost::default();
        let uh_rank = instance.ranking.underhood();
        let uh_url = instance.url.underhood();

        // A fresh composite key per token (§6.3), then the encrypted
        // inner secret; both services evaluate their hints over the
        // same upload (§A.3).
        let ((key, es), t_enc) = timed(|| {
            let key = ClientKey::generate(uh_rank, self.max_n, &mut self.rng);
            let es = EncryptedSecret::encrypt(uh_rank, &key, &mut self.rng);
            (key, es)
        });
        cost.token_up = es.byte_len();
        instance.transcript.record_up(Phase::Token, cost.token_up);

        // The server expands the upload once and reuses it for both
        // services (§A.3's shared-secret-key optimization).
        let (expanded, expand_wall, expand_cpu) = timed_cores(|| es.expand(uh_rank));
        // One kernel yields the ranking token either way: through the
        // plane this client's expanded secret is batched with
        // concurrently arriving clients' on the token lane, directly
        // it is a batch of one.
        let (rank_token, url_token, t_tokens) = match serving {
            Some(plane) => {
                let (bundle, wall) = timed(|| plane.generate_tokens(Arc::new(expanded)));
                (bundle.rank, bundle.url, ParallelTiming { wall, cpu: wall })
            }
            None => {
                let (rank_token, t_rank) = instance.ranking.generate_token_expanded(&expanded);
                let (url_token, t_url) = instance.url.generate_token_expanded(&expanded);
                (rank_token, url_token, t_rank.then(t_url))
            }
        };
        let t_expand = ParallelTiming { wall: expand_wall, cpu: expand_cpu };
        cost.token_server = t_expand.then(t_tokens);
        cost.token_down = rank_token.byte_len() + url_token.byte_len();
        instance.transcript.record_down(Phase::Token, cost.token_down);

        let (decoded, t_decode) = timed_span("client.token_decrypt", || {
            let rank = uh_rank.decode_token::<u64>(&key, &rank_token);
            let url = uh_url.decode_token::<u32>(&key, &url_token);
            (rank, url)
        });
        // The query-independent half of both query encryptions
        // (§6.3's client preprocessing): online, a query only seals them.
        let ((rank_pad, url_pad), t_pad) = timed_span("client.token_pad", || {
            let rank_matrix = instance.ranking.public_matrix();
            let rank_pad = uh_rank.encrypt_offline::<u64, _>(&key, &rank_matrix, &mut self.rng);
            let url_matrix = instance.url.public_matrix();
            let url_pad = PirClient::new(uh_url, &key).query_offline(&url_matrix, &mut self.rng);
            (rank_pad, url_pad)
        });
        cost.client_preproc = t_enc + t_decode + t_pad;

        self.tokens.push_back(PreparedTokens {
            key,
            rank: decoded.0,
            url: decoded.1,
            rank_pad,
            url_pad,
            cost: cost.clone(),
        });
        cost
    }

    /// Executes one private search, consuming one token per probed
    /// cluster (fetching one first whenever none is cached). This is
    /// the one query body; [`QueryOptions`] selects how it is served.
    ///
    /// It is also the query boundary for tracing and the flight
    /// recorder: one query scope, one `client.query` root span, one
    /// typed `Finished` event and one export of the
    /// Chrome-trace/metrics/folded artifacts (so the file always holds
    /// the most recent query), however many clusters are probed.
    ///
    /// When the plane has admission control on, the query first asks
    /// for a permit — a shed query returns [`ServeError::Overloaded`]
    /// *before* consuming a token or moving any bytes — and then runs
    /// every probe under one per-query deadline budget, so a stalled
    /// lane or exhausted budget surfaces as a typed
    /// [`ServeError::DeadlineExceeded`] instead of blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`], [`ServeError::DeadlineExceeded`],
    /// [`ServeError::ShardFailed`], [`ServeError::LaneFailed`] or
    /// [`ServeError::InvalidPolicy`]. A shed query consumed nothing.
    /// Any other failed query consumed its token and pads, since a
    /// ciphertext under that token's secret was already sent (the
    /// paper's tokens are single-use), and returns no partial answer;
    /// the client may retry it. A shard that is down for good fails
    /// every query until it recovers, because each query needs every
    /// shard. A query with neither a plane nor an enabled fault policy
    /// cannot fail.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `opts.probes == 0`, or `opts.faults` is set
    /// on an instance whose fault policy is disabled (a disabled
    /// policy has no recovery to run a fault plan under).
    pub fn query<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        text: &str,
        k: usize,
        opts: QueryOptions<'_>,
    ) -> Result<SearchResults, ServeError> {
        assert!(k > 0, "k must be positive");
        assert!(opts.probes > 0, "need at least one probe");
        assert!(
            opts.faults.is_none() || instance.config.fault_policy.enabled,
            "a fault plan needs an instance with fault_policy.enabled"
        );
        // The scope opens *before* admission so a shed query still
        // owns a flight-recorder timeline (the shed event plus its
        // typed outcome).
        let scope = tiptoe_obs::query_scope();
        let results = {
            let _root = tiptoe_obs::span("client.query");
            self.run_query(instance, text, k, opts)
        };
        // The typed outcome closes this query's flight-recorder
        // timeline; any failure auto-dumps the full timeline so the
        // evidence survives even if nobody is watching.
        match &results {
            Ok(_) => recorder::record(EventKind::Finished, result_code::OK, 0, 0, 0),
            Err(e) => {
                let (code, b, c) = e.recorder_code();
                recorder::record(EventKind::Finished, code, b, c, 0);
                recorder::dump_on_error(scope.id(), "client.query failed");
            }
        }
        tiptoe_obs::export::export_query_artifacts();
        results
    }

    /// [`TiptoeClient::query`] with the default options: one probe,
    /// straight at the services, no injected faults.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn search<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
    ) -> SearchResults {
        self.query(instance, query, k, QueryOptions::default())
            .expect("unbudgeted search cannot fail")
    }

    /// [`TiptoeClient::query`] through a serving plane: shard compute
    /// is routed through the plane's batch coalescers, so searches
    /// issued by concurrent clients share database scans, under the
    /// plane's admission control and deadline budget when it has them.
    /// Results are bit-identical to [`TiptoeClient::search`].
    ///
    /// # Errors
    ///
    /// See [`TiptoeClient::query`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn try_search_served<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        query: &str,
        k: usize,
        serving: &ServingPlane<'_>,
    ) -> Result<SearchResults, ServeError> {
        self.query(instance, query, k, QueryOptions { plane: Some(serving), ..Default::default() })
    }

    /// The query proper (see [`Self::query`]): admit, embed once,
    /// route, then one protocol round per probed cluster, merged.
    fn run_query<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        text: &str,
        k: usize,
        opts: QueryOptions<'_>,
    ) -> Result<SearchResults, ServeError> {
        // The permit is held, and the one budget shared, across every
        // probe of the query.
        let _permit = match opts.plane.map_or(Ok(None), ServingPlane::admit) {
            Ok(permit) => permit,
            Err(e) => {
                // Shed before any wire bytes: the transcript records
                // the rejection itself, never a partial phase.
                instance.transcript.record_shed();
                return Err(e);
            }
        };
        let budget = opts.plane.and_then(ServingPlane::query_budget);

        // --- Client: embed, reduce, select clusters (step 1).
        let ((q, clusters), t_select) = timed(|| {
            let embed_span = tiptoe_obs::span("client.embed");
            let raw = instance.embedder.embed_text(text);
            let mut q = self.pca.project(&raw);
            normalize(&mut q);
            drop(embed_span);
            let _span = tiptoe_obs::span("client.route");
            let clusters = nearest_centroids(&self.meta.centroids, &q, opts.probes);
            (q, clusters)
        });

        // Costs scale linearly with the probes (§8.2: "Querying more
        // clusters could improve search quality, but would
        // substantially increase Tiptoe's costs"): each consumes one
        // token and one full protocol round.
        let mut rounds = Vec::with_capacity(clusters.len());
        for cluster in clusters {
            rounds.push(self.protocol_round(instance, &q, cluster, k, opts, budget.as_ref())?);
        }
        let mut results = rounds
            .into_iter()
            .reduce(|acc, next| merge_probe(acc, next, k))
            .expect("at least one centroid to probe");
        results.cost.client_time += t_select;
        Ok(results)
    }

    /// One protocol round against `cluster` for the embedded query
    /// `q`: seal the ranking pad, ranking phase, decrypt, seal the URL
    /// pad, URL phase, recover.
    fn protocol_round<E: Embedder>(
        &mut self,
        instance: &TiptoeInstance<E>,
        q: &[f32],
        cluster: usize,
        k: usize,
        opts: QueryOptions<'_>,
        budget: Option<&DeadlineBudget>,
    ) -> Result<SearchResults, ServeError> {
        let serving = opts.plane;
        if self.tokens.is_empty() {
            // A served query fetches its token through the plane's
            // coalescing token lane; direct queries fetch directly.
            self.fetch_token_via(instance, serving);
        }
        let mut prepared = self.tokens.pop_front().expect("token fetched above");
        let mut cost = prepared.cost.clone();

        let (ct, t_encrypt) = timed_span("client.encrypt", || {
            let q_zp = self.quant.to_zp(q);
            let d = self.meta.d;
            let mut v = vec![0u64; self.meta.ranking_upload_dim()];
            for (j, &x) in q_zp.iter().enumerate() {
                v[cluster * d + j] = x as u64;
            }
            prepared.rank_pad.seal(&v)
        });
        // --- Ranking service (step 2): one typed dispatch for every
        // serving mode (healthy, fault-aware, coalesced). Sizes are
        // fixed by the protocol shape — a retried or failed query
        // must keep the same observable wire footprint as a healthy
        // one — so the answers are priced by the size model.
        let sizes = DeploymentShape::of(instance).query_bytes();
        cost.rank_up = ct.byte_len();
        cost.rank_down = sizes.rank_down;
        let policy = &instance.config.fault_policy;
        let benign = FaultPlan::none();
        let plan = opts.faults.unwrap_or(&benign);
        let rank_span = tiptoe_obs::span("client.rank_phase");
        let ledger = Ledger {
            transcript: &instance.transcript,
            phase: Phase::Ranking,
            retry_phase: Phase::RankingRetries,
            up_bytes: cost.rank_up,
            down_bytes: cost.rank_down,
        };
        let ranked =
            instance.ranking.dispatch_answer(&ct, plan, policy, Some(&ledger), serving, budget)?;
        cost.rank_server = ranked.timing;
        cost.rank_faults = ranked.report;
        let applied = ranked.response;
        drop(rank_span);

        // --- Client: decrypt scores, pick the best member.
        let ((scores, best_row), t_rankdec) = timed_span("client.rank_decrypt", || {
            let raw = instance.ranking.underhood().decrypt(&mut prepared.rank, &applied);
            let n_members = self.meta.cluster_sizes[cluster] as usize;
            let scores: Vec<i64> = raw
                .iter()
                .take(n_members)
                .map(|&s| self.quant.encoder().decode_signed(s))
                .collect();
            let best_row = scores
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .map(|(i, _)| i)
                .unwrap_or(0);
            (scores, best_row)
        });

        // --- URL service (step 3): fetch the batch of the best member.
        let url_span = tiptoe_obs::span("client.url_phase");
        let batch_idx = self.meta.batch_of(cluster, best_row);
        let uh_url = instance.url.underhood();
        let pir_client = PirClient::new(uh_url, &prepared.key);
        let (url_ct, t_urlenc) = timed(|| prepared.url_pad.seal_unit(batch_idx));
        cost.url_up = url_ct.byte_len();
        cost.url_down = sizes.url_down;
        let url_ledger = Ledger {
            transcript: &instance.transcript,
            phase: Phase::Url,
            retry_phase: Phase::UrlRetries,
            up_bytes: cost.url_up,
            down_bytes: cost.url_down,
        };
        // The URL server shares the plan's address space at index `W`,
        // after the ranking shards.
        let shard_base = instance.ranking.num_shards();
        let fetched = instance.url.dispatch_answer(
            &url_ct,
            shard_base,
            plan,
            policy,
            Some(&url_ledger),
            serving,
            budget,
        )?;
        cost.url_server = fetched.timing;
        cost.url_faults = fetched.report;
        let answer = fetched.response;
        drop(url_span);

        // --- Client: recover the record and assemble ranked URLs. A
        // malformed record (outside input) yields an empty hit list
        // instead of crashing the client.
        let (hits, t_recover) = timed_span("client.recover", || {
            let Ok(record) =
                pir_client.recover(instance.url.database(), &mut prepared.url, &answer)
            else {
                return Vec::new();
            };
            // tzip streams are self-delimiting, so the record's zero
            // padding is ignored by the decoder.
            let entries =
                crate::batch::CompressedUrlBatch::decode_payload(&record).unwrap_or_default();
            // Rows covered by this batch inside the cluster.
            let upb = self.meta.urls_per_batch as usize;
            let first_row = (best_row / upb) * upb;
            let scale2 =
                (self.quant.encoder().scale() * self.quant.encoder().scale()) as f32;
            let mut hits: Vec<RankedUrl> = entries
                .into_iter()
                .enumerate()
                .filter_map(|(offset, (doc, url))| {
                    let score = *scores.get(first_row + offset)?;
                    Some(RankedUrl { doc, url, score: score as f32 / scale2 })
                })
                .collect();
            hits.sort_by(|a, b| {
                b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
            });
            hits.truncate(k);
            hits
        });

        cost.client_time = t_encrypt + t_rankdec + t_urlenc + t_recover;
        Ok(SearchResults { cluster, hits, cost })
    }
}

/// Folds one more probe's round into a query's results: hits merged
/// best first and cut to `k`, costs summed. `cluster` stays the
/// nearest one.
fn merge_probe(mut acc: SearchResults, next: SearchResults, k: usize) -> SearchResults {
    acc.cost = add_costs(&acc.cost, &next.cost);
    acc.hits.extend(next.hits);
    acc.hits.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
    // A dual-assigned document can surface from two probes; keep
    // its best-scoring occurrence only.
    let mut seen = std::collections::HashSet::new();
    acc.hits.retain(|h| seen.insert(h.doc));
    acc.hits.truncate(k);
    acc
}

/// The `probes` nearest centroids by inner product, best first. A
/// centroid displaces a kept one only on a strictly greater score, so
/// among equals the lowest index wins; with `probes == 1` this is one
/// linear first-maximum scan.
fn nearest_centroids(centroids: &[Vec<f32>], q: &[f32], probes: usize) -> Vec<usize> {
    let mut best: Vec<(f32, usize)> = Vec::with_capacity(probes + 1);
    for (i, c) in centroids.iter().enumerate() {
        let s = tiptoe_embed::vector::dot(c, q);
        let pos = best.iter().position(|&(kept, _)| s > kept).unwrap_or(best.len());
        if pos < probes {
            best.insert(pos, (s, i));
            best.truncate(probes);
        }
    }
    best.into_iter().map(|(_, i)| i).collect()
}

/// Component-wise sum of two per-query cost records (the fault
/// reports' counters add and their shard outcomes follow one another,
/// probe by probe).
fn add_costs(a: &QueryCost, b: &QueryCost) -> QueryCost {
    QueryCost {
        token_up: a.token_up + b.token_up,
        token_down: a.token_down + b.token_down,
        rank_up: a.rank_up + b.rank_up,
        rank_down: a.rank_down + b.rank_down,
        url_up: a.url_up + b.url_up,
        url_down: a.url_down + b.url_down,
        token_server: a.token_server.then(b.token_server),
        rank_server: a.rank_server.then(b.rank_server),
        url_server: a.url_server.then(b.url_server),
        client_time: a.client_time + b.client_time,
        client_preproc: a.client_preproc + b.client_preproc,
        rank_faults: add_fault_reports(&a.rank_faults, &b.rank_faults),
        url_faults: add_fault_reports(&a.url_faults, &b.url_faults),
    }
}

fn add_fault_reports(a: &FaultReport, b: &FaultReport) -> FaultReport {
    FaultReport {
        shards: a.shards.iter().chain(&b.shards).cloned().collect(),
        retries: a.retries + b.retries,
        timeouts: a.timeouts + b.timeouts,
        corrupted: a.corrupted + b.corrupted,
        hedges: a.hedges + b.hedges,
        wasted_response_bytes: a.wasted_response_bytes + b.wasted_response_bytes,
        timing: a.timing.then(b.timing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;

    use crate::config::TiptoeConfig;

    fn build_instance() -> TiptoeInstance<TextEmbedder> {
        let corpus = generate(&CorpusConfig::small(200, 21), 20);
        let config = TiptoeConfig::test_small(200, 21);
        let embedder = TextEmbedder::new(config.d_embed, 21, 0);
        TiptoeInstance::build(&config, embedder, &corpus)
    }

    #[test]
    fn end_to_end_search_returns_ranked_urls() {
        let instance = build_instance();
        let corpus = generate(&CorpusConfig::small(200, 21), 20);
        let mut client = instance.new_client(1);
        let query = &corpus.queries[0];
        let results = client.search(&instance, &query.text, 10);
        assert!(!results.hits.is_empty());
        for w in results.hits.windows(2) {
            assert!(w[0].score >= w[1].score, "hits not sorted");
        }
        for hit in &results.hits {
            assert!(hit.url.starts_with("https://"), "bad URL {}", hit.url);
            // The URL matches the original document's URL.
            assert_eq!(hit.url, corpus.docs[hit.doc as usize].url);
        }
    }

    #[test]
    fn search_costs_are_recorded() {
        let instance = build_instance();
        let mut client = instance.new_client(2);
        let results = client.search(&instance, "museum history archive", 5);
        let c = &results.cost;
        assert!(c.token_up > 0 && c.token_down > 0);
        assert!(c.rank_up > 0 && c.rank_down > 0);
        assert!(c.url_up > 0 && c.url_down > 0);
        assert_eq!(c.total_bytes(), c.online_bytes() + c.offline_bytes());
        assert!(c.server_core_seconds() > 0.0);
        let link = LinkModel::paper();
        assert!(c.perceived_latency(&link) >= Duration::from_millis(100), "two RTTs minimum");
        // The transcript saw the same phases.
        use tiptoe_net::Direction;
        assert_eq!(instance.transcript.phase_total(Phase::Ranking, Direction::Upload), c.rank_up);
        assert_eq!(instance.transcript.phase_total(Phase::Url, Direction::Download), c.url_down);
    }

    #[test]
    fn tokens_are_single_use_and_prefetchable() {
        let instance = build_instance();
        let mut client = instance.new_client(3);
        client.fetch_token(&instance);
        client.fetch_token(&instance);
        assert_eq!(client.tokens_available(), 2);
        let _ = client.search(&instance, "health doctor", 3);
        assert_eq!(client.tokens_available(), 1);
        let _ = client.search(&instance, "travel island", 3);
        assert_eq!(client.tokens_available(), 0);
        // Next search auto-fetches.
        let _ = client.search(&instance, "recipe kitchen", 3);
        assert_eq!(client.tokens_available(), 0);
    }

    #[test]
    fn private_search_finds_the_planted_answer_often() {
        // End-to-end quality smoke test. Cluster selection is Tiptoe's
        // dominant quality bottleneck (the paper's cluster-hit rate is
        // ~35%, §8.2), so for a *smoke* test we use few, large clusters
        // to keep the hit rate high, and large batches so the answer's
        // URL travels with the batch the client fetches.
        let corpus = generate(&CorpusConfig::small(200, 22), 30);
        let mut config = TiptoeConfig::test_small(200, 22);
        config.cluster.target_size = 64;
        config.urls_per_batch = 96;
        let embedder = TextEmbedder::new(config.d_embed, 22, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let mut client = instance.new_client(4);
        let mut found = 0;
        for q in corpus.queries.iter().take(10) {
            let results = client.search(&instance, &q.text, 100);
            if results.hits.iter().any(|h| h.doc == q.relevant) {
                found += 1;
            }
        }
        assert!(found >= 5, "only {found}/10 answers found in top-100");
    }

    #[test]
    fn multiprobe_improves_or_matches_single_probe() {
        let corpus = generate(&CorpusConfig::small(200, 23), 20);
        let config = TiptoeConfig::test_small(200, 23);
        let embedder = TextEmbedder::new(config.d_embed, 23, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let mut client = instance.new_client(6);
        let mut single_found = 0;
        let mut multi_found = 0;
        for q in corpus.queries.iter().take(8) {
            let single = client.search(&instance, &q.text, 20);
            // An outer scope names the query's recorder timeline (the
            // query adopts it), so it can be read back below.
            let scope = tiptoe_obs::query_scope();
            let multi = client
                .query(&instance, &q.text, 20, QueryOptions { probes: 3, ..Default::default() })
                .expect("unbudgeted search cannot fail");
            let finished = recorder::timeline(scope.id())
                .iter()
                .filter(|e| e.kind == EventKind::Finished)
                .count();
            drop(scope);
            assert_eq!(finished, 1, "three probes are one query with one typed outcome");
            if single.hits.iter().any(|h| h.doc == q.relevant) {
                single_found += 1;
            }
            if multi.hits.iter().any(|h| h.doc == q.relevant) {
                multi_found += 1;
            }
            // Probing costs ~3x the online traffic.
            assert!(multi.cost.online_bytes() >= single.cost.online_bytes() * 2);
            // No duplicate documents after merging.
            let mut docs: Vec<u32> = multi.hits.iter().map(|h| h.doc).collect();
            docs.sort_unstable();
            docs.dedup();
            assert_eq!(docs.len(), multi.hits.len());
        }
        assert!(multi_found >= single_found, "multi {multi_found} < single {single_found}");
    }

    /// Counts `embed_text` calls on the way to a [`TextEmbedder`].
    struct CountingEmbedder(TextEmbedder, std::sync::atomic::AtomicUsize);

    impl Embedder for CountingEmbedder {
        fn dim(&self) -> usize {
            self.0.dim()
        }

        fn embed_text(&self, text: &str) -> Vec<f32> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.embed_text(text)
        }

        fn model_bytes(&self) -> u64 {
            self.0.model_bytes()
        }
    }

    #[test]
    fn a_multiprobe_query_embeds_admits_and_budgets_once() {
        let corpus = generate(&CorpusConfig::small(200, 24), 0);
        let mut config = TiptoeConfig::test_small(200, 24);
        config.admission.enabled = true;
        config.admission.max_inflight = 2;
        config.admission.deadline = Duration::from_secs(60);
        config.validate();
        let embedder = CountingEmbedder(
            TextEmbedder::new(config.d_embed, 24, 0),
            std::sync::atomic::AtomicUsize::new(0),
        );
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();
        let mut client = instance.new_client(8);
        let embeds_before = instance.embedder.1.load(std::sync::atomic::Ordering::Relaxed);

        let scope = tiptoe_obs::query_scope();
        let opts = QueryOptions { probes: 3, faults: None, plane: Some(&plane) };
        let results =
            client.query(&instance, "museum history archive", 10, opts).expect("admitted");
        let timeline = recorder::timeline(scope.id());
        drop(scope);

        let embeds = instance.embedder.1.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(embeds - embeds_before, 1, "the query text is embedded once");
        assert_eq!(plane.admission().expect("admission on").admitted(), 1, "one permit");
        // One budget: the six dispatches (ranking + URL per probe)
        // charge the same allowance and its spend only accumulates.
        let charges: Vec<_> =
            timeline.iter().filter(|e| e.kind == EventKind::BudgetCharged).collect();
        assert_eq!(charges.len(), 6, "{charges:?}");
        assert!(charges.iter().all(|e| e.c == charges[0].c), "one budget total");
        assert!(charges.windows(2).all(|w| w[0].b <= w[1].b), "spend accumulates: {charges:?}");
        // Costs keep summing per probe.
        assert_eq!(results.cost.rank_up % 3, 0);
        assert_eq!(results.cost.online_bytes() % 3, 0);
    }

    #[test]
    fn a_query_consumes_a_token_and_its_pads_together() {
        let corpus = generate(&CorpusConfig::small(200, 25), 0);
        let mut config = TiptoeConfig::test_small(200, 25);
        config.admission.enabled = true;
        config.admission.max_inflight = 1;
        config.admission.deadline = Duration::from_secs(60);
        config.validate();
        let embedder = TextEmbedder::new(config.d_embed, 25, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();
        let (mut served, mut direct) = (instance.new_client(9), instance.new_client(9));
        for _ in 0..3 {
            served.fetch_token_via(&instance, Some(&plane));
            direct.fetch_token(&instance);
        }
        let text = "museum history archive";

        // A shed query seals nothing: its token and pads stay cached.
        let held = plane.admit().expect("capacity free").expect("admission on");
        let err = served.try_search_served(&instance, text, 10, &plane).expect_err("shed");
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err:?}");
        assert_eq!(served.tokens_available(), 3, "a shed query consumes no token");
        drop(held);

        // Two probes consume two token/pad pairs, served or direct, and
        // the hits are the same bits either way.
        let two = QueryOptions { probes: 2, ..Default::default() };
        let a = served.query(&instance, text, 10, QueryOptions { plane: Some(&plane), ..two });
        let b = direct.query(&instance, text, 10, two).expect("direct");
        let a = a.expect("admitted");
        assert_eq!((served.tokens_available(), direct.tokens_available()), (1, 1));
        assert_eq!((a.cluster, &a.hits), (b.cluster, &b.hits));
        let a = served.try_search_served(&instance, text, 10, &plane).expect("admitted");
        let b = direct.search(&instance, text, 10);
        assert_eq!((served.tokens_available(), direct.tokens_available()), (0, 0));
        assert_eq!(a.hits, b.hits);
        assert!(!a.hits.is_empty());
    }

    /// Reference for the routing rule: a stable descending sort, so
    /// the first of equal scores wins, cut to `probes`.
    fn stable_sort_prefix(centroids: &[Vec<f32>], q: &[f32], probes: usize) -> Vec<usize> {
        let mut scored: Vec<(f32, usize)> = centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (tiptoe_embed::vector::dot(c, q), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        scored.into_iter().take(probes).map(|(_, i)| i).collect()
    }

    #[test]
    fn nearest_centroids_is_the_first_maximum_rule_at_every_probe_count() {
        use rand::Rng;
        let mut rng = seeded_rng(97);
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let random: Vec<Vec<f32>> =
            (0..50).map(|_| (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        // Ties: every centroid appears three times, and one score is
        // shared by all.
        let mut tied: Vec<Vec<f32>> = random.iter().take(10).cloned().collect();
        tied.extend(random.iter().take(10).cloned());
        tied.extend(random.iter().take(10).cloned());
        let flat = vec![vec![0.5f32; 8]; 12];
        for centroids in [&random, &tied, &flat] {
            for probes in [1, 2, 3, 7, centroids.len(), centroids.len() + 5] {
                assert_eq!(
                    nearest_centroids(centroids, &q, probes),
                    stable_sort_prefix(centroids, &q, probes),
                    "probes = {probes}"
                );
            }
            // The single-probe case is the linear first-maximum scan.
            let mut best = (f32::NEG_INFINITY, 0usize);
            for (i, c) in centroids.iter().enumerate() {
                let s = tiptoe_embed::vector::dot(c, &q);
                if s > best.0 {
                    best = (s, i);
                }
            }
            assert_eq!(nearest_centroids(centroids, &q, 1), vec![best.1]);
        }
    }

    #[test]
    fn each_probe_draws_the_client_rng_exactly_as_one_search() {
        // Every draw of a round (key, `Enc2(s)`, query and PIR noise)
        // is independent of the query text and the cluster, so for
        // equal seeds two searches and one two-probe query leave the
        // client RNG at the same position: routing, the probe loop and
        // the merge draw nothing.
        use rand::Rng;
        let instance = build_instance();
        let mut a = instance.new_client(11);
        let mut b = instance.new_client(11);
        let first = a.search(&instance, "health doctor symptoms", 10);
        a.search(&instance, "travel island beach", 10);
        let both = b
            .query(
                &instance,
                "health doctor symptoms",
                10,
                QueryOptions { probes: 2, ..Default::default() },
            )
            .expect("direct");
        assert_eq!(both.cluster, first.cluster, "the nearest centroid is the first probe");
        assert_eq!(a.rng.gen::<u64>(), b.rng.gen::<u64>(), "RNG streams diverged");
    }

    #[test]
    fn queries_have_identical_wire_footprint() {
        // Query privacy: sizes and message flow must not depend on the
        // query string (Definition 2.1's observable part).
        let instance = build_instance();
        let mut client = instance.new_client(5);
        let a = client.search(&instance, "health doctor symptoms", 5).cost;
        let b = client.search(&instance, "completely different query about planets", 5).cost;
        assert_eq!(a.rank_up, b.rank_up);
        assert_eq!(a.rank_down, b.rank_down);
        assert_eq!(a.url_up, b.url_up);
        assert_eq!(a.url_down, b.url_down);
        assert_eq!(a.token_up, b.token_up);
        assert_eq!(a.token_down, b.token_down);
    }
}
