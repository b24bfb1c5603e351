//! The deployment's serving plane: per-shard batch coalescers that
//! let concurrently arriving queries share database scans.
//!
//! The paper saturates its servers with up to 19 closed-loop clients
//! (§8.1); Wally-style cross-user batching is what makes that scale —
//! `B` concurrent ranking queries answered in one pass over each
//! shard's matrix cost roughly one scan instead of `B`. The
//! [`ServingPlane`] puts one [`Coalescer`] in front of every ranking
//! shard (flushing through the batched
//! [`RankingService::shard_answer_many`] kernel) and one in front of
//! the URL server (flushing through the batched
//! [`tiptoe_pir::PirServer::answer_many`] kernel via
//! [`UrlService::answer_many`]).
//!
//! The plane is a *routing* layer under the typed service dispatch
//! (`tiptoe_net::dispatch`): requests still flow per-query through
//! the same accounting, fault, and span middleware; only the shard
//! compute is shared. Because the batched kernels are bit-identical
//! to their sequential counterparts, coalesced answers equal
//! sequential answers byte-for-byte at every batch size.
//!
//! The plane *borrows* the services, so it is built on demand
//! ([`crate::instance::TiptoeInstance::serving_plane`]) and dropped
//! before any mutable corpus update.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tiptoe_lwe::LweCiphertext;
use tiptoe_net::{
    AdmissionController, AdmissionPermit, AdmissionPolicy, CoalescePolicy, Coalescer,
    DeadlineBudget, LaneStatus, ServeError,
};
use tiptoe_obs::recorder::flush_reason;
use tiptoe_underhood::{ExpandedSecret, QueryToken};

use crate::ranking::RankingService;
use crate::url::UrlService;

/// One client's coalesced token-fetch result: its ranking token as
/// [`RankingService::generate_token_expanded_many`] returns it plus
/// its URL token.
pub struct TokenBundle {
    /// The ranking token over the summed hint.
    pub rank: QueryToken,
    /// The URL service's token.
    pub url: QueryToken,
}

/// Batch coalescers over both services' shards, plus the plane's
/// admission controller (bounded inflight queries, deterministic
/// shedding).
/// Shareable across client threads (`&ServingPlane` is `Send + Sync`).
pub struct ServingPlane<'a> {
    rank_lanes: Vec<Coalescer<'a, Vec<u64>, Vec<u64>>>,
    url_lane: Coalescer<'a, LweCiphertext<u32>, Vec<u32>>,
    token_lane: Coalescer<'a, Arc<ExpandedSecret>, TokenBundle>,
    admission: Option<AdmissionController>,
    /// The plane-wide in-flight gauge shared by every lane (how many
    /// requests a complete batch holds), kept here for introspection.
    cohort: Arc<AtomicUsize>,
}

impl<'a> ServingPlane<'a> {
    /// Builds one coalescing lane per ranking shard plus one for the
    /// URL server and one for token fetches, under the given
    /// coalescing and admission policies.
    ///
    /// When `admission.enabled`, the plane's concurrent-query capacity
    /// is `admission.max_inflight`, and a query arriving with
    /// `capacity` inflight is shed with a typed
    /// [`ServeError::Overloaded`].
    ///
    /// # Panics
    ///
    /// Panics if any policy is invalid (use
    /// [`crate::config::TiptoeConfig::try_validate`] to surface this
    /// as a typed error at config-load time).
    pub fn new(
        ranking: &'a RankingService,
        url: &'a UrlService,
        policy: CoalescePolicy,
        admission: AdmissionPolicy,
    ) -> Self {
        policy.validate().expect("invalid coalescer policy");
        admission.validate().expect("invalid admission policy");
        // One in-flight gauge across every lane in the plane: a query
        // crosses the lanes one at a time, so "is everyone here?" (the
        // coalescer's completion rule) must be answered plane-wide — a
        // momentarily empty lane under concurrent load still has batch
        // companions parked in sibling lanes.
        let cohort = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let rank_lanes = (0..ranking.num_shards())
            .map(|idx| {
                Coalescer::new(policy, move |chunks: Vec<Vec<u64>>| {
                    ranking.shard_answer_many(idx, &chunks)
                })
                .with_cohort(cohort.clone())
            })
            .collect();
        let url_lane =
            Coalescer::new(policy, move |cts: Vec<LweCiphertext<u32>>| url.answer_many(&cts))
                .with_cohort(cohort.clone());
        // Token generation coalesces too: it is the same
        // memory-bound shape as the scans (a pass over the hint
        // polynomials instead of the matrix), so `B` concurrent token
        // fetches share one pass per service through the batched
        // hint-evaluation kernels.
        let token_lane = Coalescer::new(policy, move |secrets: Vec<Arc<ExpandedSecret>>| {
            let refs: Vec<&ExpandedSecret> = secrets.iter().map(|a| a.as_ref()).collect();
            let (rank, _) = ranking.generate_token_expanded_many(&refs);
            let url_tokens = url.generate_token_expanded_many(&refs);
            rank.into_iter().zip(url_tokens).map(|(rank, url)| TokenBundle { rank, url }).collect()
        })
        .with_cohort(cohort.clone());
        let admission = admission.enabled.then(|| AdmissionController::new(admission));
        Self { rank_lanes, url_lane, token_lane, admission, cohort }
    }

    /// Number of ranking lanes (one per shard).
    pub fn num_rank_lanes(&self) -> usize {
        self.rank_lanes.len()
    }

    /// The admission controller, when admission control is enabled.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Admits one query, or sheds it. `Ok(None)` means admission
    /// control is disabled (nothing to hold); `Ok(Some(permit))` must
    /// be held for the query's duration — dropping the permit releases
    /// the inflight slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the plane is at `capacity`
    /// inflight queries. Shedding happens
    /// *before* any bytes move or tokens are consumed, so a shed query
    /// is a clean, costless retry for the client.
    pub fn admit(&self) -> Result<Option<AdmissionPermit<'_>>, ServeError> {
        match &self.admission {
            Some(ctrl) => ctrl.try_admit().map(Some),
            None => Ok(None),
        }
    }

    /// A fresh per-query deadline budget under the admission policy,
    /// or `None` when admission control is disabled (unbudgeted
    /// queries never deadline out).
    pub fn query_budget(&self) -> Option<DeadlineBudget> {
        self.admission.as_ref().map(|c| DeadlineBudget::new(c.policy().deadline))
    }

    /// Answers one ranking chunk through shard `idx`'s coalescing
    /// lane: the request is batched with concurrently arriving chunks
    /// and flushed through the batched kernel. It is withdrawn with a
    /// typed error if no flush answers it within `deadline`
    /// (`Duration::MAX` never withdraws it), and lane crashes surface
    /// as [`ServeError::LaneFailed`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] or [`ServeError::LaneFailed`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rank_chunk_within(
        &self,
        idx: usize,
        chunk: Vec<u64>,
        deadline: Duration,
    ) -> Result<Vec<u64>, ServeError> {
        self.rank_lanes[idx].submit_within(chunk, deadline)
    }

    /// Generates one client's token bundle through the coalescing
    /// token lane: the expanded secret is batched with concurrently
    /// arriving clients' and every service's hint polynomials are read
    /// once for the whole batch. Each bundle is bit-identical to the
    /// direct per-client token generation.
    pub fn generate_tokens(&self, es: Arc<ExpandedSecret>) -> TokenBundle {
        self.token_lane.submit(es)
    }

    /// Answers one URL PIR query through the coalescing lane.
    pub fn url_answer(&self, ct: LweCiphertext<u32>) -> Vec<u32> {
        self.url_lane.submit(ct)
    }

    /// [`ServingPlane::url_answer`] under a deadline, failing typed
    /// (see [`ServingPlane::rank_chunk_within`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] or [`ServeError::LaneFailed`].
    pub fn url_answer_within(
        &self,
        ct: LweCiphertext<u32>,
        deadline: Duration,
    ) -> Result<Vec<u32>, ServeError> {
        self.url_lane.submit_within(ct, deadline)
    }

    /// A live introspection snapshot of the whole plane: per-lane
    /// occupancy, the plane-wide cohort gauge, admission counters,
    /// key latency quantiles, and SLO burn rates.
    /// Values are instantaneous and unsynchronized — this is an
    /// operator's view, not a transcript.
    pub fn status(&self) -> PlaneStatus {
        let mut lanes: Vec<(String, LaneStatus)> = self
            .rank_lanes
            .iter()
            .enumerate()
            .map(|(w, l)| (format!("rank[{w}]"), l.lane_status()))
            .collect();
        lanes.push(("url".to_string(), self.url_lane.lane_status()));
        lanes.push(("token".to_string(), self.token_lane.lane_status()));
        let admission = self.admission.as_ref().map(|c| AdmissionStatus {
            capacity: c.capacity(),
            inflight: c.inflight(),
            admitted: c.admitted(),
            sheds: c.sheds(),
        });
        let registry = tiptoe_obs::metrics();
        let histograms = PlaneStatus::WATCHED_HISTOGRAMS
            .iter()
            .map(|&name| {
                let h = registry.histogram(name);
                HistogramStatus {
                    name,
                    count: h.count(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                    max: h.max(),
                }
            })
            .collect();
        let s = tiptoe_obs::slo::slo();
        let slo = SloStatus {
            shed_short: s.shed.rate_over(tiptoe_obs::slo::SHORT_WINDOW),
            shed_long: s.shed.rate_over(tiptoe_obs::slo::LONG_WINDOW),
            shed_total: s.shed.total(),
            miss_short: s.deadline_miss.rate_over(tiptoe_obs::slo::SHORT_WINDOW),
            miss_long: s.deadline_miss.rate_over(tiptoe_obs::slo::LONG_WINDOW),
            miss_total: s.deadline_miss.total(),
        };
        PlaneStatus {
            lanes,
            cohort: self.cohort.load(Ordering::SeqCst),
            admission,
            histograms,
            slo,
        }
    }
}

/// Admission-control counters in a [`PlaneStatus`] snapshot.
#[derive(Debug, Clone)]
pub struct AdmissionStatus {
    /// Configured concurrent-query capacity.
    pub capacity: usize,
    /// Queries currently admitted and unfinished.
    pub inflight: usize,
    /// All-time admitted total.
    pub admitted: u64,
    /// All-time shed total.
    pub sheds: u64,
}

/// One watched latency histogram's quantiles in a [`PlaneStatus`]
/// snapshot (quantiles are bucket upper edges; `max` is exact).
#[derive(Debug, Clone)]
pub struct HistogramStatus {
    /// Registry name.
    pub name: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// SLO burn rates in a [`PlaneStatus`] snapshot: events per second
/// over the short (page-worthy) and long (ticket-worthy) windows.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// Shed rate over the short window (events/s).
    pub shed_short: f64,
    /// Shed rate over the long window (events/s).
    pub shed_long: f64,
    /// All-time sheds seen by the SLO counter.
    pub shed_total: u64,
    /// Deadline-miss rate over the short window (events/s).
    pub miss_short: f64,
    /// Deadline-miss rate over the long window (events/s).
    pub miss_long: f64,
    /// All-time deadline misses seen by the SLO counter.
    pub miss_total: u64,
}

/// A point-in-time introspection snapshot of a [`ServingPlane`]
/// (see [`ServingPlane::status`]); renders as JSON for exporters and
/// as a text panel for `tiptoe top`.
#[derive(Debug, Clone)]
pub struct PlaneStatus {
    /// Per-lane occupancy, labeled `rank[w]` / `url` / `token`.
    pub lanes: Vec<(String, LaneStatus)>,
    /// Plane-wide in-flight submitter count (the completion rule's
    /// population).
    pub cohort: usize,
    /// Admission counters, when admission control is enabled.
    pub admission: Option<AdmissionStatus>,
    /// Quantiles of the watched latency histograms.
    pub histograms: Vec<HistogramStatus>,
    /// SLO burn rates.
    pub slo: SloStatus,
}

impl PlaneStatus {
    /// Histograms surfaced in every snapshot: batch formation, scan
    /// latency, queue wait, and per-shard response wall time.
    pub const WATCHED_HISTOGRAMS: [&'static str; 4] = [
        "net.coalesce.batch_size",
        "net.coalesce.flush_us",
        "net.coalesce.queue_wait_us",
        "net.shard_response_us",
    ];

    /// The snapshot as a self-contained JSON object (stable field
    /// names; numbers only — safe for any exporter).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"lanes\":[");
        for (i, (name, l)) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"id\":{},\"queued\":{},\"inflight\":{},\
                 \"max_wait_us\":{},\"max_batch\":{},\"last_batch\":{},\"served\":{},\
                 \"flushes\":{{",
                l.id,
                l.queued,
                l.inflight,
                l.max_wait.as_micros(),
                l.max_batch,
                l.last_batch,
                l.served
            );
            for (code, n) in l.flushes.iter().enumerate() {
                let sep = if code > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{}\":{n}", flush_reason::name(code as u64));
            }
            out.push_str("}}");
        }
        let _ = write!(out, "],\"cohort\":{}", self.cohort);
        match &self.admission {
            Some(a) => {
                let _ = write!(
                    out,
                    ",\"admission\":{{\"capacity\":{},\"inflight\":{},\"admitted\":{},\
                     \"sheds\":{}}}",
                    a.capacity, a.inflight, a.admitted, a.sheds
                );
            }
            None => out.push_str(",\"admission\":null"),
        }
        out.push_str(",\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.name, h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        let s = &self.slo;
        let _ = write!(
            out,
            "],\"slo\":{{\"shed_short\":{:.6},\"shed_long\":{:.6},\"shed_total\":{},\
             \"miss_short\":{:.6},\"miss_long\":{:.6},\"miss_total\":{}}}}}",
            s.shed_short, s.shed_long, s.shed_total, s.miss_short, s.miss_long, s.miss_total
        );
        out
    }

    /// The snapshot as a fixed-width text panel (the `tiptoe top`
    /// view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "serving plane — cohort {} in flight", self.cohort);
        match &self.admission {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "admission   {}/{} inflight  admitted {}  shed {}",
                    a.inflight, a.capacity, a.admitted, a.sheds
                );
            }
            None => {
                let _ = writeln!(out, "admission   disabled");
            }
        }
        let _ = writeln!(
            out,
            "slo burn    shed {:.2}/s (10s) {:.2}/s (60s) total {}   miss {:.2}/s (10s) {:.2}/s (60s) total {}",
            self.slo.shed_short,
            self.slo.shed_long,
            self.slo.shed_total,
            self.slo.miss_short,
            self.slo.miss_long,
            self.slo.miss_total
        );
        let _ = write!(
            out,
            "{:<10} {:>4} {:>6} {:>8} {:>11} {:>9} {:>10}",
            "lane",
            "id",
            "queued",
            "inflight",
            "max_wait_us",
            "max_batch",
            "last_batch"
        );
        // Flushes by reason: a healthy closed loop is all `complete`
        // (or `solo`); `deadline` counts the waits for a missing
        // submitter.
        for code in 0..flush_reason::COUNT {
            let _ = write!(out, " {:>8}", flush_reason::name(code as u64));
        }
        out.push('\n');
        for (name, l) in &self.lanes {
            let _ = write!(
                out,
                "{:<10} {:>4} {:>6} {:>8} {:>11} {:>9} {:>10}",
                name,
                l.id,
                l.queued,
                l.inflight,
                l.max_wait.as_micros(),
                l.max_batch,
                l.last_batch
            );
            for n in l.flushes {
                let _ = write!(out, " {n:>8}");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "histogram", "count", "p50", "p95", "p99", "max"
        );
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8}",
                h.name, h.count, h.p50, h.p95, h.p99, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rand::Rng;
    use tiptoe_corpus::synth::{generate, CorpusConfig};
    use tiptoe_embed::text::TextEmbedder;
    use tiptoe_lwe::LweCiphertext;
    use tiptoe_math::par::observe_spans;
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_underhood::{ClientKey, EncryptedSecret};

    use crate::config::TiptoeConfig;
    use crate::instance::TiptoeInstance;

    #[test]
    fn coalesced_token_fetches_are_bit_identical() {
        let corpus = generate(&CorpusConfig::small(150, 74), 0);
        let config = TiptoeConfig::test_small(150, 74);
        let embedder = TextEmbedder::new(config.d_embed, 74, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();

        let mut rng = seeded_rng(29);
        let uh = instance.ranking.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        let es = EncryptedSecret::encrypt(uh, &key, &mut rng);

        // Direct per-client generation vs the plane's token lane, from
        // the same upload (expansion is deterministic).
        let (direct_rank, _) = instance.ranking.generate_token_expanded(&es.expand(uh));
        let (direct_url, _) = instance.url.generate_token_expanded(&es.expand(uh));
        let bundle = plane.generate_tokens(std::sync::Arc::new(es.expand(uh)));
        assert_eq!(bundle.rank.encode(), direct_rank.encode(), "coalesced rank token differs");
        assert_eq!(bundle.url.encode(), direct_url.encode(), "coalesced URL token differs");
    }

    #[test]
    fn status_snapshot_reflects_plane_shape() {
        let corpus = generate(&CorpusConfig::small(150, 74), 0);
        let config = TiptoeConfig::test_small(150, 74);
        let embedder = TextEmbedder::new(config.d_embed, 74, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();

        let status = plane.status();
        // One lane per ranking shard plus the URL and token lanes.
        assert_eq!(status.lanes.len(), plane.num_rank_lanes() + 2);
        assert_eq!(status.lanes[plane.num_rank_lanes()].0, "url");
        assert_eq!(status.lanes[plane.num_rank_lanes() + 1].0, "token");
        // An idle plane has nothing queued or in flight.
        assert_eq!(status.cohort, 0);
        for (name, lane) in &status.lanes {
            assert_eq!(lane.queued, 0, "lane {name} queued");
            assert_eq!(lane.inflight, 0, "lane {name} inflight");
            assert!(lane.max_batch >= 1);
        }
        assert_eq!(
            status.histograms.len(),
            crate::serving::PlaneStatus::WATCHED_HISTOGRAMS.len()
        );

        // Both renderings are self-contained and name every lane.
        let json = status.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "json: {json}");
        for key in ["\"lanes\"", "\"cohort\"", "\"admission\"", "\"slo\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = status.render();
        assert!(text.contains("serving plane"));
        assert!(text.contains("url"), "render lists the url lane:\n{text}");
        assert!(text.contains("last_batch") && text.contains("complete"), "flush columns:\n{text}");
        assert!(json.contains("\"flushes\":{\"full\":0"), "per-lane flush counts in {json}");
        assert!(text.contains("net.coalesce.flush_us"), "render lists histograms:\n{text}");
    }

    #[test]
    fn direct_and_lane_answers_split_the_scan_alike() {
        // A direct answer and a solo lane flush of the same request
        // run one kernel call with one thread count, so they hand out
        // the same spans (a solo flush runs on the submitting thread).
        let corpus = generate(&CorpusConfig::small(150, 74), 0);
        let config = TiptoeConfig::test_small(150, 74);
        let embedder = TextEmbedder::new(config.d_embed, 74, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let plane = instance.serving_plane();
        let mut rng = seeded_rng(13);

        let ranking = &instance.ranking;
        for idx in 0..ranking.num_shards() {
            let (lo, hi) = ranking.shard_columns(idx);
            let chunk: Vec<u64> = (lo..hi).map(|_| rng.gen()).collect();
            let direct = observe_spans(|| ranking.shard_answer(idx, &chunk));
            let lane = observe_spans(|| plane.rank_chunk_within(idx, chunk.clone(), Duration::MAX));
            assert_eq!(lane.0.expect("no deadline"), direct.0, "shard {idx}");
            assert_eq!(lane.1, direct.1, "shard {idx} spans");
        }

        let records = instance.url.database().num_records();
        let ct = LweCiphertext { c: (0..records).map(|_| rng.gen()).collect() };
        let direct = observe_spans(|| instance.url.answer(&ct).0);
        let lane = observe_spans(|| plane.url_answer(ct.clone()));
        assert_eq!(lane.0, direct.0);
        assert_eq!(lane.1, direct.1, "URL spans");
    }

    #[test]
    fn coalesced_shard_answers_are_bit_identical() {
        let corpus = generate(&CorpusConfig::small(150, 74), 0);
        let config = TiptoeConfig::test_small(150, 74);
        let embedder = TextEmbedder::new(config.d_embed, 74, 0);
        let instance = TiptoeInstance::build(&config, embedder, &corpus);
        let service = &instance.ranking;
        let plane = instance.serving_plane();

        let mut rng = seeded_rng(11);
        let uh = service.underhood();
        let key = ClientKey::generate(uh, config.rank_lwe.n, &mut rng);
        let cts: Vec<_> = (0..3)
            .map(|_| {
                let v: Vec<u64> = (0..service.upload_dim())
                    .map(|_| rng.gen_range(0..config.rank_lwe.p))
                    .collect();
                uh.encrypt_query::<u64, _>(&key, &service.public_matrix(), &v, &mut rng)
            })
            .collect();

        // Concurrent full-ciphertext answers through the plane equal
        // the sequential service answers exactly.
        let coalesced: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = cts
                .iter()
                .map(|ct| {
                    let plane = &plane;
                    scope.spawn(move || {
                        let (answer, _) = service.answer_via(ct, Some(plane));
                        answer
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (ct, got) in cts.iter().zip(coalesced.iter()) {
            let (sequential, _) = service.answer(ct);
            assert_eq!(&sequential, got, "coalesced answers must be bit-identical");
        }
    }
}
