//! Chaos and property-fuzz suite for the overload-safe serving plane.
//!
//! Every test here injects a failure the plane must *contain*:
//! coalescer lanes crash mid-flush under concurrent submitters,
//! partial batches race their members' withdrawals to the deadline,
//! whole availability zones of shards crash together, and more
//! clients arrive than the admission capacity can hold. The
//! invariants are always the same — no query is lost, none is
//! duplicated, none is answered incorrectly, and every failure
//! surfaces as a typed error rather than a panic.
//!
//! `TIPTOE_CHAOS_SEED` reseeds the fuzzed schedules (CI sweeps it);
//! unset, the suite runs at the default seed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tiptoe_core::client::{QueryOptions, TiptoeClient};
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_net::{CoalescePolicy, Coalescer, FaultPlan, FaultPolicy, ServeError, MAX_LANE_RETRIES};
use tiptoe_obs::recorder::flush_reason;

mod support;
use support::assert_shard_failed;

const DOCS: usize = 220;
const SEED: u64 = 51;

/// The fuzz seed: `TIPTOE_CHAOS_SEED` if set (CI sweeps a small
/// matrix of them), else the workspace default.
fn chaos_seed() -> u64 {
    std::env::var("TIPTOE_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(SEED)
}

/// SplitMix64: one multiply-xor chain per draw, so fuzzed schedules
/// are reproducible from (seed, index) without shared RNG state.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An instance under the default fault-tolerant policy.
fn build_tolerant(num_shards: usize) -> TiptoeInstance<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = num_shards;
    config.fault_policy = FaultPolicy::tolerant();
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    TiptoeInstance::build(&config, embedder, &corpus)
}

fn client(instance: &TiptoeInstance<TextEmbedder>) -> TiptoeClient {
    instance.new_client(7)
}

const QUERIES: [&str; 4] = [
    "museum history archive",
    "health doctor symptoms",
    "travel island beach",
    "recipe kitchen cooking",
];

/// Which ranking shard owns `cluster`.
fn owner_of<E: tiptoe_embed::Embedder>(instance: &TiptoeInstance<E>, cluster: usize) -> usize {
    (0..instance.ranking.num_shards())
        .find(|&w| {
            let (lo, hi) = instance.ranking.shard_clusters(w);
            (lo..hi).contains(&cluster)
        })
        .expect("every cluster has a shard")
}

#[test]
fn lane_crash_mid_flush_loses_no_request() {
    // The first two flushes panic inside the batched kernel while 16
    // submitters race. Crashed batches are failed and re-enqueued by
    // their own submitters, so with MAX_LANE_RETRIES > 2 every request
    // must still come back — exactly once, with its own answer.
    let crashes_left = AtomicU64::new(2);
    let policy = CoalescePolicy { max_batch: 4, max_wait: Duration::from_millis(5) };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        let crash = crashes_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v.saturating_sub(1)))
            .expect("update");
        if crash > 0 {
            panic!("injected mid-flush lane crash");
        }
        reqs.into_iter().map(|r| r.wrapping_mul(3).wrapping_add(1)).collect()
    });
    let crash_counter_before = tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get();
    let delivered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..16u64 {
            let c = &c;
            let delivered = &delivered;
            scope.spawn(move || {
                let resp = c
                    .submit_within(i, Duration::from_secs(60))
                    .expect("two lane crashes are within the retry budget");
                assert_eq!(
                    resp,
                    i.wrapping_mul(3).wrapping_add(1),
                    "response must belong to this request, not a co-batched one"
                );
                delivered.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(delivered.load(Ordering::SeqCst), 16, "no request lost across lane crashes");
    assert_eq!(crashes_left.load(Ordering::SeqCst), 0, "both injected crashes fired");
    assert!(
        tiptoe_obs::metrics().counter("net.coalesce.lane_crashes").get()
            >= crash_counter_before + 2
    );
}

#[test]
fn fuzzed_lane_crashes_answer_correctly_or_fail_typed() {
    // Seeded fuzz: every 4th-ish flush (by SplitMix64 over the flush
    // index) crashes. A submitter either gets its own correct answer
    // or — after MAX_LANE_RETRIES + 1 consecutive crashed flushes — a
    // typed LaneFailed. Nothing panics, nothing is miscounted.
    let seed = chaos_seed();
    let flush_idx = AtomicU64::new(0);
    let policy = CoalescePolicy { max_batch: 4, max_wait: Duration::from_millis(2) };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        let i = flush_idx.fetch_add(1, Ordering::SeqCst);
        if splitmix(seed ^ i).is_multiple_of(4) {
            panic!("fuzzed lane crash at flush {i}");
        }
        reqs.into_iter().map(|r| r ^ 0xABCD).collect()
    });
    let ok = AtomicUsize::new(0);
    let lane_failed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..24u64 {
            let (c, ok, lane_failed) = (&c, &ok, &lane_failed);
            scope.spawn(move || match c.submit_within(i, Duration::from_secs(60)) {
                Ok(resp) => {
                    assert_eq!(resp, i ^ 0xABCD, "answers never cross requests");
                    ok.fetch_add(1, Ordering::SeqCst);
                }
                Err(ServeError::LaneFailed { crashes }) => {
                    assert_eq!(crashes, MAX_LANE_RETRIES + 1, "gave up exactly at the bound");
                    lane_failed.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => panic!("unexpected error kind under lane fuzz: {e:?}"),
            });
        }
    });
    let (ok, failed) = (ok.load(Ordering::SeqCst), lane_failed.load(Ordering::SeqCst));
    assert_eq!(ok + failed, 24, "every request accounted for: answered or typed-failed");
    assert!(ok > 0, "a 1-in-4 crash rate must let most requests through");
}

#[test]
fn partial_batches_flush_on_their_deadline_exactly_once() {
    // Twelve submitters race into a lane whose cohort gauge is held
    // above any queue length, so no batch is ever complete on arrival,
    // and 12 is not a multiple of `max_batch`: whatever the arrival
    // order, at least one batch is partial and only its deadline
    // flushes it. Every member of that batch wakes at the deadline;
    // the first to find its request still queued drains and runs the
    // batch, and the others must wait for that flush's reply instead
    // of flushing again. Every request comes back exactly once with
    // its own answer.
    let max_wait = Duration::from_millis(10);
    let served = AtomicUsize::new(0);
    let policy = CoalescePolicy { max_batch: 5, max_wait };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        served.fetch_add(reqs.len(), Ordering::SeqCst);
        reqs.into_iter().map(|r| r.wrapping_mul(7).wrapping_add(3)).collect()
    })
    // Thirteen cohort members that never arrive.
    .with_cohort(Arc::new(AtomicUsize::new(13)));
    let deadline_flushes =
        |c: &Coalescer<'_, u64, u64>| c.lane_status().flushes[flush_reason::DEADLINE as usize];
    let deadline_before = deadline_flushes(&c);
    let delivered = AtomicUsize::new(0);
    let slowest_us = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for i in 0..12u64 {
            let (c, delivered, slowest_us) = (&c, &delivered, &slowest_us);
            scope.spawn(move || {
                let start = Instant::now();
                let resp = c
                    .submit_within(i, Duration::from_secs(60))
                    .expect("a partial batch must not fail requests");
                assert_eq!(resp, i.wrapping_mul(7).wrapping_add(3), "answer belongs to request");
                slowest_us.fetch_max(start.elapsed().as_micros() as u64, Ordering::SeqCst);
                delivered.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(delivered.load(Ordering::SeqCst), 12, "no request stranded in a partial batch");
    assert_eq!(served.load(Ordering::SeqCst), 12, "no request duplicated into a second flush");
    assert!(deadline_flushes(&c) > deadline_before, "a partial batch flushed on its deadline");
    // The request that started a deadline-flushed batch waited out
    // the whole wait: the deadline is the batch's own, not a stale one.
    let slowest = Duration::from_micros(slowest_us.load(Ordering::SeqCst));
    assert!(slowest >= max_wait, "no request waited out a deadline (slowest {slowest:?})");
    // The lane still coalesces afterwards: a fresh submit succeeds.
    assert_eq!(c.submit_within(100, Duration::from_secs(60)).expect("after the flush"), 703);
}

#[test]
fn withdrawal_against_a_deadline_flush_resolves_exactly_once() {
    // Seeded rounds of the withdraw-versus-flush race. Each round has
    // three submitters and one cohort member that never arrives, so
    // every batch is partial and ends by its deadline flush or by its
    // members withdrawing. Each submitter's own deadline is drawn from
    // {0.5, 1, 2} x max_wait, so withdrawals land before, at and after
    // the flush; the kernel takes a whole max_wait, so a member whose
    // deadline passes while its request is inside the flush must wait
    // for that flush rather than withdraw. Every submitter gets its own
    // answer or DeadlineExceeded, and the kernel's requests plus the
    // withdrawals account for every submission exactly once.
    const ROUNDS: u64 = 200;
    const SUBMITTERS: u64 = 3;
    let seed = chaos_seed();
    let max_wait = Duration::from_millis(2);
    let served = AtomicUsize::new(0);
    let policy = CoalescePolicy { max_batch: 8, max_wait };
    let c = Coalescer::new(policy, |reqs: Vec<u64>| {
        served.fetch_add(reqs.len(), Ordering::SeqCst);
        std::thread::sleep(max_wait);
        reqs.into_iter().map(|r| r ^ 0x5A5A).collect()
    })
    .with_cohort(Arc::new(AtomicUsize::new(1)));
    let answered = AtomicUsize::new(0);
    let withdrawn = AtomicUsize::new(0);
    for round in 0..ROUNDS {
        std::thread::scope(|scope| {
            for k in 0..SUBMITTERS {
                let i = round * SUBMITTERS + k;
                let budget = match splitmix(seed ^ i) % 3 {
                    0 => max_wait / 2,
                    1 => max_wait,
                    _ => max_wait * 2,
                };
                let (c, answered, withdrawn) = (&c, &answered, &withdrawn);
                scope.spawn(move || match c.submit_within(i, budget) {
                    Ok(resp) => {
                        assert_eq!(resp, i ^ 0x5A5A, "answers never cross requests");
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ServeError::DeadlineExceeded { .. }) => {
                        withdrawn.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => panic!("unexpected error kind in a deadline race: {e:?}"),
                });
            }
        });
    }
    let submitted = (ROUNDS * SUBMITTERS) as usize;
    let (answered, withdrawn) = (answered.load(Ordering::SeqCst), withdrawn.load(Ordering::SeqCst));
    assert_eq!(answered + withdrawn, submitted, "every submitter resolved exactly once");
    assert_eq!(
        served.load(Ordering::SeqCst) + withdrawn,
        submitted,
        "a request is served or withdrawn, never both and never neither"
    );
    assert!(answered > 0 && withdrawn > 0, "{answered} answered, {withdrawn} withdrawn");
}

#[test]
fn az_correlated_crash_degrades_exactly_the_zone() {
    // One availability zone (two of four shards) crashes as a unit.
    // Every query needs every shard, so whether or not the searched
    // cluster lives in the zone, the query fails typed, naming the
    // zone's first shard and its size — never garbage, never a panic.
    let tolerant = build_tolerant(4);
    let query = QUERIES[0];
    let healthy = client(&tolerant).search(&tolerant, query, 10);
    let owner = owner_of(&tolerant, healthy.cluster);
    let w = tolerant.ranking.num_shards();

    // Zone A spares the searched cluster's shard, zone B holds it.
    for zone in [[(owner + 1) % w, (owner + 2) % w], [owner, (owner + 1) % w]] {
        let mut zone = zone;
        zone.sort_unstable();
        let plan = FaultPlan::none().correlated_crash(&zone);
        assert_eq!(plan.correlated_groups(), &[zone.to_vec()]);
        let opts = QueryOptions { faults: Some(&plan), ..Default::default() };
        let want = ServeError::ShardFailed { shard: zone[0], failed: 2 };
        assert_shard_failed(&tolerant, &mut client(&tolerant), query, opts, &healthy.cost, want);
    }
}

#[test]
fn overload_sheds_with_typed_errors_and_conserves_every_query() {
    // Admission control at an operator-pinned capacity of 2. Phase 1
    // is deterministic: saturate the plane by hand, observe a typed
    // shed that consumes no client token, release, observe admission.
    // Phase 2 is chaotic: 8 clients arrive together against capacity
    // 2, and every odd one under a plan that crashes a shard for good;
    // whatever interleaving the scheduler picks, answered + failed +
    // shed must equal 8, every answer must be bit-identical to
    // unloaded serving, every failure must name its crashed shard, and
    // the controller's ledger must agree.
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 20);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = 3;
    config.admission.enabled = true;
    config.admission.max_inflight = 2;
    config.admission.deadline = Duration::from_secs(60); // debug-build headroom
    // Attempts long enough that no healthy shard times out on a
    // loaded debug build; a crashed one costs two of them.
    config.fault_policy = FaultPolicy {
        enabled: true,
        attempt_timeout: Duration::from_secs(5),
        max_retries: 1,
        hedge_after: None,
        deadline: Duration::from_secs(20),
        ..FaultPolicy::default()
    };
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);

    let references: Vec<Vec<_>> =
        QUERIES.iter().map(|q| client(&instance).search(&instance, q, 10).hits).collect();

    let plane = instance.serving_plane();
    let ctrl = plane.admission().expect("admission enabled");
    assert_eq!(ctrl.capacity(), 2, "operator override pins the capacity");

    // Phase 1: deterministic shed.
    let permits: Vec<_> = (0..2).map(|_| ctrl.try_admit().expect("capacity free")).collect();
    let mut c = client(&instance);
    let tokens_before = c.tokens_available();
    let sheds_before = instance.transcript.sheds();
    let err = c
        .try_search_served(&instance, QUERIES[0], 10, &plane)
        .expect_err("a saturated plane must shed");
    assert_eq!(err, ServeError::Overloaded { inflight: 2, capacity: 2 });
    assert_eq!(c.tokens_available(), tokens_before, "a shed query consumes no token");
    assert_eq!(instance.transcript.sheds(), sheds_before + 1, "the shed reaches the transcript");
    drop(permits);
    let ok = c.try_search_served(&instance, QUERIES[0], 10, &plane).expect("freed capacity");
    assert_eq!(ok.hits, references[0], "post-shed admission serves normally");

    // Phase 2: 2x overload chaos.
    let barrier = Barrier::new(8);
    let ok_count = AtomicUsize::new(0);
    let failed_count = AtomicUsize::new(0);
    let shed_count = AtomicUsize::new(0);
    let admitted_before = ctrl.admitted();
    let ctrl_sheds_before = ctrl.sheds();
    let transcript_sheds_before = instance.transcript.sheds();
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let (instance, plane, barrier) = (&instance, &plane, &barrier);
            let (references, ok_count, shed_count) = (&references, &ok_count, &shed_count);
            let failed_count = &failed_count;
            scope.spawn(move || {
                let mut c = instance.new_client(100 + i as u64);
                let crashed = i % 3;
                let plan = if i % 2 == 1 {
                    FaultPlan::none().crash_shard(crashed)
                } else {
                    FaultPlan::none()
                };
                let opts = QueryOptions { probes: 1, faults: Some(&plan), plane: Some(plane) };
                barrier.wait();
                match c.query(instance, QUERIES[i % 4], 10, opts) {
                    Ok(r) => {
                        assert_eq!(
                            r.hits,
                            references[i % 4],
                            "admitted queries stay bit-identical under overload"
                        );
                        assert_eq!(i % 2, 0, "a crashed shard cannot be answered around");
                        ok_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ServeError::ShardFailed { shard, failed }) => {
                        assert_eq!((i % 2, shard, failed), (1, crashed, 1));
                        failed_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ServeError::Overloaded { inflight, capacity }) => {
                        assert_eq!(capacity, 2);
                        assert!(inflight >= capacity);
                        shed_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => panic!("unexpected error kind under overload: {e:?}"),
                }
            });
        }
    });
    let (ok, shed) = (ok_count.load(Ordering::SeqCst), shed_count.load(Ordering::SeqCst));
    let failed = failed_count.load(Ordering::SeqCst);
    assert_eq!(ok + failed + shed, 8, "every arrival accounted for: answered, failed or shed");
    assert!(ok + failed >= 1, "the first arrivals must be admitted");
    assert_eq!(
        ctrl.admitted() - admitted_before,
        (ok + failed) as u64,
        "controller agrees on admissions"
    );
    assert_eq!(ctrl.sheds() - ctrl_sheds_before, shed as u64, "controller agrees on sheds");
    assert_eq!(
        instance.transcript.sheds() - transcript_sheds_before,
        shed as u64,
        "transcript agrees on sheds"
    );
    assert_eq!(ctrl.inflight(), 0, "every permit released");
    assert_eq!(ctrl.shed_log().len() as u64, ctrl.sheds(), "shed log covers every shed");
}
