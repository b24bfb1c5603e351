//! Serving-plane integration tests: cross-client batch coalescing
//! must be invisible in results — bit-identical to sequential serving
//! at every batch size, and failing the same typed way under injected
//! faults.

use rand::Rng;
use tiptoe_core::client::QueryOptions;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, Corpus, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_lwe::LweCiphertext;
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{FaultPlan, FaultPolicy, ServeError};
use tiptoe_obs::recorder::flush_reason;
use tiptoe_underhood::ClientKey;

mod support;
use support::assert_shard_failed;

const SEED: u64 = 83;
const DOCS: usize = 200;
const SHARDS: usize = 4;

fn build(policy: Option<FaultPolicy>) -> (Corpus, TiptoeInstance<TextEmbedder>) {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 24);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = SHARDS;
    if let Some(p) = policy {
        config.fault_policy = p;
    }
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    (corpus, instance)
}

/// `n` ranking ciphertexts over uniformly random plaintext vectors.
fn random_cts(
    instance: &TiptoeInstance<TextEmbedder>,
    rng: &mut impl Rng,
    n: usize,
) -> Vec<LweCiphertext<u64>> {
    let service = &instance.ranking;
    let uh = service.underhood();
    let key = ClientKey::generate(uh, instance.config.rank_lwe.n, rng);
    (0..n)
        .map(|_| {
            let v: Vec<u64> = (0..service.upload_dim())
                .map(|_| rng.gen_range(0..instance.config.rank_lwe.p))
                .collect();
            uh.encrypt_query::<u64, _>(&key, &service.public_matrix(), &v, rng)
        })
        .collect()
}

/// Concurrent ciphertext-level answers through the plane equal the
/// sequential service answers exactly, at batch sizes around, at, and
/// beyond the coalescer's `max_batch`.
#[test]
fn coalesced_answers_are_bit_identical_at_every_batch_size() {
    let (_, instance) = build(None);
    let service = &instance.ranking;
    let mut rng = seeded_rng(5);
    for batch in [1usize, 3, 19] {
        let cts = random_cts(&instance, &mut rng, batch);
        let plane = instance.serving_plane();
        let coalesced: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = cts
                .iter()
                .map(|ct| {
                    let plane = &plane;
                    scope.spawn(move || service.answer_via(ct, Some(plane)).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        for (ct, got) in cts.iter().zip(&coalesced) {
            let (sequential, _) = service.answer(ct);
            assert_eq!(&sequential, got, "batch size {batch} must be bit-identical");
        }
    }
}

/// Full end-to-end searches through the plane return the same hits,
/// clusters, and wire footprint as direct searches with the same
/// client seed.
#[test]
fn served_searches_match_direct_searches_end_to_end() {
    let (corpus, instance) = build(None);
    let plane = instance.serving_plane();
    // Same seed ⇒ same keys, tokens, and query randomness; the only
    // difference is the serving mode.
    let mut direct = instance.new_client(11);
    let mut served = instance.new_client(11);
    for q in corpus.queries.iter().take(3) {
        let a = direct.search(&instance, &q.text, 10);
        let opts = QueryOptions { plane: Some(&plane), ..Default::default() };
        let b = served.query(&instance, &q.text, 10, opts).expect("admission is off");
        assert_eq!(a.cluster, b.cluster, "cluster drifted: {}", q.text);
        assert_eq!(a.hits, b.hits, "hits drifted: {}", q.text);
        assert_eq!(a.cost.rank_up, b.cost.rank_up);
        assert_eq!(a.cost.rank_down, b.cost.rank_down);
        assert_eq!(a.cost.url_up, b.cost.url_up);
        assert_eq!(a.cost.url_down, b.cost.url_down);
    }
}

/// Nineteen concurrent clients through the plane (well past
/// `max_batch`, so flushes mix requests from different clients) each
/// get exactly the result they would have gotten alone.
#[test]
fn concurrent_served_searches_stay_bit_identical() {
    let (corpus, instance) = build(None);
    let clients = 19usize;
    let expect: Vec<_> = (0..clients)
        .map(|i| {
            let mut c = instance.new_client(100 + i as u64);
            let q = &corpus.queries[i % corpus.queries.len()];
            let r = c.search(&instance, &q.text, 10);
            (r.cluster, r.hits)
        })
        .collect();
    let plane = instance.serving_plane();
    let got: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (plane, corpus, instance) = (&plane, &corpus, &instance);
                scope.spawn(move || {
                    let mut c = instance.new_client(100 + i as u64);
                    let q = &corpus.queries[i % corpus.queries.len()];
                    let r = c
                        .try_search_served(instance, &q.text, 10, plane)
                        .expect("admission is off");
                    (r.cluster, r.hits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    assert_eq!(expect, got, "coalesced fleet must match sequential clients");
}

/// Four closed-loop submitters through the real plane: every lane they
/// cross flushes when the fourth arrives, so they share each scan (mean
/// batch 4, asserted ≥ 3 from the lanes' own flush counts) and each
/// still gets exactly the answer it would have gotten alone.
#[test]
fn four_submitters_share_scans_and_stay_bit_identical() {
    const SUBMITTERS: usize = 4;
    const OPS: usize = 20;
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 24);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = SHARDS;
    // Only a quarter-second stall may flush a batch short of a member,
    // so the counts below are decided by arrivals, not by the scheduler.
    config.coalesce.max_wait = std::time::Duration::from_millis(250);
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);
    let service = &instance.ranking;
    let cts = random_cts(&instance, &mut seeded_rng(9), SUBMITTERS);
    let direct: Vec<Vec<u64>> = cts.iter().map(|ct| service.answer(ct).0).collect();
    let plane = instance.serving_plane();
    // One thread per submitter, each running `ops` on its own ciphertext.
    let fleet = |ops: &(dyn Fn(usize) + Sync)| {
        std::thread::scope(|scope| {
            for i in 0..SUBMITTERS {
                scope.spawn(move || ops(i));
            }
        });
    };
    // (flushes, requests served) over the ranking lanes so far.
    let scans = || {
        let status = plane.status();
        status.lanes[..plane.num_rank_lanes()].iter().fold((0, 0), |(f, r), (_, lane)| {
            (f + lane.flushes.iter().sum::<u64>(), r + lane.served)
        })
    };

    // Gather the fleet on one lane at a time first, until a flush there
    // holds all four (they all see it and stop together). On a single
    // lane a straggler is absorbed when the others come back round, but
    // across lanes two groups half a cycle apart only close up because a
    // larger batch scans longer, and at 200 documents no scan takes long.
    for w in 0..plane.num_rank_lanes() {
        let (lo, hi) = service.shard_columns(w);
        fleet(&|i| loop {
            plane
                .rank_chunk_within(w, cts[i].c[lo..hi].to_vec(), std::time::Duration::MAX)
                .expect("unbudgeted lanes answer");
            if plane.status().lanes[w].1.last_batch == SUBMITTERS {
                break;
            }
        });
    }
    let (flushes_before, served_before) = scans();
    fleet(&|i| {
        for _ in 0..OPS {
            let (got, _) = service.answer_via(&cts[i], Some(&plane));
            assert_eq!(got, direct[i], "coalesced answer must be bit-identical");
        }
    });
    let (flushes, served) = scans();
    let (flushes, served) = (flushes - flushes_before, served - served_before);
    assert_eq!(served as usize, SUBMITTERS * OPS * plane.num_rank_lanes());
    assert!(served >= 3 * flushes, "mean batch {served}/{flushes} is below 3");
}

/// A lone client pays no coalescing latency: with nobody to batch
/// with, every lane it crosses flushes solo instead of waiting for
/// the flush deadline, so a served search stays within a small factor
/// of a direct one even under a deliberately deployment-scale
/// deadline. (The old thread-cooperative scheduler made a lone query
/// wait out `max_wait` once per lane — with this config's 200 ms
/// deadline across the token, shard, and URL lanes, well over a
/// second of pure idle waiting per query.)
#[test]
fn solo_served_searches_do_not_wait_out_the_flush_deadline() {
    let corpus = generate(&CorpusConfig::small(DOCS, SEED), 24);
    let mut config = TiptoeConfig::test_small(DOCS, SEED);
    config.num_shards = SHARDS;
    config.coalesce.max_wait = std::time::Duration::from_millis(200);
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, SEED, 0);
    let instance = TiptoeInstance::build(&config, embedder, &corpus);

    let mut direct = instance.new_client(41);
    let mut served = instance.new_client(41);
    let q = &corpus.queries[0];
    let t0 = std::time::Instant::now();
    let a = direct.search(&instance, &q.text, 10);
    let direct_elapsed = t0.elapsed();
    let plane = instance.serving_plane();
    // (flushes, solo flushes) over the ranking lanes and the URL lane.
    let scans = || {
        let status = plane.status();
        status.lanes[..=plane.num_rank_lanes()].iter().fold((0, 0), |(f, s), (_, lane)| {
            (f + lane.flushes.iter().sum::<u64>(), s + lane.flushes[flush_reason::SOLO as usize])
        })
    };
    let (flushes_before, solo_before) = scans();
    let t0 = std::time::Instant::now();
    let b = served.try_search_served(&instance, &q.text, 10, &plane).expect("admission is off");
    let served_elapsed = t0.elapsed();
    assert_eq!(a.hits, b.hits, "solo served search must stay bit-identical");

    // The mechanism: the lone query cost exactly one scan a ranking
    // shard plus one URL scan, and every one of them flushed solo.
    // The counts are this plane's own, so no concurrent test moves them.
    let (flushes, solo) = scans();
    let (flushes, solo) = (flushes - flushes_before, solo - solo_before);
    assert_eq!(flushes, plane.num_rank_lanes() as u64 + 1, "one scan a shard plus the URL scan");
    assert_eq!(solo, flushes, "a lone served search must take the solo fast path");
    // The latency pin, with slack for debug builds and CI noise: the
    // old scheduler's per-lane idle waits would add over a second
    // here; a small multiple of direct latency is the budget.
    assert!(
        served_elapsed < direct_elapsed * 3 + std::time::Duration::from_millis(100),
        "solo served search took {served_elapsed:?} vs direct {direct_elapsed:?}"
    );
}

/// Coalescing composes with fault injection: under a seeded plan with
/// a crashed shard, served searches fail exactly like unserved ones —
/// the same typed error naming the same shard, the same bytes on the
/// transcript, one token used up each.
#[test]
fn served_faulty_searches_match_unserved_faulty_searches() {
    let (corpus, instance) = build(Some(FaultPolicy::tolerant()));
    let crashed = 2usize;
    let plan = FaultPlan::none().crash_shard(crashed);
    let plane = instance.serving_plane();
    let mut unserved = instance.new_client(21);
    let mut served = instance.new_client(21);
    let want = ServeError::ShardFailed { shard: crashed, failed: 1 };
    for q in corpus.queries.iter().take(2) {
        let healthy = instance.new_client(22).search(&instance, &q.text, 10);
        let direct = QueryOptions { faults: Some(&plan), ..Default::default() };
        assert_shard_failed(&instance, &mut unserved, &q.text, direct, &healthy.cost, want);
        let via = QueryOptions { plane: Some(&plane), ..direct };
        assert_shard_failed(&instance, &mut served, &q.text, via, &healthy.cost, want);
    }
}

/// Benign-plan parity on the served fault-tolerant path: with nothing
/// failing, coalesced fault-tolerant searches equal plain searches.
#[test]
fn served_benign_plan_is_bit_identical_to_plain_search() {
    let (corpus, plain) = build(None);
    let (_, tolerant) = build(Some(FaultPolicy::tolerant()));
    let plane = tolerant.serving_plane();
    let mut a = plain.new_client(31);
    let mut b = tolerant.new_client(31);
    let q = &corpus.queries[0];
    let ra = a.search(&plain, &q.text, 10);
    let benign = FaultPlan::none();
    let opts = QueryOptions { probes: 1, faults: Some(&benign), plane: Some(&plane) };
    let rb = b.query(&tolerant, &q.text, 10, opts).expect("admission is off");
    assert_eq!(ra.cluster, rb.cluster);
    assert_eq!(ra.hits, rb.hits);
    assert!(rb.cost.rank_faults.all_ok() && rb.cost.url_faults.all_ok());
}
