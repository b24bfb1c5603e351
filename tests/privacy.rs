//! Query-privacy integration tests (paper §2, Definition 2.1, and
//! Appendix D).
//!
//! Full computational indistinguishability is a cryptographic
//! property; what a test suite *can* check mechanically is every
//! observable the definition covers: the message flow, every message's
//! exact size, and the server-visible access behavior must be
//! independent of the client's query string — and ciphertexts must not
//! repeat or leak plaintext structure.

use tiptoe_core::client::QueryOptions;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_core::instance::TiptoeInstance;
use tiptoe_corpus::synth::{generate, CorpusConfig};
use tiptoe_embed::text::TextEmbedder;
use tiptoe_lwe::{scheme::encrypt, LweParams, LweSecretKey, MatrixA};
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{Direction, FaultPlan, FaultPolicy};

fn build(seed: u64) -> TiptoeInstance<TextEmbedder> {
    build_with(seed, |_| {})
}

fn build_with(seed: u64, tweak: impl FnOnce(&mut TiptoeConfig)) -> TiptoeInstance<TextEmbedder> {
    let corpus = generate(&CorpusConfig::small(180, seed), 0);
    let mut config = TiptoeConfig::test_small(180, seed);
    tweak(&mut config);
    config.validate();
    let embedder = TextEmbedder::new(config.d_embed, seed, 0);
    TiptoeInstance::build(&config, embedder, &corpus)
}

#[test]
fn wire_transcript_is_independent_of_the_query() {
    // Queries chosen to hit different clusters, different scores,
    // different result sets.
    let queries = [
        "health doctor knee pain clinic",
        "w1 w2 w3",
        "museum",
        "completely unrelated gibberish zzzz qqqq xxxx",
    ];
    // Every way a query can be served: the footprint must not depend
    // on the query string in any of them.
    let plain = build(71);
    let admitting = build_with(71, |c| {
        c.admission.enabled = true;
        c.admission.max_inflight = 2;
        c.admission.deadline = std::time::Duration::from_secs(60);
    });
    let tolerant = build_with(71, |c| c.fault_policy = FaultPolicy::tolerant());
    let (plain_plane, admitting_plane) = (plain.serving_plane(), admitting.serving_plane());
    // The same deployment after one incremental update (§3.2). Salt the
    // text until it lands in a cluster with room.
    let mut updated = build(71);
    (0..40)
        .find_map(|salt| {
            let text = format!("fresh document about lunar gardening v{salt}");
            updated.add_document(&text, "https://www.example.com/fresh/lunar").ok()
        })
        .expect("some salt finds a cluster with room");
    let benign = FaultPlan::none();
    let direct = QueryOptions::default();
    let modes = [
        ("direct", &plain, direct),
        ("plane", &plain, QueryOptions { plane: Some(&plain_plane), ..direct }),
        ("admitting plane", &admitting, QueryOptions { plane: Some(&admitting_plane), ..direct }),
        ("benign faults", &tolerant, QueryOptions { faults: Some(&benign), ..direct }),
        ("two probes", &plain, QueryOptions { probes: 2, ..direct }),
        ("after an update", &updated, direct),
    ];
    let mut single_probe = Vec::new();
    for (mode, instance, opts) in modes {
        let mut client = instance.new_client(1);
        let mut footprints = Vec::new();
        for q in queries {
            instance.transcript.reset();
            let results = client.query(instance, q, 5, opts).expect(mode);
            let phases: Vec<(&'static str, u64, u64)> = instance
                .transcript
                .phases()
                .into_iter()
                .map(|p| {
                    (
                        p.as_str(),
                        instance.transcript.phase_total(p, Direction::Upload),
                        instance.transcript.phase_total(p, Direction::Download),
                    )
                })
                .collect();
            footprints.push((phases, results.cost.total_bytes(), results.cost.online_bytes()));
        }
        for w in footprints.windows(2) {
            assert_eq!(w[0], w[1], "{mode}: transcript shape must not depend on the query");
        }
        // The appended URL can legitimately lengthen the URL PIR record,
        // so the updated deployment's bytes are not compared with the
        // other modes'.
        if mode == "after an update" {
            continue;
        }
        if opts.probes == 1 {
            single_probe.push((mode, footprints[0].1, footprints[0].2));
        }
    }
    // The token footprint too: the fault policy changes how a shard is
    // asked, never what a fetch downloads.
    for w in single_probe.windows(2) {
        assert_eq!(w[0].1, w[1].1, "total bytes differ between {} and {}", w[0].0, w[1].0);
        assert_eq!(w[0].2, w[1].2, "online bytes differ between {} and {}", w[0].0, w[1].0);
    }
}

#[test]
fn queries_for_different_clusters_are_same_size() {
    // The cluster index i* is part of the client's secret; the upload
    // is always a dC-dimensional ciphertext regardless of i*.
    let instance = build(72);
    let mut client = instance.new_client(2);
    let mut sizes = std::collections::HashSet::new();
    let mut clusters = std::collections::HashSet::new();
    for q in ["health", "travel", "finance", "w77 w78", "galaxy planet"] {
        let r = client.search(&instance, q, 3);
        clusters.insert(r.cluster);
        sizes.insert((r.cost.rank_up, r.cost.rank_down, r.cost.url_up, r.cost.url_down));
    }
    assert!(clusters.len() > 1, "test needs queries spanning clusters");
    assert_eq!(sizes.len(), 1, "sizes leaked the cluster: {sizes:?}");
}

#[test]
fn repeated_encryptions_of_the_same_query_differ() {
    // Fresh randomness per encryption: identical plaintexts must not
    // produce identical ciphertexts (semantic security's minimum bar).
    let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
    let mut rng = seeded_rng(73);
    let a = MatrixA::new(9, 32, params.n);
    let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
    let v = vec![5u64; 32];
    let c1 = encrypt(&params, &sk, &a, &v, &mut rng);
    let c2 = encrypt(&params, &sk, &a, &v, &mut rng);
    assert_ne!(c1.c, c2.c, "ciphertexts must be randomized");
}

#[test]
fn ciphertext_words_look_uniform() {
    // χ²-style sanity check on the top byte of LWE ciphertext words:
    // the A·s term should spread mass over the full ring.
    let params = LweParams::insecure_test(64, 1 << 17, 81920.0);
    let mut rng = seeded_rng(74);
    let m = 4096;
    let a = MatrixA::new(11, m, params.n);
    let sk = LweSecretKey::<u64>::generate(&params, &mut rng);
    let v = vec![0u64; m];
    let ct = encrypt(&params, &sk, &a, &v, &mut rng);
    let mut counts = [0u32; 16];
    for &w in &ct.c {
        counts[(w >> 60) as usize] += 1;
    }
    let expected = m as f64 / 16.0;
    for (i, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expected).abs() / expected;
        assert!(dev < 0.35, "top-nibble {i} count {c} deviates {dev:.2} from uniform");
    }
}

#[test]
fn server_work_touches_every_cluster_for_any_query() {
    // The ranking answer is a product with the *entire* matrix: its
    // cost (and the response size) is the same no matter which cluster
    // the query targets — a structural non-leakage property.
    let instance = build(75);
    let mut client = instance.new_client(3);
    let r1 = client.search(&instance, "health", 3);
    let r2 = client.search(&instance, "galaxy", 3);
    assert_eq!(r1.cost.rank_down, r2.cost.rank_down);
    assert_eq!(
        instance.ranking.rows() as u64 * 8,
        r1.cost.rank_down,
        "every query downloads one full padded cluster of scores"
    );
}
