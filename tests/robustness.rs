//! Malicious-server robustness tests.
//!
//! The paper's threat model (§2): "In the face of malicious servers,
//! Tiptoe guarantees neither the availability of its service nor the
//! correctness of its results." What the *client implementation* must
//! still guarantee is memory safety and graceful failure: a server
//! returning garbage must never crash the client, corrupt unrelated
//! state, or trick a decoder into unbounded allocation.

use std::time::Duration;

use rand::Rng;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_core::config::TiptoeConfig;
use tiptoe_corpus::tzip;
use tiptoe_lwe::{LweCiphertext, LweParams, MatrixA};
use tiptoe_math::rng::seeded_rng;
use tiptoe_net::{AdmissionController, AdmissionPolicy};
use tiptoe_pir::{PirClient, PirDatabase, PirServer};
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, QueryToken, Underhood};

fn test_underhood() -> Underhood {
    let lwe = LweParams::insecure_test(32, 991, 6.4);
    let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
    Underhood::with_outer(lwe, rlwe, 44)
}

#[test]
fn garbage_ranking_answer_yields_garbage_not_panic() {
    // A malicious ranking service substitutes random words for the
    // true M·ct. The client decrypts garbage scores — allowed by the
    // threat model — but must not crash.
    let uh = test_underhood();
    let mut rng = seeded_rng(1);
    let cols = 16;
    let db = tiptoe_math::matrix::Mat::from_fn(6, cols, |_, _| rng.gen_range(0..16u32));
    let a = MatrixA::new(3, cols, uh.lwe().n);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let hint = tiptoe_lwe::scheme::preproc::<u32>(&db, &a.row_range(0, cols), 1);
    let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
    let mut decoded = uh.decode_token::<u32>(&key, &token);

    let forged: Vec<u32> = (0..6).map(|_| rng.gen()).collect();
    let scores = uh.decrypt(&mut decoded, &forged);
    assert_eq!(scores.len(), 6);
    assert!(scores.iter().all(|&s| s < uh.lwe().p), "scores stay reduced mod p");
}

#[test]
fn garbage_pir_record_fails_to_decode_gracefully() {
    let uh = test_underhood();
    let mut rng = seeded_rng(2);
    let records: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 50]).collect();
    let db = PirDatabase::build_with_params(&records, *uh.lwe());
    let server = PirServer::new(db, 7, uh.clone());
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let token = server.generate_token(&es);
    let client = PirClient::new(&uh, &key);
    let mut decoded = client.decode_token(&token);
    let _ct = client.query(&server.public_matrix(), 8, 3, &mut rng);
    // The server answers with random words of the right length.
    let forged: Vec<u32> = (0..server.database().rows()).map(|_| rng.gen()).collect();
    let bytes =
        client.recover(server.database(), &mut decoded, &forged).expect("right-length answer");
    // Recovered garbage; decoding it as a URL batch must error (or
    // yield nothing), never panic.
    let decoded_batch = CompressedUrlBatch::decode_payload(&bytes);
    if let Ok(entries) = decoded_batch {
        assert!(entries.len() <= records.len() * 4, "bounded output from garbage");
    }

    // A *truncated* answer must surface as an error, not a panic.
    let short = &forged[..forged.len() / 2];
    let mut decoded2 = client.decode_token(&server.generate_token(&es));
    assert!(client.recover(server.database(), &mut decoded2, short).is_err());
}

#[test]
fn fuzzed_token_bytes_never_panic_the_decoder() {
    let uh = test_underhood();
    let mut rng = seeded_rng(3);
    for round in 0..300 {
        let len = rng.gen_range(0..400usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // Either parses (structurally valid by luck) or errors — both
        // fine; panics and hangs are not.
        let _ = QueryToken::decode(&bytes);
        if let Ok(es) = EncryptedSecret::decode(&bytes, &uh) {
            es.expand(&uh);
        }
        let _ = LweCiphertext::<u64>::decode(&bytes);
        let _ = LweCiphertext::<u32>::decode(&bytes);
        let _ = tzip::decompress(&bytes);
        let _ = round;
    }
}

#[test]
fn bitflipped_valid_messages_never_panic_decoders() {
    // Start from VALID encodings and flip one random bit at a time —
    // the adversarial sweet spot for parser bugs.
    let uh = test_underhood();
    let mut rng = seeded_rng(4);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let base = es.encode();
    // A server expands what it decodes; a flipped bit that survives
    // decoding (a seed bit, a low word bit) must survive that too, and
    // so must every truncation.
    let mut still_decoded = 0;
    for _ in 0..100 {
        let mut mutated = base.clone();
        let bit = rng.gen_range(0..mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) = EncryptedSecret::decode(&mutated, &uh) {
            assert_eq!(decoded.expand(&uh).len(), es.len());
            still_decoded += 1;
        }
        let cut = rng.gen_range(0..base.len());
        assert!(EncryptedSecret::decode(&base[..cut], &uh).is_err(), "cut at {cut}");
    }
    assert!(still_decoded > 0, "some single-bit flips must still decode");

    let compressed = tzip::compress(b"the quick brown fox jumps over the lazy dog repeatedly");
    for _ in 0..200 {
        let mut mutated = compressed.clone();
        let bit = rng.gen_range(0..mutated.len() * 8);
        mutated[bit / 8] ^= 1 << (bit % 8);
        let _ = tzip::decompress(&mutated);
    }
}

#[test]
fn config_rejects_inconsistent_parameters() {
    // Misconfiguration must fail fast at validation, not corrupt a
    // deployment.
    let mut config = TiptoeConfig::test_small(100, 1);
    config.d_reduced = config.d_embed + 1;
    assert!(std::panic::catch_unwind(move || config.validate()).is_err());

    let mut config2 = TiptoeConfig::test_small(100, 1);
    config2.num_shards = 0;
    assert!(std::panic::catch_unwind(move || config2.validate()).is_err());
}

#[test]
fn shed_decisions_are_deterministic_for_a_given_arrival_schedule() {
    // Overload shedding must be a pure function of the arrival order:
    // replaying the same admit/depart schedule against a fresh
    // controller reproduces the same admit/shed outcome for every
    // arrival and the same shed log, arrival for arrival.
    let policy = AdmissionPolicy {
        enabled: true,
        max_inflight: 2,
        queue_depth: 1,
        deadline: Duration::from_secs(1),
    };
    let run = |seed: u64| {
        let ctrl = AdmissionController::new(policy);
        let mut rng = seeded_rng(seed);
        let mut held = Vec::new();
        let mut outcomes = Vec::new();
        for _ in 0..64 {
            if rng.gen_range(0..3u32) == 0 && !held.is_empty() {
                drop(held.remove(0)); // a running query finishes
            } else {
                outcomes.push(match ctrl.try_admit() {
                    Ok(permit) => {
                        held.push(permit);
                        true
                    }
                    Err(_) => false,
                });
            }
        }
        drop(held);
        assert_eq!(ctrl.inflight(), 0, "every permit released");
        (outcomes, ctrl.shed_log(), ctrl.admitted(), ctrl.sheds())
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same schedule, same shed set");
    assert!(a.3 > 0, "the schedule must overload the capacity");
    assert!(a.2 > 0, "and still admit work");
    // A different schedule produces a different record — the log is
    // data, not a constant.
    let c = run(43);
    assert_ne!(a.1, c.1, "shed logs track the actual schedule");
}
