//! Decoder fuzzing: every protocol decoder must survive arbitrary and
//! mutated bytes without panicking, and must bound its allocations by
//! the *received* data rather than attacker-declared lengths.
//!
//! Complements `tests/robustness.rs` (seeded random sweeps) with
//! property-based coverage and deterministic hostile-header cases.

use proptest::prelude::*;
use tiptoe_core::batch::CompressedUrlBatch;
use tiptoe_corpus::tzip;
use tiptoe_lwe::{LweCiphertext, LweParams};
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::wire::WireError;
use tiptoe_net::{open_traced, seal_traced};
use tiptoe_rlwe::RlweParams;
use tiptoe_underhood::{ClientKey, EncryptedSecret, QueryToken, Underhood};

fn test_underhood() -> Underhood {
    let lwe = LweParams::insecure_test(32, 991, 6.4);
    let rlwe = RlweParams { degree: 64, q_bits: 58, t: 1 << 24, sigma: 3.2 };
    Underhood::with_outer(lwe, rlwe, 44)
}

/// What a server does with an upload: decode it, then expand whatever
/// decoded. Neither step may panic, whatever the bytes.
fn decode_and_expand(bytes: &[u8]) -> Result<usize, WireError> {
    let uh = test_underhood();
    EncryptedSecret::decode(bytes, &uh).map(|es| es.expand(&uh).len())
}

/// A valid encoded secret + token pair to mutate from.
fn valid_messages() -> (Vec<u8>, Vec<u8>) {
    let uh = test_underhood();
    let mut rng = seeded_rng(99);
    let db = tiptoe_math::matrix::Mat::from_fn(6, 16, |i, j| ((i * 17 + j * 5) % 16) as u32);
    let a = tiptoe_lwe::MatrixA::new(3, 16, uh.lwe().n);
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let hint = tiptoe_lwe::scheme::preproc::<u32>(&db, &a.row_range(0, 16), 1);
    let token = uh.generate_token(&uh.preprocess_hint(&hint), &es);
    (es.encode(), token.encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = decode_and_expand(&data);
        let _ = QueryToken::decode(&data);
        let _ = LweCiphertext::<u32>::decode(&data);
        let _ = LweCiphertext::<u64>::decode(&data);
        let _ = tzip::decompress(&data);
        let _ = CompressedUrlBatch::decode_payload(&data);
        let _ = open_traced(&data);
    }

    #[test]
    fn mutated_valid_secrets_never_panic(
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let (es_bytes, _) = valid_messages();
        let mut mutated = es_bytes;
        let i = idx % mutated.len();
        mutated[i] ^= xor;
        let _ = decode_and_expand(&mutated);
    }

    #[test]
    fn mutated_valid_tokens_never_panic(
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let (_, token_bytes) = valid_messages();
        let mut mutated = token_bytes;
        let i = idx % mutated.len();
        mutated[i] ^= xor;
        let _ = QueryToken::decode(&mutated);
    }

    #[test]
    fn truncated_valid_tokens_never_panic(cut in 0usize..4096) {
        let (es_bytes, token_bytes) = valid_messages();
        let t = cut % (token_bytes.len() + 1);
        let _ = QueryToken::decode(&token_bytes[..t]);
        let e = cut % (es_bytes.len() + 1);
        let _ = decode_and_expand(&es_bytes[..e]);
    }

    #[test]
    fn tampered_envelopes_are_rejected_not_parsed(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        trace_id in any::<u64>(),
        idx in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let sealed = seal_traced(&payload, trace_id);
        prop_assert_eq!(open_traced(&sealed).expect("own envelope opens"), (trace_id, &payload[..]));
        let mut tampered = sealed.clone();
        let i = idx % tampered.len();
        tampered[i] ^= xor;
        prop_assert!(open_traced(&tampered).is_err(), "bit flip at {i} must be caught");
        // Any truncation is caught too.
        let t = idx % sealed.len();
        prop_assert!(open_traced(&sealed[..t]).is_err());
    }

    #[test]
    fn tzip_decoder_output_is_bounded_by_the_declared_header(
        body in proptest::collection::vec(any::<u8>(), 4..512),
    ) {
        if let Ok(out) = tzip::decompress(&body) {
            let declared = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            prop_assert_eq!(out.len(), declared);
        }
    }
}

#[test]
fn hostile_length_headers_fail_fast_without_huge_allocation() {
    // tzip: a 4 GiB declared size must be rejected up front (the
    // decoder caps declared sizes and clamps its pre-allocation).
    let mut hostile = vec![0u8; 64];
    hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(tzip::decompress(&hostile).is_err());

    // Envelope: a huge declared payload length on a short buffer.
    let valid = seal_traced(b"ok", 7);
    let mut huge = valid.clone();
    huge[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(open_traced(&huge).is_err());

    // Query token: a row count far beyond the shipped chunks.
    let (_, token_bytes) = valid_messages();
    let mut rows_forged = token_bytes.clone();
    rows_forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(QueryToken::decode(&rows_forged).is_err());

    // Encrypted secret: the largest count the decoder admits, at the
    // production ring (16 GiB of polynomials if believed), over the
    // bytes of one ciphertext. The one buffer is sized by the bytes.
    let production = Underhood::new(LweParams::ranking_text());
    let mut counted = (1u32 << 20).to_le_bytes().to_vec();
    counted.extend_from_slice(&[0u8; 8]);
    counted.extend_from_slice(&2048u32.to_le_bytes());
    counted.extend_from_slice(&[0u8; 8 * 2048]);
    assert_eq!(EncryptedSecret::decode(&counted, &production).err(), Some(WireError::Truncated));
    counted[..4].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(EncryptedSecret::decode(&counted, &production).map(|es| es.len()), Ok(1));

    // The originals still parse after all this.
    assert!(QueryToken::decode(&token_bytes).is_ok());
    assert_eq!(open_traced(&valid).expect("valid"), (7, &b"ok"[..]));
}

#[test]
fn hostile_secret_uploads_are_rejected_at_decode_not_at_expand() {
    // Each of these decoded fine before decoding knew the ring, and
    // then tripped an assertion inside `expand`.
    let (es_bytes, _) = valid_messages();
    assert_eq!(decode_and_expand(&es_bytes), Ok(test_underhood().lwe().n));

    // Layout: count u32 | per ciphertext: seed u64, length u32, words.
    let first_word = 4 + 8 + 4;
    let mut unreduced = es_bytes.clone();
    unreduced[first_word + 7] ^= 0x80; // top bit of the first b word
    assert!(matches!(decode_and_expand(&unreduced), Err(WireError::Invalid(_))));

    // A first polynomial one word short, the message otherwise well
    // framed (the count field and the bytes agree).
    let mut short = es_bytes.clone();
    short[12..16].copy_from_slice(&63u32.to_le_bytes());
    short.drain(first_word..first_word + 8);
    assert!(matches!(decode_and_expand(&short), Err(WireError::Invalid(_))));

    // One ciphertext whose polynomial is empty.
    let mut empty = 1u32.to_le_bytes().to_vec();
    empty.extend_from_slice(&[0u8; 12]);
    assert!(matches!(decode_and_expand(&empty), Err(WireError::Invalid(_))));
}

#[test]
fn pir_recover_rejects_short_answers_gracefully() {
    use tiptoe_math::rng::seeded_rng;
    use tiptoe_pir::{PirClient, PirDatabase, PirServer};
    let uh = test_underhood();
    let mut rng = seeded_rng(5);
    let records: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8 + 1; 40]).collect();
    let db = PirDatabase::build_with_params(&records, *uh.lwe());
    let server = PirServer::new(db, 11, uh.clone());
    let key = ClientKey::generate(&uh, uh.lwe().n, &mut rng);
    let es = EncryptedSecret::encrypt(&uh, &key, &mut rng);
    let client = PirClient::new(&uh, &key);
    let ct = client.query(&server.public_matrix(), 6, 2, &mut rng);
    let answer = server.answer(&ct);

    for cut in [0, 1, answer.len() / 2, answer.len() - 1] {
        let mut decoded = client.decode_token(&server.generate_token(&es));
        assert!(
            client.recover(server.database(), &mut decoded, &answer[..cut]).is_err(),
            "cut={cut} must error"
        );
    }
    let mut decoded = client.decode_token(&server.generate_token(&es));
    let got = client.recover(server.database(), &mut decoded, &answer).expect("full answer");
    assert_eq!(&got[..40], &records[2][..]);
}
