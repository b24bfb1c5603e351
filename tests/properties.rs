//! Property-based tests (proptest) over the workspace's core
//! invariants: crypto round-trips, codec round-trips, packing bounds,
//! and clustering assignments.

use proptest::prelude::*;
use tiptoe_corpus::tzip;
use tiptoe_lwe::{scheme, LweParams, LweSecretKey, MatrixA};
use tiptoe_math::fixed::FixedEncoder;
use tiptoe_math::matrix::Mat;
use tiptoe_math::ntt::NttTable;
use tiptoe_math::rng::seeded_rng;
use tiptoe_math::sample::NoiseTable;
use tiptoe_math::simd::{self, KernelTier};
use tiptoe_math::zq::Word;
use tiptoe_pir::BitPacker;
use tiptoe_rlwe::{decrypt, encrypt, expand, RlweContext, RlweParams, RlweSecretKey};

/// Every keystream tier this host can run (one under
/// `TIPTOE_FORCE_SCALAR=1`).
fn supported_tiers() -> impl Iterator<Item = KernelTier> {
    [KernelTier::Scalar, KernelTier::Avx2, KernelTier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd::tier())
}

/// Lengths on both sides of the scalar tier's 8-word block, the
/// 8-lane batch's 64 words and the AVX-512 tier's 128-word batch (and
/// of one and two such batches plus an 8-lane remainder), plus the
/// deployed n = 1408 and n = 2048 and a ragged tail past the latter.
const KEYSTREAM_LENS: [usize; 20] = [
    0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 1408, 2048, 2051,
];

fn keystream_matches_stdrng<W: Word>(tier: KernelTier) {
    use rand::rngs::StdRng;
    use rand::Rng;
    let seed = 0x7157_0e5e_ed00 + W::BITS as u64;
    let key = StdRng::key_from_u64(seed);
    let mut oracle = seeded_rng(seed);
    let stream: Vec<W> = (0..8 * 13 + 2051).map(|_| W::from_u64(oracle.gen())).collect();
    // Block 0 is a whole row from its start; block 5 puts every
    // 8-block batch across two of the aligned batches of the stream,
    // and block 13 every 16-block batch.
    for start in [0usize, 5, 13] {
        for len in KEYSTREAM_LENS {
            let mut got = vec![W::ZERO; len];
            simd::keystream(tier, &key, start as u64, &mut got);
            assert_eq!(got, stream[8 * start..8 * start + len], "{tier:?} start={start} len={len}");
        }
    }
}

#[test]
fn every_supported_keystream_tier_matches_stdrng() {
    for tier in supported_tiers() {
        keystream_matches_stdrng::<u64>(tier);
        keystream_matches_stdrng::<u32>(tier);
    }
}

/// The block counter is 64 bits over two state words; a batch whose
/// lanes straddle `2^32` must carry into the high word per lane. 257
/// words are two 16-block batches (the first straddles) and a 1-block
/// tail at the AVX-512 tier.
#[test]
fn keystream_counter_carries_inside_a_batch() {
    counter_carries::<u64>();
    counter_carries::<u32>();
}

fn counter_carries<W: Word>() {
    let key = rand::rngs::StdRng::key_from_u64(3);
    let start = u64::from(u32::MAX) - 2;
    let mut want = vec![W::ZERO; 257];
    simd::keystream(KernelTier::Scalar, &key, start, &mut want);
    for tier in supported_tiers() {
        let mut got = vec![W::ZERO; 257];
        simd::keystream(tier, &key, start, &mut got);
        assert_eq!(got, want, "{tier:?} u{}", W::BITS);
    }
    // Blocks on the two sides of the carry differ (the high word is
    // not dropped): block 2^32 is not block 0.
    let mut wrapped = vec![W::ZERO; 8];
    simd::keystream(KernelTier::Scalar, &key, 0, &mut wrapped);
    assert_ne!(want[24..32], wrapped[..]);
}

/// The outer scheme's noise is the same words at every tier: the
/// keystream is (above), and the table pass treats each word alone.
#[test]
fn every_supported_tier_draws_the_same_noise() {
    let ctx = RlweContext::new(RlweParams::production());
    let table = NoiseTable::new(ctx.params().sigma);
    let key = rand::rngs::StdRng::key_from_u64(0x7157_0e5e_ed01);
    for len in [0usize, 1, 63, 64, 65, 2048, 2051] {
        let mut want = vec![0u64; len];
        table.fill(KernelTier::Scalar, &key, ctx.q(), &mut want);
        assert!(want.iter().all(|&e| e <= table.bound() || ctx.q() - e <= table.bound()));
        for tier in supported_tiers() {
            let mut got = vec![0u64; len];
            table.fill(tier, &key, ctx.q(), &mut got);
            assert_eq!(got, want, "{tier:?} len={len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tzip_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let compressed = tzip::compress(&data);
        prop_assert_eq!(tzip::decompress(&compressed).expect("own output decodes"), data);
    }

    #[test]
    fn tzip_roundtrips_repetitive_text(
        word in "[a-z]{1,8}",
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = word.as_bytes().iter().copied().cycle().take(word.len() * reps).collect();
        let compressed = tzip::compress(&data);
        prop_assert_eq!(tzip::decompress(&compressed).expect("decodes"), data);
    }

    #[test]
    fn bit_packer_roundtrips(
        p in 3u64..(1 << 20),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let packer = BitPacker::new(p);
        let packed = packer.pack(&data, data.len());
        prop_assert!(packed.iter().all(|&e| (e as u64) < p));
        prop_assert_eq!(packer.unpack(&packed, data.len()), data);
    }

    #[test]
    fn fixed_encoder_error_bounded(
        bits in 1u32..8,
        xs in proptest::collection::vec(-1.5f32..1.5, 1..64),
    ) {
        let enc = FixedEncoder::new(bits, 1 << 17);
        for &x in &xs {
            let decoded = enc.decode_signed(enc.encode(x)) as f64 / enc.scale() as f64;
            let clipped = x.clamp(-1.0, 1.0) as f64;
            prop_assert!((decoded - clipped).abs() <= 0.5 / enc.scale() as f64 + 1e-9);
        }
    }

    #[test]
    fn ntt_roundtrip_random_polys(seed in any::<u64>()) {
        let table = NttTable::new(64, 40);
        let q = table.modulus().value();
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let original: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
        let mut a = original.clone();
        table.forward(&mut a);
        table.inverse(&mut a);
        prop_assert_eq!(a, original);
    }

    #[test]
    fn lwe_selection_queries_decrypt_exactly(
        seed in any::<u64>(),
        rows in 1usize..10,
        cols in 4usize..48,
    ) {
        let params = LweParams::insecure_test(32, 991, 6.4);
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let db = Mat::from_fn(rows, cols, |_, _| rng.gen_range(0..991u64) as u32);
        let a = MatrixA::new(seed ^ 1, cols, params.n);
        let sk = LweSecretKey::<u32>::generate(&params, &mut rng);
        let target = rng.gen_range(0..cols);
        let mut v = vec![0u64; cols];
        v[target] = 1;
        let ct = scheme::encrypt(&params, &sk, &a, &v, &mut rng);
        let hint = scheme::preproc::<u32>(&db, &a.row_range(0, cols), 1);
        let applied = scheme::apply(&db, &[&ct.c], 1).remove(0);
        let got = scheme::decrypt(&params, &sk, &hint, &applied);
        let want: Vec<u64> = (0..rows).map(|r| db.get(r, target) as u64).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rlwe_roundtrip_random_messages(seed in any::<u64>()) {
        let ctx = RlweContext::new(RlweParams::insecure_test());
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let t = ctx.params().t as i64;
        let m: Vec<i64> = (0..ctx.params().degree)
            .map(|_| rng.gen_range(-(t / 2)..t / 2))
            .collect();
        let ct = encrypt(&ctx, &sk, &m, seed ^ 2, &mut rng);
        prop_assert_eq!(decrypt(&ctx, &sk, &expand(&ctx, &ct)), m);
    }

    #[test]
    fn kmeans_assignments_are_locally_optimal(
        seed in any::<u64>(),
        n in 20usize..120,
    ) {
        use tiptoe_cluster::{cluster_documents, ClusterConfig};
        use tiptoe_embed::vector::{dist2, normalize};
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let points: Vec<Vec<f32>> = (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                normalize(&mut v);
                v
            })
            .collect();
        let config = ClusterConfig {
            target_size: (n / 3).max(4),
            split_factor: 1.5,
            dual_assign_frac: 0.0,
            kmeans_sample: n,
            kmeans_iters: 8,
            seed,
        };
        let clustering = cluster_documents(&points, &config);
        // Every document sits in its nearest cluster (Lloyd fixpoint is
        // not guaranteed after splitting, so allow the second-nearest).
        for (i, &c) in clustering.primary.iter().enumerate() {
            let mut dists: Vec<(usize, f32)> = clustering
                .centroids
                .iter()
                .enumerate()
                .map(|(j, cent)| (j, dist2(&points[i], cent)))
                .collect();
            dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
            let top2: Vec<usize> = dists.iter().take(2).map(|(j, _)| *j).collect();
            prop_assert!(top2.contains(&(c as usize)), "doc {} assigned to {}", i, c);
        }
        // With dual assignment off, every member list holds exactly
        // the documents whose primary cluster it is.
        for (ci, members) in clustering.members.iter().enumerate() {
            for &m in members {
                prop_assert_eq!(clustering.primary[m as usize] as usize, ci);
            }
        }
        let total: usize = clustering.members.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn rlwe_mod_switch_preserves_headroom_messages(
        seed in any::<u64>(),
        log_q2 in 40u32..50,
    ) {
        // Production ring; messages bounded away from t/2 survive any
        // switched modulus at or above the context's safe minimum
        // (t = 2^28 -> min 40; below that the switch's own rounding
        // noise can flip message bits) and at most 49, the widest that
        // `mod_switch` admits (N·2^log_q2 < Q/2).
        let ctx = RlweContext::new(RlweParams::production());
        prop_assert!(log_q2 >= ctx.min_switch_log_q2());
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let sk = RlweSecretKey::generate(&ctx, &mut rng);
        let t = ctx.params().t as i64;
        let m: Vec<i64> = (0..ctx.params().degree)
            .map(|_| rng.gen_range(-(t / 4)..t / 4))
            .collect();
        let ct = tiptoe_rlwe::expand(&ctx, &encrypt(&ctx, &sk, &m, seed ^ 3, &mut rng));
        let switched = tiptoe_rlwe::mod_switch(&ctx, &ct, log_q2);
        prop_assert_eq!(tiptoe_rlwe::decrypt_switched(&ctx, &sk, &switched), m);
    }

    #[test]
    fn url_batch_payloads_roundtrip(
        n in 1usize..40,
        seed in any::<u64>(),
    ) {
        use tiptoe_core::batch::CompressedUrlBatch;
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let urls: Vec<(u32, String)> = (0..n)
            .map(|i| (i as u32, format!("https://www.site-{}.org/{}", rng.gen_range(0..9), i)))
            .collect();
        let entries: Vec<(u32, &str)> = urls.iter().map(|(d, u)| (*d, u.as_str())).collect();
        let batch = CompressedUrlBatch::build(&entries);
        let decoded = batch.decode().expect("decodes");
        prop_assert_eq!(decoded, urls);
    }
}
