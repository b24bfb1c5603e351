//! Microbenches for the outer RLWE scheme at the production ring: the
//! calls the token path makes (the `ntt_*`, `rlwe_*` and `hint_mac`
//! rows of `bench_kernels`, here one call at a time) and the modulus
//! switch that ends token generation.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use tiptoe_math::ntt::{mul_acc_wide, NttTable, Wide};
use tiptoe_math::rng::seeded_rng;
use tiptoe_rlwe::{encrypt_scalar, expand, mod_switch, RlweContext, RlweParams, RlweSecretKey};

fn bench_ntt(c: &mut Criterion) {
    let table = NttTable::new(2048, 62);
    let q = table.modulus().value();
    let mut rng = seeded_rng(1);
    let data: Vec<u64> = (0..2048).map(|_| rng.gen_range(0..q)).collect();
    c.bench_function("ntt_forward_2048", |b| {
        b.iter(|| {
            let mut a = data.clone();
            table.forward(&mut a);
            a
        })
    });
    let mut fwd = data.clone();
    table.forward(&mut fwd);
    c.bench_function("ntt_inverse_2048", |b| {
        b.iter(|| {
            let mut a = fwd.clone();
            table.inverse(&mut a);
            a
        })
    });
}

fn bench_token_path(c: &mut Criterion) {
    let ctx = RlweContext::new(RlweParams::production());
    let mut rng = seeded_rng(2);
    let sk = RlweSecretKey::generate(&ctx, &mut rng);
    c.bench_function("rlwe_encrypt_scalar_2048", |b| {
        b.iter(|| encrypt_scalar(&ctx, &sk, 1, 3, &mut rng))
    });
    let seeded = encrypt_scalar(&ctx, &sk, 1, 3, &mut rng);
    c.bench_function("rlwe_expand_2048", |b| b.iter(|| expand(&ctx, &seeded)));
    let z = expand(&ctx, &seeded);
    let h_coeffs: Vec<u64> = (0..2048).map(|_| rng.gen_range(0..1u64 << 16)).collect();
    let h = ctx.plaintext_ntt(&h_coeffs);
    let (mut acc_a, mut acc_b) = (vec![Wide::default(); 2048], vec![Wide::default(); 2048]);
    // One coordinate into both components; the totals never reduce,
    // and the third word has room for 2^68 calls.
    c.bench_function("hint_mac_2048", |b| {
        b.iter(|| {
            mul_acc_wide(&[h.data()], &[z.a.data()], &[z.b.data()], &mut acc_a, &mut acc_b)
        })
    });
}

fn bench_mod_switch(c: &mut Criterion) {
    let ctx = RlweContext::new(RlweParams::production());
    let mut rng = seeded_rng(4);
    let sk = RlweSecretKey::generate(&ctx, &mut rng);
    let m = vec![0i64; 2048];
    let ct = expand(&ctx, &tiptoe_rlwe::encrypt(&ctx, &sk, &m, 5, &mut rng));
    c.bench_function("rlwe_mod_switch_2048", |b| b.iter(|| mod_switch(&ctx, &ct, 44)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ntt, bench_token_path, bench_mod_switch
}
criterion_main!(benches);
