//! Micro-benchmarks of the software PA substrate: the QARMA-like cipher,
//! signing, and authentication throughput. `pa/mac24` is the cipher call
//! every PAC cache miss pays; `pa/sign` signs a new value each time and
//! so misses both `PaContext`'s PAC memo and the per-thread cache behind
//! it; the two sign-then-auth cases time the memo's hit path, and
//! `pa/request_pattern` a server request's: a fresh context whose PACs
//! earlier requests on the thread already computed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pythia_pa::{cipher, Key128, PaContext, PaKey};

fn bench_cipher(c: &mut Criterion) {
    let key = Key128::from_seed(7);
    c.bench_function("pa/cipher_encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            std::hint::black_box(cipher::encrypt(key, 0xABCD, x))
        })
    });
    c.bench_function("pa/mac24", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            std::hint::black_box(cipher::mac(key, 0xABCD, x, 24))
        })
    });
}

fn bench_sign_auth(c: &mut Criterion) {
    let ctx = PaContext::from_seed(1);
    c.bench_function("pa/sign", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1) & 0xffff_ffff;
            std::hint::black_box(ctx.sign(PaKey::Da, v, 0x7fff_0040))
        })
    });
    // CPA's SSA pair: sign a fresh value, then authenticate it with the
    // same modifier. The sign misses the PAC memo; the auth hits it.
    c.bench_function("pa/sign_auth_pair", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1) & 0xffff_ffff;
            let signed = ctx.sign(PaKey::Da, v, 0x7fff_0040);
            std::hint::black_box(ctx.auth(PaKey::Da, signed, 0x7fff_0040))
        })
    });
    // The auth alone, timed after a sign of the same pair: a memo hit.
    c.bench_function("pa/sign_then_auth", |b| {
        let mut v = 0u64;
        b.iter_batched(
            || {
                v = v.wrapping_add(1) & 0xffff_ffff;
                ctx.sign(PaKey::Da, v, 0x7fff_0040)
            },
            |signed| std::hint::black_box(ctx.auth(PaKey::Da, signed, 0x7fff_0040)),
            BatchSize::SmallInput,
        )
    });
}

/// One server request's PA traffic: a fresh `PaContext` (a request VM
/// builds its own) signs each of 200 `(value, slot)` pairs and
/// authenticates it back. Every request uses the same keys and pairs, as
/// requests of one epoch do, so after the first iteration the thread's
/// cache is warm while each context's memo starts cold.
fn bench_request_pattern(c: &mut Criterion) {
    let pairs: Vec<(u64, u64)> = (0..200u64)
        .map(|i| (cipher::splitmix64(i) & 0xff_ffff_ffff, 0x7fff_0000 + 8 * i))
        .collect();
    c.bench_function("pa/request_pattern", |b| {
        b.iter(|| {
            let ctx = PaContext::from_seed(1);
            let mut acc = 0u64;
            for &(v, slot) in &pairs {
                let signed = ctx.sign(PaKey::Da, v, slot);
                acc ^= ctx.auth(PaKey::Da, signed, slot).unwrap_or(0);
            }
            std::hint::black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_cipher, bench_sign_auth, bench_request_pattern
}
criterion_main!(benches);
