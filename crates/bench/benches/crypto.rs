//! Crypto substrate throughput: SHA-1, HMAC PRF, Bloom ops.
//! The PPS cost model (§5.7) is denominated in these operations.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use roar_crypto::bloom::BloomFilter;
use roar_crypto::prf::{HmacPrf, Prf};
use roar_crypto::sha1::sha1;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(30);

    let block = vec![0xA5u8; 4096];
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("sha1_4k", |b| b.iter(|| sha1(&block)));
    group.throughput(Throughput::Elements(1));

    let prf = HmacPrf::new(b"bench-key");
    group.bench_function("hmac_prf_20B", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            prf.eval(&i.to_be_bytes())
        })
    });

    let mut bf = BloomFilter::new(7200);
    for i in 0..2500u64 {
        bf.set(i.wrapping_mul(0x9E3779B97F4A7C15));
    }
    group.bench_function("bloom_probe", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            bf.get(i.wrapping_mul(0xC2B2AE3D27D4EB4F))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
