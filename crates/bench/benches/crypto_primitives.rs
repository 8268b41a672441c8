//! Criterion microbenchmarks of the cryptographic substrate — the
//! software analogues of the Shield's engines.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shef_core::shield::chunk::{ChunkCipher, CHUNK_TAG_LEN};
use shef_crypto::aes::Aes;
use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};
use shef_crypto::ctr::{ctr_xor, ChunkIv};
use shef_crypto::ed25519::SigningKey;
use shef_crypto::field25519::FieldElement;
use shef_crypto::hmac::{hmac_sha256, HmacSha256};
use shef_crypto::pmac::pmac;
use shef_crypto::sha2::Sha256;
use shef_crypto::x25519;

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    let aes128 = Aes::new_128(&[7u8; 16]);
    let aes256 = Aes::new_256(&[7u8; 32]);
    let block = [0x5au8; 16];
    group.bench_function("aes128_block", |b| b.iter(|| aes128.encrypt_block(&block)));
    group.bench_function("aes256_block", |b| b.iter(|| aes256.encrypt_block(&block)));
    // One four-block pass (the tail pass), one full 16-block pass, and
    // the 256 blocks of a 4 KiB CTR chunk: the per-block cost CTR and
    // PMAC pay.
    let mut blocks4 = [block; 4];
    group.bench_function("aes128_blocks4", |b| {
        b.iter(|| aes128.encrypt_blocks(&mut blocks4))
    });
    let mut blocks16 = [block; 16];
    group.bench_function("aes128_blocks16", |b| {
        b.iter(|| aes128.encrypt_blocks(&mut blocks16))
    });
    let mut blocks256 = [block; 256];
    group.bench_function("aes128_blocks256", |b| {
        b.iter(|| aes128.encrypt_blocks(&mut blocks256))
    });
    for size in [512usize, 4096] {
        let mut buf = vec![0u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("ctr", size), &size, |b, _| {
            b.iter(|| ctr_xor(&aes128, &ChunkIv::for_chunk([1; 8], 0), &mut buf))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    for size in [512usize, 4096] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
        group.bench_with_input(BenchmarkId::new("hmac_sha256", size), &data, |b, d| {
            b.iter(|| hmac_sha256(b"key", d))
        });
        let aes = Aes::new_128(&[7u8; 16]);
        group.bench_with_input(BenchmarkId::new("pmac", size), &data, |b, d| {
            b.iter(|| pmac(&aes, d))
        });
        group.bench_with_input(BenchmarkId::new("ghash", size), &data, |b, d| {
            b.iter(|| shef_crypto::ghash::ghash(&[0x25u8; 16], b"", d))
        });
    }
    // Four equal-length messages from cached pads: one lockstep pass.
    let key = HmacSha256::new(b"key");
    for size in [64usize, 512] {
        let data = vec![0xa5u8; size];
        let messages = [[data.as_slice()]; 4];
        group.throughput(Throughput::Bytes(4 * size as u64));
        group.bench_with_input(
            BenchmarkId::new("hmac_sha256_x4", size),
            &messages,
            |b, m| {
                b.iter(|| {
                    let mut tags = [[0u8; 32]; 4];
                    key.mac_batch(m, |i, tag| tags[i] = tag);
                    tags
                })
            },
        );
    }
    group.finish();
}

fn bench_authenc(c: &mut Criterion) {
    let mut group = c.benchmark_group("authenc");
    for (name, alg) in [
        ("ctr_hmac", MacAlgorithm::HmacSha256),
        ("ctr_pmac", MacAlgorithm::PmacAes),
        ("ctr_gcm", MacAlgorithm::AesGcm),
    ] {
        let mut key = AuthEncKey::from_bytes([9u8; 32], alg);
        let data = vec![0x11u8; 4096];
        group.throughput(Throughput::Bytes(4096));
        group.bench_function(format!("{name}_seal_4k"), |b| {
            b.iter(|| key.seal(&data, b"chunk"))
        });
    }
    // A 4 KiB burst of 512 B HMAC chunks, as an engine set seals it:
    // two lockstep groups of four, sealed where they lie.
    let cipher = ChunkCipher::new(
        AuthEncKey::from_bytes([9u8; 32], MacAlgorithm::HmacSha256),
        [1; 8],
        "bench",
    );
    let mut data = vec![0x11u8; 4096];
    let mut tags = [[0u8; CHUNK_TAG_LEN]; 8];
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("hmac_seal_chunks_x8_512", |b| {
        b.iter(|| {
            cipher.seal(
                data.chunks_mut(512)
                    .zip(&mut tags)
                    .zip(0..)
                    .map(|((buf, tag), idx)| (idx, 0, buf, tag)),
            );
        })
    });
    group.finish();
}

fn bench_asymmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("asymmetric");
    let fa = FieldElement::from_bytes(&[0x5au8; 32]);
    let fb = FieldElement::from_bytes(&[0xc3u8; 32]);
    // black_box keeps the loop-invariant field operations in the loop.
    group.bench_function("field_mul", |b| b.iter(|| black_box(&fa).mul(&fb)));
    group.bench_function("field_square", |b| b.iter(|| black_box(&fa).square()));
    group.bench_function("field_invert", |b| b.iter(|| black_box(&fa).invert()));
    group.bench_function("ed25519_keygen", |b| {
        b.iter(|| SigningKey::from_seed(&[3u8; 32]))
    });
    let key = SigningKey::from_seed(&[3u8; 32]);
    let msg = vec![0x42u8; 256];
    let sig = key.sign(&msg);
    group.bench_function("ed25519_sign", |b| b.iter(|| key.sign(&msg)));
    group.bench_function("ed25519_verify", |b| {
        b.iter(|| key.verifying_key().verify(&msg, &sig).unwrap())
    });
    let secret = [0x77u8; 32];
    let peer = x25519::public_key(&[0x88u8; 32]);
    group.bench_function("x25519_dh", |b| {
        b.iter(|| x25519::shared_secret(&secret, &peer))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_hashes,
    bench_authenc,
    bench_asymmetric
);
criterion_main!(benches);
