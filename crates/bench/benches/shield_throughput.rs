//! Criterion benchmarks of the Shield datapath itself: functional
//! (wall-clock) throughput of engine-set reads/writes under different
//! configurations and lane counts, the per-op cost of a 64 B buffer hit
//! and miss and of a zero-filled 768 B row write, the Data Owner's
//! client-side sealing and opening of 64 B chunks, plus the end-to-end
//! vecadd harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shef_accel::harness::{run_baseline, run_shielded_parallel};
use shef_accel::vecadd::VectorAdd;
use shef_accel::CryptoProfile;
use shef_core::shield::client;
use shef_core::shield::{
    AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, RegionConfig, Shield, ShieldConfig,
    WorkerPool,
};
use shef_crypto::authenc::MacAlgorithm;
use shef_crypto::ecies::EciesKeyPair;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

fn shielded_setup(
    chunk: usize,
    mac: MacAlgorithm,
    buffer_bytes: usize,
) -> (Shield, Shell, Dram, DataEncryptionKey) {
    shielded_setup_with(EngineSetConfig {
        chunk_size: chunk,
        mac,
        buffer_bytes,
        ..EngineSetConfig::default()
    })
}

fn shielded_setup_with(engine_set: EngineSetConfig) -> (Shield, Shell, Dram, DataEncryptionKey) {
    let config = ShieldConfig::builder()
        .region("bench", MemRange::new(0, 1 << 20), engine_set)
        .build()
        .unwrap();
    let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"bench")).unwrap();
    let dek = DataEncryptionKey::from_bytes([1u8; 32]);
    let lk = dek.to_load_key(&shield.public_key());
    shield.provision_load_key(&lk).unwrap();
    let mut dram = Dram::f1_default();
    let region = shield.config().regions[0].clone();
    let enc = client::encrypt_region(&dek, &region, &vec![0x33u8; 1 << 20], 0);
    dram.tamper_write(0, &enc.ciphertext);
    dram.tamper_write(shield.config().tag_base(0), &enc.tags);
    (shield, Shell::new(), dram, dek)
}

fn bench_shield_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("shield_read");
    group.sample_size(20);
    // The 4 KiB HMAC configuration also sweeps 1, 2 and 4 worker lanes.
    for (name, chunk, mac, lanes) in [
        ("c512_hmac", 512usize, MacAlgorithm::HmacSha256, 1usize),
        ("c4096_hmac", 4096, MacAlgorithm::HmacSha256, 1),
        ("c4096_hmac_l2", 4096, MacAlgorithm::HmacSha256, 2),
        ("c4096_hmac_l4", 4096, MacAlgorithm::HmacSha256, 4),
        ("c4096_pmac", 4096, MacAlgorithm::PmacAes, 1),
        ("c4096_gcm", 4096, MacAlgorithm::AesGcm, 1),
    ] {
        let (mut shield, mut shell, mut dram, _) = shielded_setup(chunk, mac, 64 * 1024);
        let pool = WorkerPool::new(lanes);
        group.throughput(Throughput::Bytes(1 << 20));
        group.bench_function(BenchmarkId::new("stream_1mb", name), |b| {
            b.iter(|| {
                let mut ledger = CostLedger::new();
                // Fresh engine state per iteration would re-derive keys;
                // re-reading through the (small) buffer still exercises
                // the full decrypt+verify path for most chunks.
                shield
                    .read(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        0,
                        1 << 20,
                        AccessMode::Streaming,
                        &pool,
                    )
                    .unwrap()
            })
        });
    }
    // One 64 B accelerator read on 64 B HMAC chunks, the affine gather's
    // geometry, on one lane: `hit_64b` re-reads a resident chunk;
    // `miss_64b` alternates two chunks through a one-line buffer, so
    // every read evicts a clean line and opens a chunk from DRAM.
    for (name, buffer_bytes, flip) in [("hit_64b", 4096, 0u64), ("miss_64b", 0, 64)] {
        let (mut shield, mut shell, mut dram, _) =
            shielded_setup(64, MacAlgorithm::HmacSha256, buffer_bytes);
        let pool = WorkerPool::new(1);
        let mut ledger = CostLedger::new();
        let mut addr = 0u64;
        group.throughput(Throughput::Bytes(64));
        group.bench_function(name, |b| {
            b.iter(|| {
                addr ^= flip;
                shield
                    .read(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        addr,
                        64,
                        AccessMode::Streaming,
                        &pool,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_shield_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("shield_write");
    group.sample_size(20);
    // One 768 B row written to a zero-filling 4 KiB buffer of 64 B HMAC
    // chunks, affine's output geometry: once the buffer is full, every
    // row zero-fills 12 lines and evicts and seals 12 dirty ones.
    let (mut shield, mut shell, mut dram, _) = shielded_setup_with(EngineSetConfig {
        chunk_size: 64,
        mac: MacAlgorithm::HmacSha256,
        buffer_bytes: 4096,
        zero_fill_writes: true,
        ..EngineSetConfig::default()
    });
    let pool = WorkerPool::new(1);
    let mut ledger = CostLedger::new();
    let row = vec![0x5au8; 768];
    let rows = (1u64 << 20) / 768;
    let mut r = 0u64;
    group.throughput(Throughput::Bytes(768));
    group.bench_function("row_768b_zero_fill", |b| {
        b.iter(|| {
            r = (r + 1) % rows;
            shield
                .write(
                    &mut shell,
                    &mut dram,
                    &mut ledger,
                    r * 768,
                    &row,
                    AccessMode::Streaming,
                    &pool,
                )
                .unwrap()
        })
    });
    group.finish();
}

fn bench_client(c: &mut Criterion) {
    let mut group = c.benchmark_group("client");
    group.sample_size(20);
    // 288 chunks of 64 B (18 KiB) under HMAC: the Data Owner's per-chunk
    // cost at affine's chunk size.
    let region = RegionConfig {
        name: "bench".into(),
        range: MemRange::new(0, 64 * 288),
        engine_set: EngineSetConfig {
            chunk_size: 64,
            mac: MacAlgorithm::HmacSha256,
            ..EngineSetConfig::default()
        },
    };
    let dek = DataEncryptionKey::from_bytes([1u8; 32]);
    let plaintext = vec![0x33u8; 64 * 288];
    let enc = client::encrypt_region(&dek, &region, &plaintext, 0);
    group.throughput(Throughput::Bytes(64 * 288));
    group.bench_function("encrypt_64b_x288", |b| {
        b.iter(|| client::encrypt_region(&dek, &region, &plaintext, 0))
    });
    group.bench_function("decrypt_64b_x288", |b| {
        b.iter(|| {
            client::decrypt_region(
                &dek,
                &region,
                &enc.ciphertext,
                &enc.tags,
                &client::uniform_epochs(0),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_vecadd_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("vecadd_harness");
    group.sample_size(10);
    let pool = WorkerPool::new(1);
    group.bench_function("baseline_256k", |b| {
        b.iter(|| {
            let mut accel = VectorAdd::new(256 * 1024, 1);
            run_baseline(&mut accel).unwrap()
        })
    });
    group.bench_function("shielded_256k_aes16x", |b| {
        b.iter(|| {
            let mut accel = VectorAdd::new(256 * 1024, 1);
            run_shielded_parallel(&mut accel, &CryptoProfile::AES128_16X, 2, &pool).unwrap()
        })
    });
    group.finish();
}

fn bench_replay_defences(c: &mut Criterion) {
    use shef_core::shield::engine::EngineSet;
    use shef_core::shield::merkle::MerkleConfig;

    let mut group = c.benchmark_group("replay_defence");
    group.sample_size(20);
    for (name, counters, merkle) in [
        ("counters", true, None),
        (
            "merkle_a8_cached",
            false,
            Some(MerkleConfig {
                arity: 8,
                node_cache_bytes: 16 * 1024,
            }),
        ),
        (
            "merkle_a8_uncached",
            false,
            Some(MerkleConfig {
                arity: 8,
                node_cache_bytes: 0,
            }),
        ),
    ] {
        let region = RegionConfig {
            name: "bench".into(),
            range: MemRange::new(0, 256 * 1024),
            engine_set: EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 4096,
                counters,
                merkle,
                ..EngineSetConfig::default()
            },
        };
        let dek = DataEncryptionKey::from_bytes([8u8; 32]);
        let mut es = EngineSet::new(region, 0, 32 << 20, 48 << 20, &dek);
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 30);
        let mut ledger = CostLedger::new();
        let pool = WorkerPool::new(1);
        // Provision once with full-chunk writes.
        for start in (0..256 * 1024u64).step_by(512) {
            es.write(
                &mut shell,
                &mut dram,
                &mut ledger,
                start,
                &[0u8; 512],
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        }
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        group.bench_function(BenchmarkId::new("rmw_64", name), |b| {
            let mut n = 0u64;
            b.iter(|| {
                n = n.wrapping_mul(6364136223846793005).wrapping_add(97);
                let addr = (n >> 16) % (256 * 1024 - 64);
                let mut ledger = CostLedger::new();
                let got = es
                    .read(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        addr,
                        64,
                        AccessMode::Streaming,
                        &pool,
                    )
                    .unwrap();
                es.write(
                    &mut shell,
                    &mut dram,
                    &mut ledger,
                    addr,
                    &got,
                    AccessMode::Streaming,
                    &pool,
                )
                .unwrap();
                es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shield_reads,
    bench_shield_writes,
    bench_client,
    bench_vecadd_end_to_end,
    bench_replay_defences
);
criterion_main!(benches);
