//! Smoke tests asserting the *shape* of every experiment the benchmark
//! harness regenerates: who wins, roughly by how much, and where the
//! crossovers fall — scaled down so they run inside `cargo test`.

use shef::accel::bitcoin::Bitcoin;
use shef::accel::dnnweaver::DnnWeaver;
use shef::accel::harness::{overhead, run_baseline, run_shielded};
use shef::accel::sdp::{SdpEngineConfig, SdpStore};
use shef::accel::vecadd::VectorAdd;
use shef::accel::{Accelerator, CryptoProfile};
use shef::core::shield::area::shield_area;
use shef::core::shield::WorkerPool;

#[test]
fn fig5_shape_grows_with_size_and_separates_profiles() {
    // Overhead increases with vector size for the weak profile…
    let small = overhead(
        &|| Box::new(VectorAdd::new(16 * 1024, 1)) as Box<dyn Accelerator>,
        &CryptoProfile::AES128_4X,
        1,
        None,
    )
    .unwrap();
    let large = overhead(
        &|| Box::new(VectorAdd::new(SMOKE_FILE_BYTES, 1)) as Box<dyn Accelerator>,
        &CryptoProfile::AES128_4X,
        1,
        None,
    )
    .unwrap();
    assert!(
        large.normalized > small.normalized,
        "fig5 must grow with size"
    );
    // …and 16x beats 4x at the same size.
    let strong = overhead(
        &|| Box::new(VectorAdd::new(SMOKE_FILE_BYTES, 1)) as Box<dyn Accelerator>,
        &CryptoProfile::AES128_16X,
        1,
        None,
    )
    .unwrap();
    assert!(strong.normalized < large.normalized, "16x must beat 4x");
}

/// Debug builds run the software crypto ~50× slower than release; scale
/// the workload so `cargo test` stays fast while release keeps the full
/// fidelity.
const SMOKE_FILE_BYTES: usize = if cfg!(debug_assertions) {
    64 * 1024
} else {
    512 * 1024
};

#[test]
fn table2_shape_hmac_flat_pmac_wins_then_saturates() {
    let cols = SdpEngineConfig::table2_columns();
    let run = |engines| {
        overhead(
            &move || {
                Box::new(SdpStore::new(
                    SMOKE_FILE_BYTES,
                    2,
                    vec![
                        shef::accel::sdp::SdpOp::Get(0),
                        shef::accel::sdp::SdpOp::Get(1),
                    ],
                    engines,
                    5,
                )) as Box<dyn Accelerator>
            },
            &CryptoProfile::AES128_16X,
            1,
            None,
        )
        .unwrap()
        .normalized
    };
    let hmac_4x = run(cols[0].1);
    let hmac_16x = run(cols[1].1);
    let pmac_4 = run(cols[2].1);
    let pmac_8 = run(cols[3].1);
    let pmac_16 = run(cols[4].1);
    // HMAC rows are within a few percent of each other (HMAC-bound).
    assert!(
        (hmac_4x - hmac_16x).abs() / hmac_4x < 0.05,
        "{hmac_4x} vs {hmac_16x}"
    );
    // The PMAC swap is the big win (threshold relaxed at the debug scale
    // where fixed DMA costs compress ratios).
    let pmac_win = if cfg!(debug_assertions) { 0.95 } else { 0.8 };
    assert!(
        pmac_4 < hmac_16x * pmac_win,
        "PMAC must cut the overhead substantially: {pmac_4} vs {hmac_16x}"
    );
    // Engine scaling saturates.
    assert!(pmac_8 <= pmac_4 + 0.01);
    assert!(
        (pmac_16 - pmac_8).abs() < 0.15,
        "8x→16x engines must saturate"
    );
}

#[test]
fn fig6_dnnweaver_pmac_story() {
    let pool = WorkerPool::new(1);
    let mut hmac = DnnWeaver::new(2, 3);
    let hmac_cycles = run_shielded(&mut hmac, &CryptoProfile::AES128_16X, 1, &pool, None)
        .unwrap()
        .cycles;
    let mut pmac = DnnWeaver::new(2, 3).with_pmac_weights();
    let pmac_cycles = run_shielded(&mut pmac, &CryptoProfile::AES128_16X_PMAC, 1, &pool, None)
        .unwrap()
        .cycles;
    let mut base = DnnWeaver::new(2, 3);
    let base_cycles = run_baseline(&mut base).unwrap().cycles;
    // DNNWeaver is the most expensive workload to shield (≫1.5x even at
    // this reduced batch; 3.2x at the Fig. 6 scale)…
    assert!(hmac_cycles.0 as f64 / base_cycles.0 as f64 > 1.5);
    // …and PMAC recovers a large part of it.
    assert!(pmac_cycles < hmac_cycles);
}

#[test]
fn fig6_bitcoin_is_free_to_shield() {
    let report = overhead(
        &|| Box::new(Bitcoin::new(12, 9)) as Box<dyn Accelerator>,
        &CryptoProfile::AES256_4X,
        1,
        None,
    )
    .unwrap();
    assert!(
        report.normalized < 1.05,
        "bitcoin overhead {}",
        report.normalized
    );
}

#[test]
fn table3_bitcoin_area_is_minimal() {
    let bitcoin = Bitcoin::new(12, 0);
    let conv = shef::accel::conv::Convolution::new(shef::accel::conv::ConvDims::small(), 0);
    let b = shield_area(&bitcoin.shield_config(&CryptoProfile::AES128_16X));
    let c = shield_area(&conv.shield_config(&CryptoProfile::AES128_16X));
    assert!(
        b.lut < c.lut / 5,
        "register-only shield must be far smaller"
    );
    assert_eq!(b.bram, 0);
}

#[test]
fn boot_time_matches_paper_headline() {
    let t = shef::core::boot::BootTiming::ultra96();
    assert!((t.total_ms() / 1000.0 - 5.1).abs() < 0.05);
}

#[test]
fn integrity_ablation_shape_counters_free_merkle_pays() {
    let pool = WorkerPool::new(1);
    // Scaled-down version of the integrity_ablation bench: counters
    // match MAC-only exactly on engine-lane cycles; the Merkle tree
    // costs a multiple; the node cache recovers part of the gap.
    use shef::core::shield::engine::{AccessMode, EngineSet};
    use shef::core::shield::{
        DataEncryptionKey, EngineSetConfig, Freshness, MemRange, MerkleConfig, RegionConfig,
    };
    use shef::fpga::clock::CostLedger;
    use shef::fpga::dram::Dram;
    use shef::fpga::shell::Shell;

    let run = |freshness: Freshness| -> u64 {
        let region = RegionConfig {
            name: "fmap".into(),
            range: MemRange::new(0, 64 * 1024),
            engine_set: EngineSetConfig {
                chunk_size: 64,
                buffer_bytes: 1024,
                freshness,
                ..EngineSetConfig::default()
            },
        };
        let dek = DataEncryptionKey::from_bytes([0x61u8; 32]);
        let mut es = EngineSet::new(region, 0, 16 << 20, 24 << 20, &dek);
        let (mut shell, mut dram) = (Shell::new(), Dram::new(1 << 26));
        let mut ledger = CostLedger::new();
        for start in (0..64 * 1024u64).step_by(64) {
            es.write(
                &mut shell,
                &mut dram,
                &mut ledger,
                start,
                &[0u8; 64],
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        }
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let mut ledger = CostLedger::new();
        let mut state = 7u64;
        for _ in 0..256 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(11);
            let addr = (state >> 16) % (64 * 1024 - 8);
            let b = es
                .read(
                    &mut shell,
                    &mut dram,
                    &mut ledger,
                    addr,
                    8,
                    AccessMode::Streaming,
                    &pool,
                )
                .unwrap();
            es.write(
                &mut shell,
                &mut dram,
                &mut ledger,
                addr,
                &b,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap();
        }
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        ledger.bottleneck().0
    };

    let mac_only = run(Freshness::None);
    let counters = run(Freshness::Counters);
    let merkle_cached = run(Freshness::Merkle(MerkleConfig {
        arity: 8,
        node_cache_bytes: 8 * 1024,
    }));
    let merkle = run(Freshness::Merkle(MerkleConfig {
        arity: 8,
        node_cache_bytes: 0,
    }));
    assert_eq!(counters, mac_only, "on-chip counters are free at run time");
    assert!(
        merkle > 2 * counters,
        "uncached tree pays node walks: {merkle} vs {counters}"
    );
    assert!(
        merkle_cached < merkle,
        "node cache recovers part of the gap"
    );
}

#[test]
fn mac_engine_sweep_shape_gcm_between_families() {
    // The MAC-engine ablation's streaming ordering at C=4KB with one
    // engine: GCM (16 B/cyc) < HMAC (12 B/cyc) < PMAC (7 B/cyc) lane
    // occupancy per chunk.
    use shef::core::shield::timing::mac_chunk_cost;
    use shef::core::shield::EngineSetConfig;
    use shef::crypto::authenc::MacAlgorithm;

    let cost = |mac: MacAlgorithm| {
        let cfg = EngineSetConfig {
            chunk_size: 4096,
            mac,
            ..EngineSetConfig::default()
        };
        mac_chunk_cost(&cfg, 4096).lane
    };
    let hmac = cost(MacAlgorithm::HmacSha256);
    let pmac = cost(MacAlgorithm::PmacAes);
    let gcm = cost(MacAlgorithm::AesGcm);
    assert!(gcm < hmac, "one GHASH engine outruns one HMAC engine");
    assert!(hmac < pmac, "one PMAC engine is the slowest single engine");
    // …but PMAC/GCM parallelize within a chunk, HMAC does not: at 4
    // engines the blocking latency ordering flips against HMAC.
    let latency4 = |mac: MacAlgorithm| {
        let cfg = EngineSetConfig {
            chunk_size: 4096,
            mac,
            mac_engines: 4,
            ..EngineSetConfig::default()
        };
        mac_chunk_cost(&cfg, 4096).latency
    };
    assert!(latency4(MacAlgorithm::PmacAes) < latency4(MacAlgorithm::HmacSha256));
    assert!(latency4(MacAlgorithm::AesGcm) < latency4(MacAlgorithm::HmacSha256));
}
