//! Integrity-scheme ablation: on-chip counters vs Bonsai Merkle Trees.
//!
//! §5.2.2 makes a quantitative claim without a table: "Merkle Trees are
//! expensive for FPGA designs that need to access every tree node from
//! DRAM, unlike CPUs that can benefit from multiple tiers of caches …
//! \[with on-chip counters\] only one extra DRAM access is needed,
//! eliminating excessive off-chip accesses associated with Merkle
//! Trees." This harness implements the Merkle baseline the paper argues
//! against and measures exactly that comparison on a feature-map-like
//! random-access read-modify-write workload.
//!
//! A second sweep exercises the swappable-MAC-engine claim of §5.2.2 by
//! comparing the HMAC, PMAC and GHASH/GCM engines on one streaming
//! region.

use shef_bench::{header, kv_row};
use shef_core::shield::area::engine_set as engine_set_area;
use shef_core::shield::config::{EngineSetConfig, Freshness, MemRange, RegionConfig};
use shef_core::shield::engine::{AccessMode, EngineSet};
use shef_core::shield::merkle::MerkleConfig;
use shef_core::shield::timing::chunk_crypto_cost;
use shef_core::shield::{DataEncryptionKey, WorkerPool};
use shef_crypto::authenc::MacAlgorithm;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

/// Region geometry: 1 MB of feature-map-like state in 64 B chunks — the
/// DNNWeaver feature-map shape of §6.2.4 ("the feature maps cover
/// approximately 1 MB of memory", C_mem = 64 B).
const REGION_LEN: u64 = 1 << 20;
const CHUNK: usize = 64;
const BUFFER: usize = 4 * 1024;
const OPS: usize = 4_000;

struct SchemeResult {
    label: String,
    bottleneck: u64,
    dram_reads: u64,
    dram_writes: u64,
    extra_reads_per_op: f64,
    ocm_kbits: u64,
}

fn region(freshness: Freshness) -> RegionConfig {
    RegionConfig {
        name: "fmap".into(),
        range: MemRange::new(0, REGION_LEN),
        engine_set: EngineSetConfig {
            chunk_size: CHUNK,
            buffer_bytes: BUFFER,
            freshness,
            ..EngineSetConfig::default()
        },
    }
}

/// Random-access read-modify-write trace, deterministic across schemes.
fn addresses() -> Vec<u64> {
    let mut state = 0x243f_6a88_85a3_08d3u64;
    (0..OPS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 20) % (REGION_LEN - CHUNK as u64)
        })
        .collect()
}

fn run_scheme(label: &str, freshness: Freshness) -> SchemeResult {
    let region = region(freshness);
    let area = engine_set_area(&region.engine_set, REGION_LEN);
    let dek = DataEncryptionKey::from_bytes([0x17u8; 32]);
    let mut es = EngineSet::new(region, 0, 48 << 20, 56 << 20, &dek);
    let mut shell = Shell::new();
    let mut dram = Dram::new(1 << 30);
    let mut ledger = CostLedger::new();
    let pool = WorkerPool::new(1);

    // Warm the region with one sequential write pass (provisioning), then
    // reset accounting so only the steady-state RMW trace is measured.
    for chunk_start in (0..REGION_LEN).step_by(CHUNK) {
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            chunk_start,
            &[0u8; CHUNK],
            AccessMode::Streaming,
            &pool,
        )
        .expect("warm-up write");
    }
    es.flush(&mut shell, &mut dram, &mut ledger, &pool)
        .expect("warm-up flush");
    dram.reset_accounting();
    let mut ledger = CostLedger::new();

    let mut baseline_reads = 0u64;
    for (i, &addr) in addresses().iter().enumerate() {
        let mut word = es
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                addr,
                8,
                AccessMode::Streaming,
                &pool,
            )
            .expect("trace read");
        word[0] = word[0].wrapping_add(1);
        es.write(
            &mut shell,
            &mut dram,
            &mut ledger,
            addr,
            &word,
            AccessMode::Streaming,
            &pool,
        )
        .expect("trace write");
        baseline_reads += 1;
        // Periodic flush models the kernel's working-set turnover.
        if i % 512 == 511 {
            es.flush(&mut shell, &mut dram, &mut ledger, &pool)
                .expect("periodic flush");
        }
    }
    es.flush(&mut shell, &mut dram, &mut ledger, &pool)
        .expect("final flush");

    ledger.merge(dram.ledger());
    let stats = dram.stats();
    // "Extra" reads: DRAM read bursts beyond the one data+tag pair per
    // buffer miss. The MAC-only scheme defines the floor.
    let misses = es.stats().misses;
    SchemeResult {
        label: label.to_owned(),
        bottleneck: ledger.bottleneck().0,
        dram_reads: stats.read_bursts,
        dram_writes: stats.write_bursts,
        extra_reads_per_op: (stats.read_bursts.saturating_sub(misses * 2)) as f64
            / baseline_reads as f64,
        ocm_kbits: area.ocm_bits / 1024,
    }
}

fn integrity_sweep() {
    header(
        "Integrity ablation: replay-protection scheme (1 MB fmap, C=64B, 4 KB buffer, 4k RMW ops)",
    );
    let tree = |arity, node_cache_bytes| {
        Freshness::Merkle(MerkleConfig {
            arity,
            node_cache_bytes,
        })
    };
    let schemes: Vec<SchemeResult> = [
        ("MAC only (no replay protection)", Freshness::None),
        ("on-chip counters (ShEF, §5.2.2)", Freshness::Counters),
        ("Bonsai MT, arity 8, no node cache", tree(8, 0)),
        ("Bonsai MT, arity 8, 16 KB cache", tree(8, 16 * 1024)),
        ("Bonsai MT, arity 32, no node cache", tree(32, 0)),
    ]
    .into_iter()
    .map(|(label, freshness)| run_scheme(label, freshness))
    .collect();
    let floor = schemes[0].bottleneck.max(1);
    println!(
        "{:<38} {:>10} {:>9} {:>11} {:>11} {:>10} {:>9}",
        "scheme", "cycles", "slowdown", "rd bursts", "wr bursts", "extra rd/op", "OCM Kb"
    );
    for s in &schemes {
        println!(
            "{:<38} {:>10} {:>8.2}x {:>11} {:>11} {:>10.2} {:>9}",
            s.label,
            s.bottleneck,
            s.bottleneck as f64 / floor as f64,
            s.dram_reads,
            s.dram_writes,
            s.extra_reads_per_op,
            s.ocm_kbits,
        );
    }
    println!();
    kv_row(
        "paper claim (§5.2.2)",
        "counters need 'only one extra DRAM access' vs the tree's per-node walks",
    );
    kv_row(
        "expected shape",
        "counters ≈ MAC-only + OCM; BMT pays node traffic; cache recovers most of it",
    );
    println!();
}

fn mac_engine_sweep() {
    header("MAC-engine ablation: HMAC vs PMAC vs GHASH/GCM (streaming 1 MB, C=4KB)");
    println!(
        "{:<12} {:>14} {:>16} {:>12} {:>10}",
        "engine", "lane cyc/MB", "blk latency", "LUT/engine", "REG/engine"
    );
    for mac in [
        MacAlgorithm::HmacSha256,
        MacAlgorithm::PmacAes,
        MacAlgorithm::AesGcm,
    ] {
        let cfg = EngineSetConfig {
            chunk_size: 4096,
            mac,
            aes_engines: 4,
            mac_engines: 1,
            ..EngineSetConfig::default()
        };
        let chunks = (1u64 << 20) / 4096;
        let cost = chunk_crypto_cost(&cfg, 4096);
        let area = shef_core::shield::area::mac_engine(mac);
        println!(
            "{:<12} {:>14} {:>12} cyc {:>12} {:>10}",
            mac.to_string(),
            cost.lane.0 * chunks,
            cost.latency.0,
            area.lut,
            area.reg,
        );
    }
    println!();
    kv_row(
        "takeaway",
        "GHASH matches PMAC's within-chunk parallelism at a higher per-engine rate",
    );
    kv_row(
        "paper hook (§5.2.2)",
        "'IP Vendors can simply substitute a new cryptographic engine in their place'",
    );
}

fn end_to_end_dnnweaver() {
    use shef_accel::dnnweaver::DnnWeaver;
    use shef_accel::harness::{run_baseline, run_shielded};
    use shef_accel::CryptoProfile;

    header("End-to-end: DNNWeaver feature maps, counters vs Bonsai Merkle Tree");
    let pool = WorkerPool::new(1);
    let baseline = {
        let mut d = DnnWeaver::new(1, 5);
        run_baseline(&mut d).expect("baseline run")
    };
    let counters = {
        let mut d = DnnWeaver::new(1, 5);
        run_shielded(&mut d, &CryptoProfile::AES128_16X, 8, &pool, None).expect("counters run")
    };
    let merkle = {
        let mut d = DnnWeaver::new(1, 5).with_merkle_fmap();
        run_shielded(&mut d, &CryptoProfile::AES128_16X, 8, &pool, None).expect("merkle run")
    };
    assert!(baseline.outputs_verified && counters.outputs_verified && merkle.outputs_verified);
    let base = baseline.cycles.0.max(1) as f64;
    println!("{:<42} {:>12} {:>9}", "variant", "cycles", "vs base");
    println!(
        "{:<42} {:>12} {:>8.2}x",
        "unshielded baseline", baseline.cycles.0, 1.0
    );
    println!(
        "{:<42} {:>12} {:>8.2}x",
        "on-chip counters (paper config)",
        counters.cycles.0,
        counters.cycles.0 as f64 / base
    );
    println!(
        "{:<42} {:>12} {:>8.2}x",
        "Bonsai MT fmap (arity 8, 16 KB cache)",
        merkle.cycles.0,
        merkle.cycles.0 as f64 / base
    );
    println!();
    kv_row(
        "reading",
        "identical inference results; the tree's node walks land on the fmap lane",
    );
    println!();
}

fn main() {
    integrity_sweep();
    mac_engine_sweep();
    end_to_end_dnnweaver();
}
