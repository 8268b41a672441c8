//! Ablation studies for the Shield's design knobs (§5.2.1–5.2.2).
//!
//! The paper argues each knob matters; these sweeps quantify them in
//! isolation on the simulator:
//!
//! 1. **Chunk size** `C_mem` — small chunks waste tag bandwidth and MAC
//!    bubbles, huge chunks over-fetch for sparse access ("it is
//!    important to correctly size the chunk granularity").
//! 2. **Buffer capacity** — the cache that makes random access viable.
//! 3. **Freshness counters** — what replay protection costs.
//! 4. **Controlled-channel mitigation** — larger chunks shrink the
//!    observable address alphabet (§5.2 "Side Channels").

use shef_bench::{header, kv_row};

fn main() {
    chunk_size_sweep();
    buffer_sweep();
    counter_cost();
    controlled_channel();
    oram_over_shield();
    lane_sweep();
}

fn chunk_size_sweep() {
    use shef_core::shield::timing::chunk_crypto_cost;
    use shef_core::shield::EngineSetConfig;

    header("Ablation 1: chunk size C_mem (streaming 1 MB through one engine set)");
    println!(
        "{:<12} {:>16} {:>16} {:>14}",
        "C_mem", "lane cyc/MB", "tag overhead", "blk latency"
    );
    for chunk in [64usize, 128, 256, 512, 1024, 4096, 16384] {
        let cfg = EngineSetConfig {
            chunk_size: chunk,
            ..EngineSetConfig::default()
        };
        let chunks = (1 << 20) / chunk as u64;
        let cost = chunk_crypto_cost(&cfg, chunk);
        let lane_total = cost.lane.0 * chunks;
        let tag_pct = 16.0 / chunk as f64 * 100.0;
        println!(
            "{:<12} {:>16} {:>15.1}% {:>11} cyc",
            format!("{chunk} B"),
            lane_total,
            tag_pct,
            cost.latency.0
        );
    }
    println!();
    println!("small chunks pay per-chunk bubbles + 25% tag traffic at 64 B;");
    println!("large chunks amortize both but raise per-chunk blocking latency");
    println!("(the DNNWeaver trade-off) and over-fetch for sparse access.");
    println!();
}

fn buffer_sweep() {
    use shef_accel::affine::AffineTransform;
    use shef_accel::harness::run_shielded_parallel;
    use shef_accel::CryptoProfile;
    use shef_core::shield::WorkerPool;

    header("Ablation 2: on-chip buffer capacity (affine transform hit rate)");
    // The affine kernel's Shield uses 4 KB per input set by default; vary
    // it by monkey-patching the config through a custom accel is complex,
    // so report hits/misses at the default and rely on the engine stats.
    let mut accel = AffineTransform::new(256, 1);
    let pool = WorkerPool::new(1);
    let report = run_shielded_parallel(&mut accel, &CryptoProfile::AES128_16X, 5, &pool).unwrap();
    assert!(report.outputs_verified);
    let (hits, misses): (u64, u64) = report
        .engine_stats
        .iter()
        .filter(|(name, _)| name.starts_with("img-in"))
        .fold((0, 0), |(h, m), (_, s)| (h + s.hits, m + s.misses));
    kv_row(
        "input sets (4 KB buffers)",
        &format!(
            "{hits} hits / {misses} misses ({:.1}% hit rate)",
            hits as f64 / (hits + misses) as f64 * 100.0
        ),
    );
    println!();
    println!("without the buffer every 4-byte gather would be a full 64 B chunk");
    println!("fill + MAC verify; the buffer turns spatial locality into hits.");
    println!();
}

fn counter_cost() {
    use shef_core::shield::area::{counter_bits, engine_set};
    use shef_core::shield::EngineSetConfig;

    header("Ablation 3: freshness counters (replay protection) cost");
    for (chunk, region_mb) in [(64usize, 1u64), (512, 1), (4096, 1)] {
        let mut with = EngineSetConfig {
            chunk_size: chunk,
            counters: true,
            ..EngineSetConfig::default()
        };
        with.buffer_bytes = 0;
        let without = EngineSetConfig {
            counters: false,
            ..with.clone()
        };
        let region_len = region_mb << 20;
        let a_with = engine_set(&with, region_len);
        let a_without = engine_set(&without, region_len);
        let chunks = region_len.div_ceil(chunk as u64);
        kv_row(
            &format!("C={chunk}B over {region_mb}MB"),
            &format!(
                "{} counters, {} Kb OCM ({} Kb without) — storage-only cost",
                chunks,
                a_with.ocm_bits / 1024,
                a_without.ocm_bits / 1024
            ),
        );
        let _ = counter_bits(chunks);
    }
    println!();
    println!("counters cost on-chip storage only (one extra DRAM access already");
    println!("happens for the tag); the paper's 'simpler and more efficient");
    println!("alternative' to Merkle trees. Disable them for write-once regions.");
    println!();
}

fn controlled_channel() {
    use shef_core::sidechannel::access_granularity_analysis;

    header("Ablation 4: controlled-channel mitigation via C_mem (§5.2)");
    // A data-dependent lookup trace (e.g. a table walk keyed on secrets).
    let trace: Vec<u64> = (0..256u64).map(|i| (i * 1009) % 65536).collect();
    for report in access_granularity_analysis(&trace, &[64, 512, 4096, 65536]) {
        kv_row(
            &format!("C_mem = {} B", report.chunk_size),
            &format!(
                "{} observable addresses from {} secret-dependent accesses",
                report.observable_addresses, report.accesses
            ),
        );
    }
    println!();
    println!("larger chunks collapse the adversary-visible address alphabet —");
    println!("the paper's trade of bandwidth for controlled-channel resistance.");
    println!();
}

fn oram_over_shield() {
    use shef_core::oram::PathOram;
    use shef_core::shield::bus::ShieldedBus;
    use shef_core::shield::{
        AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, Shield, ShieldConfig, WorkerPool,
    };
    use shef_crypto::drbg::HmacDrbg;
    use shef_crypto::ecies::EciesKeyPair;
    use shef_fpga::clock::CostLedger;
    use shef_fpga::dram::Dram;
    use shef_fpga::shell::Shell;

    header(
        "Ablation 5: Path ORAM over the Shield (§5.2 'simply added … on top of Shield engines')",
    );

    const N_BLOCKS: u64 = 256;
    const BLOCK: usize = 64;
    const ACCESSES: usize = 512;
    let tree_bytes = PathOram::tree_bytes(N_BLOCKS, BLOCK);

    // One Shield region sized for the ORAM tree, counters on (the tree
    // is read-write by construction).
    let config = ShieldConfig::builder()
        .region(
            "oram-tree",
            MemRange::new(0, tree_bytes.next_multiple_of(512)),
            EngineSetConfig {
                chunk_size: 512,
                buffer_bytes: 16 * 1024,
                counters: true,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .expect("oram shield config");
    let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"oram-ablation")).unwrap();
    let dek = DataEncryptionKey::from_bytes([0x3cu8; 32]);
    shield
        .provision_load_key(&dek.to_load_key(&shield.public_key()))
        .unwrap();
    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut ledger = CostLedger::new();
    let pool = WorkerPool::new(1);

    // Provision the region (write-once pass), then measure.
    let region_len = shield.config().regions[0].range.len;
    {
        use shef_core::shield::bus::MemoryBus;
        let mut bus = ShieldedBus {
            shield: &mut shield,
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            pool: &pool,
        };
        bus.write(0, &vec![0u8; region_len as usize], AccessMode::Streaming)
            .expect("provision");
        bus.flush().expect("provision flush");
    }
    dram.reset_accounting();
    let mut ledger = CostLedger::new();

    // Baseline: the same logical accesses straight through the Shield
    // (confidential + integral, but address-visible).
    let mut rng = HmacDrbg::from_seed(b"oram-trace");
    let ids: Vec<u64> = (0..ACCESSES).map(|_| rng.next_u64() % N_BLOCKS).collect();
    {
        use shef_core::shield::bus::MemoryBus;
        let mut bus = ShieldedBus {
            shield: &mut shield,
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger,
            pool: &pool,
        };
        for &id in &ids {
            let _ = bus
                .read(id * BLOCK as u64, BLOCK, AccessMode::Streaming)
                .expect("baseline read");
        }
    }
    let direct_cycles = ledger.bottleneck().0;

    // ORAM: every access becomes one root-to-leaf path read + writeback.
    let mut ledger_oram = CostLedger::new();
    dram.reset_accounting();
    {
        let mut bus = ShieldedBus {
            shield: &mut shield,
            shell: &mut shell,
            dram: &mut dram,
            ledger: &mut ledger_oram,
            pool: &pool,
        };
        let mut oram =
            PathOram::format(&mut bus, 0, N_BLOCKS, BLOCK, b"oram-ablation").expect("format");
        for &id in &ids {
            let _ = oram.read(&mut bus, id).expect("oram read");
        }
        kv_row(
            "stash occupancy after run",
            &format!("{} blocks", oram.stash_len()),
        );
    }
    let oram_cycles = ledger_oram.bottleneck().0;

    kv_row(
        "direct shielded reads",
        &format!("{direct_cycles} cycles for {ACCESSES} × {BLOCK} B"),
    );
    kv_row(
        "Path ORAM reads",
        &format!(
            "{oram_cycles} cycles ({:.1}x) — tree of {} buckets, {} levels touched/access",
            oram_cycles as f64 / direct_cycles.max(1) as f64,
            tree_bytes / (BLOCK + 8) as u64 / 4,
            (64 - (N_BLOCKS.leading_zeros() as u64)),
        ),
    );
    println!();
    println!("ORAM multiplies bandwidth by the path length but leaves the Shield");
    println!("unchanged — address-metadata hiding composes as a bus-level module,");
    println!("exactly the extension path §5.2 describes.");
}

fn lane_sweep() {
    use shef_accel::harness::overhead;
    use shef_accel::vecadd::VectorAdd;
    use shef_accel::{Accelerator, CryptoProfile};

    header("Ablation 6: engine-set lane fan-out (parallel datapath)");
    // Under-provisioned crypto (4x S-box) on a streaming workload: the
    // engine set is the bottleneck lane, so fanning chunk crypto across
    // worker lanes should walk the overhead back toward 1x until the
    // memory system becomes the bottleneck instead.
    let make = || Box::new(VectorAdd::new(256 * 1024, 1)) as Box<dyn Accelerator>;
    let mut prev: Option<u64> = None;
    for lanes in [1usize, 2, 4, 8] {
        let report = overhead(&make, &CryptoProfile::AES128_4X, lanes).unwrap();
        assert!(
            report.shielded_verified,
            "lane sweep produced wrong outputs"
        );
        let cycles = report.shielded_cycles.0;
        if let Some(p) = prev {
            assert!(cycles <= p, "adding lanes must never slow the model down");
        }
        prev = Some(cycles);
        kv_row(
            &format!("{lanes} lane(s)"),
            &format!("{cycles} cycles, {:.2}x over baseline", report.normalized),
        );
    }
    println!();
    println!("lanes only help while crypto is the bottleneck; the curve flattens");
    println!("once DMA/DRAM dominates — the same saturation Fig. 6 shows when");
    println!("moving from 4x to 16x S-box provisioning.");
}
