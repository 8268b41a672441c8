//! Integration: the three replay-defence configurations (§5.2.1–5.2.2)
//! behave identically on the happy path, differ exactly as the paper
//! says under attack, and order by cost as §5.2.2 argues.
//!
//! | scheme           | spoof | splice | replay | extra DRAM |
//! |------------------|-------|--------|--------|------------|
//! | MAC only         |  ✓    |  ✓     |  ✗     | none       |
//! | on-chip counters |  ✓    |  ✓     |  ✓     | none       |
//! | Bonsai MT        |  ✓    |  ✓     |  ✓     | node walks |

use shef::core::shield::{
    AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, MerkleConfig, Shield, ShieldConfig,
    WorkerPool,
};
use shef::core::workflow::TestBench;
use shef::core::ShefError;
use shef::crypto::ecies::EciesKeyPair;
use shef::fpga::clock::CostLedger;
use shef::fpga::dram::Dram;
use shef::fpga::shell::Shell;

const REGION_LEN: u64 = 64 * 1024;
const CHUNK: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    MacOnly,
    Counters,
    Merkle,
    MerkleCached,
}

fn engine_set(scheme: Scheme) -> EngineSetConfig {
    let (counters, merkle) = match scheme {
        Scheme::MacOnly => (false, None),
        Scheme::Counters => (true, None),
        Scheme::Merkle => (
            false,
            Some(MerkleConfig {
                arity: 8,
                node_cache_bytes: 0,
            }),
        ),
        Scheme::MerkleCached => (
            false,
            Some(MerkleConfig {
                arity: 8,
                node_cache_bytes: 8 * 1024,
            }),
        ),
    };
    EngineSetConfig {
        chunk_size: CHUNK,
        buffer_bytes: 2 * CHUNK,
        counters,
        merkle,
        ..EngineSetConfig::default()
    }
}

fn shield_for(scheme: Scheme) -> (Shield, Shell, Dram, CostLedger) {
    let config = ShieldConfig::builder()
        .region("state", MemRange::new(0, REGION_LEN), engine_set(scheme))
        .build()
        .expect("valid config");
    let mut shield =
        Shield::new(config, EciesKeyPair::from_seed(b"integrity-schemes")).expect("shield");
    let dek = DataEncryptionKey::from_bytes([0x66u8; 32]);
    shield
        .provision_load_key(&dek.to_load_key(&shield.public_key()))
        .expect("provision");
    (shield, Shell::new(), Dram::f1_default(), CostLedger::new())
}

/// Write-flush-rewrite-flush, then roll DRAM (data + tag) back to the
/// first version. Returns the victim's re-read result.
fn replay_attack(scheme: Scheme) -> Result<Vec<u8>, ShefError> {
    let pool = WorkerPool::new(1);
    let (mut shield, mut shell, mut dram, mut ledger) = shield_for(scheme);
    shield.write(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        &[1u8; CHUNK],
        AccessMode::Streaming,
        &pool,
    )?;
    shield.flush(&mut shell, &mut dram, &mut ledger, &pool)?;
    let old_ct = dram.tamper_read(0, CHUNK);
    let old_tag = dram.tamper_read(shield.config().tag_base(0), 16);
    shield.write(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        &[2u8; CHUNK],
        AccessMode::Streaming,
        &pool,
    )?;
    shield.flush(&mut shell, &mut dram, &mut ledger, &pool)?;
    dram.tamper_write(0, &old_ct);
    dram.tamper_write(shield.config().tag_base(0), &old_tag);
    shield.read(
        &mut shell,
        &mut dram,
        &mut ledger,
        0,
        CHUNK,
        AccessMode::Streaming,
        &pool,
    )
}

#[test]
fn happy_path_is_identical_across_schemes() {
    let pool = WorkerPool::new(1);
    let payload: Vec<u8> = (0..REGION_LEN as u32).map(|i| (i % 241) as u8).collect();
    for scheme in [
        Scheme::MacOnly,
        Scheme::Counters,
        Scheme::Merkle,
        Scheme::MerkleCached,
    ] {
        let (mut shield, mut shell, mut dram, mut ledger) = shield_for(scheme);
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                &payload,
                AccessMode::Streaming,
                &pool,
            )
            .expect("write");
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .expect("flush");
        let got = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                payload.len(),
                AccessMode::Streaming,
                &pool,
            )
            .expect("read");
        assert_eq!(got, payload, "{scheme:?} must be functionally transparent");
    }
}

#[test]
fn spoofing_detected_by_all_schemes() {
    let pool = WorkerPool::new(1);
    for scheme in [Scheme::MacOnly, Scheme::Counters, Scheme::Merkle] {
        let (mut shield, mut shell, mut dram, mut ledger) = shield_for(scheme);
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                &[7u8; 2 * CHUNK],
                AccessMode::Streaming,
                &pool,
            )
            .expect("write");
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .expect("flush");
        let mut b = dram.tamper_read(100, 1);
        b[0] ^= 0x10;
        dram.tamper_write(100, &b);
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                CHUNK,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(
            matches!(err, ShefError::IntegrityViolation(_)),
            "{scheme:?} must detect spoofing"
        );
    }
}

#[test]
fn splicing_detected_by_all_schemes() {
    let pool = WorkerPool::new(1);
    for scheme in [Scheme::MacOnly, Scheme::Counters, Scheme::Merkle] {
        let (mut shield, mut shell, mut dram, mut ledger) = shield_for(scheme);
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                &[1u8; CHUNK],
                AccessMode::Streaming,
                &pool,
            )
            .expect("write chunk 0");
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                CHUNK as u64,
                &[2u8; CHUNK],
                AccessMode::Streaming,
                &pool,
            )
            .expect("write chunk 1");
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .expect("flush");
        // Copy chunk 0 (ciphertext + tag) over chunk 1.
        let c0 = dram.tamper_read(0, CHUNK);
        let t0 = dram.tamper_read(shield.config().tag_base(0), 16);
        dram.tamper_write(CHUNK as u64, &c0);
        dram.tamper_write(shield.config().tag_base(0) + 16, &t0);
        let err = shield
            .read(
                &mut shell,
                &mut dram,
                &mut ledger,
                CHUNK as u64,
                CHUNK,
                AccessMode::Streaming,
                &pool,
            )
            .unwrap_err();
        assert!(
            matches!(err, ShefError::IntegrityViolation(_)),
            "{scheme:?} must detect splicing"
        );
    }
}

#[test]
fn replay_detected_only_with_freshness() {
    // MAC-only: the stale-but-valid snapshot verifies — the paper's
    // §5.2.1 motivation for counters.
    let stale = replay_attack(Scheme::MacOnly).expect("MAC-only accepts the replay");
    assert_eq!(stale, vec![1u8; CHUNK], "replay silently restores old data");

    for scheme in [Scheme::Counters, Scheme::Merkle, Scheme::MerkleCached] {
        let err = replay_attack(scheme).unwrap_err();
        assert!(
            matches!(err, ShefError::IntegrityViolation(_)),
            "{scheme:?} must detect the replay"
        );
    }
}

#[test]
fn merkle_pays_and_counters_do_not() {
    let pool = WorkerPool::new(1);
    // §5.2.2's cost argument as an executable assertion: on a random
    // RMW workload, counters cost ≈ MAC-only, the cached tree costs
    // more, and the uncached tree costs the most.
    let run = |scheme: Scheme| -> u64 {
        let (mut shield, mut shell, mut dram, mut ledger) = shield_for(scheme);
        // Provision the whole region (full-chunk writes, no RMW fills),
        // so the measured loop only sees authenticated data.
        shield
            .write(
                &mut shell,
                &mut dram,
                &mut ledger,
                0,
                &vec![0u8; REGION_LEN as usize],
                AccessMode::Streaming,
                &pool,
            )
            .expect("warm-up write");
        shield
            .flush(&mut shell, &mut dram, &mut ledger, &pool)
            .expect("warm-up flush");
        dram.reset_accounting();
        let mut ledger = CostLedger::new();
        let mut state = 0xfeedu64;
        for round in 0..3u8 {
            for _ in 0..64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round as u64 + 1);
                let addr = (state >> 16) % (REGION_LEN - CHUNK as u64);
                shield
                    .write(
                        &mut shell,
                        &mut dram,
                        &mut ledger,
                        addr,
                        &[round; 64],
                        AccessMode::Streaming,
                        &pool,
                    )
                    .expect("rmw write");
            }
            shield
                .flush(&mut shell, &mut dram, &mut ledger, &pool)
                .expect("flush");
        }
        ledger.merge(dram.ledger());
        ledger.bottleneck().0
    };
    let mac_only = run(Scheme::MacOnly);
    let counters = run(Scheme::Counters);
    let merkle_cached = run(Scheme::MerkleCached);
    let merkle = run(Scheme::Merkle);
    assert!(
        counters < mac_only + mac_only / 10,
        "counters ({counters}) must cost within 10% of MAC-only ({mac_only})"
    );
    assert!(
        merkle_cached > counters,
        "cached tree ({merkle_cached}) must cost more than counters ({counters})"
    );
    assert!(
        merkle >= merkle_cached,
        "uncached tree ({merkle}) must cost at least the cached one ({merkle_cached})"
    );
}

#[test]
fn merkle_config_survives_the_full_vendor_pipeline() {
    let pool = WorkerPool::new(1);
    // A Shield config with a Merkle region is hashed into a bitstream,
    // encrypted, attested, decrypted and instantiated — end to end.
    let mut bench = TestBench::new("integrity-pipeline");
    let board = bench.fresh_board(b"die-integrity-01").expect("board");
    let config = ShieldConfig::builder()
        .region(
            "fmap",
            MemRange::new(0, REGION_LEN),
            engine_set(Scheme::MerkleCached),
        )
        .build()
        .expect("config");
    let product = bench
        .vendor
        .package_accelerator("merkle-accel-v1", config.clone(), b"<logic>".to_vec())
        .expect("package");
    let (mut instance, _dek) = bench
        .data_owner
        .deploy(board, &mut bench.vendor, &bench.manufacturer, &product)
        .expect("deploy");
    assert_eq!(
        instance.shield.config().regions[0].engine_set.merkle,
        config.regions[0].engine_set.merkle
    );

    // The deployed Shield's Merkle path works against the real board DRAM.
    let mut ledger = CostLedger::new();
    instance
        .shield
        .write(
            &mut instance.board.shell,
            &mut instance.board.device.dram,
            &mut ledger,
            0,
            &[9u8; CHUNK],
            AccessMode::Streaming,
            &pool,
        )
        .expect("write through deployed shield");
    instance
        .shield
        .flush(
            &mut instance.board.shell,
            &mut instance.board.device.dram,
            &mut ledger,
            &pool,
        )
        .expect("flush");
    let got = instance
        .shield
        .read(
            &mut instance.board.shell,
            &mut instance.board.device.dram,
            &mut ledger,
            0,
            CHUNK,
            AccessMode::Streaming,
            &pool,
        )
        .expect("read back");
    assert_eq!(got, vec![9u8; CHUNK]);
}
