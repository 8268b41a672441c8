//! Property-based tests of the Shield datapath: coherence against a
//! reference memory under random traces, across all integrity schemes.
//!
//! These are the invariants the paper's security argument leans on:
//!
//! * a Shielded region behaves exactly like flat memory to the
//!   accelerator, for *any* engine-set configuration (chunk size,
//!   buffer, counters, Merkle tree, worker lanes) and *any* access trace;
//! * Merkle-tree counters agree with an ideal counter map under any
//!   bump sequence, arity, and cache size;
//! * configurations survive serialization (they are hashed into
//!   bitstreams, so the encoding must be canonical).

use proptest::prelude::*;
use shef_core::shield::config::{EngineSetConfig, MemRange, RegionConfig};
use shef_core::shield::engine::{AccessMode, EngineSet};
use shef_core::shield::merkle::{MerkleConfig, MerkleTree};
use shef_core::shield::{DataEncryptionKey, ShieldConfig, WorkerPool};
use shef_crypto::authenc::MacAlgorithm;
use shef_fpga::clock::CostLedger;
use shef_fpga::dram::Dram;
use shef_fpga::shell::Shell;

const REGION_BASE: u64 = 0x1000;
const REGION_LEN: u64 = 16 * 1024;
const TAG_BASE: u64 = 0x10_0000;
const MERKLE_BASE: u64 = 0x20_0000;

/// One step of a random accelerator trace.
#[derive(Debug, Clone)]
enum Op {
    Read { offset: u64, len: usize },
    Write { offset: u64, byte: u8, len: usize },
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..REGION_LEN - 1, 1usize..700).prop_map(|(offset, len)| Op::Read {
            offset,
            len: len.min((REGION_LEN - offset) as usize),
        }),
        (0..REGION_LEN - 1, any::<u8>(), 1usize..700).prop_map(|(offset, byte, len)| {
            Op::Write {
                offset,
                byte,
                len: len.min((REGION_LEN - offset) as usize),
            }
        }),
        Just(Op::Flush),
    ]
}

/// Replay-protection scheme under test.
#[derive(Debug, Clone, Copy)]
enum Scheme {
    MacOnly,
    Counters,
    Merkle { arity: usize, cache: usize },
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::MacOnly),
        Just(Scheme::Counters),
        (
            prop_oneof![Just(2usize), Just(4), Just(8), Just(16)],
            0usize..4096
        )
            .prop_map(|(arity, cache)| Scheme::Merkle { arity, cache }),
    ]
}

fn engine_for(
    chunk: usize,
    buffer_lines: usize,
    scheme: Scheme,
    zero_fill: bool,
) -> (EngineSet, RegionConfig, DataEncryptionKey) {
    let (counters, merkle) = match scheme {
        Scheme::MacOnly => (false, None),
        Scheme::Counters => (true, None),
        Scheme::Merkle { arity, cache } => (
            false,
            Some(MerkleConfig {
                arity,
                node_cache_bytes: cache,
            }),
        ),
    };
    let region = RegionConfig {
        name: "prop".into(),
        range: MemRange::new(REGION_BASE, REGION_LEN),
        engine_set: EngineSetConfig {
            chunk_size: chunk,
            buffer_bytes: chunk * buffer_lines,
            counters,
            merkle,
            // Zero-fill is only coherent for write-once regions (§5.2.2);
            // random read-modify-write traces must not enable it.
            zero_fill_writes: zero_fill,
            ..EngineSetConfig::default()
        },
    };
    let dek = DataEncryptionKey::from_bytes([0x51u8; 32]);
    let es = EngineSet::new(region.clone(), 0, TAG_BASE, MERKLE_BASE, &dek);
    (es, region, dek)
}

/// Stages epoch-0 zeros into DRAM exactly as the Data Owner would — the
/// Shield can only authenticate memory somebody provisioned.
fn provision_zeros(region: &RegionConfig, dek: &DataEncryptionKey, dram: &mut Dram) {
    let enc =
        shef_core::shield::client::encrypt_region(dek, region, &vec![0u8; REGION_LEN as usize], 0);
    dram.tamper_write(REGION_BASE, &enc.ciphertext);
    dram.tamper_write(TAG_BASE, &enc.tags);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shielded region is indistinguishable from flat memory for any
    /// trace, chunk size, buffer size, and integrity scheme.
    #[test]
    fn engine_set_coheres_with_reference_memory(
        chunk_pow in 6u32..12,            // 64 B .. 2 KB chunks
        buffer_lines in 0usize..5,        // 0 = single staging line
        scheme in scheme_strategy(),
        lanes in 1usize..=4,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let chunk = 1usize << chunk_pow;
        let (mut es, region, dek) = engine_for(chunk, buffer_lines, scheme, false);
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 24);
        let mut ledger = CostLedger::new();
        let pool = WorkerPool::new(lanes);
        let mut reference = vec![0u8; REGION_LEN as usize];
        provision_zeros(&region, &dek, &mut dram);

        for op in &ops {
            match *op {
                Op::Read { offset, len } => {
                    let got = es
                        .read(&mut shell, &mut dram, &mut ledger, REGION_BASE + offset, len, AccessMode::Streaming, &pool)
                        .expect("untampered read never fails");
                    prop_assert_eq!(&got[..], &reference[offset as usize..offset as usize + len]);
                }
                Op::Write { offset, byte, len } => {
                    let data = vec![byte; len];
                    es.write(&mut shell, &mut dram, &mut ledger, REGION_BASE + offset, &data, AccessMode::Streaming, &pool)
                        .expect("untampered write never fails");
                    reference[offset as usize..offset as usize + len].fill(byte);
                }
                Op::Flush => {
                    es.flush(&mut shell, &mut dram, &mut ledger, &pool).expect("flush never fails");
                }
            }
        }
        // Final flush + full readback through a fresh pass.
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).expect("final flush");
        let full = es
            .read(&mut shell, &mut dram, &mut ledger, REGION_BASE, REGION_LEN as usize, AccessMode::Streaming, &pool)
            .expect("full readback");
        prop_assert_eq!(full, reference);
    }

    /// After any trace, flipping any single ciphertext byte in DRAM is
    /// detected on the next (uncached) read of that chunk.
    #[test]
    fn any_byte_flip_is_detected(
        scheme in scheme_strategy(),
        writes in proptest::collection::vec((0..REGION_LEN - 64, any::<u8>()), 1..8),
        victim in 0..REGION_LEN,
        flip in 1u8..=255,
    ) {
        let (mut es, region, dek) = engine_for(256, 0, scheme, false);
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 24);
        let mut ledger = CostLedger::new();
        let pool = WorkerPool::new(1);
        provision_zeros(&region, &dek, &mut dram);
        for &(offset, byte) in &writes {
            es.write(&mut shell, &mut dram, &mut ledger, REGION_BASE + offset, &[byte; 64], AccessMode::Streaming, &pool)
                .expect("write");
        }
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).expect("flush");
        // Ensure the victim chunk exists in DRAM (zero-fill regions may
        // not have been written): write it explicitly, then flush.
        let chunk_start = REGION_BASE + (victim / 256) * 256;
        es.write(&mut shell, &mut dram, &mut ledger, chunk_start, &[0x77; 256], AccessMode::Streaming, &pool)
            .expect("victim write");
        es.flush(&mut shell, &mut dram, &mut ledger, &pool).expect("victim flush");
        es.clear_merkle_cache();
        // Adversary flips one ciphertext byte.
        let addr = REGION_BASE + victim;
        let mut b = dram.tamper_read(addr, 1);
        b[0] ^= flip;
        dram.tamper_write(addr, &b);
        let chunk_of_victim = REGION_BASE + (victim / 256) * 256;
        let result = es.read(&mut shell, &mut dram, &mut ledger, chunk_of_victim, 256, AccessMode::Streaming, &pool);
        prop_assert!(result.is_err(), "flip at {addr:#x} must be detected");
    }

    /// Merkle counters track an ideal counter map for any bump sequence.
    #[test]
    fn merkle_counters_match_reference(
        arity in prop_oneof![Just(2usize), Just(3), Just(8), Just(17), Just(64)],
        cache in 0usize..2048,
        num_counters in 1u64..300,
        bumps in proptest::collection::vec(any::<u16>(), 0..60),
    ) {
        let cfg = MerkleConfig { arity, node_cache_bytes: cache };
        let mut tree = MerkleTree::new(cfg, [9u8; 32], 0x8000, num_counters, "prop.merkle");
        let mut shell = Shell::new();
        let mut dram = Dram::new(1 << 24);
        let mut ledger = CostLedger::new();
        let mut reference = std::collections::HashMap::new();
        for &raw in &bumps {
            let idx = (u64::from(raw) % num_counters) as u32;
            let expect = reference.entry(idx).or_insert(0u64);
            *expect += 1;
            let got = tree
                .bump(&mut shell, &mut dram, &mut ledger, idx, AccessMode::Streaming)
                .expect("bump");
            prop_assert_eq!(got, *expect);
        }
        for (idx, expect) in reference {
            let got = tree
                .counter(&mut shell, &mut dram, &mut ledger, idx, AccessMode::Streaming)
                .expect("counter read");
            prop_assert_eq!(got, expect);
        }
    }

    /// Shield configurations (including Merkle settings) round-trip
    /// through the canonical byte encoding hashed into bitstreams.
    #[test]
    fn config_serialization_round_trips(
        chunk_pow in 4u32..16,
        aes_engines in 1usize..8,
        mac_engines in 1usize..8,
        mac_pick in 0u8..3,
        buffer_chunks in 0usize..16,
        scheme in scheme_strategy(),
        hide in any::<bool>(),
    ) {
        let chunk = 1usize << chunk_pow;
        let (counters, merkle) = match scheme {
            Scheme::MacOnly => (false, None),
            Scheme::Counters => (true, None),
            Scheme::Merkle { arity, cache } =>
                (false, Some(MerkleConfig { arity, node_cache_bytes: cache })),
        };
        let es = EngineSetConfig {
            chunk_size: chunk,
            aes_engines,
            mac_engines,
            mac: match mac_pick {
                0 => MacAlgorithm::HmacSha256,
                1 => MacAlgorithm::PmacAes,
                _ => MacAlgorithm::AesGcm,
            },
            buffer_bytes: chunk * buffer_chunks,
            counters,
            merkle,
            ..EngineSetConfig::default()
        };
        let cfg = ShieldConfig::builder()
            .region("r", MemRange::new(0, 1 << 20), es)
            .register_interface(shef_core::shield::RegisterInterfaceConfig {
                num_registers: 16,
                hide_addresses: hide,
            })
            .build()
            .expect("valid by construction");
        let parsed = ShieldConfig::from_bytes(&cfg.to_bytes()).expect("parse");
        prop_assert_eq!(parsed, cfg);
    }
}
