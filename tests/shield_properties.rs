//! Property-based integration tests: the Shield's memory interface is
//! equivalent to a flat reference memory under arbitrary access traces,
//! and all security invariants hold for random data.

use proptest::prelude::*;
use shef::core::shield::{
    client, AccessMode, DataEncryptionKey, EngineSetConfig, Freshness, MemRange, Shield,
    ShieldConfig, WorkerPool,
};
use shef::crypto::ecies::EciesKeyPair;
use shef::fpga::clock::CostLedger;
use shef::fpga::dram::Dram;
use shef::fpga::shell::Shell;

const REGION_LEN: u64 = 16 * 1024;

#[derive(Debug, Clone)]
enum Op {
    Read { offset: u64, len: usize },
    Write { offset: u64, data: Vec<u8> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..REGION_LEN, 1usize..600).prop_map(|(offset, len)| {
            let len = len.min((REGION_LEN - offset) as usize);
            Op::Read { offset, len }
        }),
        (
            0u64..REGION_LEN,
            proptest::collection::vec(any::<u8>(), 1..600)
        )
            .prop_map(|(offset, mut data)| {
                data.truncate((REGION_LEN - offset) as usize);
                Op::Write { offset, data }
            }),
    ]
}

fn shield_setup(
    chunk_size: usize,
    buffer_bytes: usize,
    freshness: Freshness,
) -> (Shield, Shell, Dram, CostLedger, DataEncryptionKey) {
    let config = ShieldConfig::builder()
        .region(
            "prop",
            MemRange::new(0, REGION_LEN),
            EngineSetConfig {
                chunk_size,
                buffer_bytes,
                freshness,
                zero_fill_writes: false,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .unwrap();
    let mut shield = Shield::new(config, EciesKeyPair::from_seed(b"prop")).unwrap();
    let dek = DataEncryptionKey::from_bytes([0x3Cu8; 32]);
    let lk = dek.to_load_key(&shield.public_key());
    shield.provision_load_key(&lk).unwrap();
    (
        shield,
        Shell::new(),
        Dram::f1_default(),
        CostLedger::new(),
        dek,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shield_memory_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        chunk_pow in 6u32..10, // 64..512-byte chunks
        buffer_lines in 1usize..8,
        freshness in prop_oneof![Just(Freshness::None), Just(Freshness::Counters)],
    ) {
        let pool = WorkerPool::new(1);
        let chunk = 1usize << chunk_pow;
        let (mut shield, mut shell, mut dram, mut ledger, dek) =
            shield_setup(chunk, chunk * buffer_lines, freshness);
        // Provision an initial image so read-before-write authenticates.
        let mut reference = vec![0xA0u8; REGION_LEN as usize];
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &reference, 0);
        dram.tamper_write(0, &enc.ciphertext);
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);

        for op in ops {
            match op {
                Op::Read { offset, len } => {
                    if len == 0 { continue; }
                    let got = shield
                        .read(&mut shell, &mut dram, &mut ledger, offset, len, AccessMode::Streaming, &pool)
                        .unwrap();
                    prop_assert_eq!(&got[..], &reference[offset as usize..offset as usize + len]);
                }
                Op::Write { offset, data } => {
                    if data.is_empty() { continue; }
                    shield
                        .write(&mut shell, &mut dram, &mut ledger, offset, &data, AccessMode::Streaming, &pool)
                        .unwrap();
                    reference[offset as usize..offset as usize + data.len()]
                        .copy_from_slice(&data);
                }
            }
        }
        // After a flush, a full readback still matches.
        shield.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let all = shield
            .read(&mut shell, &mut dram, &mut ledger, 0, REGION_LEN as usize, AccessMode::Streaming, &pool)
            .unwrap();
        prop_assert_eq!(all, reference);
    }

    #[test]
    fn dram_never_contains_plaintext_needles(
        needle in proptest::collection::vec(1u8..=255, 24..48),
    ) {
        let pool = WorkerPool::new(1);
        // Write a distinctive plaintext needle through the Shield; the
        // ciphertext in DRAM must not contain it.
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shield_setup(512, 1024, Freshness::None);
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &vec![0u8; REGION_LEN as usize], 0);
        dram.tamper_write(0, &enc.ciphertext);
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
        shield
            .write(&mut shell, &mut dram, &mut ledger, 128, &needle, AccessMode::Streaming, &pool)
            .unwrap();
        shield.flush(&mut shell, &mut dram, &mut ledger, &pool).unwrap();
        let raw = dram.tamper_read(0, REGION_LEN as usize);
        prop_assert!(
            !raw.windows(needle.len()).any(|w| w == &needle[..]),
            "plaintext needle leaked into DRAM"
        );
    }

    #[test]
    fn any_single_ciphertext_bit_flip_is_detected(
        byte_index in 0usize..2048,
        bit in 0u8..8,
    ) {
        let pool = WorkerPool::new(1);
        let (mut shield, mut shell, mut dram, mut ledger, dek) = shield_setup(512, 1024, Freshness::None);
        let region = shield.config().regions[0].clone();
        let enc = client::encrypt_region(&dek, &region, &vec![7u8; REGION_LEN as usize], 0);
        dram.tamper_write(0, &enc.ciphertext);
        dram.tamper_write(shield.config().tag_base(0), &enc.tags);
        let mut corrupted = dram.tamper_read(byte_index as u64, 1);
        corrupted[0] ^= 1 << bit;
        dram.tamper_write(byte_index as u64, &corrupted);
        let result = shield.read(
            &mut shell,
            &mut dram,
            &mut ledger,
            (byte_index as u64 / 512) * 512,
            512,
            AccessMode::Streaming, &pool,
        );
        prop_assert!(result.is_err(), "bit flip at {byte_index}:{bit} went undetected");
    }
}
