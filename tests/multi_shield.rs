//! Multi-Shield isolation: "The IP Vendor can secure multiple
//! accelerator modules with separate Shield modules, enabling multiple
//! isolated execution environments" (§3).
//!
//! Two Shields share one device; each gets its own Shield Encryption
//! Key, its own Load Key, and its own Data Encryption Key. Neither can
//! read the other's regions, and a Load Key sent to the wrong Shield
//! is rejected.

use shef::core::shield::{
    client, AccessMode, DataEncryptionKey, EngineSetConfig, MemRange, Shield, ShieldConfig,
    WorkerPool,
};
use shef::core::ShefError;
use shef::crypto::ecies::EciesKeyPair;
use shef::fpga::clock::CostLedger;
use shef::fpga::dram::Dram;
use shef::fpga::shell::Shell;

fn shield(name: &str, base: u64, seed: &[u8]) -> Shield {
    let config = ShieldConfig::builder()
        .region(
            name,
            MemRange::new(base, 64 * 1024),
            EngineSetConfig {
                buffer_bytes: 4096,
                ..EngineSetConfig::default()
            },
        )
        .build()
        .unwrap();
    Shield::new(config, EciesKeyPair::from_seed(seed)).unwrap()
}

#[test]
fn two_shields_have_independent_keys_and_data() {
    let pool = WorkerPool::new(1);
    let mut shield_a = shield("tenant-a", 0, b"shield-a");
    let mut shield_b = shield("tenant-b", 1 << 24, b"shield-b");

    // Each Data Owner provisions a distinct key into their Shield.
    let dek_a = DataEncryptionKey::from_bytes([0xA1u8; 32]);
    let dek_b = DataEncryptionKey::from_bytes([0xB2u8; 32]);
    shield_a
        .provision_load_key(&dek_a.to_load_key(&shield_a.public_key()))
        .unwrap();
    shield_b
        .provision_load_key(&dek_b.to_load_key(&shield_b.public_key()))
        .unwrap();

    let mut shell = Shell::new();
    let mut dram = Dram::f1_default();
    let mut ledger = CostLedger::new();

    // Tenant A writes a secret through its Shield.
    shield_a
        .write(
            &mut shell,
            &mut dram,
            &mut ledger,
            0,
            &[0xAAu8; 512],
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
    shield_a
        .flush(&mut shell, &mut dram, &mut ledger, &pool)
        .unwrap();

    // Tenant A reads it back.
    let got = shield_a
        .read(
            &mut shell,
            &mut dram,
            &mut ledger,
            0,
            512,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap();
    assert_eq!(got, vec![0xAAu8; 512]);

    // Tenant B's Shield cannot address tenant A's region at all…
    let err = shield_b
        .read(
            &mut shell,
            &mut dram,
            &mut ledger,
            0,
            512,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap_err();
    assert!(matches!(err, ShefError::UnmappedAddress(_)));

    // …and even a Shield maliciously configured over A's address range
    // (same region name, same layout) cannot decrypt A's data without
    // A's key: the adversary clones the config but has a different DEK.
    let mut evil = shield("tenant-a", 0, b"evil-clone");
    let dek_evil = DataEncryptionKey::from_bytes([0xEEu8; 32]);
    evil.provision_load_key(&dek_evil.to_load_key(&evil.public_key()))
        .unwrap();
    let err = evil
        .read(
            &mut shell,
            &mut dram,
            &mut ledger,
            0,
            512,
            AccessMode::Streaming,
            &pool,
        )
        .unwrap_err();
    assert!(matches!(err, ShefError::IntegrityViolation(_)));
}

#[test]
fn load_key_cross_provisioning_is_rejected() {
    let mut shield_a = shield("a", 0, b"kp-a");
    let shield_b = shield("b", 1 << 24, b"kp-b");
    let dek = DataEncryptionKey::from_bytes([1u8; 32]);
    // Load Key built for Shield B delivered (by the malicious host) to
    // Shield A.
    let load_key_for_b = dek.to_load_key(&shield_b.public_key());
    assert!(shield_a.provision_load_key(&load_key_for_b).is_err());
    assert!(!shield_a.is_provisioned());
}

#[test]
fn one_data_owner_can_drive_multiple_shields_with_distinct_keys() {
    // The paper's step 10: "The Data Owner generates at least one Data
    // Encryption Key (e.g., one per Shield module)".
    let mut owner = shef::core::workflow::DataOwner::new(b"multi-owner");
    let mut shield_a = shield("region-a", 0, b"mo-a");
    let mut shield_b = shield("region-b", 1 << 24, b"mo-b");
    let dek_a = owner.generate_data_key();
    let dek_b = owner.generate_data_key();
    assert_ne!(dek_a.to_bytes(), dek_b.to_bytes());
    shield_a
        .provision_load_key(&owner.build_load_key(&dek_a, &shield_a.public_key()))
        .unwrap();
    shield_b
        .provision_load_key(&owner.build_load_key(&dek_b, &shield_b.public_key()))
        .unwrap();

    // Data encrypted for A does not verify under B's derivations even
    // with identical region geometry.
    let region_a = shield_a.config().regions[0].clone();
    let mut region_b_alias = shield_b.config().regions[0].clone();
    region_b_alias.name = region_a.name.clone();
    let enc = client::encrypt_region(&dek_a, &region_a, &[9u8; 512], 0);
    let result = client::decrypt_region(
        &dek_b,
        &region_b_alias,
        &enc.ciphertext,
        &enc.tags,
        &client::uniform_epochs(0),
    );
    assert!(result.is_err());
}
