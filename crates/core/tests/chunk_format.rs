//! Pins the on-DRAM chunk format byte for byte.
//!
//! The Data Owner's client and the Shield seal and open chunks through
//! the same code, so a round trip between them cannot see the format
//! drift: both sides would drift together, and ciphertext already
//! provisioned into device memory would stop verifying. The values below
//! were recorded from the Vec-returning chunk API that the in-place batch
//! path replaced; the associated data, every MAC's 64 B chunk and a
//! 4 KiB PMAC chunk must keep them.

use shef_core::shield::chunk::chunk_ad;
use shef_core::shield::client::{decrypt_region_at, encrypt_region_at, uniform_epochs};
use shef_core::shield::{DataEncryptionKey, EngineSetConfig, MemRange, RegionConfig};
use shef_crypto::authenc::MacAlgorithm;
use shef_crypto::sha2::Sha256;
use shef_crypto::to_hex;

fn region(name: &str, chunk_size: usize, mac: MacAlgorithm) -> RegionConfig {
    RegionConfig {
        name: name.into(),
        range: MemRange::new(0x4000, 64 * 1024),
        engine_set: EngineSetConfig {
            chunk_size,
            mac,
            ..EngineSetConfig::default()
        },
    }
}

const DEK: [u8; 32] = [0x42; 32];

#[test]
fn chunk_associated_data_is_pinned() {
    assert_eq!(
        to_hex(&chunk_ad("img-in0", 5, 3)),
        "0d00000000000000736865662e6368756e6b2e76310700000000000000\
         696d672d696e30050000000300000000000000"
    );
}

#[test]
fn sealed_64_byte_chunks_are_pinned_for_every_mac() {
    const CIPHERTEXT: &str = "e04bde007ba3764150afe7f36a5c7b6825bb1fff8dee8d8fcf8428522548c257\
                              1279351307fce8a63c2813ea7f5e11e56f6def066791fc848e1633bfe28621ed";
    let dek = DataEncryptionKey::from_bytes(DEK);
    let plaintext: Vec<u8> = (0..64u32).map(|i| (i * 3 + 1) as u8).collect();
    for (mac, tag) in [
        (MacAlgorithm::HmacSha256, "c4a2f34a59456dc86219f5b771a9ccc7"),
        (MacAlgorithm::PmacAes, "8a2027cb3404a7ac784332f0eb3448e0"),
        (MacAlgorithm::AesGcm, "238dbe054cd52e4bf515d811eb1e3d79"),
    ] {
        let r = region("img-in0", 64, mac);
        // Chunk 5 at epoch 3: the associated data pinned above.
        let enc = encrypt_region_at(&dek, &r, 5, &plaintext, 3).unwrap();
        assert_eq!(to_hex(&enc.ciphertext), CIPHERTEXT, "{mac}");
        assert_eq!(to_hex(&enc.tags), tag, "{mac}");
        let dec = decrypt_region_at(&dek, &r, 5, &enc.ciphertext, &enc.tags, &uniform_epochs(3));
        assert_eq!(dec.unwrap(), plaintext, "{mac}");
    }
}

#[test]
fn sealed_4k_pmac_chunk_is_pinned() {
    let dek = DataEncryptionKey::from_bytes(DEK);
    let plaintext: Vec<u8> = (0..4096u32).map(|i| ((i * 7) ^ (i >> 5)) as u8).collect();
    let r = region("kv", 4096, MacAlgorithm::PmacAes);
    let enc = encrypt_region_at(&dek, &r, 2, &plaintext, 1).unwrap();
    assert_eq!(
        to_hex(&Sha256::digest(&enc.ciphertext)),
        "0735f357add5231df1eaebe5c0d123171afdd9fbd3f16f7818ee8307393ce572"
    );
    assert_eq!(to_hex(&enc.tags), "e7f2280985c6216f71e6df880634eb60");
}
