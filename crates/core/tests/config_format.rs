//! Pins the `ShieldConfig` wire format byte for byte.
//!
//! `ShieldConfig::to_bytes` is hashed into every bitstream, and the
//! IP Vendor signs that hash, so a config that encodes differently is a
//! different, unsigned design. A round trip through `from_bytes` cannot
//! see such drift: encoder and decoder would drift together. The values
//! below pin one config per replay defence, so the in-memory shape of
//! the engine set's freshness knob may change while its bytes may not.

use shef_core::shield::merkle::MerkleConfig;
use shef_core::shield::{
    EngineSetConfig, Freshness, MemRange, RegisterInterfaceConfig, ShieldConfig,
};
use shef_crypto::aes::{AesKeySize, SBoxParallelism};
use shef_crypto::authenc::MacAlgorithm;
use shef_crypto::{from_hex, to_hex};

/// `(label, describe() suffix, pinned hex)` per replay defence. Each hex
/// value is laid out one line per part: region count, name and range;
/// engines, chunk size and buffer size; then the replay-defence bytes
/// (counters bool, zero-fill bool, tree-present bool, the tree config if
/// present) and the register interface.
const PINNED: [(&str, &str, &str); 3] = [
    ("mac_only", ", buf=4KB", MAC_ONLY),
    ("counters", ", buf=4KB, counters", COUNTERS),
    ("merkle", ", buf=4KB, BMT(arity=4, cache=512B)", MERKLE),
];

const MAC_ONLY: &str = "010000000400000000000000666d617000100000000000000000010000000000\
    020000000400000001010300000000010000000000000010000000000000\
    0001000800000001";
const COUNTERS: &str = "010000000400000000000000666d617000100000000000000000010000000000\
    020000000400000001010300000000010000000000000010000000000000\
    0101000800000001";
const MERKLE: &str = "010000000400000000000000666d617000100000000000000000010000000000\
    020000000400000001010300000000010000000000000010000000000000\
    0001010400000000020000000000000800000001";

fn engine_set(label: &str) -> EngineSetConfig {
    let mut es = EngineSetConfig {
        aes_engines: 2,
        sbox: SBoxParallelism::X4,
        key_size: AesKeySize::Aes256,
        mac: MacAlgorithm::PmacAes,
        mac_engines: 3,
        chunk_size: 256,
        buffer_bytes: 4096,
        zero_fill_writes: true,
        ..EngineSetConfig::default()
    };
    es.freshness = match label {
        "mac_only" => Freshness::None,
        "counters" => Freshness::Counters,
        "merkle" => Freshness::Merkle(MerkleConfig {
            arity: 4,
            node_cache_bytes: 512,
        }),
        other => unreachable!("unknown scheme {other}"),
    };
    es
}

fn config(label: &str) -> ShieldConfig {
    ShieldConfig::builder()
        .region("fmap", MemRange::new(0x1000, 64 * 1024), engine_set(label))
        .register_interface(RegisterInterfaceConfig {
            num_registers: 8,
            hide_addresses: true,
        })
        .build()
        .unwrap()
}

#[test]
fn config_bytes_are_pinned_for_every_scheme() {
    for (label, _, hex) in PINNED {
        assert_eq!(to_hex(&config(label).to_bytes()), hex, "{label}");
    }
}

#[test]
fn pinned_bytes_decode_to_their_scheme() {
    for (label, suffix, hex) in PINNED {
        let bytes = from_hex(hex).unwrap();
        let parsed = ShieldConfig::from_bytes(&bytes).unwrap();
        parsed.validate().unwrap();
        let es = &parsed.regions[0].engine_set;
        assert_eq!(
            es.describe(),
            format!("AES-256/4x ×2 + PMAC ×3, C=256B{suffix}"),
            "{label}"
        );
        assert!(es.zero_fill_writes, "{label}");
        assert_eq!(parsed.to_bytes(), bytes, "{label}");
    }
}
