//! Fuzz-style tests over the protocol wire formats: every byte-slice
//! decoder is total (it returns `Ok` or `Err`, never panics), and
//! corrupted bitstreams, configs, load keys and stream frames are
//! rejected cleanly rather than silently accepted.

use proptest::prelude::*;
use shef::attest::{
    AkCert, AttestationEnvironment, AttestationRoot, AttestationTicket, DeviceCert, ManufacturerCa,
    Quote, SealedDek,
};
use shef::core::bitstream::{Bitstream, BitstreamKey, EncryptedBitstream};
use shef::core::shield::{
    DataEncryptionKey, EngineSetConfig, LoadKey, MemRange, MerkleConfig, ShieldConfig,
    StreamEndpoint, StreamFrame,
};
use shef::crypto::authenc::MacAlgorithm;
use shef::crypto::drbg::HmacDrbg;
use shef::crypto::ecies::EciesKeyPair;

fn sample_bitstream() -> Bitstream {
    Bitstream {
        accel_id: "fuzz".into(),
        shield_config: ShieldConfig::builder()
            .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
            .build()
            .unwrap(),
        shield_key_seed: [7u8; 32],
        logic: vec![1, 2, 3, 4],
    }
}

/// A config carrying a Merkle-protected region.
fn merkle_config() -> ShieldConfig {
    let es = EngineSetConfig {
        chunk_size: 64,
        merkle: Some(MerkleConfig {
            arity: 8,
            node_cache_bytes: 4096,
        }),
        ..EngineSetConfig::default()
    };
    ShieldConfig::builder()
        .region("fmap", MemRange::new(0, 1 << 20), es)
        .build()
        .unwrap()
}

fn stream_endpoints() -> (StreamEndpoint, StreamEndpoint) {
    let dek = DataEncryptionKey::from_bytes([0x13u8; 32]);
    (
        StreamEndpoint::client_side(&dek, "fuzz", MacAlgorithm::HmacSha256),
        StreamEndpoint::shield_side(&dek, "fuzz", MacAlgorithm::HmacSha256),
    )
}

/// One decoder under the totality check: a valid encoding and a probe
/// that decodes the input and validates every `Ok` result it can.
struct Decoder {
    name: &'static str,
    valid: Vec<u8>,
    probe: fn(&[u8]),
}

/// Every fallible `pub fn from_bytes(&[u8])` outside `shef-crypto`. CI
/// fails when a decoder appears under `crates/*/src` without an entry
/// here.
fn decoders() -> Vec<Decoder> {
    let mut env = AttestationEnvironment::new(b"protocol-fuzz").unwrap();
    let challenge = env.verifier_mut().challenge();
    let quote = env.kernel_mut().quote(&challenge).unwrap();
    let ticket = env
        .verifier_mut()
        .verify_and_provision(&quote, "fuzz", [9u8; 32])
        .unwrap();
    let device_cert = ManufacturerCa::from_seed(b"protocol-fuzz")
        .certify_device(b"die-fuzz", &AttestationRoot::from_device_key(&[1u8; 32]));
    let load_key = DataEncryptionKey::from_bytes([3u8; 32])
        .to_load_key(&EciesKeyPair::from_seed(b"fuzz-target").public_key());
    let frame = stream_endpoints().0.send(b"fuzz payload");
    vec![
        Decoder {
            name: "DeviceCert",
            valid: device_cert.to_bytes(),
            probe: |b| {
                let _ = DeviceCert::from_bytes(b);
            },
        },
        Decoder {
            name: "AkCert",
            valid: quote.ak_cert.to_bytes(),
            probe: |b| {
                let _ = AkCert::from_bytes(b);
            },
        },
        Decoder {
            name: "Quote",
            valid: quote.to_bytes(),
            probe: |b| {
                let _ = Quote::from_bytes(b);
            },
        },
        Decoder {
            name: "SealedDek",
            valid: ticket.sealed_dek().to_bytes(),
            probe: |b| {
                let _ = SealedDek::from_bytes(b);
            },
        },
        Decoder {
            name: "AttestationTicket",
            valid: ticket.to_bytes(),
            probe: |b| {
                let _ = AttestationTicket::from_bytes(b);
            },
        },
        Decoder {
            name: "Bitstream",
            valid: sample_bitstream().to_bytes(),
            probe: |b| {
                if let Ok(bitstream) = Bitstream::from_bytes(b) {
                    let _ = bitstream.shield_config.validate();
                }
            },
        },
        Decoder {
            name: "ShieldConfig",
            valid: merkle_config().to_bytes(),
            probe: |b| {
                if let Ok(config) = ShieldConfig::from_bytes(b) {
                    let _ = config.validate();
                }
            },
        },
        Decoder {
            name: "LoadKey",
            valid: load_key.to_bytes(),
            probe: |b| {
                let _ = LoadKey::from_bytes(b);
            },
        },
        Decoder {
            name: "StreamFrame",
            valid: frame.to_bytes(),
            probe: |b| {
                let _ = StreamFrame::from_bytes(b);
            },
        },
    ]
}

/// Every truncation, every single-bit flip, a forged length prefix of
/// each codec (`u32::MAX` big-endian for `shef-attest`, `u64::MAX`
/// little-endian for `shef-core`) at every offset, and a few garbage
/// buffers.
fn hostile_inputs(valid: &[u8]) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for bit in 0..valid.len() * 8 {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        inputs.push(flipped);
    }
    for forged in [&u32::MAX.to_be_bytes()[..], &u64::MAX.to_le_bytes()[..]] {
        for at in 0..=valid.len().saturating_sub(forged.len()) {
            let mut prefixed = valid.to_vec();
            prefixed[at..at + forged.len()].copy_from_slice(forged);
            inputs.push(prefixed);
        }
    }
    let mut rng = HmacDrbg::from_seed(b"protocol-fuzz.garbage");
    inputs.extend((0..300).step_by(20).map(|len| {
        let mut garbage = vec![0u8; len];
        rng.fill_bytes(&mut garbage);
        garbage
    }));
    inputs
}

#[test]
fn every_decoder_is_total() {
    for decoder in decoders() {
        (decoder.probe)(&decoder.valid);
        for input in hostile_inputs(&decoder.valid) {
            let outcome = std::panic::catch_unwind(|| (decoder.probe)(&input));
            assert!(
                outcome.is_ok(),
                "{} decoder panicked on {input:02x?}",
                decoder.name
            );
        }
    }
}

proptest! {
    #[test]
    fn corrupted_encrypted_bitstreams_are_rejected(idx in 0usize..256, xor in 1u8..=255) {
        let key = BitstreamKey([9u8; 32]);
        let enc = EncryptedBitstream::seal(&sample_bitstream(), &key);
        prop_assume!(idx < enc.0.len());
        let mut corrupted = enc.clone();
        corrupted.0[idx] ^= xor;
        prop_assert!(corrupted.open(&key).is_err());
    }

    #[test]
    fn garbage_load_keys_fail_cleanly(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        match LoadKey::from_bytes(&bytes) {
            Err(_) => {}
            Ok(lk) => {
                // Structurally valid garbage must still fail provisioning.
                let config = ShieldConfig::builder()
                    .region("r", MemRange::new(0, 4096), EngineSetConfig::default())
                    .build()
                    .unwrap();
                let mut shield = shef::core::shield::Shield::new(
                    config,
                    EciesKeyPair::from_seed(b"fuzz-target"),
                )
                .unwrap();
                prop_assert!(shield.provision_load_key(&lk).is_err());
            }
        }
    }

    #[test]
    fn corrupted_merkle_configs_never_silently_roundtrip(idx in 0usize..200, xor in 1u8..=255) {
        // Any byte flip in the serialized config either fails to parse
        // or parses to a different config (caught by the bitstream hash
        // upstream).
        let cfg = merkle_config();
        let bytes = cfg.to_bytes();
        prop_assume!(idx < bytes.len());
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= xor;
        match ShieldConfig::from_bytes(&corrupted) {
            Err(_) => {}
            Ok(parsed) => prop_assert_ne!(parsed, cfg),
        }
    }

    #[test]
    fn stream_frames_reject_garbage_and_corruption(idx in 0usize..200, xor in 1u8..=255) {
        // A real frame with one byte flipped must never be accepted
        // (garbage frames are covered by `every_decoder_is_total`).
        let (mut client, mut shield) = stream_endpoints();
        let wire = client.send(b"fuzz payload").to_bytes();
        prop_assume!(idx < wire.len());
        let mut corrupted = wire.clone();
        corrupted[idx] ^= xor;
        if let Ok(frame) = StreamFrame::from_bytes(&corrupted) {
            prop_assert!(shield.recv(&frame).is_err());
        }
    }
}
