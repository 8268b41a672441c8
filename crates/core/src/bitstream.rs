//! The ShEF partial-bitstream container.
//!
//! An IP Vendor's compiled design bundles (§3 steps 3–4): the accelerator
//! logic (opaque payload in this simulation), the Shield configuration,
//! and the embedded private Shield Encryption Key. The whole container
//! is sealed under the vendor's symmetric **Bitstream Encryption Key**,
//! providing IP confidentiality; the Security Kernel only ever decrypts
//! it in secure on-chip memory after attestation releases the key.

use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, Sealed};
use shef_crypto::ecies::EciesKeyPair;
use shef_crypto::sha2::Sha256;

use crate::shield::ShieldConfig;
use crate::wire::{Reader, Writer};
use crate::ShefError;

/// Magic prefix of a plaintext bitstream.
pub const BITSTREAM_MAGIC: &[u8; 8] = b"SHEFBITS";
/// Container format version.
pub const BITSTREAM_VERSION: u16 = 1;
/// Associated data binding sealed containers to their purpose.
const BITSTREAM_AD: &[u8] = b"shef.bitstream.v1";

/// A plaintext partial bitstream (never leaves trusted environments:
/// the vendor's workstation or the Security Kernel's on-chip memory).
#[derive(Clone)]
pub struct Bitstream {
    /// Accelerator identifier (e.g. `"dnnweaver"`).
    pub accel_id: String,
    /// The Shield configuration compiled into the design.
    pub shield_config: ShieldConfig,
    /// The private Shield Encryption Key embedded in the Shield.
    pub shield_key_seed: [u8; 32],
    /// Opaque accelerator logic payload (stands in for the netlist).
    pub logic: Vec<u8>,
}

impl core::fmt::Debug for Bitstream {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Bitstream")
            .field("accel_id", &self.accel_id)
            .field("regions", &self.shield_config.regions.len())
            .field("logic_bytes", &self.logic.len())
            .finish_non_exhaustive()
    }
}

impl Bitstream {
    /// Serializes the plaintext container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_fixed(BITSTREAM_MAGIC);
        w.put_u16(BITSTREAM_VERSION);
        w.put_str(&self.accel_id);
        w.put_bytes(&self.shield_config.to_bytes());
        w.put_fixed(&self.shield_key_seed);
        w.put_bytes(&self.logic);
        w.finish()
    }

    /// Parses a plaintext container.
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Malformed`] on bad magic/version/layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ShefError> {
        let mut r = Reader::new(bytes);
        let magic = r.get_fixed::<8>()?;
        if &magic != BITSTREAM_MAGIC {
            return Err(ShefError::Malformed("bad bitstream magic".into()));
        }
        let version = r.get_u16()?;
        if version != BITSTREAM_VERSION {
            return Err(ShefError::Malformed(format!(
                "unsupported bitstream version {version}"
            )));
        }
        let accel_id = r.get_str()?;
        let shield_config = ShieldConfig::from_bytes(&r.get_bytes()?)?;
        let shield_key_seed = r.get_fixed::<32>()?;
        let logic = r.get_bytes()?;
        r.finish()?;
        Ok(Bitstream {
            accel_id,
            shield_config,
            shield_key_seed,
            logic,
        })
    }

    /// The Shield key pair this bitstream embeds.
    #[must_use]
    pub fn shield_keypair(&self) -> EciesKeyPair {
        EciesKeyPair::from_seed(&self.shield_key_seed)
    }
}

/// The vendor's symmetric Bitstream Encryption Key.
#[derive(Clone)]
pub struct BitstreamKey(pub [u8; 32]);

impl core::fmt::Debug for BitstreamKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BitstreamKey").finish_non_exhaustive()
    }
}

impl BitstreamKey {
    fn cipher(&self) -> AuthEncKey {
        AuthEncKey::from_bytes(self.0, MacAlgorithm::HmacSha256)
    }
}

/// An encrypted bitstream as distributed on a marketplace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedBitstream(pub Vec<u8>);

impl EncryptedBitstream {
    /// Seals a plaintext bitstream (vendor side, Fig. 2 step 4).
    #[must_use]
    pub fn seal(bitstream: &Bitstream, key: &BitstreamKey) -> Self {
        let mut cipher = key.cipher();
        EncryptedBitstream(cipher.seal(&bitstream.to_bytes(), BITSTREAM_AD).to_bytes())
    }

    /// Opens an encrypted bitstream (Security Kernel side, after the key
    /// arrives over the attestation session).
    ///
    /// # Errors
    ///
    /// Returns [`ShefError::Crypto`] if the key is wrong or the
    /// container was tampered with.
    pub fn open(&self, key: &BitstreamKey) -> Result<Bitstream, ShefError> {
        let sealed = Sealed::from_bytes(&self.0)?;
        let plain = key.cipher().open(&sealed, BITSTREAM_AD)?;
        Bitstream::from_bytes(&plain)
    }

    /// SHA-256 of the encrypted container, `H(Enc_BitstrKey(Accelerator))`.
    /// Attestation does not compare it directly: the Security Kernel
    /// folds the whole container into its measurement chain.
    #[must_use]
    pub fn hash(&self) -> [u8; 32] {
        Sha256::digest(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shield::{EngineSetConfig, MemRange};

    fn bitstream() -> Bitstream {
        Bitstream {
            accel_id: "vecadd".into(),
            shield_config: ShieldConfig::builder()
                .region("in", MemRange::new(0, 4096), EngineSetConfig::default())
                .build()
                .unwrap(),
            shield_key_seed: [0x77u8; 32],
            logic: vec![0xAB; 1000],
        }
    }

    #[test]
    fn plaintext_round_trip() {
        let b = bitstream();
        let parsed = Bitstream::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(parsed.accel_id, "vecadd");
        assert_eq!(parsed.shield_config, b.shield_config);
        assert_eq!(parsed.logic, b.logic);
        assert_eq!(parsed.shield_key_seed, b.shield_key_seed);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = bitstream().to_bytes();
        bytes[0] ^= 1;
        assert!(Bitstream::from_bytes(&bytes).is_err());
    }

    #[test]
    fn encrypted_round_trip() {
        let b = bitstream();
        let key = BitstreamKey([9u8; 32]);
        let enc = EncryptedBitstream::seal(&b, &key);
        let opened = enc.open(&key).unwrap();
        assert_eq!(opened.accel_id, b.accel_id);
        // Ciphertext does not contain the shield key seed in the clear.
        let needle = &b.shield_key_seed[..];
        assert!(!enc.0.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn wrong_key_rejected() {
        let enc = EncryptedBitstream::seal(&bitstream(), &BitstreamKey([1u8; 32]));
        assert!(enc.open(&BitstreamKey([2u8; 32])).is_err());
    }

    #[test]
    fn tampering_rejected() {
        let mut enc = EncryptedBitstream::seal(&bitstream(), &BitstreamKey([1u8; 32]));
        let n = enc.0.len();
        enc.0[n / 2] ^= 0x40;
        assert!(enc.open(&BitstreamKey([1u8; 32])).is_err());
    }

    #[test]
    fn hash_is_stable_and_tamper_evident() {
        let key = BitstreamKey([1u8; 32]);
        let enc = EncryptedBitstream::seal(&bitstream(), &key);
        let h1 = enc.hash();
        assert_eq!(h1, enc.hash());
        let mut tampered = enc.clone();
        tampered.0[0] ^= 1;
        assert_ne!(h1, tampered.hash());
    }

    #[test]
    fn shield_keypair_is_deterministic() {
        let b = bitstream();
        assert_eq!(
            b.shield_keypair().public_key(),
            b.shield_keypair().public_key()
        );
    }
}
