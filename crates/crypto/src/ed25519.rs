//! Ed25519 signatures (RFC 8032).
//!
//! In the ShEF workflow these stand in for the Manufacturer's asymmetric
//! *device key* (embedded in the encrypted SPB firmware), the boot-derived
//! *Attestation Key*, and the CA keys of the PKI (§3 steps 1–2, §4).
//! The paper says "e.g., RSA or ECDSA"; Ed25519 plays the same role with
//! a smaller, auditable implementation.
//!
//! # Example
//!
//! ```
//! use shef_crypto::ed25519::SigningKey;
//!
//! let key = SigningKey::from_seed(&[5u8; 32]);
//! let sig = key.sign(b"attestation report");
//! assert!(key.verifying_key().verify(b"attestation report", &sig).is_ok());
//! ```

use crate::edwards::EdwardsPoint;
use crate::scalar25519::Scalar;
use crate::sha2::Sha512;
use crate::CryptoError;

/// Length of an Ed25519 signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a public (verifying) key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a private seed in bytes.
pub const SEED_LEN: usize = 32;

/// An Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({}…)", crate::to_hex(&self.0[..8]))
    }
}

impl Signature {
    /// Parses a signature from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `bytes` is not 64 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let arr: [u8; SIGNATURE_LEN] = bytes.try_into().map_err(|_| CryptoError::InvalidLength)?;
        Ok(Signature(arr))
    }

    /// Raw byte representation.
    #[must_use]
    pub fn to_bytes(self) -> [u8; SIGNATURE_LEN] {
        self.0
    }
}

/// A public key that can verify signatures.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl core::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "VerifyingKey({})", crate::to_hex(&self.0))
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if verification fails, or
    /// [`CryptoError::InvalidPoint`] if the key or the signature's `R`
    /// component is not a valid curve point.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let a = EdwardsPoint::decompress(&self.0).ok_or(CryptoError::InvalidPoint)?;
        let r_bytes: [u8; 32] = signature.0[..32].try_into().expect("32-byte R");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("32-byte S");
        if !Scalar::is_canonical(&s_bytes) {
            return Err(CryptoError::BadSignature);
        }
        let r = EdwardsPoint::decompress(&r_bytes).ok_or(CryptoError::InvalidPoint)?;
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());
        // Check S·B == R + k·A.
        let lhs = EdwardsPoint::mul_base(&s_bytes);
        let rhs = r.add(&a.mul_bits(&k.to_bytes()));
        if lhs == rhs {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

/// A private signing key.
///
/// Holds the RFC 8032 expanded secret: the clamped scalar `a` and the
/// prefix used to derive per-signature nonces deterministically.
#[derive(Clone)]
pub struct SigningKey {
    scalar: [u8; 32],
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print secret material.
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 key generation).
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        let digest = Sha512::digest(seed);
        let mut scalar: [u8; 32] = digest[..32].try_into().expect("lower half");
        scalar[0] &= 248;
        scalar[31] &= 127;
        scalar[31] |= 64;
        let prefix: [u8; 32] = digest[32..].try_into().expect("upper half");
        let public_point = EdwardsPoint::mul_base(&scalar);
        SigningKey {
            scalar,
            prefix,
            public: VerifyingKey(public_point.compress()),
        }
    }

    /// The corresponding public key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message` deterministically.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_wide(&h.finalize());
        let r_point = EdwardsPoint::mul_base(&r.to_bytes());
        let r_bytes = r_point.compress();

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.public.0);
        h.update(message);
        let k = Scalar::from_bytes_wide(&h.finalize());
        let a = Scalar::from_bytes(&self.scalar);
        let s = k.mul_add(&a, &r);

        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_hex, to_hex};

    #[test]
    fn rfc8032_test_1_empty_message() {
        let seed: [u8; 32] =
            from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60")
                .unwrap()
                .try_into()
                .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            to_hex(&key.verifying_key().0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            to_hex(&sig.0),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(key.verifying_key().verify(b"", &sig).is_ok());
    }

    #[test]
    fn rfc8032_test_2_one_byte() {
        let seed: [u8; 32] =
            from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
                .unwrap()
                .try_into()
                .unwrap();
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            to_hex(&key.verifying_key().0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            to_hex(&sig.0),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(key.verifying_key().verify(&[0x72], &sig).is_ok());
    }

    #[test]
    fn rfc8032_test_3_two_bytes() {
        let seed: [u8; 32] =
            from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7")
                .unwrap()
                .try_into()
                .unwrap();
        let key = SigningKey::from_seed(&seed);
        let msg = from_hex("af82").unwrap();
        let sig = key.sign(&msg);
        assert_eq!(
            to_hex(&sig.0),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(key.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn rejects_wrong_message() {
        let key = SigningKey::from_seed(&[42u8; 32]);
        let sig = key.sign(b"correct");
        assert_eq!(
            key.verifying_key().verify(b"wrong", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn rejects_tampered_signature() {
        let key = SigningKey::from_seed(&[42u8; 32]);
        let mut sig = key.sign(b"message");
        sig.0[40] ^= 1;
        assert!(key.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn rejects_wrong_key() {
        let key1 = SigningKey::from_seed(&[1u8; 32]);
        let key2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = key1.sign(b"message");
        assert!(key2.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn rejects_non_canonical_s() {
        let key = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = key.sign(b"m");
        // Force S >= l by setting high bits.
        sig.0[63] |= 0xf0;
        assert!(key.verifying_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn signature_parsing() {
        let key = SigningKey::from_seed(&[9u8; 32]);
        let sig = key.sign(b"x");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert_eq!(
            Signature::from_bytes(&[0u8; 10]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let key = SigningKey::from_seed(&[0xaau8; 32]);
        let dbg = format!("{key:?}");
        assert!(dbg.contains("VerifyingKey"));
        assert!(!dbg.contains(&to_hex(&key.scalar)));
    }
}
