//! From-scratch cryptographic primitives for the ShEF cloud-FPGA TEE.
//!
//! This crate implements every primitive the ShEF workflow depends on,
//! mirroring the soft-logic engines described in the paper (§5) and the
//! protocol-level asymmetric cryptography (§3–§4):
//!
//! * [`aes`] — AES-128/AES-256 block cipher, the Shield's encryption
//!   engine. The implementation is fixsliced and constant-time (no S-box
//!   table); the Shield's configurable *S-box parallelism* lives in the
//!   timing model as [`aes::SBoxParallelism`].
//! * [`ctr`] — AES-CTR mode with the paper's 12-byte IV + 4-byte counter.
//! * [`sha2`] — SHA-256 (Shield HMAC engine, Bitcoin accelerator) and
//!   SHA-512 (Ed25519).
//! * [`hmac`] — HMAC, the Shield's default authentication engine.
//! * [`pmac`] — a parallelizable MAC over AES, the Shield's alternative
//!   authentication engine (§6.2.4).
//! * [`field25519`], [`edwards`], [`scalar25519`] — Curve25519 arithmetic.
//! * [`x25519`] — Diffie–Hellman key exchange used to derive the
//!   attestation `SessionKey` (Fig. 3).
//! * [`ed25519`] — signatures standing in for the paper's RSA/ECDSA
//!   device and attestation keys.
//! * [`hkdf`] — key derivation for session/data keys.
//! * [`drbg`] — HMAC-DRBG; all key generation in the workspace is
//!   deterministic given a seed, which keeps experiments reproducible.
//! * [`authenc`] — encrypt-then-MAC authenticated encryption
//!   (AES-CTR + HMAC or PMAC), the Shield's core mechanism.
//! * [`ecies`] — asymmetric encryption (ephemeral X25519 + HKDF +
//!   authenticated encryption) used for the Load Key path (Fig. 3, step 8).
//!
//! # Example
//!
//! ```
//! use shef_crypto::authenc::{AuthEncKey, MacAlgorithm};
//!
//! let mut key = AuthEncKey::from_bytes([7u8; 32], MacAlgorithm::HmacSha256);
//! let sealed = key.seal(b"sensitive accelerator data", b"region-0");
//! let opened = key.open(&sealed, b"region-0").expect("tag verifies");
//! assert_eq!(opened, b"sensitive accelerator data");
//! ```
//!
//! # Security note
//!
//! This is a research reproduction executed inside a simulator. The
//! implementations are correct against the standard test vectors but have
//! not been hardened against real-world side channels; do not use them to
//! protect production data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod authenc;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod ecies;
pub mod ed25519;
pub mod edwards;
pub mod field25519;
pub mod gcm;
pub mod ghash;
pub mod hkdf;
pub mod hmac;
pub mod pmac;
pub mod scalar25519;
pub mod sha2;
pub mod x25519;

mod hex;

pub use hex::{from_hex, to_hex};

/// Error returned when an authentication tag or signature fails to verify.
///
/// The variants deliberately carry no plaintext-derived data, matching the
/// behaviour of a hardware engine that only raises an error line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoError {
    /// A MAC tag did not match the expected value.
    TagMismatch,
    /// A signature failed verification.
    BadSignature,
    /// An encoded public key or point was not a valid curve element.
    InvalidPoint,
    /// Input had an invalid length for the requested operation.
    InvalidLength,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CryptoError::InvalidLength => write!(f, "invalid input length"),
        }
    }
}

impl std::error::Error for CryptoError {}
