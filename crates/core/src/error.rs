//! Error types for the ShEF core.

use shef_attest::AttestError;
use shef_crypto::CryptoError;
use shef_fpga::FpgaError;

use crate::fault::ShieldFault;

/// Errors raised anywhere in the ShEF workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShefError {
    /// A cryptographic operation failed (tag mismatch, bad signature…).
    Crypto(CryptoError),
    /// The platform substrate raised an error.
    Fpga(FpgaError),
    /// A message or image failed to deserialize.
    Malformed(String),
    /// Attestation failed verification; the typed check names the
    /// reason.
    AttestationFailed(AttestError),
    /// The Shield detected an integrity violation (spoof/splice/replay).
    IntegrityViolation(String),
    /// An operation required a key that has not been provisioned.
    KeyNotProvisioned(String),
    /// A Shield configuration is invalid (overlapping regions, zero
    /// engines…).
    InvalidConfig(String),
    /// The secure-boot chain failed.
    BootFailed(String),
    /// Tampering was detected by the Security Kernel's monitors.
    TamperDetected(String),
    /// An access fell outside every configured Shield region.
    UnmappedAddress(u64),
    /// A party violated protocol order (e.g. loading a bitstream before
    /// attestation).
    ProtocolViolation(String),
    /// A contained Shield datapath fault with defined degradation
    /// semantics (lane panic after drain, poisoned engine set…).
    Fault(ShieldFault),
}

impl core::fmt::Display for ShefError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShefError::Crypto(e) => write!(f, "crypto error: {e}"),
            ShefError::Fpga(e) => write!(f, "platform error: {e}"),
            ShefError::Malformed(m) => write!(f, "malformed input: {m}"),
            ShefError::AttestationFailed(m) => write!(f, "attestation failed: {m}"),
            ShefError::IntegrityViolation(m) => write!(f, "integrity violation: {m}"),
            ShefError::KeyNotProvisioned(m) => write!(f, "key not provisioned: {m}"),
            ShefError::InvalidConfig(m) => write!(f, "invalid shield configuration: {m}"),
            ShefError::BootFailed(m) => write!(f, "secure boot failed: {m}"),
            ShefError::TamperDetected(m) => write!(f, "tamper detected: {m}"),
            ShefError::UnmappedAddress(a) => write!(f, "address {a:#x} not in any shield region"),
            ShefError::ProtocolViolation(m) => write!(f, "protocol violation: {m}"),
            ShefError::Fault(e) => write!(f, "shield fault: {e}"),
        }
    }
}

impl std::error::Error for ShefError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShefError::Crypto(e) => Some(e),
            ShefError::Fpga(e) => Some(e),
            ShefError::AttestationFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for ShefError {
    fn from(e: CryptoError) -> Self {
        ShefError::Crypto(e)
    }
}

impl From<FpgaError> for ShefError {
    fn from(e: FpgaError) -> Self {
        ShefError::Fpga(e)
    }
}

impl From<AttestError> for ShefError {
    fn from(e: AttestError) -> Self {
        ShefError::AttestationFailed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ShefError::UnmappedAddress(0x1000);
        assert!(e.to_string().contains("0x1000"));
        let e: ShefError = CryptoError::TagMismatch.into();
        assert!(e.to_string().contains("tag"));
        let e: ShefError = FpgaError::FirmwareAuthentication.into();
        assert!(e.to_string().contains("firmware"));
        let e = ShefError::Fault(ShieldFault::Poisoned { region: "r".into() });
        assert!(e.to_string().contains("poisoned"));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e: ShefError = CryptoError::BadSignature.into();
        assert!(e.source().is_some());
        assert!(ShefError::Malformed("x".into()).source().is_none());
    }
}
