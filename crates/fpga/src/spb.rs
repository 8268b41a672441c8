//! The Security Processor Block (SPB).
//!
//! Xilinx and Intel FPGAs contain "a series of redundant, embedded
//! processor modules executing from BootROM and programmable firmware"
//! (§2.2) that implement bitstream decryption, authentication and tamper
//! response. ShEF reuses this block unchanged: its BootROM decrypts the
//! manufacturer's SPB firmware with the e-fuse AES device key and hands
//! control to it (§4, "Secure Boot").
//!
//! The *behaviour* after hand-off (measuring the Security Kernel,
//! deriving the Attestation Key) is ShEF logic and lives in
//! `shef-core::boot` and `shef-attest`; this module provides the hardware
//! primitive: an authenticated-decryption BootROM path that is the only
//! consumer of the device key.

use shef_crypto::authenc::{AuthEncKey, MacAlgorithm, Sealed};
use shef_crypto::{hkdf, CryptoError};

use crate::keystore::KeyStore;
use crate::FpgaError;

/// Domain-separation label for firmware encryption. The Manufacturer
/// must seal firmware with [`seal_firmware`] for BootROM to accept it.
const FIRMWARE_AD: &[u8] = b"shef.fpga.spb.firmware.v1";

/// HKDF label under which BootROM derives the attestation root from the
/// device key.
const ATTEST_ROOT_LABEL: &[u8] = b"shef.fpga.spb.attest-root.v1";

/// The secret BootROM hands to the measured Security Kernel: an HKDF
/// child of the AES device key, so attestation is rooted in the
/// SPB-burned key while the raw device key itself never leaves the SPB
/// (the key store is locked before firmware runs).
///
/// The Manufacturer knows the device key it burned, so it can derive
/// the same root with [`AttestationRoot::from_device_key`] to certify
/// the device's attestation identity without ever talking to the
/// device.
#[derive(Clone, PartialEq, Eq)]
pub struct AttestationRoot([u8; 32]);

impl core::fmt::Debug for AttestationRoot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AttestationRoot").finish_non_exhaustive()
    }
}

impl AttestationRoot {
    /// Derives the root from a raw AES device key (the Manufacturer's
    /// side of the derivation; on-device it is produced by
    /// [`Spb::boot_rom_measured`]).
    #[must_use]
    pub fn from_device_key(device_aes_key: &[u8; 32]) -> Self {
        AttestationRoot(hkdf::derive_key32(ATTEST_ROOT_LABEL, device_aes_key, b""))
    }

    /// Wraps raw root bytes (deserialization of a modelled secret).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        AttestationRoot(bytes)
    }

    /// Raw root bytes, for key derivation inside the Security Kernel.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }
}

/// Seals a firmware payload under the AES device key, as the
/// Manufacturer does before shipping the device (Fig. 2 step 2).
#[must_use]
pub fn seal_firmware(device_aes_key: &[u8; 32], payload: &[u8]) -> Vec<u8> {
    let mut key = AuthEncKey::from_bytes(*device_aes_key, MacAlgorithm::HmacSha256);
    key.seal(payload, FIRMWARE_AD).to_bytes()
}

/// The state of the SPB after BootROM has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpbState {
    /// Power-on: BootROM has not executed.
    #[default]
    Reset,
    /// Firmware decrypted and authenticated; its payload was released.
    FirmwareLoaded,
    /// BootROM rejected the firmware image.
    Faulted,
}

/// The Security Processor Block.
#[derive(Debug, Default)]
pub struct Spb {
    state: SpbState,
}

impl Spb {
    /// Creates an SPB in the reset state.
    #[must_use]
    pub fn new() -> Self {
        Spb::default()
    }

    /// Current boot state.
    #[must_use]
    pub fn state(&self) -> SpbState {
        self.state
    }

    /// Executes BootROM: reads the AES device key from the key store,
    /// decrypts and authenticates the firmware image, derives the
    /// [`AttestationRoot`] from the device key, locks the key store, and
    /// returns the firmware payload with the root. The caller (the
    /// Security Kernel model in `shef-attest`) uses the root to derive
    /// its attestation identity and keys; the raw device key stays
    /// confined to this method.
    ///
    /// Locking the key store models the hardware property that after
    /// boot hand-off no other logic can touch the device key — the basis
    /// for "the AES device key is the true root-of-trust" (§4).
    ///
    /// # Errors
    ///
    /// * [`FpgaError::KeyStore`] if no device key is burned.
    /// * [`FpgaError::FirmwareAuthentication`] if the image does not
    ///   decrypt and authenticate under the device key.
    pub fn boot_rom_measured(
        &mut self,
        keystore: &mut KeyStore,
        encrypted_firmware: &[u8],
    ) -> Result<(Vec<u8>, AttestationRoot), FpgaError> {
        let device_key = keystore.read_aes_key()?;
        let key = AuthEncKey::from_bytes(device_key, MacAlgorithm::HmacSha256);
        let sealed = Sealed::from_bytes(encrypted_firmware).map_err(|_: CryptoError| {
            self.state = SpbState::Faulted;
            FpgaError::FirmwareAuthentication
        })?;
        let payload = key.open(&sealed, FIRMWARE_AD).map_err(|_| {
            self.state = SpbState::Faulted;
            FpgaError::FirmwareAuthentication
        })?;
        let root = AttestationRoot::from_device_key(&device_key);
        keystore.lock();
        self.state = SpbState::FirmwareLoaded;
        Ok((payload, root))
    }

    /// Resets the SPB (power cycle).
    pub fn reset(&mut self) {
        self.state = SpbState::Reset;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keystore::KeyProtection;

    fn burned_keystore() -> KeyStore {
        let mut ks = KeyStore::new(b"die-test");
        ks.burn_aes_key([0x11u8; 32], KeyProtection::PufWrapped)
            .unwrap();
        ks
    }

    #[test]
    fn boot_rom_accepts_genuine_firmware() {
        let mut ks = burned_keystore();
        let enc = seal_firmware(&[0x11u8; 32], b"firmware payload");
        let mut spb = Spb::new();
        let (payload, _) = spb.boot_rom_measured(&mut ks, &enc).unwrap();
        assert_eq!(payload, b"firmware payload");
        assert_eq!(spb.state(), SpbState::FirmwareLoaded);
    }

    #[test]
    fn boot_rom_locks_keystore() {
        let mut ks = burned_keystore();
        let enc = seal_firmware(&[0x11u8; 32], b"fw");
        let mut spb = Spb::new();
        spb.boot_rom_measured(&mut ks, &enc).unwrap();
        // Second boot attempt without reset fails: key store is locked.
        assert!(matches!(
            spb.boot_rom_measured(&mut ks, &enc),
            Err(FpgaError::KeyStore(_))
        ));
    }

    #[test]
    fn boot_rom_rejects_wrong_key_firmware() {
        let mut ks = burned_keystore();
        let enc = seal_firmware(&[0x22u8; 32], b"fw built for another device");
        let mut spb = Spb::new();
        assert_eq!(
            spb.boot_rom_measured(&mut ks, &enc),
            Err(FpgaError::FirmwareAuthentication)
        );
        assert_eq!(spb.state(), SpbState::Faulted);
    }

    #[test]
    fn boot_rom_rejects_tampered_firmware() {
        let mut ks = burned_keystore();
        let mut enc = seal_firmware(&[0x11u8; 32], b"fw");
        let last = enc.len() - 1;
        enc[last] ^= 1;
        let mut spb = Spb::new();
        assert_eq!(
            spb.boot_rom_measured(&mut ks, &enc),
            Err(FpgaError::FirmwareAuthentication)
        );
    }

    #[test]
    fn boot_rom_rejects_garbage() {
        let mut ks = burned_keystore();
        let mut spb = Spb::new();
        assert_eq!(
            spb.boot_rom_measured(&mut ks, &[1, 2, 3]),
            Err(FpgaError::FirmwareAuthentication)
        );
    }

    #[test]
    fn measured_boot_matches_manufacturer_derivation() {
        let mut ks = burned_keystore();
        let enc = seal_firmware(&[0x11u8; 32], b"fw");
        let mut spb = Spb::new();
        let (_, root) = spb.boot_rom_measured(&mut ks, &enc).unwrap();
        // The Manufacturer, knowing the key it burned, derives the same
        // root off-device — that is what lets it certify the device's
        // attestation identity.
        assert_eq!(root, AttestationRoot::from_device_key(&[0x11u8; 32]));
        // The root is a domain-separated child, never the raw key.
        assert_ne!(root.to_bytes(), [0x11u8; 32]);
    }

    #[test]
    fn unburned_device_cannot_boot() {
        let mut ks = KeyStore::new(b"fresh-die");
        let enc = seal_firmware(&[0u8; 32], b"fw");
        let mut spb = Spb::new();
        assert!(matches!(
            spb.boot_rom_measured(&mut ks, &enc),
            Err(FpgaError::KeyStore(_))
        ));
    }
}
