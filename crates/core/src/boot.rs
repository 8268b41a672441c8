//! The ShEF secure boot chain (§3 steps 6–7, §4 "Secure Boot").
//!
//! ```text
//! BootROM ──authenticates──▶ SPB firmware ──measures──▶ Security Kernel
//!    │                           │                           │
//!    └─ AES device key ──HKDF──▶ attestation root            └─ Attestation Key
//!       (e-fuses)                (key store locks)              bound to (device, measurement)
//! ```
//!
//! BootROM authenticates the Manufacturer's firmware under the e-fuse
//! device key and hands the Security Kernel an [`AttestationRoot`]
//! (`Spb::boot_rom_measured`). The firmware payload is the
//! Manufacturer's [`DeviceCert`] for the identity the kernel derives
//! from that root. The kernel then extends its measurement chain with
//! its own binary and the staged encrypted accelerator bitstream, so
//! its Attestation Key — and every quote it signs — names the device,
//! the audited kernel and the bitstream at once. The IP Vendor releases
//! the Bitstream Key against exactly that measurement
//! ([`crate::workflow::IpVendor`]).
//!
//! Deterministic derivation means re-booting the same kernel and
//! bitstream on the same device reproduces the same identity, exactly
//! as the paper intends.
//!
//! [`AttestationRoot`]: shef_attest::AttestationRoot

use shef_attest::{DeviceCert, SecurityKernel};
use shef_crypto::sha2::Sha256;
use shef_fpga::board::{image_names, Board};
use shef_fpga::processor::KernelImage;

use crate::ShefError;

/// Boot-phase latency model, calibrated to the paper's Ultra96
/// measurement: "the boot process, from power-on to bitstream loading,
/// completes in 5.1 seconds" (§6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootTiming {
    /// BootROM execution + firmware decryption (ms).
    pub bootrom_ms: f64,
    /// Security Kernel read + hash (ms).
    pub measure_kernel_ms: f64,
    /// Attestation key derivation + certificate (ms).
    pub key_derivation_ms: f64,
    /// Kernel load onto the dedicated core + monitor arming (ms).
    pub kernel_start_ms: f64,
    /// Shell static-region configuration (ms).
    pub shell_load_ms: f64,
}

impl BootTiming {
    /// The Ultra96 calibration from §6.1.
    #[must_use]
    pub fn ultra96() -> Self {
        BootTiming {
            bootrom_ms: 900.0,
            measure_kernel_ms: 650.0,
            key_derivation_ms: 250.0,
            kernel_start_ms: 300.0,
            shell_load_ms: 3_000.0,
        }
    }

    /// Total boot latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.bootrom_ms
            + self.measure_kernel_ms
            + self.key_derivation_ms
            + self.kernel_start_ms
            + self.shell_load_ms
    }
}

/// Executes the full secure boot chain on a board whose boot medium
/// holds the SPB firmware, the Security Kernel and the staged encrypted
/// accelerator bitstream.
///
/// On success the Security Kernel is running on the dedicated processor
/// with the tamper monitors armed, and the returned kernel is ready to
/// answer an attestation challenge.
///
/// # Errors
///
/// * [`ShefError::Fpga`] if BootROM rejects the firmware or an image is
///   missing.
/// * [`ShefError::AttestationFailed`] if the firmware's device
///   certificate is corrupt or names another device.
pub fn secure_boot(board: &mut Board) -> Result<SecurityKernel, ShefError> {
    // 1. BootROM: authenticate the firmware, derive the root, lock the
    //    key store.
    let firmware = board.boot_medium.load(image_names::SPB_FIRMWARE)?.to_vec();
    let (payload, root) = board
        .device
        .spb
        .boot_rom_measured(&mut board.device.keystore, &firmware)?;
    let device_cert = DeviceCert::from_bytes(&payload)?;
    let mut kernel = SecurityKernel::new(root, board.device.die_serial(), device_cert)?;

    // 2. Measure the Security Kernel, then the staged bitstream.
    let binary = board
        .boot_medium
        .load(image_names::SECURITY_KERNEL)?
        .to_vec();
    kernel.load_shield_bitstream(image_names::SECURITY_KERNEL, &binary);
    kernel.load_shield_bitstream(
        image_names::ACCELERATOR_BITSTREAM,
        board.boot_medium.load(image_names::ACCELERATOR_BITSTREAM)?,
    );

    // 3. Start the kernel on its processor; it arms the monitors.
    board.device.sk_processor.load_kernel(KernelImage {
        hash: Sha256::digest(&binary),
        binary,
    });
    board.device.ports.arm_monitors();
    Ok(kernel)
}

/// Security-Kernel runtime duty: poll the tamper monitors; on any event,
/// halt the kernel, clear the PR region and report.
///
/// # Errors
///
/// Returns [`ShefError::TamperDetected`] describing the first event.
pub fn kernel_check_monitors(board: &mut Board) -> Result<(), ShefError> {
    let events = board.device.ports.take_events();
    if let Some(event) = events.first() {
        board.device.fabric.clear_partial();
        board.device.sk_processor.halt();
        return Err(ShefError::TamperDetected(format!(
            "{} access: {}",
            event.port, event.description
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{Csp, Manufacturer, SECURITY_KERNEL_BINARY};
    use shef_attest::{AttestError, AttestationRoot, ManufacturerCa, MeasurementChain};
    use shef_fpga::keystore::KeyProtection;
    use shef_fpga::spb::seal_firmware;

    const STAGED: &[u8] = b"staged encrypted accelerator bitstream";

    fn provisioned_board() -> (Board, Manufacturer) {
        let mut manufacturer = Manufacturer::new(b"boot-tests");
        let mut board = Board::new(b"die-boot-test");
        manufacturer.provision_device(&mut board).unwrap();
        Csp::new("shell-v1").rack_board(&mut board).unwrap();
        board
            .boot_medium
            .store(image_names::ACCELERATOR_BITSTREAM, STAGED.to_vec());
        (board, manufacturer)
    }

    #[test]
    fn boot_succeeds_on_provisioned_board() {
        let (mut board, _) = provisioned_board();
        let kernel = secure_boot(&mut board).unwrap();
        assert!(board.device.sk_processor.is_running());
        assert!(board.device.ports.monitors_armed());
        let mut chain = MeasurementChain::new();
        chain.extend(image_names::SECURITY_KERNEL, SECURITY_KERNEL_BINARY);
        chain.extend(image_names::ACCELERATOR_BITSTREAM, STAGED);
        assert_eq!(kernel.measurement().unwrap(), chain.current());
    }

    #[test]
    fn attestation_key_bound_to_kernel_binary() {
        let (mut board, _) = provisioned_board();
        let ak1 = secure_boot(&mut board).unwrap().ak_cert().unwrap().clone();
        // Same device, same kernel → same identity on re-boot.
        board.device.power_cycle();
        let ak2 = secure_boot(&mut board).unwrap().ak_cert().unwrap().clone();
        assert_eq!(ak1, ak2);
        // Different kernel → different identity.
        board.device.power_cycle();
        board
            .boot_medium
            .store(image_names::SECURITY_KERNEL, b"EVIL kernel".to_vec());
        let ak3 = secure_boot(&mut board).unwrap().ak_cert().unwrap().clone();
        assert_ne!(ak1.ak_public, ak3.ak_public);
        assert_ne!(ak1.measurement, ak3.measurement);
    }

    #[test]
    fn sigma_seckrnl_verifies_under_device_key() {
        // The AK certificate is the paper's σ_SecKrnl: the device
        // identity signs (measurement ∋ H(SecKrnl), AttestKey_pub).
        let (mut board, manufacturer) = provisioned_board();
        let kernel = secure_boot(&mut board).unwrap();
        let device_cert = kernel.device_cert();
        device_cert.verify(&manufacturer.ca_root()).unwrap();
        kernel
            .ak_cert()
            .unwrap()
            .verify(&device_cert.device_public)
            .unwrap();
    }

    #[test]
    fn boot_fails_with_wrong_device_key_firmware() {
        let (mut board, _) = provisioned_board();
        // Replace firmware with one sealed under a different AES key.
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0xEEu8; 32], b"firmware for another device"),
        );
        assert!(matches!(
            secure_boot(&mut board),
            Err(ShefError::Fpga(
                shef_fpga::FpgaError::FirmwareAuthentication
            ))
        ));
        assert!(!board.device.sk_processor.is_running());
    }

    /// A board whose burned key authenticates firmware carrying a CA
    /// certificate for `certified_die`'s identity.
    fn burned_board(die: &[u8], certified_die: &[u8]) -> Board {
        let mut board = Board::new(die);
        board
            .device
            .keystore
            .burn_aes_key([0x10u8; 32], KeyProtection::EFuse)
            .unwrap();
        let cert = ManufacturerCa::from_seed(b"boot-tests").certify_device(
            certified_die,
            &AttestationRoot::from_device_key(&[0x10u8; 32]),
        );
        board.boot_medium.store(
            image_names::SPB_FIRMWARE,
            seal_firmware(&[0x10u8; 32], &cert.to_bytes()),
        );
        board
    }

    #[test]
    fn boot_fails_without_kernel_image() {
        let mut board = burned_board(b"die-2", b"die-2");
        assert!(matches!(
            secure_boot(&mut board),
            Err(ShefError::Fpga(shef_fpga::FpgaError::MissingImage(_)))
        ));
    }

    #[test]
    fn forged_device_rejected() {
        // Genuine firmware whose certificate names another die.
        let mut board = burned_board(b"die-3", b"die-other");
        assert!(matches!(
            secure_boot(&mut board),
            Err(ShefError::AttestationFailed(AttestError::CertChain(_)))
        ));
        assert!(!board.device.sk_processor.is_running());
    }

    #[test]
    fn boot_timing_matches_paper() {
        let t = BootTiming::ultra96();
        assert!(
            (t.total_ms() - 5_100.0).abs() < 1.0,
            "total {}",
            t.total_ms()
        );
    }

    #[test]
    fn monitor_trip_halts_kernel() {
        let (mut board, _) = provisioned_board();
        secure_boot(&mut board).unwrap();
        board
            .device
            .fabric
            .load_partial(b"accelerator".to_vec())
            .unwrap();
        board
            .device
            .ports
            .adversarial_access(shef_fpga::ports::DebugPort::Jtag, "probe");
        let err = kernel_check_monitors(&mut board).unwrap_err();
        assert!(matches!(err, ShefError::TamperDetected(_)));
        assert!(!board.device.sk_processor.is_running());
        assert!(board.device.fabric.partial().is_none());
    }

    #[test]
    fn clean_monitors_pass() {
        let (mut board, _) = provisioned_board();
        secure_boot(&mut board).unwrap();
        kernel_check_monitors(&mut board).unwrap();
        assert!(board.device.sk_processor.is_running());
    }
}
